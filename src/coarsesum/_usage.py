"""The CLI's argparse parser, compiled only for help and usage errors; it takes the flag
table, as importing ``cli`` here would run it twice under ``python -m coarsesum.cli``."""

import argparse
import re


class _Parser(argparse.ArgumentParser):
    # argparse reads only tokens like -1 and -.5 as values, and takes -1/2 or -4,1,2 for
    # an unknown option; no option here starts so, and the subparsers are built as this
    # class too, so a token of - and a digit or . is a value, either --geometric one too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The parser of every flag in ``commands``, laid out as ``cli._COMMANDS``."""
    parser = _Parser(prog="coarsesum", description="Coarse partitions of the number line and "
                     "absorption-based coarse addition.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in commands.items():
        p, groups = sub.add_parser(name, help=text), {}
        for flag, group, kw in flags:
            if group and group not in groups:
                groups[group] = p.add_mutually_exclusive_group(required=True)
            (groups[group] if group else p).add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser
