"""The one writer of rows, for fold steps and partition cells, compiled only by a command
that writes rows; see :func:`coarsesum.rationals.write_rows`."""

from fractions import Fraction
from functools import partial
from itertools import islice, takewhile
from operator import is_

from . import rationals  # its formatters are read at each call, where a patch of them shows


def _render_runs(render, column) -> list:
    """``render`` of each value, called once per run of the identical value object."""
    texts, last, text = [], object(), None  # no value is ``last`` before the first
    for value in column:
        if value is not last:
            last, text = value, render(value)
        texts.append(text)
    return texts


def write_rows(head, rows, fmt: str) -> str:
    """Rows of exact values as JSON lines, CSV under a header, or an aligned table.

    Keys are identifiers, and each column holds one kind, read off its first row: int,
    bool, or rational (which may hold ints).  Rationals are ``p/q``, quoted in JSON, and
    decimals in tables; bools are ``true``/``false``, and ``yes``/``no`` in tables; ints
    print as ``str`` prints them.  A run of one rational object down a column, as a
    pinned fold's sums, is rendered once.  So are the fields after the first of the
    trailing rows that hold the last row's objects there, as a settled fold's rows do:
    each such row is its first field's text before one shared tail.  JSON and table
    rows fill one ``%`` line template.
    """
    if not rows:  # the header alone
        return "" if fmt == "json" else ",".join(head) if fmt == "csv" else "  ".join(head).rstrip()
    rational, no, yes = ((rationals.format_decimal, "no", "yes") if fmt == "table"
                         else (rationals.format_rational, "false", "true"))
    columns = [*zip(*rows)]
    run = len(columns[0]) - 1  # rows before the last that hold its objects after the first field
    for c in columns[1:]:
        run = len([*takewhile(partial(is_, c[-1]), islice(reversed(c), 1, run + 1))])
    k, fields, tail = len(columns[0]) - run, [], []  # rows 1..k are written field by field
    for j, (key, c) in enumerate(zip(head, columns)):
        c = c[:k] if j else c
        q = '"' if isinstance(c[0], Fraction) else ""
        texts = (_render_runs(rational, c) if q else [yes if v else no for v in c]
                 if isinstance(c[0], bool) else map(str, c))
        if fmt == "table":  # as wide as the widest text of every row
            texts = [*texts]
        fields.append(f'"{key}": {q}%s{q}' if fmt == "json" else "%s" if fmt == "csv" else
                      "%%-%ds" % max(len(key), max(map(len, texts))))
        tail.append(str(c[-1]) if type(texts) is map else texts[-1])
        columns[j] = iter(texts)  # a rendered column's values are let go
    sep, close = (", ", "}") if fmt == "json" else (",", "") if fmt == "csv" else ("  ", "")
    lead, line = ("{" if fmt == "json" else "") + fields[0], sep.join(["", *fields[1:]]) + close
    lines = [] if fmt == "json" else [",".join(head) if fmt == "csv" else (lead + line) % (*head,)]
    lines += map(",".join if fmt == "csv" else (lead + line).__mod__,
                 zip(islice(columns[0], k) if run else columns[0], *columns[1:]))
    lines += map((lead + (line % (*tail[1:],)).replace("%", "%%")).__mod__, columns[0])
    return "\n".join(map(str.rstrip, lines) if fmt == "table" else lines)
