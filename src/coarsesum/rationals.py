"""Exact rational parsing and formatting.

Every quantity in this package is a :class:`fractions.Fraction`; floats never
enter a computation.  These helpers pin down the one wire format ("p/q"), the
decimal rendering used in human-readable tables, and the one writer of rows.
"""

from __future__ import annotations

import json
from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse ``"p/q"``, exact decimal strings (``"0.5"`` -> 1/2) or integers."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    text = str(value).strip()
    try:
        if text.isdecimal():  # plain digits: int() gives the same value, cheaper
            return Fraction(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {value!r}") from exc


def format_rational(value) -> str:
    """Render as ``p/q``; the denominator is kept even when it is 1."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def rational_to_json(value):
    """Integers become JSON integers, everything else a ``p/q`` string."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return f.numerator if f.denominator == 1 else format_rational(f)


def format_decimal(value, places: int = 6) -> str:
    """Decimal rendering for tables: exact when terminating, rounded otherwise."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        exp = max(twos, fives)
        scaled = abs(f.numerator) * 10**exp // f.denominator
        digits = str(scaled).rjust(exp + 1, "0")
        sign = "-" if f.numerator < 0 else ""
        return f"{sign}{digits[:-exp]}.{digits[-exp:]}"
    return f"{float(f):.{places}g}"


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

    A column's type, read off its first row, picks its text: rationals are ``p/q`` in
    JSON and CSV and decimals in tables; bools are JSON booleans, ``true``/``false`` in
    CSV and ``yes``/``no`` in tables; ints and strings stay as they are.  A run of one
    rational object down a column, as a pinned fold's sums, is rendered once.
    """
    columns = list(zip(*rows))
    if fmt == "json":
        columns = [_render_runs(format_rational, c) if isinstance(c[0], Fraction) else c
                   for c in columns]
        return "\n".join(json.dumps(dict(zip(head, row))) for row in zip(*columns))
    rational, no, yes = ((format_decimal, "no", "yes") if fmt == "table"
                         else (format_rational, "false", "true"))
    columns = [_render_runs(rational, c) if isinstance(c[0], Fraction) else
               [yes if v else no for v in c] if isinstance(c[0], bool) else map(str, c)
               for c in columns]
    lines = [head, *zip(*columns)]
    if fmt == "csv":
        return "\n".join(map(",".join, lines))
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join("  ".join(map(str.ljust, line, widths)).rstrip() for line in lines)
