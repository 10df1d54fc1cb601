"""Exact rational parsing and formatting.

Every quantity in this package is a :class:`fractions.Fraction`; floats never
enter a computation.  These helpers pin down the one wire format ("p/q"), the
decimal rendering used in human-readable tables, and the one writer of rows.
"""

from __future__ import annotations

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


def format_decimal(value) -> str:
    """Decimal rendering for tables: exact when terminating, else 6 significant digits."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    n, d, sign = abs(f.numerator), f.denominator, "-" if f.numerator < 0 else ""
    if 10**(e := d.bit_length()) % d == 0:  # d = 2**a * 5**b with a, b < e: exact in e places
        digits = str(n * 10**e // d).rjust(e + 1, "0")
        return f"{sign}{digits[:-e]}.{digits[-e:].rstrip('0')}"
    # %g's layout to six significant digits, rounded in integers: a nonterminating
    # value never ties, so its seventh digit decides, and no value is out of range
    k = 7 - (n.bit_length() - d.bit_length() - 1) * 30103 // 100000  # n/d * 10**k >= 10**6
    q = str(n * 10**k // d if k >= 0 else n // (d * 10**-k))
    x, m = len(q) - 1 - k, int(q[:6]) + (q[6] >= "5")
    if m == 10**6:  # rounded up to the next power of ten
        x, m = x + 1, 10**5
    digits = str(m).rstrip("0")
    if not -4 <= x < 6:
        head, tail, exp = digits[0], digits[1:], f"e{x:+03d}"
    elif x < 0:
        head, tail, exp = "0", "0" * (-x - 1) + digits, ""
    else:
        head, tail, exp = digits[:x + 1].ljust(x + 1, "0"), digits[x + 1:], ""
    return f"{sign}{head}.{tail}{exp}" if tail else f"{sign}{head}{exp}"


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
    pinned fold's sums, is rendered once.  JSON and table rows fill one ``%`` line template.
    """
    rational, no, yes = ((format_decimal, "no", "yes") if fmt == "table"
                         else (format_rational, "false", "true"))
    columns, fields = [], []
    for key, c in zip(head, zip(*rows)):
        q = '"' if isinstance(c[0], Fraction) else ""
        columns.append(_render_runs(rational, c) if q else
                       [yes if v else no for v in c] if isinstance(c[0], bool) else map(str, c))
        fields.append(f'"{key}": {q}%s{q}')
    if fmt == "json":
        return "\n".join(map(("{" + ", ".join(fields) + "}").__mod__, zip(*columns)))
    lines = [tuple(head), *zip(*columns)]
    if fmt == "csv":
        return "\n".join(map(",".join, lines))
    line = "  ".join("%%-%ds" % max(map(len, column)) for column in zip(*lines))
    return "\n".join(map(str.rstrip, map(line.__mod__, lines)))
