"""Exact rational parsing and formatting.

Every quantity in this package is a :class:`fractions.Fraction`; floats never
enter a computation.  These helpers pin down the one wire format ("p/q"), the
decimal rendering used in human-readable tables, and the one writer of rows, kept in
``_rows`` and compiled at its first call.
"""

from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse ``"p/q"``, exact decimal strings (``"0.5"`` -> 1/2) or integers."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    text = str(value).strip()
    num, slash, den = text.partition("/")  # [-]digits[/digits] go to int(), cheaper
    try:
        if num[num[:1] == "-":].isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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


def write_rows(head, rows, fmt: str) -> str:
    """Rows of exact values as JSON lines, CSV under a header, or an aligned table: see
    :func:`coarsesum._rows.write_rows`, which only a command that writes rows compiles."""
    from ._rows import write_rows
    return write_rows(head, rows, fmt)
