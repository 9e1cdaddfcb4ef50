"""Exact scalar rules and the JSON scalar codec.

canonical_rational is the one form of an exact rational: the exponent
rule of every Laurent-log key (fqft.rexp's RExpansion and LogPoly) and
of every mode-operator entry (fqft.fock), and _rational the coercion of
an exact coefficient.  The JSON scalar codec is the one every report and
golden file uses.
"""

from __future__ import annotations

from fractions import Fraction


def canonical_rational(x):
    """A rational, as an int when integral: keys holding it then hash as
    fast as tuples of ints (hashing a Fraction is slow), and arithmetic on
    it skips Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _rational(c):
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def encode_scalar(x):
    """The one JSON form of a scalar: a Fraction is its str ("p/q", "3" when
    integral), numpy values become Python numbers, bool/int/float/str/None
    pass through, and anything else (a LogPoly) is its str."""
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "tolist"):  # numpy scalar or array, duck-typed so numpy stays unimported
        return x.tolist()
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


# Bound on a decoded string, checked before Fraction expands it: at most
# this many characters, and a decimal exponent of at most this magnitude.
# Fraction("1e999999999") would build a billion-digit integer; within the
# bound a value has at most 2 000 digits.  (JSON ints come parsed already.)
SCALAR_MAX_DIGITS = 1000


def decode_scalar(x):
    """Inverse of encode_scalar on exact values: str and int become
    Fractions, floats are left alone.  A bool is not a number and raises
    ValueError, as does a string past SCALAR_MAX_DIGITS; a zero denominator
    raises ZeroDivisionError."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is a bool, not a number")
    if isinstance(x, str):
        if len(x) > SCALAR_MAX_DIGITS:
            raise ValueError(f"a scalar string of more than {SCALAR_MAX_DIGITS} characters")
        _, e, exponent = x.lower().partition("e")
        if e and abs(int(exponent)) > SCALAR_MAX_DIGITS:
            raise ValueError(f"{x!r} has a decimal exponent beyond {SCALAR_MAX_DIGITS}")
    return Fraction(x) if isinstance(x, (str, int)) else x
