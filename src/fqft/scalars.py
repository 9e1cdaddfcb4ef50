"""Exact scalar values of the form  c * prod_p p^{e_p} * e^{t}.

Used by the geometry module to keep non-integer powers exact: annulus
entries (r/R)^(E + 1/12) in the unshifted convention, and cylinder entries
exp(-H*E).  Rational bases are reduced to prime factorizations so equality
is structural, never heuristic.  Also holds the JSON scalar codec that every
report and golden file uses.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs are small radii ratios)."""
    if n <= 0:
        raise ValueError("factorization requires a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PowerValue:
    """Canonical product  coeff * prod p^{e_p} * exp(e_exp).

    Integer parts of the prime exponents are folded into the rational
    coefficient, and zero carries no exponents, so two values are equal iff
    their fields are equal.
    """

    __slots__ = ("coeff", "prime_exps", "e_exp")

    def __init__(self, coeff=1, prime_exps=None, e_exp=Fraction(0)):
        self.coeff = Fraction(coeff)
        self.e_exp = Fraction(e_exp)
        exps: dict[int, Fraction] = {}
        for p, e in (prime_exps or {}).items():
            e = Fraction(e)
            if e:
                exps[p] = exps.get(p, Fraction(0)) + e
        self.prime_exps = {}
        # fold integer parts into coeff, keep fractional part in [0, 1)
        for p, e in sorted(exps.items()):
            whole = math.floor(e)
            frac = e - whole
            if whole:
                self.coeff *= Fraction(p) ** whole
            if frac:
                self.prime_exps[p] = frac
        if self.coeff == 0:
            self.prime_exps = {}
            self.e_exp = Fraction(0)

    @classmethod
    def from_pow(cls, base, exponent) -> "PowerValue":
        base = Fraction(base)
        if base <= 0:
            raise ValueError("base must be positive")
        exponent = Fraction(exponent)
        exps: dict[int, Fraction] = {}
        for p, k in _factorint(base.numerator).items():
            exps[p] = exps.get(p, Fraction(0)) + k * exponent
        for p, k in _factorint(base.denominator).items():
            exps[p] = exps.get(p, Fraction(0)) - k * exponent
        return cls(1, exps)

    @classmethod
    def from_exp(cls, t) -> "PowerValue":
        """exp(t) for exact rational t, kept symbolic."""
        return cls(1, None, Fraction(t))

    def __mul__(self, other):
        if isinstance(other, PowerValue):
            exps = dict(self.prime_exps)
            for p, e in other.prime_exps.items():
                exps[p] = exps.get(p, Fraction(0)) + e
            return PowerValue(self.coeff * other.coeff, exps, self.e_exp + other.e_exp)
        return PowerValue(self.coeff * Fraction(other), self.prime_exps, self.e_exp)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerValue(other)
        if not isinstance(other, PowerValue):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.prime_exps == other.prime_exps
            and self.e_exp == other.e_exp
        )

    def __hash__(self):
        return hash((self.coeff, tuple(sorted(self.prime_exps.items())), self.e_exp))

    def __float__(self):
        val = float(self.coeff)
        for p, e in self.prime_exps.items():
            val *= p ** float(e)
        if self.e_exp:
            val *= math.exp(float(self.e_exp))
        return val

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __repr__(self):
        parts = [str(self.coeff)]
        parts += [f"{p}^({e})" for p, e in sorted(self.prime_exps.items())]
        if self.e_exp:
            parts.append(f"exp({self.e_exp})")
        return "*".join(parts)


def encode_scalar(x):
    """The one JSON form of a scalar: a Fraction is its str ("p/q", "3" when
    integral), numpy values become Python numbers, bool/int/float/str/None
    pass through, and anything else (sympy, PowerValue) is its str."""
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "tolist"):  # numpy scalar or array, duck-typed so numpy stays unimported
        return x.tolist()
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def decode_scalar(x):
    """Inverse of encode_scalar on exact values: str and int become
    Fractions, floats are left alone."""
    return Fraction(x) if isinstance(x, (str, int)) else x
