"""Exact scalar values with structural equality.

PowerValue, c * prod_p p^{e_p}, keeps the geometry module's non-integer
powers exact: annulus entries (r/R)^(E + 1/12) and the disk's R^(-1/12) in
the unshifted convention.  Rational bases are reduced to prime
factorizations so equality is structural, never heuristic.

LogPoly, a finite sum of c * R^a * lam^b * (log R)^i * (log lam)^j, is the
scalar of the formal perturbation backend in fqft.deformation.

Both are immutable: no operation changes an operand, so a result may share
an operand's dict, or be the operand itself.  That makes the common products
exponent shifts.  A LogPoly times a monomial with coefficient 1 (the int 1)
moves every key and reuses the coefficients, and a zero shift returns the
operand; dilation is such a shift in lam and log(lam).  A PowerValue times
a rational keeps the operand's prime exponents and multiplies only the
coefficient, so (r/R)^(E + 1/12) is (r/R)^(1/12), factorised once, times
the rational (r/R)^E.  `products` multiplies two lists of such values
level by level, summing each pair of exponent maps once.

Also holds the JSON scalar codec that every report and golden file uses.
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
    """Canonical product  coeff * prod p^{e_p}.

    Integer parts of the prime exponents are folded into the rational
    coefficient, and zero carries no exponents, so two values are equal iff
    their fields are equal; a value equal to a rational hashes as that
    rational.  Immutable: no operation changes a value's fields, so products
    may share the `prime_exps` dict of an operand.
    """

    __slots__ = ("coeff", "prime_exps")

    def __init__(self, coeff=1, prime_exps=None):
        coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
        exps = {}
        num = den = 1  # prime powers folded into coeff
        for p, e in (prime_exps or {}).items():
            if type(e) is not Fraction:
                e = Fraction(e)
            n, d = e.numerator, e.denominator
            if 0 < n < d:  # already canonical: a fractional part in (0, 1)
                exps[p] = e
                continue
            whole, rest = divmod(n, d)  # floor, and a fractional part in [0, 1)
            if whole > 0:
                num *= p**whole
            elif whole < 0:
                den *= p**-whole
            if rest:
                exps[p] = Fraction(rest, d)
        if num != 1 or den != 1:
            coeff = Fraction(coeff.numerator * num, coeff.denominator * den)
        self.coeff = coeff
        self.prime_exps = exps if coeff else {}

    @classmethod
    def _of(cls, coeff, prime_exps):
        """Wrap canonical fields, unchecked; a zero coeff clears the exponents."""
        out = cls.__new__(cls)
        out.coeff = coeff
        out.prime_exps = prime_exps if coeff else {}
        return out

    @classmethod
    def from_pow(cls, base, exponent) -> "PowerValue":
        """base ** exponent for a positive rational base, written in canonical
        form: each prime's exponent k * a / b is split by divmod(k * a, b)
        into a whole power, folded into the coefficient, and one fractional
        part Fraction(rest, b)."""
        base = _rational(base)
        if base <= 0:
            raise ValueError("base must be positive")
        exponent = _rational(exponent)
        a, b = exponent.numerator, exponent.denominator
        exps = {}
        num = den = 1
        for n, sign in ((base.numerator, 1), (base.denominator, -1)):
            for p, k in _factorint(n).items():
                whole, rest = divmod(sign * k * a, b)
                if whole > 0:
                    num *= p**whole
                elif whole < 0:
                    den *= p**-whole
                if rest:
                    exps[p] = Fraction(rest, b)
        return cls._of(Fraction(num, den), exps)

    def __mul__(self, other):
        if isinstance(other, PowerValue):
            unit = _exponent_sum(self.prime_exps, other.prime_exps)
            return PowerValue._of(
                _coeff_product(self.coeff, other.coeff, unit.coeff), unit.prime_exps
            )
        if isinstance(other, (int, Fraction)):
            # a rational factor moves no exponent: share them
            return PowerValue._of(self.coeff * other, self.prime_exps)
        return PowerValue(self.coeff * Fraction(other), self.prime_exps)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PowerValue):
            return self.coeff == other.coeff and self.prime_exps == other.prime_exps
        if isinstance(other, (int, Fraction)):
            return not self.prime_exps and self.coeff == other
        return NotImplemented

    def __hash__(self):
        if not self.prime_exps:
            return hash(self.coeff)  # equal to a rational: hash as it does
        return hash((self.coeff, tuple(sorted(self.prime_exps.items()))))

    def __float__(self):
        val = float(self.coeff)
        # in prime order, so the rounding does not depend on the dict's order
        for p, e in sorted(self.prime_exps.items()):
            val *= p ** float(e)
        return val

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __repr__(self):
        parts = [str(self.coeff)]
        parts += [f"{p}^({e})" for p, e in sorted(self.prime_exps.items())]
        return "*".join(parts)


def _exponent_sum(ex, ey) -> PowerValue:
    """prod p^(ex_p + ey_p) in canonical form: the whole parts of the summed
    exponents folded into its coefficient, the fractional parts kept."""
    summed = dict(ex)
    for p, e in ey.items():
        summed[p] = summed[p] + e if p in summed else e
    return PowerValue(1, summed)


def _coeff_product(x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """x * y * z, normalised once."""
    return Fraction(
        x.numerator * y.numerator * z.numerator,
        x.denominator * y.denominator * z.denominator,
    )


def products(xs, ys) -> list:
    """[x * y for x, y in zip(xs, ys)], value for value and field for field.

    Two PowerValues multiply their rational coefficients only: the exponent
    maps of a pair are summed once, and the sum, with the rational its whole
    parts fold into, serves every following pair that holds the same two
    maps (level scalars of one annulus share one map).  Any other pair of
    scalars multiplies as x * y.
    """
    out = []
    maps = unit = None
    for x, y in zip(xs, ys):
        if type(x) is not PowerValue or type(y) is not PowerValue:
            out.append(x * y)
            continue
        if maps is None or x.prime_exps is not maps[0] or y.prime_exps is not maps[1]:
            maps = x.prime_exps, y.prime_exps
            unit = _exponent_sum(*maps)
        out.append(PowerValue._of(_coeff_product(x.coeff, y.coeff, unit.coeff), unit.prime_exps))
    return out


def canonical_exponent(x):
    """A rational exponent, as an int when integral: keys holding it then
    hash as fast as tuples of ints (hashing a Fraction is slow)."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _rational(c):
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _key(a, b, i, j):
    if i < 0 or j < 0:
        raise ValueError("log powers must be non-negative")
    return (canonical_exponent(a), canonical_exponent(b), int(i), int(j))


class LogPoly:
    """Exact finite sum  sum_k c_k * R^a * lam^b * (log R)^i * (log lam)^j.

    The scalars of the formal perturbation backend.  `terms` maps
    (a, b, i, j) to a nonzero rational c (int or Fraction), with rational
    powers a, b (ints when integral) and log powers i, j >= 0.  Zero stores
    no terms, so equality and the zero test are structural.  Closed under
    +, -, * and the radius substitution R -> lam R (`scale_radius`).

    Immutable: `terms` is never changed after construction, and results may
    share it.  Multiplying by a monomial whose coefficient is the int 1 is an
    exponent shift that reuses the coefficients; the zero shift returns self.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (a, b, i, j), c in (terms or {}).items():
            key = _key(a, b, i, j)
            c = self.terms.pop(key, 0) + _rational(c)
            if c:
                self.terms[key] = c

    @classmethod
    def _of(cls, terms):
        """Wrap a zero-free dict with canonical keys, unchecked."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def monomial(cls, coeff=1, R=0, lam=0, log_R=0, log_lam=0) -> "LogPoly":
        """coeff * R^R * lam^lam * (log R)^log_R * (log lam)^log_lam."""
        coeff = _rational(coeff)
        return cls._of({_key(R, lam, log_R, log_lam): coeff} if coeff else {})

    @staticmethod
    def _coerce(x) -> "LogPoly | None":
        if isinstance(x, LogPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LogPoly._of({(0, 0, 0, 0): x} if x else {})
        return None

    def __add__(self, other):
        other = LogPoly._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            if key in terms:
                c = terms[key] + c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
            else:
                terms[key] = c
        return LogPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return LogPoly._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = LogPoly._coerce(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LogPoly._of({})
            return LogPoly._of({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, LogPoly):
            return NotImplemented
        if len(self.terms) == 1 < len(other.terms):
            self, other = other, self
        if len(other.terms) != 1:
            out = LogPoly._of({})
            for key, c in other.terms.items():
                out = out + self * LogPoly._of({key: c})
            return out
        ((a2, b2, i2, j2), c2), = other.terms.items()
        unit = type(c2) is int and c2 == 1  # a unit monomial only shifts exponents
        if unit and not (a2 or b2 or i2 or j2):
            return self
        return LogPoly._of(
            {
                (canonical_exponent(a + a2), canonical_exponent(b + b2), i + i2, j + j2): (
                    c if unit else c * c2
                )
                for (a, b, i, j), c in self.terms.items()
            }
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def scale_radius(self) -> "LogPoly":
        """The substitution R -> lam R: R^a -> lam^a R^a and
        (log R)^i -> (log R + log lam)^i, expanded binomially."""
        terms = {}
        for (a, b, i, j), c in self.terms.items():
            b = canonical_exponent(a + b)
            for k in range(i + 1):
                key = (a, b, k, j + i - k)
                terms[key] = terms.get(key, 0) + c * math.comb(i, k)
        return LogPoly._of({key: c for key, c in terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = LogPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        """One term prints as sympy prints it ("-7*log(lam)/2", "-5/(2*R**2)"),
        except that a lone inverse power reads "1/lam**2"; several terms are
        joined in a fixed order."""
        out = ""
        for key in sorted(self.terms, reverse=True):
            term = _monomial_str(self.terms[key], key)
            if not out:
                out = term
            elif term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"

    __repr__ = __str__


def _monomial_str(c, key):
    num, den = [], []
    for name, e in zip(("R", "lam", "log(R)", "log(lam)"), key):
        if e:
            power = "" if abs(e) == 1 else f"**{abs(e)}" if type(e) is int else f"**({abs(e)})"
            (num if e > 0 else den).append(name + power)
    if abs(c.numerator) != 1 or not num:
        num.insert(0, str(abs(c.numerator)))
    if c.denominator != 1:
        den.insert(0, str(c.denominator))
    text = "*".join(num)
    if den:
        text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return "-" + text if c < 0 else text


def encode_scalar(x):
    """The one JSON form of a scalar: a Fraction is its str ("p/q", "3" when
    integral), numpy values become Python numbers, bool/int/float/str/None
    pass through, and anything else (LogPoly, PowerValue) is its str."""
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
