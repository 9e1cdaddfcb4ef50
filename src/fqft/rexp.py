"""Sparse linear combinations, and the finite Laurent-log expansions built
on them.

Sparse is the immutable {key: nonzero coefficient} algebra that boundary
states, RExpansion, LogPoly, jets, formal vectors and (z, zbar) series share.

RExpansion and LogPoly are Laurent-log expansions, and their keys follow one
rule (`_key`): the first half are rational exponents (ints when integral),
the second half non-negative integer log powers.

An RExpansion maps (p, q) -> coefficient, representing
    sum_{p,q} coeff_{p,q} * r^p * (log r)^q
in the cut radius r.  Coefficients are exact values with linear arithmetic,
never arrays: boundary states, formal vectors, or plain scalars
(Fractions, floats, LogPolys).

A LogPoly, a finite sum of c * R^a * lam^b * (log R)^i * (log lam)^j with
rational c, is the scalar of the formal perturbation backend in
fqft.deformation.  (The free boson's exact scalars are ints and
Fractions.)
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import _rational, canonical_rational


def coeff_is_zero(c) -> bool:
    """Zero test across the coefficient types of expansions and jets, each
    type's own: is_zero() of the fqft values, == 0 of a number; None is
    zero."""
    if c is None:
        return True
    is_zero = getattr(c, "is_zero", None)
    return is_zero() if is_zero is not None else c == 0


class Sparse:
    """Immutable finite sum {key: nonzero coefficient}: the linear algebra
    shared by BoundaryState, RExpansion, LogPoly, Jet, FormalVector and
    ZSeries.

    A subclass sets how keys normalise (`_norm`, None to take them as given;
    a key normalising to None drops, and a key it rejects raises), how
    coefficients test zero (`_zero`), the name of the attribute operands
    must share (`_context`, e.g. a jet's "algebra") and the error raised
    when they do not (`_mismatch`).  Zero coefficients are never stored, so
    `terms` is compared with ==, and results may share coefficients with
    operands.
    """

    __slots__ = ("terms",)
    _norm = None
    _zero = staticmethod(coeff_is_zero)
    _context = None
    _mismatch = ValueError

    def __init__(self, terms=None):
        """Normalise each key, sum entries whose keys normalise equal, drop
        zeros."""
        acc, norm, zero = {}, self._norm, self._zero
        for key, c in (terms or {}).items():
            if norm is not None:
                key = norm(key)
                if key is None:
                    continue
            if key in acc:
                c = acc[key] + c
            if zero(c):
                acc.pop(key, None)
            else:
                acc[key] = c
        self.terms = acc

    @classmethod
    def _of(cls, *args):
        """Wrap a dict unchecked, given the public constructor's arguments
        (context first, if any).  Only for a dict the constructor would keep
        as it is: every key already normalised (an RExpansion's p an int when
        integral, a jet's monomial sorted and allowed), no zero coefficient,
        and no sum of entries that could cancel left unchecked."""
        out = object.__new__(cls)
        if cls._context:
            setattr(out, cls._context, args[0])
        out.terms = args[-1]
        return out

    def _like(self, terms, other=None):
        """_of over self's context; `other` is the second operand of a sum,
        for a subclass whose extra slots sum."""
        name = self._context
        return self._of(getattr(self, name), terms) if name else self._of(terms)

    def _same_context(self, other) -> bool:
        name = self._context
        if not name:
            return True
        a, b = getattr(self, name), getattr(other, name)
        return a is b or a == b

    def _check(self, other):
        if self._context and not self._same_context(other):
            raise self._mismatch(f"{type(self).__name__}s over different {self._context}s")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        terms, zero = dict(self.terms), self._zero
        for key, c in other.terms.items():
            if key in terms:
                c = terms[key] + c
                if zero(c):
                    del terms[key]
                    continue
            terms[key] = c
        return self._like(terms, other)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        return self.map_coeffs(lambda c: s * c)

    __rmul__ = scale

    def map_coeffs(self, f):
        """Apply f to each coefficient, dropping those it sends to zero."""
        zero = self._zero
        return self._like(
            {key: fc for key, c in self.terms.items() if not zero(fc := f(c))}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        """False exactly for zero."""
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_context(other) and self.terms == other.terms


def _key(key):
    """A Laurent-log key, canonical: its first half rational exponents, ints
    when integral; its second half log powers, non-negative ints.  A log
    power that is not a finite non-negative integral value (0.5, inf, nan)
    raises ValueError; 1.0 is 1."""
    half = len(key) // 2
    if not all(q >= 0 and q % 1 == 0 for q in key[half:]):
        raise ValueError("log powers must be non-negative integers")
    return (*map(canonical_rational, key[:half]), *map(int, key[half:]))


class RExpansion(Sparse):
    """Finite Laurent-log expansion in the cut radius."""

    __slots__ = ()
    _norm = staticmethod(_key)

    def singular_terms(self) -> dict:
        """Terms that obstruct the r -> 0 limit: p < 0, or p = 0 with a log."""
        return {
            (p, q): c
            for (p, q), c in self.terms.items()
            if p < 0 or (p == 0 and q > 0)
        }

    def __repr__(self):
        bits = []
        for (p, q), c in sorted(self.terms.items()):
            label = "1" if (p, q) == (0, 0) else f"r^{p}" + (f"*log^{q}" if q else "")
            bits.append(f"{label}: {c!r}")
        return "RExpansion{" + ", ".join(bits) + "}"


class LogPoly(Sparse):
    """Exact finite sum  sum_k c_k * R^a * lam^b * (log R)^i * (log lam)^j.

    The scalars of the formal perturbation backend.  `terms` maps
    (a, b, i, j) to a nonzero rational c (int or Fraction), with rational
    powers a, b (ints when integral) and log powers i, j >= 0.  The
    constructor, Sparse's, stores the coefficients as given and coerces
    none; `monomial` is the coercing builder (through `_rational`).  Zero
    stores no terms, so equality and the zero test are structural.  Sums,
    differences, negation and scaling by a rational (`q * p`) are Sparse's;
    the radius substitution R -> lam R (`scale_radius`) is its own, and a
    rational equals its constant LogPoly.  Two LogPolys never multiply:
    dilation shifts exponents (fqft.deformation._shift).

    Immutable: `terms` is never changed after construction, and results may
    share it.
    """

    __slots__ = ()
    _norm = staticmethod(_key)

    @classmethod
    def monomial(cls, coeff=1, R=0, lam=0, log_R=0, log_lam=0) -> "LogPoly":
        """coeff * R^R * lam^lam * (log R)^log_R * (log lam)^log_lam."""
        coeff = _rational(coeff)
        return cls._of({_key((R, lam, log_R, log_lam)): coeff} if coeff else {})

    def scale_radius(self) -> "LogPoly":
        """The substitution R -> lam R: R^a -> lam^a R^a and
        (log R)^i -> (log R + log lam)^i, expanded binomially."""
        terms = {}
        for (a, b, i, j), c in self.terms.items():
            b = canonical_rational(a + b)
            for k in range(i + 1):
                key = (a, b, k, j + i - k)
                terms[key] = terms.get(key, 0) + c * math.comb(i, k)
        return LogPoly._of({key: c for key, c in terms.items() if c})

    def __eq__(self, other):
        # the type test first: Fraction's isinstance goes through an ABC check
        if type(other) is LogPoly:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0, 0, 0, 0): other} if other else {})
        return NotImplemented

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
