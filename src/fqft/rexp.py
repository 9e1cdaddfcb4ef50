"""Sparse linear combinations, and finite expansions in the cut radius r
with log terms.

Sparse is the immutable {key: nonzero coefficient} algebra that boundary
states, RExpansion, jets, formal vectors and (z, zbar) series share.

An RExpansion maps (p, q) -> coefficient, representing
    sum_{p,q} coeff_{p,q} * r^p * (log r)^q
with rational exponents p (ints when integral) and non-negative integer log
powers q.
Coefficients are exact values with linear arithmetic, never arrays:
boundary states, formal vectors, or plain scalars (Fractions, floats,
fqft.scalars values).
"""

from __future__ import annotations

from .scalars import canonical_exponent


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
    shared by BoundaryState, RExpansion, Jet, FormalVector and ZSeries.

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

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_context(other) and self.terms == other.terms


def _key(pq):
    p, q = pq
    p = canonical_exponent(p)
    q = int(q)
    if q < 0:
        raise ValueError("log power must be non-negative")
    return (p, q)


class RExpansion(Sparse):
    """Finite Laurent-log expansion in the cut radius."""

    __slots__ = ()
    _norm = staticmethod(_key)

    @classmethod
    def constant(cls, coeff) -> "RExpansion":
        return cls({(0, 0): coeff})

    @classmethod
    def term(cls, p, q, coeff) -> "RExpansion":
        return cls({(p, q): coeff})

    def coefficient(self, p, q=0):
        return self.terms.get(_key((p, q)))

    def constant_term(self):
        return self.terms.get((0, 0))

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
