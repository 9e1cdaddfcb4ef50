"""Finite expansions in the cut radius r with log terms.

An RExpansion maps (p, q) -> coefficient, representing
    sum_{p,q} coeff_{p,q} * r^p * (log r)^q
with rational exponents p (ints when integral) and non-negative integer log
powers q.
Coefficients are anything with linear arithmetic: boundary states, formal
vectors, or plain scalars (Fractions, floats, fqft.scalars values).
"""

from __future__ import annotations

from .scalars import canonical_exponent


def coeff_is_zero(c) -> bool:
    """Zero test across the coefficient types used in expansions/jets."""
    if c is None:
        return True
    if hasattr(c, "is_zero"):
        z = c.is_zero
        return bool(z() if callable(z) else z)
    if hasattr(c, "shape"):  # numpy matrices as coefficients
        import numpy

        return not numpy.any(c)
    return c == 0


def coeff_eq(a, b) -> bool:
    """Value equality of two coefficients, None being zero.  The exact
    coefficient types store no zeros, so their == is structural; numpy
    arrays compare elementwise, via their difference."""
    if a is None or b is None:
        return coeff_is_zero(a) and coeff_is_zero(b)
    if hasattr(a, "shape") or hasattr(b, "shape"):
        return coeff_is_zero(a - b)
    return a == b


def coeff_norm(c) -> float:
    """Infinity norm of a coefficient, for float-mode tolerances."""
    if c is None:
        return 0.0
    if hasattr(c, "norm_inf"):
        return c.norm_inf()
    if hasattr(c, "shape"):
        import numpy

        return float(numpy.max(numpy.abs(c))) if c.size else 0.0
    try:
        return abs(float(c))
    except (TypeError, ValueError):
        return 0.0 if coeff_is_zero(c) else float("inf")


def _key(p, q):
    p = canonical_exponent(p)
    q = int(q)
    if q < 0:
        raise ValueError("log power must be non-negative")
    return (p, q)


class RExpansion:
    """Finite Laurent-log expansion in the cut radius."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (p, q), c in (terms or {}).items():
            if not coeff_is_zero(c):
                self.terms[_key(p, q)] = c

    @classmethod
    def constant(cls, coeff) -> "RExpansion":
        return cls({(0, 0): coeff})

    @classmethod
    def term(cls, p, q, coeff) -> "RExpansion":
        return cls({(p, q): coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            if key in terms:
                s = terms[key] + c
                if coeff_is_zero(s):
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = c
        out = RExpansion.__new__(RExpansion)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "RExpansion":
        return RExpansion({key: s * c for key, c in self.terms.items()})

    def __rmul__(self, s):
        return self.scale(s)

    def __mul__(self, other):
        """Convolution with another expansion, or scalar action."""
        if not isinstance(other, RExpansion):
            return self.scale(other)
        terms: dict = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                key = (p1 + p2, q1 + q2)
                prod = c1 * c2
                terms[key] = terms[key] + prod if key in terms else prod
        return RExpansion(terms)

    def map_coeffs(self, f) -> "RExpansion":
        return RExpansion({key: f(c) for key, c in self.terms.items()})

    def shift(self, dp, dq=0) -> "RExpansion":
        """Multiply by r^{dp} (log r)^{dq} termwise."""
        return RExpansion(
            {(p + dp, q + dq): c for (p, q), c in self.terms.items()}
        )

    def coefficient(self, p, q=0):
        return self.terms.get(_key(p, q))

    def constant_term(self):
        return self.terms.get((0, 0))

    def singular_terms(self) -> dict:
        """Terms that obstruct the r -> 0 limit: p < 0, or p = 0 with a log."""
        return {
            (p, q): c
            for (p, q), c in self.terms.items()
            if p < 0 or (p == 0 and q > 0)
        }

    def most_singular(self):
        """Worst term under r -> 0: smallest p, then largest log power."""
        if not self.terms:
            return None
        key = min(self.terms, key=lambda pq: (pq[0], -pq[1]))
        return key, self.terms[key]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RExpansion):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(coeff_eq(self.terms.get(k), other.terms.get(k)) for k in keys)

    def __repr__(self):
        bits = []
        for (p, q), c in sorted(self.terms.items()):
            label = "1" if (p, q) == (0, 0) else f"r^{p}" + (f"*log^{q}" if q else "")
            bits.append(f"{label}: {c!r}")
        return "RExpansion{" + ", ".join(bits) + "}"
