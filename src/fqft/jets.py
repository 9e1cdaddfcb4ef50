"""Nilpotent coupling jets.

Couplings enter perturbation theory as nilpotent symbols.  A jet algebra is
a set of symbols and an order: monomials of higher total degree vanish.  A
single deformation's couplings g have order one, so all products
g^alpha g^beta vanish; the combined coupling g_c = g + g~ of a double
deformation has order two.
"""

from __future__ import annotations

from .rexp import Sparse, coeff_is_zero


class JetAlgebra:
    """Symbols whose monomials above total degree `order` vanish."""

    def __init__(self, symbols, order):
        self.symbols = frozenset(symbols)
        self.order = int(order)

    @classmethod
    def combined_coupling(cls, labels):
        """Order-2 nilpotent combined symbols gc[l]."""
        return cls([f"gc[{l}]" for l in labels], 2)

    def monomial_ok(self, mono) -> bool:
        if not self.symbols.issuperset(mono):
            raise ValueError(f"unknown symbols in {mono!r}")
        return len(mono) <= self.order

    def __eq__(self, other):
        if not isinstance(other, JetAlgebra):
            return NotImplemented
        return self.symbols == other.symbols and self.order == other.order

    def __hash__(self):
        return hash((self.symbols, self.order))


class Jet(Sparse):
    """Polynomial in nilpotent symbols; monomials are sorted name tuples, and
    those that vanish in the algebra drop."""

    __slots__ = ("algebra",)
    _context = "algebra"

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        super().__init__(terms)

    def _norm(self, mono):
        mono = tuple(sorted(mono))
        return mono if self.algebra.monomial_ok(mono) else None

    @classmethod
    def const(cls, algebra, value):
        return cls(algebra, {(): value})

    @classmethod
    def symbol(cls, algebra, name, coeff=1):
        return cls(algebra, {(name,): coeff})

    def coefficient(self, mono=()):
        return self.terms.get(tuple(sorted(mono)))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        return jet_mul(self, other)

    def __repr__(self):
        bits = []
        for mono in sorted(self.terms):
            label = "*".join(mono) if mono else "1"
            bits.append(f"{label}: {self.terms[mono]!r}")
        return "Jet{" + ", ".join(bits) + "}"


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated commutative product; nilpotent monomials drop out."""
    a._check(b)
    order = a.algebra.order
    coeffs = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            # both factors' monomials are allowed in the one algebra, so
            # their symbols are known: only the degree can rule a pair out
            if len(ma) + len(mb) > order:
                continue
            mono = tuple(sorted(ma + mb))
            prod = _coeff_mul(ca, cb)
            if mono in coeffs:
                coeffs[mono] = coeffs[mono] + prod
            else:
                coeffs[mono] = prod
    # the monomials are sorted and allowed already; only zeros are left to drop
    return a._like({m: c for m, c in coeffs.items() if not coeff_is_zero(c)})


def _coeff_mul(a, b):
    """Product of jet coefficients: matrix product of 2-D arrays, scalar
    action on vector-like values."""
    # duck-typed, so the exact pipelines never import numpy through jets
    if getattr(a, "ndim", 0) == 2 and getattr(b, "ndim", 0) == 2:
        return a @ b
    try:
        return a * b
    except TypeError:
        return b.scale(a) if hasattr(b, "scale") else a.scale(b)
