"""Nilpotent coupling jets.

Couplings enter perturbation theory as nilpotent symbols.  A jet algebra is
a set of symbols and an order: monomials of higher total degree vanish.  A
single deformation's couplings g have order one, so all products
g^alpha g^beta vanish; the combined coupling g_c = g + g~ of a double
deformation has order two.

A jet is the container alone: the Sparse linear algebra over a jet
algebra, its monomials sorted and those past the order dropped.  No library
code multiplies two jets: the formal builders write their jets whole
(fqft.deformation), and quantum mechanics multiplies its matrix orders
itself (fqft.qm).  Coefficients are exact values: Fractions, LogPolys
(fqft.rexp), boundary states, formal vectors and r-expansions of them; a QM
segment's `value` wraps views of its orders unchecked and is only read.
"""

from __future__ import annotations

from .rexp import Sparse


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
    def symbol(cls, algebra, name, coeff=1):
        return cls(algebra, {(name,): coeff})

    def coefficient(self, mono=()):
        return self.terms.get(tuple(sorted(mono)))

    def __repr__(self):
        bits = []
        for mono in sorted(self.terms):
            label = "*".join(mono) if mono else "1"
            bits.append(f"{label}: {self.terms[mono]!r}")
        return "Jet{" + ", ".join(bits) + "}"
