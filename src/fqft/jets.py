"""Nilpotent coupling jets.

Couplings enter perturbation theory as nilpotent symbols: within one
deformation family all products g^alpha g^beta vanish, and the combined
coupling g_c of a double deformation is nilpotent at order two.  Nilpotency
is therefore tracked per *group* of symbols (total degree within the group),
on top of a global truncation order.

recombine() rewrites a double-deformation expression in (g, g~) as an
expression in the combined coupling g_c = g + g~, demanding the symmetry of
the bilinear part.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RecombinationError
from .rexp import Sparse, coeff_eq, coeff_is_zero


class JetAlgebra:
    """Symbols with grouped nilpotency orders and a global truncation."""

    def __init__(self, groups, truncation=2):
        """groups: {group_name: (list of symbol names, nilpotency order)}."""
        self.groups = {g: (tuple(syms), int(order)) for g, (syms, order) in groups.items()}
        self.truncation = int(truncation)
        self.group_of = {}
        for g, (syms, _) in self.groups.items():
            for s in syms:
                if s in self.group_of:
                    raise ValueError(f"symbol {s!r} appears in two groups")
                self.group_of[s] = g
        self.symbols = tuple(sorted(self.group_of))

    @classmethod
    def double_coupling(cls, labels, truncation=2):
        """Symbols g[l], gt[l] for a double deformation over `labels`."""
        labels = list(labels)
        return cls(
            {
                "g": ([f"g[{l}]" for l in labels], 1),
                "gt": ([f"gt[{l}]" for l in labels], 1),
            },
            truncation=truncation,
        )

    @classmethod
    def combined_coupling(cls, labels, truncation=2):
        """Order-2 nilpotent combined symbols gc[l]."""
        return cls({"gc": ([f"gc[{l}]" for l in labels], 2)}, truncation=truncation)

    def monomial_ok(self, mono) -> bool:
        if len(mono) > self.truncation:
            return False
        degree = {}
        for s in mono:
            g = self.group_of.get(s)
            if g is None:
                raise ValueError(f"unknown symbol {s!r}")
            degree[g] = degree.get(g, 0) + 1
        return all(degree[g] <= self.groups[g][1] for g in degree)

    def __eq__(self, other):
        if not isinstance(other, JetAlgebra):
            return NotImplemented
        return self.groups == other.groups and self.truncation == other.truncation

    def __hash__(self):
        return hash((tuple(sorted(self.groups.items())), self.truncation))


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
    alg = a.algebra
    coeffs = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(sorted(ma + mb))
            if not alg.monomial_ok(mono):
                continue
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


def recombine(expr: Jet, labels=None) -> Jet:
    """Rewrite a (g, g~) double-deformation jet in the combined coupling.

    Linear parts must pair up (g_c = g + g~); the mixed bilinear part must be
    symmetric, and maps to (1/2) g_c g_c.  Anything else cannot be expressed
    in g_c alone and raises RecombinationError.
    """
    if labels is None:  # the x of every g[x] and gt[x]
        names = (s.partition("[") for s in expr.algebra.symbols)
        labels = sorted({rest[:-1] for head, _, rest in names if head in ("g", "gt")})
    target = JetAlgebra.combined_coupling(labels, truncation=expr.algebra.truncation)
    g, gt, gc = ({label: f"{head}[{label}]" for label in labels} for head in ("g", "gt", "gc"))
    # monomials not read yet, by their sorted keys: "g[..." sorts before "gt[..."
    rest = dict(expr.terms)
    out = {}
    const = rest.pop((), None)
    if const is not None:
        out[()] = const
    for label in labels:
        cg, cgt = rest.pop((g[label],), None), rest.pop((gt[label],), None)
        if not coeff_eq(cg, cgt):
            raise RecombinationError(f"linear coefficients of g[{label}] and gt[{label}] differ")
        if cg is not None:
            out[(gc[label],)] = cg
    for i, li in enumerate(labels):
        for lj in labels[i:]:
            s_ij = rest.pop((g[lj], gt[li]), None)
            if li == lj:
                # halving keeps an exact value nonzero; a float64 one can underflow
                if s_ij is not None and not coeff_is_zero(half := _halve(s_ij)):
                    out[(gc[li], gc[li])] = half
                continue
            s_ji = rest.pop((g[li], gt[lj]), None)
            if not coeff_eq(s_ij, s_ji):
                raise RecombinationError(f"bilinear part not symmetric in ({li}, {lj})")
            if s_ij is not None:
                out[tuple(sorted((gc[li], gc[lj])))] = s_ij
    if rest:
        raise RecombinationError(f"monomials outside the (g, g~) scheme: {sorted(rest)}")
    # sorted monomials of degree at most two in gc; the values are nonzero
    return Jet._of(target, out)


def _halve(c):
    return c / 2 if hasattr(c, "shape") else Fraction(1, 2) * c  # numpy stays float
