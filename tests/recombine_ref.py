"""A test-side reference for double deformations: `recombine` rewrites a
jet in the two couplings (g, g~) of a double deformation, given as a plain
dict, as a jet in the combined coupling g_c = g + g~."""

from fractions import Fraction

from fqft.errors import RecombinationError
from fqft.jets import Jet, JetAlgebra
from fqft.rexp import coeff_is_zero


def coeff_eq(a, b) -> bool:
    """Value equality of two exact coefficients, None being zero.  They
    store no zeros, so their == is structural."""
    if a is None or b is None:
        return coeff_is_zero(a) and coeff_is_zero(b)
    return a == b


def recombine(coeffs, labels=None):
    """{monomial in g[l], gt[l]: coefficient} as a Jet in gc[l].

    Linear parts must pair up (g_c = g + g~); the mixed bilinear part must be
    symmetric, and maps to (1/2) g_c g_c.  Anything else cannot be expressed
    in g_c alone and raises RecombinationError.
    """
    rest = {}
    for mono, c in coeffs.items():
        mono = tuple(sorted(mono))
        rest[mono] = rest[mono] + c if mono in rest else c
    rest = {m: c for m, c in rest.items() if not coeff_is_zero(c)}
    if labels is None:  # the x of every g[x] and gt[x]
        names = (s.partition("[") for mono in rest for s in mono)
        labels = sorted({r[:-1] for head, _, r in names if head in ("g", "gt")})
    g, gt, gc = ({label: f"{head}[{label}]" for label in labels} for head in ("g", "gt", "gc"))
    out = {}
    if () in rest:
        out[()] = rest.pop(())
    for label in labels:
        cg, cgt = rest.pop((g[label],), None), rest.pop((gt[label],), None)
        if not coeff_eq(cg, cgt):
            raise RecombinationError(f"linear coefficients of g[{label}] and gt[{label}] differ")
        if cg is not None:
            out[(gc[label],)] = cg
    # sorted keys: "g[..." sorts before "gt[..."
    for i, li in enumerate(labels):
        for lj in labels[i:]:
            s_ij = rest.pop((g[lj], gt[li]), None)
            if li == lj:
                if s_ij is not None:
                    out[(gc[li], gc[li])] = Fraction(1, 2) * s_ij
                continue
            s_ji = rest.pop((g[li], gt[lj]), None)
            if not coeff_eq(s_ij, s_ji):
                raise RecombinationError(f"bilinear part not symmetric in ({li}, {lj})")
            if s_ij is not None:
                out[(gc[li], gc[lj])] = s_ij
    if rest:
        raise RecombinationError(f"monomials outside the (g, g~) scheme: {sorted(rest)}")
    return Jet(JetAlgebra.combined_coupling(labels), out)
