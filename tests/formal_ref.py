"""Test-side references for the formal backend: C and K of a pair of
marginals, computed from the theory's rows as they were given, independently
of `FormalTheory`'s int records; and the product of two LogPolys, which the
library never forms (its dilation shifts exponents)."""

from fractions import Fraction

from fqft.rexp import LogPoly
from fqft.scalars import canonical_rational


def logpoly_product(x, y):
    """x * y by the general rule: every pair of terms multiplies its
    coefficients and adds its exponents, and the sums collect by key."""
    terms = {}
    for (a, b, i, j), c in x.terms.items():
        for (a2, b2, i2, j2), c2 in y.terms.items():
            key = (canonical_rational(a + a2), canonical_rational(b + b2), i + i2, j + j2)
            terms[key] = terms.get(key, 0) + c * c2
    return LogPoly(terms)


def rows_for(th, alpha, beta_):
    """The nonzero OPE rows (c, mu, mubar, value) of the pair (alpha, beta)."""
    return list(th.rows.get((alpha, beta_), []))


def ref_dims(th):
    """label -> (h, hbar), the primaries' Fractions."""
    return {p.label: (p.h, p.hbar) for p in th.primaries}


def ref_effective_C(th, alpha, beta_):
    """C_{alpha beta}^gamma: the primary-marginal channel plus the mixing
    channel of dimension-0 (1,1)-descendants, scanning the whole mixing
    matrix; without zeros."""
    dims, out = ref_dims(th), {}
    for (c, mu, mubar, value) in rows_for(th, alpha, beta_):
        if c in th.marginals and mu == () and mubar == ():
            out[c] = out.get(c, Fraction(0)) + value
        elif dims[c] == (0, 0) and mu == (1,) and mubar == (1,):
            for (a, gamma), m in th.mixing.items():
                if a == c:
                    out[gamma] = out.get(gamma, Fraction(0)) + value * m
    return {k: v for k, v in out.items() if v != 0}


def ref_K(th, alpha, beta_):
    """K_{alpha beta}^a: the dimension-0 identity-sector constants, without
    zeros."""
    dims, out = ref_dims(th), {}
    for (c, mu, mubar, value) in rows_for(th, alpha, beta_):
        if dims[c] == (0, 0) and mu == () and mubar == ():
            out[c] = out.get(c, Fraction(0)) + value
    return {k: v for k, v in out.items() if v != 0}
