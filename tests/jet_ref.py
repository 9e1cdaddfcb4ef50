"""A test-side reference for products of jets: the truncated commutative
product that QM glue and the formal jets are checked against.  The library
keeps jets as containers (fqft.jets) and multiplies no two of them."""

from fqft.jets import Jet
from fqft.rexp import coeff_is_zero


def const(algebra, value) -> Jet:
    """The constant jet `value`."""
    return Jet(algebra, {(): value})


def jet_mul(a: Jet, b: Jet, mul=None, zero=coeff_is_zero) -> Jet:
    """Truncated commutative product; nilpotent monomials drop out.  The
    coefficients of one monomial are summed left to right over a's terms,
    then b's, in their order; `mul` multiplies two coefficients (by default
    a scalar times a scalar, or the scalar action on a vector-like value)
    and `zero` tests a sum."""
    a._check(b)
    mul = mul or _coeff_mul
    order = a.algebra.order
    coeffs = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            # both factors' monomials are allowed in the one algebra, so
            # their symbols are known: only the degree can rule a pair out
            if len(ma) + len(mb) > order:
                continue
            mono = tuple(sorted(ma + mb))
            prod = mul(ca, cb)
            coeffs[mono] = coeffs[mono] + prod if mono in coeffs else prod
    # the monomials are sorted and allowed already; only zeros are left to drop
    return a._like({m: c for m, c in coeffs.items() if not zero(c)})


def _coeff_mul(a, b):
    """Product of jet coefficients: scalar times scalar, or the scalar
    action on a vector-like value."""
    try:
        return a * b
    except TypeError:
        return b.scale(a) if hasattr(b, "scale") else a.scale(b)
