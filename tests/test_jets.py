"""Tests for r-expansions and nilpotent coupling jets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqft.errors import RecombinationError
from fqft.jets import Jet, JetAlgebra
from fqft.rexp import RExpansion
from jet_ref import const, jet_mul
from recombine_ref import coeff_eq, recombine


# ---------------------------------------------------------------- RExpansion


def test_rexp_constant_and_add():
    a = RExpansion({(0, 0): Fraction(2)})
    b = RExpansion({(-1, 0): Fraction(3)})
    s = a + b
    assert s.terms.get((0, 0)) == 2
    assert s.terms.get((-1, 0)) == 3
    assert (s - s).is_zero()


def test_rexp_pruning():
    e = RExpansion({(0, 0): Fraction(0), (1, 0): Fraction(2)})
    assert (0, 0) not in e.terms
    assert e.terms.get((1, 0)) == 2


def test_rexp_singular_terms():
    e = RExpansion({(-2, 0): 1, (-2, 1): 5, (0, 1): 3, (0, 0): 7, (1, 0): 9})
    sing = e.singular_terms()
    assert set(sing) == {(Fraction(-2), 0), (Fraction(-2), 1), (Fraction(0), 1)}
    assert sing[(-2, 1)] == 5 and e.terms.get((0, 0)) == 7


def test_rexp_log_power_validation():
    with pytest.raises(ValueError):
        RExpansion({(0, -1): 1})


# ----------------------------------------------------------------- JetAlgebra


def _g():
    """First-order couplings g[x], g[y] of one deformation."""
    return JetAlgebra(["g[x]", "g[y]"], 1)


def _gc():
    """Combined couplings gc[x], gc[y] of a double deformation."""
    return JetAlgebra.combined_coupling(["x", "y"])


def test_jet_constructor_sums_monomials_that_sort_equal():
    alg = _gc()
    j = Jet(alg, {("gc[x]", "gc[y]"): 1, ("gc[y]", "gc[x]"): 2})
    assert j.coefficient(("gc[x]", "gc[y]")) == 3
    assert Jet(alg, {("gc[x]", "gc[y]"): 1, ("gc[y]", "gc[x]"): -1}).is_zero()


def test_nilpotency_within_group():
    alg = _g()
    g = Jet.symbol(alg, "g[x]")
    assert jet_mul(g, g).is_zero()
    # distinct couplings of the same family also annihilate
    gy = Jet.symbol(alg, "g[y]")
    assert jet_mul(g, gy).is_zero()
    # in g_c, monomials past order two drop
    alg = _gc()
    gc = Jet.symbol(alg, "gc[x]")
    assert jet_mul(gc, gc).coefficient(("gc[x]", "gc[x]")) == 1
    assert jet_mul(jet_mul(gc, gc), Jet.symbol(alg, "gc[y]")).is_zero()


def test_mixed_product_survives():
    alg = _gc()
    p = jet_mul(Jet.symbol(alg, "gc[x]"), Jet.symbol(alg, "gc[y]"))
    assert p.coefficient(("gc[x]", "gc[y]")) == 1


def test_unit_and_scalars():
    alg = _g()
    one = const(alg, Fraction(1))
    x = Jet.symbol(alg, "g[x]", Fraction(3)) + const(alg, 2)
    assert jet_mul(one, x) == x
    assert x.scale(2).coefficient(("g[x]",)) == 6


def test_square_of_sum():
    # (gc[x] + gc[y])^2 = gc[x]^2 + 2 gc[x] gc[y] + gc[y]^2
    alg = _gc()
    s = Jet.symbol(alg, "gc[x]") + Jet.symbol(alg, "gc[y]")
    sq = jet_mul(s, s)
    assert sq.coefficient(("gc[x]", "gc[y]")) == 2
    assert sq.coefficient(("gc[x]", "gc[x]")) == sq.coefficient(("gc[y]", "gc[y]")) == 1
    assert len(sq.terms) == 3
    # (1 + g)(1 - g): the g terms cancel and g^2 drops, so only 1 is stored
    one, g = const(_g(), 1), Jet.symbol(_g(), "g[x]")
    assert jet_mul(one + g, one - g).terms == {(): 1}


def test_algebra_mismatch():
    # structurally equal algebras are interchangeable
    assert jet_mul(Jet.symbol(_gc(), "gc[x]"), const(_gc(), 2)).coefficient(
        ("gc[x]",)
    ) == 2
    other = JetAlgebra(["gc[x]", "gc[y]"], 3)
    with pytest.raises(ValueError):
        jet_mul(Jet.symbol(_gc(), "gc[x]"), Jet.symbol(other, "gc[x]"))


def test_rexp_coefficients_in_jets():
    alg = _gc()
    e = RExpansion({(0, 0): Fraction(1), (0, 1): Fraction(2)})
    j = Jet(alg, {("gc[x]",): e})
    doubled = j + j
    assert coeff_eq(doubled.coefficient(("gc[x]",)), e.scale(2))
    assert jet_mul(j, const(alg, Fraction(3))).coefficient(("gc[x]",)) == e.scale(3)


scalars = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _random_jet(alg, draw_coeffs):
    monos = [(), ("gc[x]",), ("gc[y]",), ("gc[x]", "gc[x]"), ("gc[x]", "gc[y]"),
             ("gc[y]", "gc[y]")]
    return Jet(alg, dict(zip(monos, draw_coeffs)))


@given(st.lists(scalars, min_size=18, max_size=18))
@settings(max_examples=50, deadline=None)
def test_ring_axioms(cs):
    alg = _gc()
    a = _random_jet(alg, cs[0:6])
    b = _random_jet(alg, cs[6:12])
    c = _random_jet(alg, cs[12:18])
    assert jet_mul(jet_mul(a, b), c) == jet_mul(a, jet_mul(b, c))
    assert jet_mul(a, b + c) == jet_mul(a, b) + jet_mul(a, c)
    assert jet_mul(a, b) == jet_mul(b, a)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


# ------------------------------------------------- recombine (test reference)


def test_recombine_linear():
    out = recombine({("g[x]",): Fraction(5), ("gt[x]",): Fraction(5)})
    assert out.coefficient(("gc[x]",)) == 5


def test_recombine_linear_mismatch():
    with pytest.raises(RecombinationError):
        recombine({("g[x]",): Fraction(5), ("gt[x]",): Fraction(4)})


def test_recombine_bilinear_symmetric():
    # gt^a g^b S_ab with S symmetric: S_xx=4, S_xy=S_yx=3, S_yy=2
    out = recombine(
        {
            ("g[x]", "gt[x]"): Fraction(4),
            ("g[y]", "gt[x]"): Fraction(3),
            ("g[x]", "gt[y]"): Fraction(3),
            ("g[y]", "gt[y]"): Fraction(2),
        }
    )
    assert out.coefficient(("gc[x]", "gc[x]")) == 2  # (1/2) S_xx
    assert out.coefficient(("gc[y]", "gc[y]")) == 1
    assert out.coefficient(("gc[x]", "gc[y]")) == 3


def test_recombine_antisymmetric_fails():
    with pytest.raises(RecombinationError):
        recombine({("g[y]", "gt[x]"): Fraction(3), ("g[x]", "gt[y]"): Fraction(-3)})


def test_recombine_roundtrip_on_double_deformation_shape():
    # the canonical generator: (g + gt) L + gt g S  ->  gc L + (1/2) gc^2 S
    L, S = Fraction(7), Fraction(4)
    out = recombine({("g[x]",): L, ("gt[x]",): L, ("gt[x]", "g[x]"): S})
    assert out.coefficient(("gc[x]",)) == L
    assert out.coefficient(("gc[x]", "gc[x]")) == S / 2


def test_recombine_rexp_coefficients():
    e = RExpansion({(0, 1): Fraction(3)})
    out = recombine({("g[x]",): e, ("gt[x]",): e, ("g[x]", "gt[x]"): e})
    assert coeff_eq(out.coefficient(("gc[x]",)), e)
    assert coeff_eq(out.coefficient(("gc[x]", "gc[x]")), e.scale(Fraction(1, 2)))


def test_recombine_rejects_monomials_outside_the_scheme():
    # g[y] belongs to no label that is recombined
    with pytest.raises(RecombinationError):
        recombine(
            {("g[x]",): Fraction(1), ("gt[x]",): Fraction(1), ("g[y]",): Fraction(2)},
            labels=["x"],
        )
