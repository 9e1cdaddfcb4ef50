"""Tests for r-expansions and nilpotent coupling jets."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqft.errors import RecombinationError
from fqft.jets import Jet, JetAlgebra, jet_mul, recombine
from fqft.rexp import RExpansion, coeff_eq


# ---------------------------------------------------------------- RExpansion


def test_rexp_constant_and_add():
    a = RExpansion.constant(Fraction(2))
    b = RExpansion.term(-1, 0, Fraction(3))
    s = a + b
    assert s.constant_term() == 2
    assert s.coefficient(-1) == 3
    assert (s - s).is_zero()


def test_rexp_pruning():
    e = RExpansion({(0, 0): Fraction(0), (1, 0): Fraction(2)})
    assert (0, 0) not in e.terms
    assert e.coefficient(1) == 2


def test_rexp_singular_terms():
    e = RExpansion({(-2, 0): 1, (-2, 1): 5, (0, 1): 3, (0, 0): 7, (1, 0): 9})
    sing = e.singular_terms()
    assert set(sing) == {(Fraction(-2), 0), (Fraction(-2), 1), (Fraction(0), 1)}
    assert sing[(-2, 1)] == 5 and e.constant_term() == 7


def test_rexp_log_power_validation():
    with pytest.raises(ValueError):
        RExpansion({(0, -1): 1})


# ----------------------------------------------------------------- JetAlgebra


def test_jet_constructor_sums_monomials_that_sort_equal():
    alg = JetAlgebra.double_coupling(["x", "y"])
    j = Jet(alg, {("g[x]", "gt[y]"): 1, ("gt[y]", "g[x]"): 2})
    assert j.coefficient(("g[x]", "gt[y]")) == 3
    assert Jet(alg, {("g[x]", "gt[y]"): 1, ("gt[y]", "g[x]"): -1}).is_zero()


def _alg():
    return JetAlgebra.double_coupling(["x", "y"])


def test_nilpotency_within_group():
    alg = _alg()
    g = Jet.symbol(alg, "g[x]")
    assert jet_mul(g, g).is_zero()
    # distinct couplings of the same family also annihilate
    gy = Jet.symbol(alg, "g[y]")
    assert jet_mul(g, gy).is_zero()


def test_mixed_product_survives():
    alg = _alg()
    g = Jet.symbol(alg, "g[x]")
    gt = Jet.symbol(alg, "gt[y]")
    p = jet_mul(g, gt)
    assert p.coefficient(("g[x]", "gt[y]")) == 1


def test_unit_and_scalars():
    alg = _alg()
    one = Jet.const(alg, Fraction(1))
    x = Jet.symbol(alg, "g[x]", Fraction(3)) + Jet.const(alg, 2)
    assert jet_mul(one, x) == x
    assert x.scale(2).coefficient(("g[x]",)) == 6


def test_square_of_sum():
    # (g + gt)^2 = 2 g gt under first-order nilpotency of each group
    alg = JetAlgebra.double_coupling(["x"])
    s = Jet.symbol(alg, "g[x]") + Jet.symbol(alg, "gt[x]")
    sq = jet_mul(s, s)
    assert sq.coefficient(("g[x]", "gt[x]")) == 2
    assert len(sq.terms) == 1
    # (g + gt)(g - gt) = gt g - g gt: a product whose terms cancel stores nothing
    assert jet_mul(s, Jet.symbol(alg, "g[x]") - Jet.symbol(alg, "gt[x]")).terms == {}


def test_global_truncation():
    alg = JetAlgebra({"a": (["a1"], 2), "b": (["b1"], 2)}, truncation=2)
    a = Jet.symbol(alg, "a1")
    b = Jet.symbol(alg, "b1")
    ab = jet_mul(a, b)
    assert ab.coefficient(("a1", "b1")) == 1
    assert jet_mul(ab, a).is_zero()  # degree 3 > truncation 2


def test_algebra_mismatch():
    # structurally identical algebras are interchangeable
    assert jet_mul(Jet.symbol(_alg(), "g[x]"), Jet.const(_alg(), 2)).coefficient(
        ("g[x]",)
    ) == 2
    other = JetAlgebra({"g": (["g[x]"], 2)}, truncation=3)
    with pytest.raises(ValueError):
        jet_mul(Jet.symbol(_alg(), "g[x]"), Jet.symbol(other, "g[x]"))


def test_rexp_coefficients_in_jets():
    alg = JetAlgebra.double_coupling(["x"])
    e = RExpansion({(0, 0): Fraction(1), (0, 1): Fraction(2)})
    j = Jet(alg, {("g[x]",): e})
    doubled = j + j
    assert coeff_eq(doubled.coefficient(("g[x]",)), e.scale(2))
    assert jet_mul(j, Jet.const(alg, Fraction(3))).coefficient(("g[x]",)) == e.scale(3)


scalars = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _random_jet(alg, draw_coeffs):
    monos = [(), ("g[x]",), ("gt[x]",), ("g[y]",), ("gt[y]",), ("g[x]", "gt[y]"),
             ("g[y]", "gt[x]"), ("g[x]", "gt[x]")]
    return Jet(alg, dict(zip(monos, draw_coeffs)))


@given(st.lists(scalars, min_size=24, max_size=24))
@settings(max_examples=50, deadline=None)
def test_ring_axioms(cs):
    alg = _alg()
    a = _random_jet(alg, cs[0:8])
    b = _random_jet(alg, cs[8:16])
    c = _random_jet(alg, cs[16:24])
    assert jet_mul(jet_mul(a, b), c) == jet_mul(a, jet_mul(b, c))
    assert jet_mul(a, b + c) == jet_mul(a, b) + jet_mul(a, c)
    assert jet_mul(a, b) == jet_mul(b, a)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


# ------------------------------------------------------------------ recombine


def test_recombine_linear():
    alg = JetAlgebra.double_coupling(["x"])
    expr = Jet(alg, {("g[x]",): Fraction(5), ("gt[x]",): Fraction(5)})
    out = recombine(expr)
    assert out.coefficient(("gc[x]",)) == 5


def test_recombine_linear_mismatch():
    alg = JetAlgebra.double_coupling(["x"])
    expr = Jet(alg, {("g[x]",): Fraction(5), ("gt[x]",): Fraction(4)})
    with pytest.raises(RecombinationError):
        recombine(expr)


def test_recombine_bilinear_symmetric():
    alg = JetAlgebra.double_coupling(["x", "y"])
    # gt^a g^b S_ab with S symmetric: S_xx=4, S_xy=S_yx=3, S_yy=2
    expr = Jet(
        alg,
        {
            ("g[x]", "gt[x]"): Fraction(4),
            ("g[y]", "gt[x]"): Fraction(3),
            ("g[x]", "gt[y]"): Fraction(3),
            ("g[y]", "gt[y]"): Fraction(2),
        },
    )
    out = recombine(expr)
    assert out.coefficient(("gc[x]", "gc[x]")) == 2  # (1/2) S_xx
    assert out.coefficient(("gc[y]", "gc[y]")) == 1
    assert out.coefficient(("gc[x]", "gc[y]")) == 3


def test_recombine_antisymmetric_fails():
    alg = JetAlgebra.double_coupling(["x", "y"])
    expr = Jet(alg, {("g[y]", "gt[x]"): Fraction(3), ("g[x]", "gt[y]"): Fraction(-3)})
    with pytest.raises(RecombinationError):
        recombine(expr)


def test_recombine_roundtrip_on_double_deformation_shape():
    # expand(recombine(expr)) reproduces expr modulo the (g, gt) -> gc identification:
    # substituting g = gt = gc/2 ... instead check the canonical generator:
    # expr = (g+gt) L + gt g S  ->  gc L + (1/2) gc^2 S
    alg = JetAlgebra.double_coupling(["x"])
    L, S = Fraction(7), Fraction(4)
    expr = Jet(
        alg, {("g[x]",): L, ("gt[x]",): L, ("g[x]", "gt[x]"): S}
    )
    out = recombine(expr)
    assert out.coefficient(("gc[x]",)) == L
    assert out.coefficient(("gc[x]", "gc[x]")) == S / 2


def test_recombine_rexp_coefficients():
    alg = JetAlgebra.double_coupling(["x"])
    e = RExpansion({(0, 1): Fraction(3)})
    expr = Jet(alg, {("g[x]",): e, ("gt[x]",): e, ("g[x]", "gt[x]"): e})
    out = recombine(expr)
    assert coeff_eq(out.coefficient(("gc[x]",)), e)
    assert coeff_eq(out.coefficient(("gc[x]", "gc[x]")), e.scale(Fraction(1, 2)))


def test_recombine_rejects_monomials_outside_the_scheme():
    # g[y] and gt[y] belong to no label that is recombined
    alg = JetAlgebra.double_coupling(["x", "y"])
    expr = Jet(alg, {("g[x]",): Fraction(1), ("gt[x]",): Fraction(1), ("g[y]",): Fraction(2)})
    with pytest.raises(RecombinationError):
        recombine(expr, labels=["x"])


def test_recombine_drops_a_float_half_that_underflows():
    # the output is wrapped unchecked, so a halved diagonal must be tested:
    # half the smallest subnormal rounds to zero
    alg = JetAlgebra.double_coupling(["x"])
    tiny = np.array([[5e-324]])
    assert recombine(Jet(alg, {("g[x]", "gt[x]"): tiny})).terms == {}
