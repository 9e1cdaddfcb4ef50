"""Tests for local observables, correlators, dilation, and OPE extraction."""

from fractions import Fraction

import pytest

from fqft.errors import (
    ExtractionError,
    GoodnessError,
    TruncationOverflowError,
    ValidationError,
)
from fqft.fock import L_MAX_HARD_CAP, build_space
from fqft.geometry import annulus_pf
from fqft.observables import (
    OpeTable,
    ZSeries,
    canonical_family,
    canonical_state,
    current_observable,
    descendant_family,
    dilation,
    identity_observable,
    insert_family,
    limit_r0,
    marginal_observable,
    one_point,
    ope_extract,
    ope_resum,
    scaling_dimension,
    split_levels,
    two_point,
)
from fqft.rexp import RExpansion


# ------------------------------------------------------- families & goodness


def test_insert_current_family():
    space = build_space(4)
    fam = RExpansion.term(-1, 0, space.state((1,)))
    out = insert_family(space, fam, Fraction(3))
    const = out.constant_term()
    assert const == space.state((1,)).scale(Fraction(1, 3))
    assert not out.singular_terms()
    assert limit_r0(out, space) == const


def test_insert_constant_vacuum_family():
    space = build_space(3)
    out = insert_family(space, RExpansion.constant(space.vacuum()), Fraction(2))
    assert limit_r0(out, space) == space.vacuum()  # the disk partition function


def test_constant_current_family_is_null():
    # r-independent j_{-1}|0> acquires r^{+1}: good, with zero limit
    space = build_space(3)
    out = insert_family(space, RExpansion.constant(space.state((1,))), 2)
    assert out.coefficient(1) is not None
    assert limit_r0(out, space).is_zero()


def test_limit_r0_failures():
    space = build_space(2)
    bad = RExpansion({(-2, 0): space.vacuum(), (0, 0): space.state((1,))})
    with pytest.raises(GoodnessError) as err:
        limit_r0(bad, space)
    assert err.value.power == -2
    logbad = RExpansion({(0, 1): space.vacuum()})
    with pytest.raises(GoodnessError) as err:
        limit_r0(logbad, space)
    assert err.value.log_power == 1


def test_limit_r0_float_tolerance():
    space = build_space(2, exact=False)
    noise = space.vacuum().scale(1e-14)
    e = RExpansion({(-1, 0): noise, (0, 0): space.vacuum()})
    assert limit_r0(e, space) == space.vacuum()
    loud = RExpansion({(-1, 0): space.vacuum().scale(1e-3), (0, 0): space.vacuum()})
    with pytest.raises(GoodnessError):
        limit_r0(loud, space)


def test_canonical_family_roundtrip():
    space = build_space(3)
    w = space.state((1,)) + space.state((2, 1)).scale(Fraction(5))
    fam = canonical_family(w)
    assert fam.coefficient(-1) == space.state((1,))
    assert fam.coefficient(-3) == space.state((2, 1)).scale(5)
    assert canonical_state(space, fam) == w
    # reinsertion: the one-point correlator on D_r, viewed as a family,
    # reproduces the original limit
    out = insert_family(space, fam, 1)
    assert limit_r0(out, space) == w


# --------------------------------------------------------------- one_point


def test_one_point_current_origin():
    space = build_space(4)
    j = current_observable(space)
    assert one_point(space, j, 0, 1) == space.state((1,))
    assert one_point(space, j, 0, Fraction(2)) == space.state((1,)).scale(
        Fraction(1, 2)
    )


def test_one_point_identity_anywhere():
    space = build_space(3)
    one = identity_observable(space)
    assert one_point(space, one, Fraction(1, 3), 2) == space.vacuum()


def test_one_point_current_mode_coefficients():
    # <j(z)>_{D_R} = sum_n z^{n-1} R^{-n} j_{-n}|0>
    space = build_space(4)
    j = current_observable(space)
    z, R = Fraction(1, 3), Fraction(2)
    v = one_point(space, j, z, R)
    for n in range(1, space.l_max + 1):
        assert v[space.find((n,), ())] == z ** (n - 1) * R ** (-n)


def test_one_point_outside_disk():
    space = build_space(2)
    with pytest.raises(ValidationError):
        one_point(space, current_observable(space), 3, 2)


def test_one_point_locality():
    # <O(z)>_{D_R} = glue(annulus(R, Rp), <O(z)>_{D_Rp})
    space = build_space(4)
    j = current_observable(space)
    z, R, Rp = Fraction(1, 4), Fraction(3), Fraction(1)
    direct = one_point(space, j, z, R)
    inner = one_point(space, j, z, Rp)
    glued = annulus_pf(space, R, Rp).apply(inner)
    assert direct == glued


def test_one_point_unsupported_transport():
    space = build_space(4)
    desc = descendant_family(identity_observable(space), (2,))
    with pytest.raises(ValidationError):
        one_point(space, desc, Fraction(1, 2), 1)
    # at the origin it still works
    assert one_point(space, desc, 0, 1) == space.state((2,))


# --------------------------------------------------------------- two_point


def test_two_point_jj_singular_term():
    space = build_space(4)
    j = current_observable(space)
    series = two_point(space, j, j, R=1)
    assert series.coefficient(-2, 0) == space.vacuum()
    assert series.coefficient(-1, 0).is_zero()
    assert series.coefficient(-3, 0).is_zero()


def test_two_point_jj_regular_rows_are_descendants():
    # coefficient of z^{m-1} is j_{-m} j_{-1}|0> at R=1
    space = build_space(5)
    j = current_observable(space)
    series = two_point(space, j, j, R=1)
    for m in range(1, space.l_max):
        assert series.coefficient(m - 1, 0) == space.state(
            tuple(sorted((m, 1), reverse=True))
        )


def test_two_point_identity_insertion():
    space = build_space(3)
    one = identity_observable(space)
    jb = current_observable(space, bar=True)
    series = two_point(space, one, jb, R=Fraction(2))
    assert series.coefficient(0, 0) == one_point(space, jb, 0, Fraction(2))
    assert len(series.terms) == 1


def test_two_point_radius_scaling():
    space = build_space(4)
    j = current_observable(space)
    s1 = two_point(space, j, j, R=1)
    s2 = two_point(space, j, j, R=Fraction(2))
    for (m, mbar), v in s1.terms.items():
        w = s2.coefficient(m, mbar)
        for i, c in v.nonzero():
            E = space.levels[i]
            assert w[i] == c * Fraction(2) ** (-E)


def test_two_point_marginal_pair():
    space = build_space(4)
    o = marginal_observable(space)
    series = two_point(space, o, o, R=1)
    assert series.coefficient(-2, -2) == space.vacuum()
    # no |z|^{-2} marginal channel: chiral factorization forbids it
    assert series.coefficient(-1, -1).is_zero()
    # mixed singular-regular terms
    assert series.coefficient(-2, 0) == space.state((), (1, 1))


# ---------------------------------------------------------------- dilation


def test_dilation_eigenvalues():
    space = build_space(4)
    lam = Fraction(3)
    assert dilation(lam, space.state((1,))) == space.state((1,)).scale(Fraction(1, 3))
    v = space.state((1,), (1,))
    assert dilation(lam, v) == v.scale(Fraction(1, 9))
    assert dilation(1, v) == v


def test_dilation_int_lambda_is_exact():
    # an int lambda on an exact space scales by Fractions, not floats
    space = build_space(4)
    d = dilation(2, space.state((1,)))
    assert d == space.state((1,)).scale(Fraction(1, 2))
    assert all(type(c) is Fraction for c in d.coeffs.values())
    e = dilation(3, RExpansion({(-2, 0): space.state((1,), (1,))}))
    assert all(type(c) is Fraction for c in e.coefficient(-2).coeffs.values())


def test_dilation_on_expansion():
    space = build_space(3)
    e = RExpansion({(-1, 0): space.state((1,)), (0, 0): space.vacuum()})
    d = dilation(Fraction(2), e)
    assert d.coefficient(-1) == space.state((1,)).scale(Fraction(1, 2))
    assert d.coefficient(0) == space.vacuum()


def test_scaling_dimensions():
    space = build_space(4)
    assert scaling_dimension(identity_observable(space)) == 0
    assert scaling_dimension(current_observable(space)) == 1
    assert scaling_dimension(marginal_observable(space)) == 2
    desc = descendant_family(current_observable(space), (2,))
    assert scaling_dimension(desc) == 3
    mixed = identity_observable(space)
    mixed.state = space.vacuum() + space.state((1,))
    with pytest.raises(ValidationError):
        scaling_dimension(mixed)


def test_descendant_family():
    space = build_space(4)
    vac = identity_observable(space)
    marg = descendant_family(vac, (1,), (1,))
    assert marg.state == space.state((1,), (1,))
    assert marg.dims == (1, 1)
    assert descendant_family(vac) is vac
    with pytest.raises(TruncationOverflowError):
        descendant_family(current_observable(space), (4,))


# -------------------------------------------------------------------- OPE


def test_ope_extract_jj():
    space = build_space(5)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    assert table.coefficient("j", "j", "1", (), ()) == 1  # z^{-2} identity row
    for row in table.rows:
        if row["c"] == "1" and not row["mu"] and not row["mubar"]:
            assert row["exponents"] == (-2, 0)
    assert table.coefficient("j", "j", "1", (1, 1), ()) == 1
    assert table.coefficient("j", "j", "1", (2, 1), ()) == 1


def test_ope_extract_identity_pair():
    space = build_space(3)
    one = identity_observable(space)
    b = current_observable(space, bar=True)
    table = ope_extract(space, one, b)
    assert table.coefficient("1", "jbar", "1", (), (1,)) == 1
    assert len([r for r in table.rows if r["coefficient"] != 0]) == 1


def test_ope_extract_marginal_constants():
    space = build_space(4)
    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    consts = table.marginal_constants()
    assert consts["K"][("jjbar", "jjbar")] == 1
    assert all(v == 0 for v in consts["C"].values())  # C_{alpha beta}^gamma = 0


def test_ope_roundtrip():
    space = build_space(4)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    resummed = ope_resum(space, table, "j", "j")
    series = two_point(space, j, j, R=1)
    assert (resummed - series).is_zero()


def test_ope_extract_order_limit():
    space = build_space(5)
    j = current_observable(space)
    with pytest.raises(ExtractionError):
        ope_extract(space, j, j, max_order=2)


def test_ope_table_json_roundtrip():
    space = build_space(4)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    text = table.to_json()
    back = OpeTable.from_json(text)
    assert back.to_json() == text
    assert back.coefficient("j", "j", "1", (), ()) == 1


def test_ope_table_exponent_validation():
    table = OpeTable(primaries=[("1", 0, 0), ("j", 1, 0)])
    table.add_row("j", "j", "1", (), (), (-3, 0), Fraction(1))
    with pytest.raises(ValidationError):
        OpeTable.from_json(table.to_json())


def test_marginal_ope_at_cap():
    # the marginal jjbar . jjbar OPE at the truncation cap: K = 1, C = 0
    space = build_space(L_MAX_HARD_CAP)
    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    consts = table.marginal_constants()
    assert consts["K"] == {("jjbar", "jjbar"): 1}
    assert all(v == 0 for v in consts["C"].values())
    assert table.coefficient("jjbar", "jjbar", "1") == 1
