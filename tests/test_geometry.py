"""Tests for surfaces, partition functions, gluing, and the cutting axiom."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqft.errors import GeometryError, SpaceMismatchError
from fqft.fock import L_MAX_HARD_CAP, BoundaryState, build_space, scale_by_level
from fqft.geometry import (
    PartitionFunction,
    Surface,
    annulus_pf,
    disk_pf,
    glue,
    verify_cutting,
)
from fqft.scalars import PowerValue


def test_surface_validation():
    with pytest.raises(GeometryError):
        Surface("annulus", R=1, r=1)
    with pytest.raises(GeometryError):
        Surface("annulus", R=Fraction(1, 2), r=1)
    with pytest.raises(GeometryError):
        Surface("disk", R=-1)
    with pytest.raises(GeometryError):
        Surface("torus")


@pytest.mark.parametrize("exact", [True, False])
def test_partition_functions_reject_bad_radii(exact):
    # Surface makes the radius checks, with the same messages, for both
    space = build_space(2, exact=exact)
    for R, r in [(1, 1), (1, 2), (Fraction(1, 2), Fraction(2, 3)), (2.0, 0.0), (1, -1)]:
        with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
            annulus_pf(space, R, r)
    for R in [0, -1, Fraction(-1, 3), 0.0]:
        for shifted in (True, False):
            with pytest.raises(GeometryError, match="disk radius must be positive"):
                disk_pf(space, R, shifted=shifted)


def test_annulus_entries_shifted():
    space = build_space(3)
    pf = annulus_pf(space, 2, 1)
    for parts, value in [
        (((), ()), 1),
        (((1,), (1,)), Fraction(1, 4)),
        (((2, 1), ()), Fraction(1, 8)),
    ]:
        v = space.state(*parts)
        assert pf.by_level[sum(map(sum, parts))] == value
        assert scale_by_level(v, pf.by_level) == v.scale(value)


def test_annulus_ratio_dependence_only():
    space = build_space(3)
    a = annulus_pf(space, 2, 1)
    b = annulus_pf(space, 6, 3)
    assert a.by_level == b.by_level


def test_annulus_unshifted_exponent():
    space = build_space(2)
    pf = annulus_pf(space, 2, 1, shifted=False)
    vac = pf.by_level[space.levels[space.find((), ())]]
    assert vac == PowerValue.from_pow(Fraction(1, 2), Fraction(1, 12))
    lvl2 = pf.by_level[space.levels[space.find((1, 1), ())]]
    assert lvl2 == PowerValue.from_pow(Fraction(1, 2), Fraction(25, 12))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1]), st.integers(2, 12)),
    st.builds(Fraction, st.integers(1, 200), st.integers(1, 30)),
    st.builds(Fraction, st.integers(1, 200), st.integers(1, 30)),
)
def test_annulus_unshifted_matches_from_pow(l_max, a, b):
    # r/R is factorised once and scaled per level; each level equals its own
    # factorisation (r/R)^(E + 1/12) by value, repr and hash
    assume(a != b)
    R, r = max(a, b), min(a, b)
    pf = annulus_pf(build_space(l_max), R, r, shifted=False)
    want = [PowerValue.from_pow(r / R, E + Fraction(1, 12)) for E in range(l_max + 1)]
    assert pf.by_level == want
    assert repr(pf.by_level) == repr(want)
    assert [hash(x) for x in pf.by_level] == [hash(x) for x in want]


def _ref_product(x, y):
    """x * y of two level scalars by the general rule: PowerValues multiply
    their coefficients and sum their exponent maps, and the constructor
    makes the sum canonical; anything else multiplies as it is."""
    if isinstance(x, PowerValue) and isinstance(y, PowerValue):
        exps = dict(x.prime_exps)
        for p, e in y.prime_exps.items():
            exps[p] = exps.get(p, 0) + e
        return PowerValue(x.coeff * y.coeff, exps)
    return x * y


def _same_levels(got, want):
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert repr(got) == repr(want)
    assert [hash(x) for x in got] == [hash(x) for x in want]


# ints, and Fractions whose coprime parts are large primes and ints up to 10**5
_BIG = [8191, 65537, 131071, 1000003]
exact_radii = st.one_of(
    st.integers(1, 10**4),
    st.builds(Fraction, st.sampled_from(_BIG), st.integers(1, 10**5)),
    st.builds(Fraction, st.integers(1, 10**5), st.sampled_from(_BIG)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(exact_radii, min_size=2, max_size=6, unique=True),
    st.integers(0, 8),
    st.booleans(),
    st.data(),
)
def test_cutting_chain_matches_per_level_reference(radii, l_max, shifted, data):
    # every annulus the chain cuts is (r/R)^E, or (r/R)^(E + 1/12) by its own
    # factorisation, at each level; each glued level is the product of its
    # two factors' levels; the check is exact, and a corrupted level is named
    radii.sort(reverse=True)
    space = build_space(l_max)
    R0, Rn = radii[0], radii[-1]

    def checked_annulus(R, r):
        pf = annulus_pf(space, R, r, shifted=shifted)
        ratio = Fraction(r) / Fraction(R)
        if shifted:
            want = [ratio**E for E in range(l_max + 1)]
        else:
            want = [PowerValue.from_pow(ratio, E + Fraction(1, 12)) for E in range(l_max + 1)]
        _same_levels(pf.by_level, want)
        return pf

    direct = checked_annulus(R0, Rn)
    for m in range(1, len(radii) - 1):
        outer, inner = checked_annulus(R0, radii[m]), checked_annulus(radii[m], Rn)
        glued = glue(outer, inner).by_level
        _same_levels(glued, [_ref_product(a, b) for a, b in zip(outer.by_level, inner.by_level)])
        assert glued == direct.by_level
    report = verify_cutting(space, radii, shifted=shifted)
    assert report["exact_zero"], report
    assert report["cuts_checked"] == len(radii) - 2
    if len(radii) > 2:
        E = data.draw(st.integers(0, l_max))
        report = verify_cutting(space, radii, shifted=shifted, corrupt=E)
        assert report["offending_level"] == E and not report["exact_zero"]


_powers = st.builds(
    PowerValue.from_pow,
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 12])),
)


@st.composite
def _levels(draw, count):
    """Level scalars of four kinds: a rational multiple of one shared
    PowerValue (its exponent map shared), a PowerValue of its own, a
    Fraction, and a zero PowerValue."""
    shared = draw(_powers)
    kinds = {
        "shared": st.builds(lambda q: shared * q, st.integers(1, 3)),
        "own": _powers,
        "rational": st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
        "zero": _powers.map(lambda x: x * 0),
    }
    return [draw(kinds[draw(st.sampled_from(sorted(kinds)))]) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda l: st.tuples(st.just(l), _levels(l + 1), _levels(l + 1))))
def test_glue_levels_with_their_own_exponent_maps(drawn):
    # levels that share no exponent map, or only on one side, against runs of
    # levels that share one on both: a merged pair of maps serves only the
    # levels that hold both of its maps
    l_max, outer_levels, inner_levels = drawn
    space = build_space(l_max)
    outer = PartitionFunction(Surface("annulus", R=4, r=2), space, by_level=outer_levels)
    inner = PartitionFunction(Surface("annulus", R=2, r=1), space, by_level=inner_levels)
    want = [_ref_product(a, b) for a, b in zip(outer_levels, inner_levels)]
    _same_levels(glue(outer, inner).by_level, want)


def test_annulus_composition():
    space = build_space(4)
    glued = glue(annulus_pf(space, 4, 2), annulus_pf(space, 2, 1))
    direct = annulus_pf(space, 4, 1)
    assert glued.by_level == direct.by_level
    assert glued.surface.params == {"R": 4, "r": 1}


def test_annulus_composition_unshifted():
    space = build_space(3)
    glued = glue(
        annulus_pf(space, 4, 2, shifted=False), annulus_pf(space, 2, 1, shifted=False)
    )
    direct = annulus_pf(space, 4, 1, shifted=False)
    assert all(x == y for x, y in zip(glued.by_level, direct.by_level))


def test_geometric_mismatch():
    space = build_space(2)
    with pytest.raises(GeometryError):
        glue(annulus_pf(space, 4, 2), annulus_pf(space, 3, 1))
    with pytest.raises(GeometryError):
        glue(annulus_pf(space, 4, 2), disk_pf(space, 1))


def test_space_mismatch():
    a, b = build_space(2), build_space(2)
    with pytest.raises(SpaceMismatchError):
        glue(annulus_pf(a, 2, 1), annulus_pf(b, 4, 2))


def test_disk_vacuum_and_cutting_closure():
    space = build_space(4)
    for R in (1, 2, Fraction(7, 3)):
        pf = disk_pf(space, R)
        assert pf.state == space.vacuum()
    closed = glue(annulus_pf(space, 3, 1), disk_pf(space, 1))
    assert closed.state == space.vacuum()
    assert closed.surface.kind == "disk" and closed.surface.params["R"] == 3


def test_disk_unshifted_radius_dependence():
    space = build_space(2)
    pf = disk_pf(space, 2, shifted=False)
    i0 = space.find((), ())
    assert pf.state[i0] == PowerValue.from_pow(2, Fraction(-1, 12))
    # cutting still holds unshifted: annulus(R,r) |D_r> = |D_R>
    closed = glue(annulus_pf(space, 2, 1, shifted=False), disk_pf(space, 1, shifted=False))
    direct = disk_pf(space, 2, shifted=False)
    assert all(
        closed.state[i] == direct.state[i] for i in range(space.dim)
    )


def test_glue_associativity_on_random_state():
    space = build_space(3)
    rng = random.Random(7)
    v = BoundaryState(
        space,
        {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(space.dim)},
    )
    lhs = glue(annulus_pf(space, 4, 2), glue(annulus_pf(space, 2, 1), v).state)
    rhs = glue(annulus_pf(space, 4, 1), v)
    assert lhs.state == rhs.state


@given(st.integers(min_value=0, max_value=4))
@settings(max_examples=5, deadline=None)
def test_verify_cutting_exact(l_max):
    space = build_space(l_max)
    report = verify_cutting(space, [Fraction(4), Fraction(3), Fraction(2), Fraction(1)])
    assert report["exact_zero"]
    assert report["offending_level"] is None


@pytest.mark.parametrize("l_max", [0, 1, L_MAX_HARD_CAP])
def test_verify_cutting_exact_edges(l_max):
    space = build_space(l_max)
    for shifted in (True, False):
        report = verify_cutting(
            space, [Fraction(4), Fraction(3), Fraction(2), Fraction(1)], shifted=shifted
        )
        assert report["exact_zero"], (l_max, shifted, report)
        assert report["max_residual"] == 0.0 and report["disk_residual"] == 0.0
        assert report["offending_level"] is None


def test_verify_cutting_float():
    space = build_space(6, exact=False)
    report = verify_cutting(space, [4.0, 3.0, 2.5, 2.0, 1.0])
    assert report["max_residual"] < 1e-12
    assert report["disk_residual"] < 1e-12


_FAULT_CASES = [(level, s, e) for level in range(4) for s in (True, False) for e in (True, False)]


# ids name only what differs from the default (shifted, exact): "2", "2-unshifted-float64"
@pytest.mark.parametrize(
    "level, shifted, exact",
    _FAULT_CASES,
    ids=[f"{l}{'' if s else '-unshifted'}{'' if e else '-float64'}" for l, s, e in _FAULT_CASES],
)
def test_verify_cutting_fault_injection(level, shifted, exact):
    space = build_space(3, exact=exact)
    report = verify_cutting(
        space, [Fraction(4), Fraction(2), Fraction(1)], shifted=shifted, corrupt=level
    )
    assert report["max_residual"] > 0
    assert report["offending_level"] == level
    assert report["offending_cut"] == 1
    assert not report["exact_zero"]


def test_cutting_unshifted_convention():
    space = build_space(3)
    report = verify_cutting(
        space, [Fraction(3), Fraction(2), Fraction(1)], shifted=False
    )
    assert report["exact_zero"]


def test_bad_cut_points():
    space = build_space(2)
    with pytest.raises(GeometryError):
        verify_cutting(space, [1, 2, 3])
    with pytest.raises(GeometryError):
        verify_cutting(space, [2])


def test_zero_power_value_is_canonical():
    # zero carries no exponents, so it equals every other zero and is dropped
    # from sparse states like a plain zero
    z = PowerValue.from_pow(2, Fraction(1, 12)) * 0
    assert z == 0 and 0 == z
    assert PowerValue.from_pow(3, Fraction(-1, 3)) * 0 == z
    assert hash(z) == hash(PowerValue(0))
    space = build_space(1)
    assert BoundaryState(space, {0: z}).is_zero()
    assert space.vacuum().scale(z) == space.zero()
