"""Tests for surfaces, partition functions, gluing, and the cutting axiom."""

import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqft import geometry
from fqft.errors import GeometryError, SpaceMismatchError
from fqft.fock import L_MAX_HARD_CAP, BoundaryState, build_space, scale_by_level
from fqft.geometry import (
    Annulus,
    Disk,
    annulus_pf,
    disk_pf,
    glue,
    verify_cutting,
)


def _verify_cutting_with_fault(space, radii, shifted, level):
    """verify_cutting with geometry.glue patched to scale `level` of every
    annulus o annulus glue by 101/100 (1.01 in float64), its anomaly kept;
    the disk closure's glue is left alone."""

    def faulty_glue(outer, inner):
        out = glue(outer, inner)
        if not isinstance(inner, Annulus):
            return out
        by_level = list(out.by_level)
        by_level[level] = by_level[level] * (Fraction(101, 100) if space.exact else 1.01)
        return Annulus(space, out.R, out.r, by_level, out.anomaly)

    with mock.patch.object(geometry, "glue", faulty_glue):
        return verify_cutting(space, radii, shifted=shifted)


def test_surface_validation():
    # each surface type checks its own radii, with the factories' messages
    space = build_space(2)
    levels = [1] * (space.l_max + 1)
    with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
        Annulus(space, 1, 1, levels, 1)
    with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
        Annulus(space, Fraction(1, 2), 1, levels, 1)
    with pytest.raises(GeometryError, match="disk radius must be positive"):
        Disk(space, -1, space.vacuum(), 1)
    with pytest.raises(ValueError, match="one scalar per level"):
        Annulus(space, 2, 1, levels[1:], 1)


@pytest.mark.parametrize("exact", [True, False])
def test_partition_functions_reject_bad_radii(exact):
    # the factories check the radii before forming r/R or 1/R, for both
    space = build_space(2, exact=exact)
    for R, r in [(1, 1), (1, 2), (Fraction(1, 2), Fraction(2, 3)), (2.0, 0.0), (1, -1)]:
        with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
            annulus_pf(space, R, r)
    for R in [0, -1, Fraction(-1, 3), 0.0, float("nan")]:
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


def _twelfth_powers(pf):
    """The twelfth power of each level's value, anomaly * level**12: a
    rational, by the ring operations alone."""
    return [pf.anomaly * x**12 for x in pf.by_level]


def test_annulus_unshifted_exponent():
    # the vacuum's value is (1/2)^(1/12) and level 2's (1/2)^(25/12)
    space = build_space(2)
    pf = annulus_pf(space, 2, 1, shifted=False)
    twelfth = _twelfth_powers(pf)
    assert twelfth[space.levels[space.find((), ())]] == Fraction(1, 2)
    assert twelfth[space.levels[space.find((1, 1), ())]] == Fraction(1, 2) ** 25
    assert pf.anomaly == Fraction(1, 2) and type(pf.anomaly) is Fraction


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1]), st.integers(2, 12)),
    st.builds(Fraction, st.integers(1, 200), st.integers(1, 30)),
    st.builds(Fraction, st.integers(1, 200), st.integers(1, 30)),
)
def test_annulus_unshifted_matches_from_pow(l_max, a, b):
    # each level's value is (r/R)^(E + 1/12): its twelfth power is
    # (r/R)^(12 E + 1), and the levels are the shifted convention's, by
    # value, type, repr and hash
    assume(a != b)
    R, r = max(a, b), min(a, b)
    space = build_space(l_max)
    pf = annulus_pf(space, R, r, shifted=False)
    assert _twelfth_powers(pf) == [(r / R) ** (12 * E + 1) for E in range(l_max + 1)]
    assert pf.anomaly == r / R and type(pf.anomaly) is Fraction
    _same_levels(pf.by_level, annulus_pf(space, R, r).by_level)


def _same_levels(got, want):
    """got == want by value, by each value's type, by repr and by hash."""
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
    # every annulus the chain cuts is (r/R)^E at each level, with the anomaly
    # r/R when unshifted; each glued level is the product of its two
    # factors' levels, and each glued anomaly the product of theirs; the
    # check is exact, and a corrupted level is named
    radii.sort(reverse=True)
    space = build_space(l_max)
    R0, Rn = radii[0], radii[-1]

    def checked_annulus(R, r):
        pf = annulus_pf(space, R, r, shifted=shifted)
        ratio = Fraction(r) / Fraction(R)
        _same_levels(pf.by_level, [ratio**E for E in range(l_max + 1)])
        _same_levels([pf.anomaly], [1 if shifted else ratio])
        if not shifted:
            assert _twelfth_powers(pf) == [ratio ** (12 * E + 1) for E in range(l_max + 1)]
        return pf

    direct = checked_annulus(R0, Rn)
    for m in range(1, len(radii) - 1):
        outer, inner = checked_annulus(R0, radii[m]), checked_annulus(radii[m], Rn)
        glued = glue(outer, inner)
        _same_levels(glued.by_level, [a * b for a, b in zip(outer.by_level, inner.by_level)])
        _same_levels([glued.anomaly], [outer.anomaly * inner.anomaly])
        assert glued.by_level == direct.by_level and glued.anomaly == direct.anomaly
    report = verify_cutting(space, radii, shifted=shifted)
    assert report["exact_zero"], report
    assert report["cuts_checked"] == len(radii) - 2
    if len(radii) > 2:
        E = data.draw(st.integers(0, l_max))
        report = _verify_cutting_with_fault(space, radii, shifted, E)
        assert report["offending_level"] == E and not report["exact_zero"]


def test_annulus_composition():
    space = build_space(4)
    glued = glue(annulus_pf(space, 4, 2), annulus_pf(space, 2, 1))
    direct = annulus_pf(space, 4, 1)
    assert glued.by_level == direct.by_level
    assert isinstance(glued, Annulus) and (glued.R, glued.r) == (4, 1)


def test_annulus_composition_unshifted():
    space = build_space(3)
    glued = glue(
        annulus_pf(space, 4, 2, shifted=False), annulus_pf(space, 2, 1, shifted=False)
    )
    direct = annulus_pf(space, 4, 1, shifted=False)
    assert glued.by_level == direct.by_level
    assert glued.anomaly == direct.anomaly == Fraction(1, 4)


def test_geometric_mismatch():
    space = build_space(2)
    with pytest.raises(GeometryError):
        glue(annulus_pf(space, 4, 2), annulus_pf(space, 3, 1))
    with pytest.raises(GeometryError):
        glue(annulus_pf(space, 4, 2), disk_pf(space, 1))
    # only an annulus has an inner boundary to sew
    with pytest.raises(GeometryError, match="outer piece of a gluing must be an annulus"):
        glue(disk_pf(space, 2), annulus_pf(space, 2, 1))


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
    assert isinstance(closed, Disk) and closed.R == 3


def test_disk_unshifted_radius_dependence():
    # the vacuum times 2^(-1/12): the anomaly 1/2
    space = build_space(2)
    pf = disk_pf(space, 2, shifted=False)
    assert pf.state == space.vacuum()
    assert pf.anomaly == Fraction(1, 2) and type(pf.anomaly) is Fraction
    # cutting still holds unshifted: annulus(R,r) |D_r> = |D_R>
    closed = glue(annulus_pf(space, 2, 1, shifted=False), disk_pf(space, 1, shifted=False))
    direct = disk_pf(space, 2, shifted=False)
    assert all(
        closed.state[i] == direct.state[i] for i in range(space.dim)
    )
    assert closed.anomaly == direct.anomaly


def test_glue_associativity_on_random_state():
    space = build_space(3)
    rng = random.Random(7)
    v = BoundaryState(
        space,
        {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(space.dim)},
    )
    lhs = glue(annulus_pf(space, 4, 2), glue(annulus_pf(space, 2, 1), v))
    rhs = glue(annulus_pf(space, 4, 1), v)
    assert lhs == rhs


def test_glue_onto_bare_state_is_a_bare_state():
    # a bare BoundaryState has no surface and no anomaly, and neither has an
    # annulus glued onto it: no "annulus" holding a state comes back
    space = build_space(2)
    chain = glue(annulus_pf(space, 8, 4), glue(annulus_pf(space, 4, 2), space.vacuum()))
    assert isinstance(chain, BoundaryState)
    assert chain == glue(annulus_pf(space, 8, 2), space.vacuum())
    assert chain == glue(annulus_pf(space, 8, 2), disk_pf(space, 2)).state


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
    report = _verify_cutting_with_fault(
        space, [Fraction(4), Fraction(2), Fraction(1)], shifted, level
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


def test_disk_closure_mismatch_below_float_resolution():
    # a closed disk state off by one part in 10**30 is unequal exactly,
    # though its float difference rounds to 0.0: it reads inf, never 0.0
    def faulty_glue(outer, inner):
        out = glue(outer, inner)
        if not isinstance(inner, Disk):
            return out
        state = out.state.scale(1 + Fraction(1, 10**30))
        return Disk(out.space, out.R, state, out.anomaly)

    space = build_space(2)
    for shifted in (True, False):
        with mock.patch.object(geometry, "glue", faulty_glue):
            report = verify_cutting(space, [4, 2, 1], shifted=shifted)
        assert report["disk_residual"] == float("inf"), report
        assert report["offending_level"] is None and not report["exact_zero"]


def _inverted_anomaly(make):
    """`make` (annulus_pf or disk_pf) with the anomaly's base turned over:
    R/r for an annulus, R for a disk."""

    def wrong(*args, **kwargs):
        pf = make(*args, **kwargs)
        pf.anomaly = 1 / pf.anomaly
        return pf

    return wrong


def _glue_with_anomaly(rule):
    """glue with its anomaly replaced by rule(outer, inner)."""

    def wrong(outer, inner):
        out = glue(outer, inner)
        out.anomaly = rule(outer, inner)
        return out

    return wrong


_ANOMALY_MUTANTS = {
    "annulus-R-over-r": ("annulus_pf", _inverted_anomaly(annulus_pf)),
    "disk-R": ("disk_pf", _inverted_anomaly(disk_pf)),
    "glue-drops-anomalies": ("glue", _glue_with_anomaly(lambda outer, inner: 1)),
    "glue-keeps-outer-anomaly": ("glue", _glue_with_anomaly(lambda outer, inner: outer.anomaly)),
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("mutant", sorted(_ANOMALY_MUTANTS))
def test_unshifted_cutting_sees_a_wrong_anomaly(mutant, exact):
    # annulus o annulus cannot see an annulus anomaly turned over (both
    # sides turn); the disk closure can, and sees each of the others
    name, wrong = _ANOMALY_MUTANTS[mutant]
    space = build_space(3, exact=exact)
    radii = [Fraction(4), Fraction(2), Fraction(1)] if exact else [4.0, 2.0, 1.0]
    assert verify_cutting(space, radii, shifted=False)["disk_residual"] < 1e-12
    with mock.patch.object(geometry, name, wrong):
        report = verify_cutting(space, radii, shifted=False)
    assert not report["exact_zero"]
    assert report["offending_level"] is not None or report["disk_residual"] > 0
    assert max(report["max_residual"], report["disk_residual"]) > 1e-3, report


@pytest.mark.parametrize("R, r", [(2.0, 1.0), (7.0, 3.0), (1e6, 1.0), (1.5, 1.25)])
def test_float_unshifted_values_match_powers(R, r):
    # anomaly^(1/12) times each level is (r/R)^(E + 1/12), and the disk's
    # anomaly^(1/12) is R^(-1/12)
    space = build_space(6, exact=False)
    pf = annulus_pf(space, R, r, shifted=False)
    for E, x in enumerate(pf.by_level):
        assert pf.anomaly ** (1 / 12) * x == pytest.approx((r / R) ** (E + 1 / 12), rel=1e-14)
    disk = disk_pf(space, R, shifted=False)
    assert disk.anomaly ** (1 / 12) == pytest.approx(R ** (-1 / 12), rel=1e-14)
    assert disk.state == space.vacuum()


def test_exact_disk_anomaly_is_the_inverse_radius():
    # the disk's value R^(-1/12) has twelfth power 1/R
    space = build_space(2)
    for R in (1, 2, Fraction(7, 3), Fraction(1, 5)):
        assert disk_pf(space, R, shifted=False).anomaly * R == 1


@pytest.mark.parametrize("shifted", [True, False])
def test_exact_scalars_are_rationals(shifted):
    # every level, anomaly and state coefficient of the exact pipeline is an
    # int or a Fraction, glued ones included
    space = build_space(4)
    outer, inner = annulus_pf(space, 6, 3, shifted=shifted), annulus_pf(space, 3, 2, shifted=shifted)
    disk = disk_pf(space, 2, shifted=shifted)
    annuli = [outer, inner, glue(outer, inner)]
    disks = [disk, glue(inner, disk), glue(glue(outer, inner), disk)]
    values = [x for pf in annuli for x in pf.by_level]
    values += [c for pf in disks for c in pf.state.terms.values()]
    values += [pf.anomaly for pf in annuli + disks]
    assert {type(x) for x in values} <= {int, Fraction}


def test_unshifted_cutting_with_a_large_prime_radius():
    # 2**61 - 1 is prime; the check takes no factorisation, so the radius
    # costs no more than a small one
    space = build_space(4)
    p = 2**61 - 1
    start = time.perf_counter()
    for radii in ([p, 3, 1], [Fraction(p), Fraction(2), Fraction(1, p)]):
        report = verify_cutting(space, radii, shifted=False)
        assert report["exact_zero"], report
    assert time.perf_counter() - start < 1.0


def test_bad_cut_points():
    space = build_space(2)
    with pytest.raises(GeometryError):
        verify_cutting(space, [1, 2, 3])
    with pytest.raises(GeometryError):
        verify_cutting(space, [2])
