"""Tests for surfaces, partition functions, gluing, and the cutting axiom."""

import logging
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fqft import geometry
from fqft.deformation import fb_deformed_annulus
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
from fqft.jets import Jet, JetAlgebra
from fqft.scalars import canonical_rational


def _verify_cutting_with_fault(space, radii, shifted, level):
    """verify_cutting with geometry.glue patched to scale `level` of every
    annulus o annulus glue by 101/100, its anomaly kept;
    the disk closure's glue is left alone."""

    def faulty_glue(outer, inner):
        out = glue(outer, inner)
        if not isinstance(inner, Annulus):
            return out
        by_level = list(out.by_level)
        by_level[level] = by_level[level] * Fraction(101, 100)
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


@pytest.mark.parametrize("shifted", [True, False])
def test_partition_functions_reject_bad_radii(shifted):
    # the factories check the radii before forming r/R or 1/R
    space = build_space(2)
    for R, r in [(1, 1), (1, 2), (Fraction(1, 2), Fraction(2, 3)), (2.0, 0.0), (1, -1)]:
        with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
            annulus_pf(space, R, r, shifted=shifted)
    for R in [0, -1, Fraction(-1, 3), 0.0, float("nan")]:
        with pytest.raises(GeometryError, match="disk radius must be positive"):
            disk_pf(space, R, shifted=shifted)


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("integral", [True, False])
def test_infinite_radii_and_foreign_pieces_are_rejected(integral, shifted):
    # no ratio r/R or 1/R exists at R = inf: exact arithmetic once raised
    # OverflowError converting it.  The finite radii beside it are ints, or
    # floats when not integral
    space = build_space(2)
    one = 1 if integral else 1.0
    with pytest.raises(GeometryError, match="finite"):
        annulus_pf(space, math.inf, one, shifted=shifted)
    with pytest.raises(GeometryError, match="finite"):
        disk_pf(space, math.inf, shifted=shifted)
    with pytest.raises(GeometryError, match="finite"):
        verify_cutting(space, [math.inf, 2 * one, one], shifted=shifted)
    w = Jet(JetAlgebra(["g[jjbar]"], 1), {(): space.vacuum()})
    with pytest.raises(GeometryError, match="finite"):
        fb_deformed_annulus(space, math.inf, one, w)
    # a radius beyond the float range is finite, and valid
    for big in (Fraction(10**400), 10**400):
        report = verify_cutting(space, [big, 2, 1], shifted=shifted)
        assert report["exact_zero"], report
    # gluing takes an annulus, a disk or a boundary state as its inner piece
    annulus = annulus_pf(space, 2 * one, one, shifted=shifted)
    for inner in (None, space, w, 1):
        with pytest.raises(GeometryError, match="inner piece"):
            glue(annulus, inner)


_ANNULUS_RADII = "annulus radii must satisfy R > r > 0 and be finite"
_DISK_RADIUS = "disk radius must be positive and finite"
_DECREASING = "cut points must be strictly decreasing radii"
_GLUE_RADIUS = "the annulus's inner radius must equal the inner piece's outer radius"
_NAN, _INF = float("nan"), math.inf

# each bad input with the whole GeometryError message it raises
_BAD_RADII = {
    "cutting-nan-inside": ("verify_cutting", ([4, _NAN, 2, 1],), _ANNULUS_RADII),
    "cutting-nan-first": ("verify_cutting", ([_NAN, 3, 2, 1],), _ANNULUS_RADII),
    "cutting-nan-last": ("verify_cutting", ([4, 3, 2, _NAN],), _ANNULUS_RADII),
    "cutting-zero-last": ("verify_cutting", ([4, 3, 2, 0],), _ANNULUS_RADII),
    "cutting-negative-last": ("verify_cutting", ([4, 3, 2, -1],), _ANNULUS_RADII),
    "cutting-inf-first": ("verify_cutting", ([_INF, 3, 2, 1],), _ANNULUS_RADII),
    "cutting-equal-neighbours": ("verify_cutting", ([4, 3, 3, 1],), _DECREASING),
    "cutting-increasing": ("verify_cutting", ([1, 2],), _DECREASING),
    "cutting-one-radius": ("verify_cutting", ([4],), _DECREASING),
    "annulus-equal": ("annulus_pf", (1, 1), _ANNULUS_RADII),
    "annulus-inverted": ("annulus_pf", (1, 2), _ANNULUS_RADII),
    "annulus-zero-inner": ("annulus_pf", (2, 0), _ANNULUS_RADII),
    "annulus-negative-inner": ("annulus_pf", (2, -1), _ANNULUS_RADII),
    "annulus-inf-outer": ("annulus_pf", (_INF, 1), _ANNULUS_RADII),
    "annulus-nan-outer": ("annulus_pf", (_NAN, 1), _ANNULUS_RADII),
    "annulus-nan-inner": ("annulus_pf", (2, _NAN), _ANNULUS_RADII),
    "disk-zero": ("disk_pf", (0,), _DISK_RADIUS),
    "disk-negative": ("disk_pf", (Fraction(-1, 3),), _DISK_RADIUS),
    "disk-inf": ("disk_pf", (_INF,), _DISK_RADIUS),
    "disk-nan": ("disk_pf", (_NAN,), _DISK_RADIUS),
}


@pytest.mark.parametrize("shifted", [True, False])
@pytest.mark.parametrize("case", sorted(_BAD_RADII))
def test_bad_radii_raise_their_messages(case, shifted):
    # the whole message, so that checking radii once changes no error
    name, args, message = _BAD_RADII[case]
    space = build_space(2)
    with pytest.raises(GeometryError) as raised:
        getattr(geometry, name)(space, *args, shifted=shifted)
    assert str(raised.value) == message


@pytest.mark.parametrize("shifted", [True, False])
def test_glue_radius_mismatch_and_huge_radius(shifted):
    space = build_space(2)
    outer = annulus_pf(space, 4, 2, shifted=shifted)
    for inner in (annulus_pf(space, 3, 1, shifted=shifted), disk_pf(space, 1, shifted=shifted)):
        with pytest.raises(GeometryError) as raised:
            glue(outer, inner)
        assert str(raised.value) == _GLUE_RADIUS
    # a radius beyond the float range is finite, and valid
    report = verify_cutting(space, [Fraction(10**400), 3, 2, 1], shifted=shifted)
    assert report["exact_zero"], report


def test_cutting_checks_each_piece_once():
    # 4 radii: annulus_pf checks the direct annulus and the two of each of
    # the 2 cuts, disk_pf its 2 disks; glue's results are not checked again
    space = build_space(2)
    with mock.patch.object(
        geometry, "_check_annulus", wraps=geometry._check_annulus
    ) as annulus, mock.patch.object(geometry, "_check_disk", wraps=geometry._check_disk) as disk:
        assert verify_cutting(space, [4, 3, 2, 1])["exact_zero"]
    assert (annulus.call_count, disk.call_count) == (5, 2)


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
    assert twelfth[space.levels[space.index_of(0, (), ())]] == Fraction(1, 2)
    assert twelfth[space.levels[space.index_of(2, (1, 1), ())]] == Fraction(1, 2) ** 25
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


# decreasing radii: large primes over small ints, and a small int over one
_PRIME_CHAIN = [1000003, Fraction(131071, 7), 8191, Fraction(65537, 9), Fraction(3, 1000003)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(exact_radii, min_size=2, max_size=6, unique=True),
    st.integers(0, 8),
    st.booleans(),
    st.integers(0, L_MAX_HARD_CAP),
)
# l_max 0 and 1 and the cap, where an annulus's numerators reach b^l_max
# for r/R = a/b, on chains of large-prime radii
@example(_PRIME_CHAIN, 0, False, 0)
@example(_PRIME_CHAIN[1:], 1, True, 1)
@example(_PRIME_CHAIN, L_MAX_HARD_CAP, False, 9)
@example(_PRIME_CHAIN[::2], L_MAX_HARD_CAP, True, L_MAX_HARD_CAP)
def test_cutting_chain_matches_per_level_reference(radii, l_max, shifted, fault):
    # every annulus the chain cuts is (r/R)^E at each level, with the anomaly
    # r/R when unshifted; each glued level is the product of its two
    # factors' levels, and each glued anomaly the product of theirs; the
    # check is exact, and a corrupted level (fault mod l_max + 1) is named
    radii = sorted(radii, reverse=True)
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
        E = fault % (l_max + 1)
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


def test_disk_refuses_a_state_over_another_space():
    # a checked Disk holds a state over its own space, as glue needs: a
    # foreign state, of a level the space lacks or not, is refused as glue
    # refuses pieces over two spaces
    sp4, sp8 = build_space(4), build_space(8)
    for state in (sp8.state((3,), (3,)), sp8.vacuum()):
        with pytest.raises(SpaceMismatchError, match="gluing across different truncated spaces"):
            Disk(sp4, 1, state, 1)
    disk = Disk(sp4, 1, sp4.vacuum(), 1)
    assert glue(annulus_pf(sp4, 2, 1), disk).state == sp4.vacuum()


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


def test_verify_cutting_logs_its_size(caplog):
    space = build_space(3)
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        verify_cutting(space, [Fraction(4), Fraction(3), Fraction(2), Fraction(1)])
    assert caplog.messages == ["verify_cutting l_max=3 radii=4"]


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
    # float radii are read as the Fractions they are, and cut exactly
    space = build_space(6)
    report = verify_cutting(space, [4.0, 3.0, 2.5, 2.0, 1.0])
    assert report["exact_zero"], report
    assert report["max_residual"] == 0.0 and report["disk_residual"] == 0.0


_FAULT_CASES = [(level, s) for level in range(4) for s in (True, False)]


# ids name only what differs from the default (shifted): "2", "2-unshifted"
@pytest.mark.parametrize(
    "level, shifted",
    _FAULT_CASES,
    ids=[f"{l}{'' if s else '-unshifted'}" for l, s in _FAULT_CASES],
)
def test_verify_cutting_fault_injection(level, shifted):
    space = build_space(3)
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


# a case keeps the "-exact" in its id that it carried while float64 cases
# ran beside it, so each case keeps its name
@pytest.mark.parametrize("mutant", sorted(_ANOMALY_MUTANTS), ids="{}-exact".format)
def test_unshifted_cutting_sees_a_wrong_anomaly(mutant):
    # annulus o annulus cannot see an annulus anomaly turned over (both
    # sides turn); the disk closure can, and sees each of the others
    name, wrong = _ANOMALY_MUTANTS[mutant]
    space = build_space(3)
    radii = [Fraction(4), Fraction(2), Fraction(1)]
    assert verify_cutting(space, radii, shifted=False)["exact_zero"]
    with mock.patch.object(geometry, name, wrong):
        report = verify_cutting(space, radii, shifted=False)
    assert not report["exact_zero"]
    assert report["offending_level"] is not None or report["disk_residual"] > 0
    assert max(report["max_residual"], report["disk_residual"]) > 1e-3, report


@pytest.mark.parametrize("R, r", [(2.0, 1.0), (7.0, 3.0), (1e6, 1.0), (1.5, 1.25)])
def test_float_unshifted_values_match_powers(R, r):
    # read in float64, anomaly^(1/12) times each level is (r/R)^(E + 1/12),
    # and the disk's anomaly^(1/12) is R^(-1/12)
    space = build_space(6)
    pf = annulus_pf(space, R, r, shifted=False)
    for E, x in enumerate(pf.by_level):
        value = float(pf.anomaly) ** (1 / 12) * float(x)
        assert value == pytest.approx((r / R) ** (E + 1 / 12), rel=1e-14)
    disk = disk_pf(space, R, shifted=False)
    assert float(disk.anomaly) ** (1 / 12) == pytest.approx(R ** (-1 / 12), rel=1e-14)
    assert disk.state == space.vacuum()


def test_exact_disk_anomaly_is_the_inverse_radius():
    # the disk's value R^(-1/12) has twelfth power 1/R
    space = build_space(2)
    for R in (1, 2, Fraction(7, 3), Fraction(1, 5)):
        assert disk_pf(space, R, shifted=False).anomaly * R == 1


@pytest.mark.parametrize("shifted", [True, False])
def test_exact_scalars_are_rationals(shifted):
    # every level, anomaly and state coefficient is an int or a Fraction,
    # glued ones included
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


# ------------------------------------------------------- one radius rule

# positive rationals that a float holds exactly: dyadic, with a 53-bit
# numerator at most, so float(q) is q
_dyadic = st.builds(Fraction, st.integers(1, 2**20), st.sampled_from([1, 2, 4, 1024, 2**30]))
_chain_values = st.lists(
    st.one_of(_dyadic, st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 40))),
    min_size=1,
    max_size=5,
    unique=True,
)


def _representations(q):
    """Every way to write the positive rational q as a radius: a Fraction
    always, an int when integral, a float when a float holds it exactly."""
    out = [q]
    if q.denominator == 1:
        out.append(q.numerator)
    if Fraction(float(q)) == q:
        out.append(float(q))
    return out


def _written(chain, picks):
    """chain with each value x written in its picks[i]-th representation; a
    value that is not a rational (NaN, an infinity) stays as it is."""
    out = []
    for i, x in enumerate(chain):
        kinds = _representations(x) if isinstance(x, Fraction) else [x]
        out.append(kinds[picks[i] % len(kinds)])
    return out


def _pf_fields(pf):
    """An annulus or a disk as its radii, numerators, denominator, anomaly
    and state, each value with its type."""
    if isinstance(pf, Annulus):
        fields = [pf.R, pf.r, pf.den, pf.anomaly, *pf.nums]
    else:
        fields = [pf.R, pf.anomaly, *sorted(pf.state.terms.items())]
    return [(x, type(x)) for x in fields]


def _raised(call):
    """The GeometryError call raises, as its message, or None."""
    try:
        call()
    except GeometryError as err:
        return str(err)
    return None


@settings(max_examples=60, deadline=None)
@given(
    _chain_values,
    st.lists(st.integers(0, 2), min_size=7, max_size=7),
    st.integers(0, 6),
    st.booleans(),
)
@example([Fraction(4), Fraction(3), Fraction(2), Fraction(1)], [1] * 7, 4, True)
@example([Fraction(4), Fraction(3), Fraction(2), Fraction(1)], [2] * 7, 4, False)
@example([Fraction(7, 2), Fraction(3), Fraction(1, 4)], [2] * 7, 0, False)
def test_radius_representation_changes_nothing(values, picks, l_max, shifted):
    # an int, an integral or non-integral Fraction and an exact float of one
    # value give equal reports and equal pieces, value and type, and every
    # surface holds the canonical radius: an int when integral
    space = build_space(l_max)
    chain = sorted(values, reverse=True)
    written = _written(chain, picks)
    if len(chain) >= 2:
        assert verify_cutting(space, written, shifted=shifted) == verify_cutting(
            space, chain, shifted=shifted
        )
        R, r = written[0], written[-1]
        want = annulus_pf(space, chain[0], chain[-1], shifted=shifted)
        got = annulus_pf(space, R, r, shifted=shifted)
        assert _pf_fields(got) == _pf_fields(want)
        assert got.R == canonical_rational(chain[0]) and type(got.R) is type(
            canonical_rational(chain[0])
        )
        built = Annulus(space, R, r, want.by_level, want.anomaly)
        assert (built.R, type(built.R), built.r, type(built.r)) == (
            want.R, type(want.R), want.r, type(want.r)
        )
        assert type(got.r) is type(canonical_rational(chain[-1]))
    for x, q in zip(written, chain):
        got, want = disk_pf(space, x, shifted=shifted), disk_pf(space, q, shifted=shifted)
        assert _pf_fields(got) == _pf_fields(want)
        assert type(got.R) is type(canonical_rational(q))
        assert Disk(space, x, want.state, want.anomaly).R == want.R


_BAD_CHAINS = {
    "nan": lambda c: c[:1] + [_NAN] + c[1:],
    "nan-first": lambda c: [_NAN] + c,
    "inf-first": lambda c: [_INF] + c,
    "minus-inf-last": lambda c: c + [-_INF],
    "zero-last": lambda c: c + [Fraction(0)],
    "negative-last": lambda c: c + [-c[0]],
    "equal-neighbours": lambda c: c[:1] + c,
    "increasing": lambda c: c[::-1] if len(c) > 1 else c + [c[0] + 1],
    "one-radius": lambda c: c[:1],
}


@settings(max_examples=40, deadline=None)
@given(
    _chain_values,
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
    st.sampled_from(sorted(_BAD_CHAINS)),
    st.booleans(),
)
def test_bad_radii_raise_one_message_in_every_representation(values, picks, bad, shifted):
    # NaN, an infinity, 0, a negative radius, equal neighbours, an increasing
    # chain and a single radius raise the GeometryError that the all-Fraction
    # chain raises, in verify_cutting and in each piece
    space = build_space(2)
    chain = _BAD_CHAINS[bad](sorted(values, reverse=True))
    written = _written(chain, picks)
    want = _raised(lambda: verify_cutting(space, chain, shifted=shifted))
    assert want is not None
    assert _raised(lambda: verify_cutting(space, written, shifted=shifted)) == want
    for (R, r), (Rw, rw) in zip(zip(chain, chain[1:]), zip(written, written[1:])):
        want = _raised(lambda: annulus_pf(space, R, r, shifted=shifted))
        assert _raised(lambda: annulus_pf(space, Rw, rw, shifted=shifted)) == want
        assert _raised(lambda: Annulus(space, Rw, rw, [1] * 3, 1)) == want
    for x, xw in zip(chain, written):
        want = _raised(lambda: disk_pf(space, x, shifted=shifted))
        assert _raised(lambda: disk_pf(space, xw, shifted=shifted)) == want
        assert _raised(lambda: Disk(space, xw, space.vacuum(), 1)) == want
