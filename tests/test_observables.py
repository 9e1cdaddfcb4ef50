"""Tests for local observables, correlators, dilation, and OPE extraction."""

import gc
import logging
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import fqft
from fqft.deformation import fb_theory
from fqft.errors import GeometryError, SpaceMismatchError, ValidationError
from fqft.fock import L_MAX_HARD_CAP, BoundaryState, apply_current, build_space, scale_by_level
from fqft.geometry import annulus_pf
from fqft.observables import (
    LocalObservable,
    _mode_sum_insert,
    OpeTable,
    ZSeries,
    current_observable,
    dilation,
    identity_observable,
    marginal_observable,
    ope_extract,
    two_point,
)
from fqft.rexp import RExpansion

# A parametrized case keeps the "-exact" in its id that it carried while
# float64 cases ran beside it, so each case keeps its name.
EXACT_IDS = "{}-exact".format


def by_exponents(table: OpeTable) -> dict:
    """{(exponents, mu, mubar): coefficient} of the rows of one ordered pair,
    all targeting the identity's descendants."""
    assert len({(r["a"], r["b"], r["c"]) for r in table.rows}) <= 1
    rows = {(r["exponents"], r["mu"], r["mubar"]): r["coefficient"] for r in table.rows}
    assert len(rows) == len(table.rows)
    return rows


def ope_resum(space, table: OpeTable, a_label, b_label) -> ZSeries:
    """Rebuild the two-point series from extracted rows (round-trip check)."""
    terms = {}
    for row in table.rows:
        if (row["a"], row["b"]) != (a_label, b_label):
            continue
        v = space.state(row["mu"], row["mubar"]).scale(row["coefficient"])
        key = row["exponents"]
        terms[key] = terms[key] + v if key in terms else v
    return ZSeries(space, terms)


# ------------------------------------------------------------- mode transport


def _full_sweep_insert(series: ZSeries, kind: str) -> ZSeries:
    """The mode sum by full sweep: every j_n, 0 < |n| <= l_max, applied to
    every term, zero images discarded (with the loss they carry)."""
    space, bar, terms = series.space, kind == "jbar", {}
    for n in range(-space.l_max, space.l_max + 1):
        if n == 0:
            continue
        for (m, mbar), v in series.terms.items():
            w = apply_current(v, n, bar=bar)
            if not w.is_zero():
                key = (m, mbar - n - 1) if bar else (m - n - 1, mbar)
                terms[key] = terms[key] + w if key in terms else w
    return ZSeries(space, terms)


def _sweep_states(space):
    """The vacuum, j, jbar and j jbar where the space holds them, and a
    seeded random sparse state."""
    states = [space.vacuum()]
    for chiral, antichiral in (((1,), ()), ((), (1,)), ((1,), (1,))):
        if len(chiral) + len(antichiral) <= space.l_max:
            states.append(space.state(chiral, antichiral))
    rng = random.Random(space.l_max)
    picks = rng.sample(range(space.dim), min(8, space.dim))
    states.append(
        BoundaryState(space, {i: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for i in picks})
    )
    return states


def _assert_same_series(got: ZSeries, want: ZSeries):
    assert got.terms.keys() == want.terms.keys()
    for key, w in want.terms.items():
        assert got.terms[key].terms == w.terms, key
        assert got.terms[key].truncation_loss == w.truncation_loss, key


@pytest.mark.parametrize("l_max", [0, 1, 2, 8, 16], ids=EXACT_IDS)
def test_mode_sum_matches_full_sweep(l_max):
    # applying only the modes that act gives the full sweep's terms,
    # coefficients and truncation losses, on a one-term series and on the
    # many-term series a first insertion makes of it; after one of the same
    # kind, several images sum into one key
    space = build_space(l_max)
    for state in _sweep_states(space):
        series = ZSeries(space, {(0, 0): state})
        for kind in ("j", "jbar"):
            _assert_same_series(_mode_sum_insert(series, kind), _full_sweep_insert(series, kind))
            for first in ("j", "jbar"):
                inserted = _full_sweep_insert(series, first)
                _assert_same_series(
                    _mode_sum_insert(inserted, kind), _full_sweep_insert(inserted, kind)
                )


# ------------------------------------------------------------------ one-point
#
# <O(z)>_{D_R} is the two-point series <O(z) 1(0)>_{D_R}: two_point gives it
# on D_1, and on D_R each coefficient is its dilation by R


def _on_disk(series: ZSeries, R) -> ZSeries:
    """The series on D_R: each coefficient dilated by R."""
    return series.map_coeffs(lambda v: dilation(R, v))


def test_one_point_current_origin():
    # <j(0)>_{D_R} is the z^0 coefficient: j_{-1}|0> / R
    space = build_space(4)
    j, one = current_observable(space), identity_observable(space)
    assert two_point(j, one).terms[0, 0] == space.state((1,))
    for R in (1, Fraction(2)):
        got = _on_disk(two_point(j, one), R).terms[0, 0]
        assert got == space.state((1,)).scale(1 / Fraction(R))


def test_one_point_identity_anywhere():
    # the identity's one-point correlator is the vacuum at every z
    space = build_space(3)
    one = identity_observable(space)
    assert _on_disk(two_point(one, one), 2).terms == {(0, 0): space.vacuum()}


def test_one_point_current_mode_coefficients():
    # <j(z)>_{D_R} = sum_n z^{n-1} R^{-n} j_{-n}|0>
    space = build_space(4)
    j = current_observable(space)
    R = Fraction(2)
    series = _on_disk(two_point(j, identity_observable(space)), R)
    assert len(series.terms) == space.l_max
    for n in range(1, space.l_max + 1):
        assert series.terms[n - 1, 0] == space.state((n,)).scale(R ** (-n))


def test_one_point_locality():
    # <O(z)>_{D_R} = glue(annulus(R, Rp), <O(z)>_{D_Rp}), power by power in z
    space = build_space(4)
    j, one = current_observable(space), identity_observable(space)
    R, Rp = Fraction(3), Fraction(2)
    series = two_point(j, one)
    direct, inner = _on_disk(series, R), _on_disk(series, Rp)
    by_level = annulus_pf(space, R, Rp).by_level
    assert direct == inner.map_coeffs(lambda v: scale_by_level(v, by_level))


def test_one_point_unsupported_transport():
    # an observable without a current word has no correlator at z != 0
    space = build_space(4)
    desc = LocalObservable("1;[2];[]", space.state((2,)), (2, 0))
    with pytest.raises(ValidationError):
        two_point(desc, identity_observable(space))


# --------------------------------------------------------------- two_point


def test_two_point_jj_singular_term():
    space = build_space(4)
    j = current_observable(space)
    series = two_point(j, j)
    assert series.terms[-2, 0] == space.vacuum()
    # a ZSeries stores no zero state
    assert (-1, 0) not in series.terms and (-3, 0) not in series.terms


def test_two_point_jj_regular_rows_are_descendants():
    # coefficient of z^{m-1} is j_{-m} j_{-1}|0> on D_1
    space = build_space(5)
    j = current_observable(space)
    series = two_point(j, j)
    for m in range(1, space.l_max):
        assert series.terms[m - 1, 0] == space.state(
            tuple(sorted((m, 1), reverse=True))
        )


def test_two_point_identity_insertion():
    space = build_space(3)
    one = identity_observable(space)
    jb = current_observable(space, bar=True)
    series = two_point(one, jb)
    assert series.terms == {(0, 0): jb.state}
    assert _on_disk(series, Fraction(2)).terms == {(0, 0): dilation(2, jb.state)}


def test_two_point_radius_scaling():
    # the series on D_R is each coefficient's dilation by R, which scales its
    # level-E part by R^{-E}: the same keys, each value times R^{-E}, exactly
    space = build_space(4)
    j, o = current_observable(space), marginal_observable(space)
    for a, b in ((j, j), (o, o), (j, identity_observable(space))):
        s1 = two_point(a, b)
        for R in (2, Fraction(3, 2), 0.5):
            s2 = _on_disk(s1, R)
            scale = Fraction(R)
            assert s2.terms.keys() == s1.terms.keys()
            for key, v in s1.terms.items():
                want = {i: c * scale ** -space.levels[i] for i, c in v.terms.items()}
                assert s2.terms[key].terms == want, (a, b, R, key)


def test_two_point_marginal_pair():
    space = build_space(4)
    o = marginal_observable(space)
    series = two_point(o, o)
    assert series.terms[-2, -2] == space.vacuum()
    # no |z|^{-2} marginal channel: chiral factorization forbids it
    assert (-1, -1) not in series.terms
    # mixed singular-regular terms
    assert series.terms[-2, 0] == space.state((), (1, 1))


NOT_POSITIVE_AND_FINITE = [-1, 0, math.inf, math.nan]


@pytest.mark.parametrize("R", NOT_POSITIVE_AND_FINITE, ids=EXACT_IDS)
def test_two_point_rejects_a_radius_geometry_rejects(R):
    # carrying the series to D_R follows geometry's rule for a radius: no
    # series for a disk of radius -1, and no arithmetic error from the scaling
    space = build_space(3)
    j = current_observable(space)
    with pytest.raises(GeometryError, match="dilation scale must be positive and finite"):
        _on_disk(two_point(j, j), R)


def test_two_point_radius_beyond_the_float_range():
    # a radius past the float range is finite, and scales exactly
    j = current_observable(build_space(3))
    series = _on_disk(two_point(j, identity_observable(j.state.space)), 10**400)
    assert series.terms[0, 0] == j.state.scale(Fraction(1, 10**400))


# ---------------------------------------------------------------- dilation


@pytest.mark.parametrize("lam", NOT_POSITIVE_AND_FINITE, ids=EXACT_IDS)
def test_dilation_rejects_a_scale_geometry_rejects(lam):
    space = build_space(3)
    for x in (space.state((1,)), RExpansion({(-2, 0): space.state((1,), (1,))})):
        with pytest.raises(GeometryError, match="dilation scale must be positive and finite"):
            dilation(lam, x)


def test_dilation_eigenvalues():
    space = build_space(4)
    lam = Fraction(3)
    assert dilation(lam, space.state((1,))) == space.state((1,)).scale(Fraction(1, 3))
    v = space.state((1,), (1,))
    assert dilation(lam, v) == v.scale(Fraction(1, 9))
    assert dilation(1, v) == v


def test_dilation_scale_types():
    # an int, Fraction or float scale is taken as Fraction(lam), a float
    # exactly: the scalars stay rational
    space = build_space(3)
    v = space.vacuum() + space.state((1,)) + space.state((1,), (1,)).scale(3)
    for lam in (2, 3, Fraction(2, 3), 0.5, 0.1):
        scale = Fraction(lam)
        want = {i: c * scale ** -space.levels[i] for i, c in v.terms.items()}
        for got in (dilation(lam, v), dilation(lam, RExpansion({(-2, 0): v})).terms[-2, 0]):
            assert got.terms == want, lam
            assert {type(c) for c in got.terms.values()} == {Fraction}


def test_dilation_int_lambda_is_exact():
    # an int lambda on an exact space scales by Fractions, not floats
    space = build_space(4)
    d = dilation(2, space.state((1,)))
    assert d == space.state((1,)).scale(Fraction(1, 2))
    assert all(type(c) is Fraction for c in d.terms.values())
    e = dilation(3, RExpansion({(-2, 0): space.state((1,), (1,))}))
    assert all(type(c) is Fraction for c in e.terms[-2, 0].terms.values())


def test_dilation_on_expansion():
    space = build_space(3)
    e = RExpansion({(-1, 0): space.state((1,)), (0, 0): space.vacuum()})
    d = dilation(Fraction(2), e)
    assert d.terms == {(-1, 0): space.state((1,)).scale(Fraction(1, 2)), (0, 0): space.vacuum()}


def test_scaling_dimensions():
    # each representative is a dilation eigenvector with eigenvalue
    # lambda^{-(h + hbar)}: 0 for the identity, 1 for the currents, 2 for j jbar
    space = build_space(4)
    lam = Fraction(5, 2)
    observables = [
        identity_observable(space),
        current_observable(space),
        current_observable(space, bar=True),
        marginal_observable(space),
    ]
    assert [sum(o.dims) for o in observables] == [0, 1, 1, 2]
    for obs in observables:
        assert dilation(lam, obs.state) == obs.state.scale(lam ** -sum(obs.dims)), obs
    # a state mixing levels 0 and 1 is no eigenvector: its parts scale apart
    mixed = space.vacuum() + space.state((1,))
    assert dilation(lam, mixed) == space.vacuum() + space.state((1,)).scale(1 / lam)


# -------------------------------------------------------------------- OPE


def test_ope_extract_jj():
    space = build_space(5)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    rows = by_exponents(table)
    assert rows[(-2, 0), (), ()] == 1  # z^{-2} identity row
    for row in table.rows:
        if row["c"] == "1" and not row["mu"] and not row["mubar"]:
            assert row["exponents"] == (-2, 0)
    assert rows[(0, 0), (1, 1), ()] == 1
    assert rows[(1, 0), (2, 1), ()] == 1


def test_ope_extract_logs_its_rows(caplog):
    space = build_space(5)
    j = current_observable(space)
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        table = ope_extract(space, j, j)
    assert caplog.messages == [f"ope_extract a=j b=j rows={len(table.rows)}"]


def _on(space, x: LocalObservable) -> LocalObservable:
    """x rebuilt on another space: its label, state, dims and word."""
    return LocalObservable(x.label, BoundaryState(space, x.state.terms), x.dims, x.word)


def test_ope_tables_are_kept_per_space():
    # a repeated extraction on one space returns the table it kept, read
    # off equal inputs (built apart); another space, another state of b,
    # or another word or label of a is extracted afresh, and its rows are
    # those a fresh space gives
    space = build_space(4)
    o, j = marginal_observable(space), current_observable(space)
    table = ope_extract(space, o, o)
    assert ope_extract(space, marginal_observable(space), marginal_observable(space)) is table
    twice = LocalObservable("jjbar", o.state.scale(2), o.dims, o.word)
    cases = [
        (o, twice),  # b's nonzeros
        (LocalObservable("jjbar", o.state, o.dims, ("j", "j")), o),  # a's word
        (LocalObservable("k", o.state, o.dims, o.word), o),  # a's label
        (o, LocalObservable("k", o.state, o.dims, o.word)),  # b's label
        (j, j),
    ]
    for a, b in cases:
        got = ope_extract(space, a, b)
        assert got is not table and ope_extract(space, a, b) is got
        other = build_space(4)
        assert got.rows == ope_extract(other, _on(other, a), _on(other, b)).rows
    assert [r["coefficient"] for r in ope_extract(space, o, twice).rows] == [
        2 * r["coefficient"] for r in table.rows
    ]
    other = build_space(4)
    fresh = ope_extract(other, _on(other, o), _on(other, o))
    assert fresh is not table and fresh.rows == table.rows
    assert len(space.ope_tables) == len(cases) + 1 and len(other.ope_tables) == 1


def test_ope_extract_refuses_b_over_another_space():
    # the space keeps the table under a key that holds no space, so b must
    # lie over the space the call names: a foreign b raises before the memo
    # is read or filled, and the next proper call extracts its own rows.
    # a's state is never read, so a may lie anywhere
    big = build_space(8)
    o4, o8 = marginal_observable(build_space(4)), marginal_observable(big)
    with pytest.raises(SpaceMismatchError):
        ope_extract(big, o4, o4)
    assert big.ope_tables == {}
    table = ope_extract(big, o8, o8)
    assert len(table.rows) == 29 and ope_extract(big, o4, o8) is table
    assert len(fb_theory(big).rows["jjbar", "jjbar"]) == 4


def test_ope_tables_go_with_their_space():
    space = build_space(4)
    o = marginal_observable(space)
    kept = weakref.ref(ope_extract(space, o, o))
    assert kept() is not None
    del space, o
    gc.collect()
    assert kept() is None


def test_a_kept_table_logs_no_line(caplog):
    # one debug line per extraction; a table read back logs none
    space = build_space(4)
    o = marginal_observable(space)
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        table = ope_extract(space, o, o)
        ope_extract(space, marginal_observable(space), o)
    assert caplog.messages == [f"ope_extract a=jjbar b=jjbar rows={len(table.rows)}"]


# Bytes a space retains once `fqft ope` and free-boson `fqft beta` have run
# on it (its two OPE tables: jjbar x jjbar and j x j), pinned in a fresh
# process (tracemalloc): Python 3.10's figures, the largest of 3.10-3.13
# (3.11 retains 20 280 and 47 456); each bound is 1.25 times the pin
KEPT_TABLE_BYTES = {10: 24_920, 16: 59_224}


def test_kept_tables_pinned():
    code = (
        "import gc, sys, tracemalloc\n"
        "from fqft.deformation import beta, fb_theory\n"
        "from fqft.fock import build_space\n"
        "from fqft.observables import current_observable, marginal_observable, ope_extract\n"
        "def run(space):\n"
        "    o, j = marginal_observable(space), current_observable(space)\n"
        "    ope_extract(space, o, o).marginal_constants()\n"
        "    ope_extract(space, j, j)\n"
        "    assert beta(fb_theory(space)).is_zero()\n"
        "run(build_space(4))\n"
        "for l_max in map(int, sys.argv[1:]):\n"
        "    space = build_space(l_max)\n"
        "    tracemalloc.start()\n"
        "    run(space)\n"
        "    gc.collect()\n"
        "    print(tracemalloc.get_traced_memory()[0])\n"
        "    tracemalloc.stop()\n"
    )
    sizes = sorted(KEPT_TABLE_BYTES)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqft.__file__)))
    env.pop("FQFT_LOG", None)
    argv = [sys.executable, "-c", code, *map(str, sizes)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for l_max, kept in zip(sizes, map(int, run.stdout.split())):
        assert kept < 1.25 * KEPT_TABLE_BYTES[l_max], (l_max, kept)


def test_ope_extract_identity_pair():
    space = build_space(3)
    one = identity_observable(space)
    b = current_observable(space, bar=True)
    table = ope_extract(space, one, b)
    assert by_exponents(table)[(0, 0), (), (1,)] == 1
    assert len([r for r in table.rows if r["coefficient"] != 0]) == 1


def test_ope_extract_marginal_constants():
    space = build_space(4)
    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    consts = table.marginal_constants()
    assert consts["K"][("jjbar", "jjbar")] == 1
    assert all(v == 0 for v in consts["C"].values())  # C_{alpha beta}^gamma = 0


def test_marginal_constants_pick_their_rows():
    # the free boson has no |z|^{-2} row, so a hand-built table: the two C
    # targets of the j jbar pair at (-1, -1) add into one C, the (-2, -2)
    # identity row is K, and another pair, target or exponent is ignored
    table = OpeTable([])
    jj = ("jjbar", "jjbar")
    table.add_row(*jj, "jjbar", (), (), (-1, -1), Fraction(2))
    table.add_row(*jj, "1", (1,), (1,), (-1, -1), Fraction(3, 4))
    table.add_row(*jj, "1", (), (), (-2, -2), Fraction(5))
    table.add_row("j", "jjbar", "jjbar", (), (), (-1, -1), Fraction(7))
    table.add_row("jjbar", "j", "1", (), (), (-2, -2), Fraction(7))
    table.add_row(*jj, "1", (2,), (), (-1, -1), Fraction(7))
    table.add_row(*jj, "1", (1,), (), (-1, -1), Fraction(7))
    table.add_row(*jj, "jjbar", (), (), (-1, 0), Fraction(7))
    table.add_row(*jj, "1", (1,), (1,), (-2, -2), Fraction(7))
    table.add_row(*jj, "1", (), (), (-2, 0), Fraction(7))
    assert table.marginal_constants() == {
        "K": {jj: Fraction(5)},
        "C": {jj + ("jjbar",): Fraction(11, 4)},
    }


def test_ope_roundtrip():
    space = build_space(4)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    resummed = ope_resum(space, table, "j", "j")
    series = two_point(j, j)
    assert (resummed - series).is_zero()


def test_marginal_ope_at_cap():
    # the marginal jjbar . jjbar OPE at the truncation cap: K = 1, C = 0
    space = build_space(L_MAX_HARD_CAP)
    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    consts = table.marginal_constants()
    assert consts["K"] == {("jjbar", "jjbar"): 1}
    assert all(v == 0 for v in consts["C"].values())
    assert by_exponents(table)[(-2, -2), (), ()] == 1


@pytest.mark.parametrize("l_max", [2, 3, 5, 12, L_MAX_HARD_CAP])
def test_ope_rows_hold_no_zero_coefficient(l_max):
    # a row is a nonzero of a coefficient state, so no table holds a zero,
    # and fb_theory takes the marginal table's non-spin rows as they are
    space = build_space(l_max)
    observables = [identity_observable(space), current_observable(space),
                   current_observable(space, bar=True), marginal_observable(space)]
    for a in observables:
        for b in observables:
            table = ope_extract(space, a, b)
            assert all(row["coefficient"] != 0 for row in table.rows), (a.label, b.label)
    from fqft.deformation import fb_theory

    o = observables[-1]
    rows = [r for r in ope_extract(space, o, o).rows if sum(r["mu"]) == sum(r["mubar"])]
    kept = fb_theory(space).rows.get(("jjbar", "jjbar"), [])
    assert [(c, mu, mubar, v) for c, mu, mubar, v in kept] == [
        ("1", r["mu"], r["mubar"], r["coefficient"]) for r in rows
    ]
