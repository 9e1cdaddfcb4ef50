"""Tests for the truncated Fock module."""

import hashlib
import itertools
import json
import logging
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from functools import lru_cache

from fqft.fock import (
    BoundaryState,
    TruncatedFockSpace,
    apply_current,
    build_space,
    build_virasoro,
    commutator,
    partition_count,
    partitions,
)
from fqft.errors import ResourceLimitError, SpaceMismatchError
from fqft.scalars import encode_scalar

import pytest


def test_partition_counts():
    # p(0..8) = 1,1,2,3,5,7,11,15,22
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert [partition_count(n) for n in range(9)] == expected


def test_partitions_are_sorted_and_valid():
    for n in range(7):
        ps = partitions(n)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        assert list(ps) == sorted(ps)


def test_space_dimension():
    # dim(l_max) = sum_{k+m <= l_max} p(k) p(m)
    dims = {0: 1, 1: 3, 2: 8, 4: 38, 6: 139}
    for l_max, d in dims.items():
        assert build_space(l_max).dim == d


def test_space_hard_cap():
    with pytest.raises(ResourceLimitError):
        build_space(40)


def _reference_basis(l_max):
    """Every key (level, chiral, antichiral) with level <= l_max, sorted, and
    the key -> column dict: the per-column construction the block map
    replaces."""
    basis = sorted(
        (k + m, mu, nu)
        for k in range(l_max + 1)
        for m in range(l_max + 1 - k)
        for mu in partitions(k)
        for nu in partitions(m)
    )
    return basis, {key: i for i, key in enumerate(basis)}


def test_basis_graded_lex_order():
    space = build_space(3)
    assert space.levels == sorted(space.levels)
    assert space.key_of(0) == (0, (), ())


@pytest.mark.parametrize("l_max", range(17))
def test_basis_is_built_in_order_with_its_blocks(l_max):
    # the columns run in sorted key order, key_of and index_of are inverse
    # bijections between columns and keys; blocks[level][mu] is the first
    # column of the run of (level, mu, nu) over nu in partitions(level - |mu|)
    space = build_space(l_max)
    basis, index = _reference_basis(l_max)
    assert space.dim == len(basis)
    assert [space.key_of(i) for i in range(space.dim)] == basis
    assert {key: space.index_of(*key) for key in basis} == index
    assert space.levels == [level for level, _, _ in basis]
    assert len(space.blocks) == l_max + 1
    col = 0
    for level, starts in enumerate(space.blocks):
        for mu, start in starts.items():
            assert start == col
            for nu in partitions(level - sum(mu)):
                assert space.key_of(col) == (level, mu, nu)
                col += 1
    assert col == space.dim


@pytest.mark.parametrize("l_max", [0, 1, 4])
def test_lookups_outside_the_space(l_max):
    space = build_space(l_max)
    # keys one level above the truncation
    for mu, nu in [((l_max + 1,), ()), ((), (l_max + 1,)), ((1,), (1,) * l_max)]:
        with pytest.raises(ValueError, match="above truncation"):
            space.state(mu, nu)
        assert space.index_of(l_max + 1, mu, nu) is None, (mu, nu)
    # keys whose level is not the size of their partitions
    for level in range(-1, l_max + 2):
        for mu, nu in [((), ()), ((1,), ()), ((), (2, 1)), ((1,), (1,))]:
            if level != sum(mu) + sum(nu):
                assert space.index_of(level, mu, nu) is None, (level, mu, nu)


def test_build_space_retains_less_than_half_the_reference():
    # the block map keeps no per-column tuple: build_space(16) retains less
    # than half of what the sorted key list and its key -> column dict retain
    build_space(16)
    _reference_basis(16)  # partitions are cached before either is traced

    def retained(build):
        tracemalloc.start()
        try:
            kept = build()  # noqa: F841 (alive while measured)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert retained(lambda: build_space(16)) < retained(lambda: _reference_basis(16)) / 2


def test_build_space_logs_its_size(caplog):
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        build_space(16)
    assert "l_max=16 dim=17345 blocks=" in caplog.text


def test_state_lookup_roundtrip():
    space = build_space(4)
    v = space.state((2, 1), (1,))
    idx = [i for i in range(space.dim) if v[i] != 0]
    assert len(idx) == 1
    assert space.key_of(idx[0]) == (4, (2, 1), (1,))
    assert space.index_of(4, (2, 1), (1,)) == idx[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda space: space.state((1, 2)),
        lambda space: space.state((0,)),
        lambda space: space.state((-1,), ()),
        lambda space: space.state((1.0,), ()),
        lambda space: space.state((), (0.5,)),
        lambda space: space.state((True,), ()),
        lambda space: space.state((Fraction(1),)),
    ],
    ids=[
        "increasing",
        "zero-part",
        "negative-part",
        "float-part",
        "half-part",
        "bool-part",
        "fraction-part",
    ],
)
def test_invalid_partition_raises(call):
    with pytest.raises(ValueError, match="partition parts must be"):
        call(build_space(4))


def test_current_mode_raising_and_lowering():
    space = build_space(4)
    vac = space.vacuum()
    v = apply_current(vac, -1)
    assert v == space.state((1,))
    # j_1 j_{-1}|0> = [j_1, j_{-1}]|0> = |0>
    assert apply_current(v, 1) == vac
    # j_1 (j_{-1})^2 |0> = 2 j_{-1}|0>
    v2 = apply_current(v, -1)
    assert apply_current(v2, 1) == space.state((1,)).scale(2)


def test_current_mode_zero_mode_vanishes():
    space = build_space(3)
    for col in range(space.dim):
        for bar in (False, True):
            out = apply_current(BoundaryState(space, {col: Fraction(1)}), 0, bar=bar)
            assert out.is_zero() and out.truncation_loss == 0, (col, bar)


def test_antichiral_modes_commute_with_chiral():
    # j_m and jbar_n act on the two partitions of a basis key, so they
    # commute on every basis state with headroom for both creation modes
    space = build_space(4)
    for m, n in [(-1, -2), (-2, 1), (1, -1), (2, 1)]:
        for col, level in enumerate(space.levels):
            if level + max(0, -m) + max(0, -n) <= space.l_max:
                v = BoundaryState(space, {col: Fraction(1)})
                a = apply_current(apply_current(v, n, bar=True), m)
                b = apply_current(apply_current(v, m), n, bar=True)
                assert a == b and a.truncation_loss == b.truncation_loss == 0, (m, n, col)
    a = apply_current(apply_current(space.vacuum(), -2, bar=True), -1)
    assert a == space.state((1,), (2,))


@given(
    m=st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0),
    n=st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0),
)
@settings(max_examples=40, deadline=None)
def test_current_commutator_interior(m, n):
    # [j_m, j_n] = m delta_{m+n,0} on every column with enough headroom
    space = build_space(6)
    headroom = max(0, -m) + max(0, -n)
    for col, level in enumerate(space.levels):
        if level + headroom <= space.l_max:
            v = BoundaryState(space, {col: Fraction(1)})
            mn = apply_current(apply_current(v, n), m)
            nm = apply_current(apply_current(v, m), n)
            assert mn - nm == v.scale(m if m + n == 0 else 0), (m, n, col)


def _act(op, v):
    """A mode applied to v through its lifted entries."""
    return _column_apply(_Columns.of(op), v)


def test_virasoro_l0_counts_level():
    space = build_space(5)
    L0 = build_virasoro(space, 0)
    Lb0 = build_virasoro(space, 0, bar=True)
    v = space.state((2, 1), (1,))
    assert _act(L0, v) == v.scale(3)
    assert _act(Lb0, v) == v.scale(1)


def test_virasoro_l0_shifted():
    space = build_space(3)
    L0 = build_virasoro(space, 0, shifted=True)
    vac = space.vacuum()
    assert _act(L0, vac) == vac.scale(Fraction(-1, 24))


def test_virasoro_on_vacuum():
    space = build_space(4)
    # L_{-1}|0> = j_{-1} j_0 |0> = 0
    v = _act(build_virasoro(space, -1), space.vacuum())
    assert v.is_zero()
    # L_{-2}|0> = (1/2) j_{-1} j_{-1} |0>
    v = _act(build_virasoro(space, -2), space.vacuum())
    assert v == space.state((1, 1)).scale(Fraction(1, 2))


def test_virasoro_commutator_central_charge():
    # [L_2, L_{-2}] = 4 L_0 + (1/12)(8-2) = 4 L_0 + 1/2 on interior states
    space = build_space(6)
    L2 = build_virasoro(space, 2)
    Lm2 = build_virasoro(space, -2)
    comm = commutator(L2, Lm2)
    L0 = build_virasoro(space, 0)
    for v in [space.vacuum(), space.state((1,)), space.state((2,)), space.state((1, 1))]:
        lhs = _act(comm, v)
        rhs = _act(L0, v).scale(4) + v.scale(Fraction(1, 2))
        assert lhs == rhs


def test_virasoro_commutator_31():
    # [L_3, L_{-1}] = 4 L_2 (no central term)
    space = build_space(6)
    comm = commutator(build_virasoro(space, 3), build_virasoro(space, -1))
    L2 = build_virasoro(space, 2)
    for v in [space.vacuum(), space.state((2, 1)), space.state((1,), (1,))]:
        assert _act(comm, v) == _act(L2, v).scale(4)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("l_max", [0, 1, 2, 8])
def test_virasoro_algebra(l_max, exact):
    # [L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 delta_{m+n,0} (c = 1) for
    # |m|, |n| <= 3 on both sides, on every column where no factor leaves
    # the truncation: level - min(0, m, n, m + n) <= l_max.  Every weight is
    # a multiple of 1/2 and every central term is dyadic, so float64 is exact
    space = _space(l_max, exact)
    for bar in (False, True):
        modes = {n: build_virasoro(space, n, bar=bar) for n in range(-6, 7)}
        columns = {n: _by_column(op.entries) for n, op in modes.items()}
        for m, n in itertools.product(range(-3, 4), repeat=2):
            comm = _by_column(commutator(modes[m], modes[n]).entries)
            central = Fraction(m**3 - m, 12) if exact else (m**3 - m) / 12
            for col, level in enumerate(space.levels):
                if level - min(0, m, n, m + n) > l_max:
                    continue
                want = {row: (m - n) * v for row, v in columns[m + n].get(col, {}).items()}
                if m + n == 0:
                    want[col] = want.get(col, 0) + central
                want = {row: v for row, v in want.items() if v != 0}
                assert comm.get(col, {}) == want, (bar, m, n, col)


def _current_oracle(space, n, bar=False):
    """j_n (or jbar_n) as a column operator read off the basis keys: j_{-k}
    adds a part k with weight 1, j_k removes one part k with weight k times
    its multiplicity, and a column whose level - n exceeds l_max is dropped."""
    one = space.one_scalar()
    columns, dropped = {}, set()
    basis, index = _reference_basis(space.l_max)
    for col, (level, mu, nu) in enumerate(basis):
        if level - n > space.l_max:
            dropped.add(col)
            continue
        parts = list(nu if bar else mu)
        if n < 0:
            parts.append(-n)
            weight = 1
        elif n in parts:
            weight = n * parts.count(n)
            parts.remove(n)
        else:
            continue
        new = tuple(sorted(parts, reverse=True))
        row = index[(level - n, mu, new) if bar else (level - n, new, nu)]
        columns[col] = {row: weight * one}
    return _Columns(space, columns, dropped)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("l_max", range(6))
def test_current_mode_matches_oracle(l_max, exact):
    # j_n applied to each basis vector gives the oracle's column, and a
    # column the oracle drops counts as truncation loss
    space = _space(l_max, exact)
    one = space.one_scalar()
    for n in range(-l_max - 2, l_max + 3):
        for bar in (False, True):
            want = _current_oracle(space, n, bar)
            for col in range(space.dim):
                got = apply_current(BoundaryState(space, {col: one}), n, bar=bar)
                assert got.terms == want.columns.get(col, {}), (n, bar, col)
                assert got.truncation_loss == (col in want.dropped_cols), (n, bar, col)


def _virasoro_oracle(space, n, bar=False, shifted=False):
    """L_n summed over k from composed current-mode oracles: each unordered
    normal-ordered pair j_{m1} j_{m2} (m1 <= m2, m1 + m2 = n) once, with
    weight 1/2 when m1 == m2 and 1 otherwise, plus -1/24 on L_0 if shifted."""
    half = Fraction(1, 2) if space.exact else 0.5
    total = {}
    kmax = space.l_max + abs(n)
    for k in range(-kmax, kmax + 1):
        m1, m2 = -k, k + n
        if m1 > m2 or m1 == 0 or m2 == 0:
            continue
        weight = half if m1 == m2 else 2 * half
        prod = _column_product(_current_oracle(space, m1, bar), _current_oracle(space, m2, bar))
        for key, val in prod.entries.items():
            total[key] = total.get(key, 0) + weight * val
    if shifted and n == 0:
        shift = Fraction(-1, 24) if space.exact else -1.0 / 24.0
        for i in range(space.dim):
            total[(i, i)] = total.get((i, i), 0) + shift
    return {key: val for key, val in total.items() if val != 0}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("l_max", [*range(9), 10])
def test_virasoro_matches_oracle(l_max, exact):
    space = _space(l_max, exact)
    # every n up to l_max 8; at 10, the modes the commutator checks use
    ns = range(-2 * l_max - 1, 2 * l_max + 2) if l_max <= 8 else (-2, 0, 2)
    for n in ns:
        for bar in (False, True):
            for shifted in (False, True):
                got = build_virasoro(space, n, bar=bar, shifted=shifted).entries
                assert got == _virasoro_oracle(space, n, bar, shifted), (n, bar, shifted)


def test_virasoro_commutator_at_cap():
    # [L_2, L_{-2}] = 4 L_0 + 1/2 on every column L_{-2} keeps inside l_max 16
    space = build_space(16)
    L0 = build_virasoro(space, 0)
    comm = commutator(build_virasoro(space, 2), build_virasoro(space, -2))
    L0_columns, comm_columns = _by_column(L0.entries), _by_column(comm.entries)
    for col, level in enumerate(space.levels):
        if level + 2 <= space.l_max:
            want = {row: 4 * val for row, val in L0_columns.get(col, {}).items()}
            want[col] = want.get(col, 0) + Fraction(1, 2)
            assert comm_columns.get(col, {}) == want, col


@pytest.mark.parametrize("n", [10**6, -(10**6)])
def test_virasoro_far_mode_on_small_space(n):
    # L_{-10^6} maps every column of l_max 2 above the truncation, and
    # L_{10^6} every column to zero: neither keeps an entry
    space = build_space(2)
    for bar in (False, True):
        assert not build_virasoro(space, n, bar=bar).entries


def test_commutator_keeps_columns_whose_inner_image_vanishes():
    # the column reference's rule, which the pinned digests read, on
    # [L_-1, L_-1] at l_max 4: L_-1 takes a level-3 column to level 4, where
    # the outer L_-1 drops.  The column is dropped only when the inner image
    # is nonzero, and L_-1 j_{-mu}|0> vanishes for mu = () alone, so the
    # columns (3, (), nu) (or (3, mu, ()) on the antichiral side) are kept.
    space = build_space(4)
    for bar in (False, True):
        kept = {
            c
            for c, (level, mu, nu) in enumerate(map(space.key_of, range(space.dim)))
            if level < 3 or (level == 3 and (nu if bar else mu) == ())
        }
        assert len(kept) == space.levels.index(3) + 3
        Lm1 = build_virasoro(space, -1, bar=bar)
        for commute in (True, False):
            ref = _column_product(_Columns.of(Lm1), _Columns.of(Lm1), commute)
            assert ref.dropped_cols == set(range(space.dim)) - kept, bar
        assert not commutator(Lm1, Lm1).entries


def space_to_json(space, operators=None) -> str:
    """Dump {l_max, basis, operators:{name: sparse triplets}} for golden files."""
    doc = {
        "l_max": space.l_max,
        "basis": [[list(mu), list(nu)] for _, mu, nu in map(space.key_of, range(space.dim))],
        "operators": {},
    }
    for name, op in (operators or {}).items():
        triplets = [
            [i, j, encode_scalar(val)]
            for (i, j), val in sorted(op.entries.items())
        ]
        doc["operators"][name] = triplets
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _virasoro_digest(space):
    """SHA-256 of space_to_json over build_virasoro(space, n, bar, shifted)
    for every n in -2 l_max - 1..2 l_max + 1 and over [L_m, L_n] for m, n in
    -3..3 on both sides, then of each operator's sorted dropped columns: a
    mode's are _mode_dropped, a commutator's come from its factors by
    _dropped_by_product."""
    ops, dropped = {}, {}
    for n in range(-2 * space.l_max - 1, 2 * space.l_max + 2):
        for bar in (False, True):
            for shifted in (False, True):
                name = f"L{n},{bar:d},{shifted:d}"
                ops[name], dropped[name] = build_virasoro(space, n, bar, shifted), _mode_dropped(space, n)
    for bar in (False, True):
        modes = {n: build_virasoro(space, n, bar=bar) for n in range(-3, 4)}
        columns = {n: _Columns.of(op) for n, op in modes.items()}
        for m in range(-3, 4):
            for n in range(-3, 4):
                name = f"[L{m},L{n}],{bar:d}"
                ops[name] = commutator(modes[m], modes[n])
                a, b = columns[m], columns[n]
                dropped[name] = _dropped_by_product(a, b) | _dropped_by_product(b, a)
    digest = hashlib.sha256(space_to_json(space, ops).encode())
    for name in sorted(ops):
        digest.update(f"{name}:{sorted(dropped[name])}".encode())
    return digest.hexdigest()


# _virasoro_digest as computed by the column-by-column assembly of commit
# 4fe6f57 (l_max 0-8), and by the eagerly lifted table products of 857b781
# (9-12, the levels the benchmark's virasoro checks reach): partition tables
# and their lifts must reproduce these operators byte for byte
VIRASORO_DIGESTS = {
    (0, True): "da7f9701c7442a3a5be029f779a3def9"
        "62b1a38337c8976d4a55f3f002811c07",
    (0, False): "6424b2374d04be58b4e68e5bde54be91"
        "14ab9fb318d6ecdfc0f742f189c5380c",
    (1, True): "e2d845ade7944129011752bd35e110cd"
        "3606f514be61a98bcc840e4083b450da",
    (1, False): "5c0ebbd22ee3158dd8b74e7dbe5a05e6"
        "946084d0ec42577ae250f272b96f006d",
    (2, True): "391660042868df4d37bbf7ff542fd969"
        "85c949bf4da1fbf3387a595e2424923b",
    (2, False): "a1e82c36ad07eeaaeec131b0f54c110d"
        "310650527b0a7c759a23f76b8ca78e8f",
    (3, True): "9231b148c0b5b805f6e4739ab4173083"
        "f5439329996dd52f6b96d470f87fb53a",
    (3, False): "95ec7f9b2dac7138df13afd9c2b4e7dc"
        "4e883342af0e5c86874f3bf2b4bc6471",
    (4, True): "de7e1660681554de5b9a68152c1dd0c4"
        "00b807b74dfcc438db09d18a60538416",
    (4, False): "654ad437f0f74810841af4530ea33bca"
        "2466483a68ee1d5db420548d36f34e55",
    (5, True): "cdc4987a31c54686d744f00ce4f15193"
        "631ea38be1ac45ac5e8f384d60632870",
    (5, False): "c283e064c917a7445e06a1c78282a9f3"
        "57e949153c522270d48950e66e8cab18",
    (6, True): "033df0aff509ac66e9011aa376c5f4ee"
        "8b521daec5b56409779babff87422722",
    (6, False): "1bba1bdd8438309cc4bff04d288556b1"
        "84f9ffcf750c78a9a582edb131e2b4a9",
    (7, True): "e9699f922c287bc59df01183271ce5a6"
        "eee07cd2e311b2a332424a24f44858a5",
    (7, False): "22c832310a0e543e31b5e164f04f62c4"
        "7d833f823bf4e55062f99a38e4a468a9",
    (8, True): "f4f9f7498469e2d72503525e0acb34e0"
        "f8c1ad5097350cd51c9ee86229d7a8eb",
    (8, False): "a0ab2e1e62e8f57604279e18bcdb0440"
        "215e52bfa84d67cc702d5cc0c53cd040",
    (9, True): "f6e7e50a7153c5e2a464cd20c0340ffb"
        "78fc318ef93a40c7e6dfae5eba54dd95",
    (9, False): "0de5df1c05a511110ff792a485c44c04"
        "19dd02070190547a291f25d71a83897e",
    (10, True): "d9bba78275d07766ed460d14b900428d"
        "8b40951c78acd46d9ad5b97bcd471859",
    (10, False): "3e79c09c9c4688b80033f444c50816d9"
        "65d4b0a67bfdedd7c37279e1e1ffea69",
    (11, True): "10436f820f93d6b63b21e9e76606db81"
        "5a0ba7856dc59f0f83757ad56cf2d112",
    (11, False): "ba18933ec6140df99ca0357b3b9e7f19"
        "4cef30d2f5f988cfc2217e11b519fb03",
    (12, True): "ffe1fa3864f12fafc5415f6e45bee337"
        "2bb3180532a40f7860750a6382046784",
    (12, False): "2c457a455799aedcd4d46c431727f5cc"
        "a9a0afbc48dc99c262d1c8196f21dae3",
}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float64"])
@pytest.mark.parametrize("l_max", range(13))
def test_virasoro_operators_match_pinned_digests(l_max, exact):
    # built on a fresh space: the cached ones of _space stay small
    space = _space(l_max, exact) if l_max <= 8 else build_space(l_max, exact)
    assert _virasoro_digest(space) == VIRASORO_DIGESTS[l_max, exact]


def test_virasoro_truncation_loss():
    # at the truncation edge of l_max 4, L_{-1} maps the column of
    # j_{-2} j_{-1} jbar_{-1}|0> above l_max and keeps no entry there, while
    # L_0 counts its chiral level 3 and L_1 maps it to 2 j_{-1} j_{-1}
    # jbar_{-1}|0> (j_2 removes the part 2, j_{-1} adds a part 1)
    space = build_space(4)
    edge = space.index_of(4, (2, 1), (1,))
    column = {n: _by_column(build_virasoro(space, n).entries).get(edge) for n in (-1, 0, 1)}
    assert column[-1] is None
    assert column[0] == {edge: 3}
    assert column[1] == {space.index_of(3, (1, 1), (1,)): 2}


def test_space_mismatch_raises():
    a = build_space(2)
    b = build_space(2)
    with pytest.raises(SpaceMismatchError):
        _ = a.vacuum() + b.vacuum()
    with pytest.raises(SpaceMismatchError):
        commutator(build_virasoro(a, 1), build_virasoro(b, -1))


def test_float_backend():
    space = build_space(3, exact=False)
    entries = build_virasoro(space, -2).entries
    idx = space.index_of(2, (1, 1), ())
    assert abs(entries[idx, 0] - 0.5) < 1e-14


def test_to_json_golden():
    space = build_space(2)
    ops = {"j_-1": _current_oracle(space, -1), "L_0": build_virasoro(space, 0)}
    doc = json.loads(space_to_json(space, ops))
    assert doc["l_max"] == 2
    assert doc["basis"][0] == [[], []]
    assert len(doc["basis"]) == space.dim
    names = set(doc["operators"])
    assert names == {"j_-1", "L_0"}
    # L_0 is diagonal with the chiral level
    for i, j, val in doc["operators"]["L_0"]:
        assert i == j and Fraction(val) == sum(space.key_of(i)[1])
    # deterministic serialization
    assert space_to_json(space, ops) == space_to_json(space, ops)


@lru_cache(maxsize=None)
def _space(l_max, exact):
    return build_space(l_max, exact=exact)


def _sparse_state(data, space, max_level):
    """A random sparse state supported on levels <= max_level."""
    indices = [i for i, lv in enumerate(space.levels) if lv <= max_level]
    if not indices:
        return space.zero()
    if space.exact:
        values = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        values = st.floats(min_value=-9, max_value=9, allow_nan=False)
    coeffs = data.draw(
        st.dictionaries(st.sampled_from(indices), values, max_size=8)
    )
    return BoundaryState(space, coeffs)


def _norm_inf(v):
    """The largest absolute coefficient of a state, as a float; 0 when zero."""
    return max((abs(float(c)) for c in v.terms.values()), default=0.0)


@given(
    data=st.data(),
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    n=st.integers(min_value=-7, max_value=7),
    bar=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_apply_current_matches_operator(data, l_max, exact, n, bar):
    # the per-nonzero action equals the oracle's columns applied to the
    # state, bit for bit and with the same scalar types, truncation losses
    # included (states may sit at the truncation edge)
    space = _space(l_max, exact)
    v = _sparse_state(data, space, l_max)
    got = apply_current(v, n, bar=bar)
    want = _column_apply(_current_oracle(space, n, bar), v)
    assert got == want
    assert {i: type(c) for i, c in got.terms.items()} == {i: type(c) for i, c in want.terms.items()}
    assert got.truncation_loss == want.truncation_loss


def test_public_constructor_drops_zeros_and_checks_range():
    space = build_space(2)
    v = BoundaryState(space, {0: Fraction(0), 1: Fraction(2), 2: 0.0, 3: -0.0})
    assert v.terms == {1: Fraction(2)}
    for bad in (-1, space.dim):
        with pytest.raises(ValueError, match="outside the space"):
            BoundaryState(space, {bad: Fraction(1)})


@given(
    data=st.data(),
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    n=st.integers(min_value=-7, max_value=7),
    bar=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_apply_current_stores_no_zero(data, l_max, exact, n, bar):
    # apply_current skips the constructor's checks: its images must be
    # nonzero and in range, for subnormal and huge floats too
    space = _space(l_max, exact)
    if exact:
        values = st.fractions(max_denominator=10**6).filter(bool)
    else:
        values = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    coeffs = data.draw(st.dictionaries(st.integers(0, space.dim - 1), values, max_size=8))
    w = apply_current(BoundaryState(space, coeffs), n, bar=bar)
    assert all(c != 0 for c in w.terms.values())
    assert all(0 <= i < space.dim for i in w.terms)


@given(
    data=st.data(),
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    m=st.integers(min_value=-6, max_value=6),
    n=st.integers(min_value=-6, max_value=6),
    bars=st.tuples(st.booleans(), st.booleans()),
)
@settings(max_examples=200, deadline=None)
def test_apply_current_commutator(data, l_max, exact, m, n, bars):
    # [j_m, j_n] = m delta_{m+n,0} (and chiral/antichiral modes commute) on
    # states with headroom for both creation modes
    space = _space(l_max, exact)
    headroom = max(0, -m) + max(0, -n)
    v = _sparse_state(data, space, l_max - headroom)
    bm, bn = bars
    mn = apply_current(apply_current(v, n, bar=bn), m, bar=bm)
    nm = apply_current(apply_current(v, m, bar=bm), n, bar=bn)
    assert mn.truncation_loss == nm.truncation_loss == 0
    expected = v.scale(m) if (m + n == 0 and bm == bn) else space.zero()
    residual = (mn - nm) - expected
    if exact:
        assert residual.is_zero()
    else:
        # each coefficient is a difference of two products of size <= 36 * 9
        assert _norm_inf(residual) <= 1e-12


class _Columns:
    """The column reference: an operator as {col: {row: nonzero scalar}}
    with its dropped columns, multiplied column by column by _column_product
    and applied by _column_apply."""

    def __init__(self, space, columns, dropped):
        self.space, self.columns = space, {}
        for col, column in columns.items():
            column = {row: v for row, v in column.items() if v != 0}
            if column:
                self.columns[col] = column
        self.dropped_cols = frozenset(dropped)

    @classmethod
    def of(cls, mode):
        """A mode's lifted entries, as columns, with the columns it drops
        (_mode_dropped)."""
        return cls(mode.space, _by_column(mode.entries), _mode_dropped(mode.space, mode.n))

    @property
    def entries(self):
        return {(r, c): v for c, column in self.columns.items() for r, v in column.items()}


def _by_column(entries):
    """{(row, col): value} as {col: {row: value}}."""
    columns = {}
    for (row, col), v in entries.items():
        columns.setdefault(col, {})[row] = v
    return columns


def _mode_dropped(space, n):
    """The columns a mode of level shift n maps above l_max: level - n > l_max."""
    return {c for c, level in enumerate(space.levels) if level - n > space.l_max}


def _unreduced_product(a, b):
    """Columns of a @ b (b acts first) as unreduced sums of products of the
    column values, and the dropped columns (_dropped_by_product)."""
    columns = {}
    dropped = set(b.dropped_cols)
    for col, column in b.columns.items():
        out = {}
        for mid, val in column.items():
            if mid in a.dropped_cols:
                dropped.add(col)
            for row, val2 in a.columns.get(mid, {}).items():
                p = val2 * val
                out[row] = out[row] + p if row in out else p
        columns[col] = out
    return columns, dropped


def _column_product(a, b, commute=False):
    """a @ b, or [a, b] = a @ b + (-(b @ a)) when commute, column by column."""
    columns, dropped = _unreduced_product(a, b)
    if commute:
        ba, dropped_ba = _unreduced_product(b, a)
        for col, column in ba.items():
            acc = columns.setdefault(col, {})
            for row, val in column.items():
                acc[row] = acc[row] + -val if row in acc else -val
        dropped |= dropped_ba
    return _Columns(a.space, columns, dropped)


def _column_apply(op, v):
    """op applied to v column by column; a nonzero in a dropped column
    counts as truncation loss."""
    out, loss = {}, 0
    for col, c in v.terms.items():
        loss += col in op.dropped_cols
        for row, val in op.columns.get(col, {}).items():
            out[row] = out[row] + val * c if row in out else val * c
    return BoundaryState(v.space, out, v.truncation_loss + loss)


def _random_operator(data, space):
    """A random sparse column operator with mixed denominators (halves,
    thirds and powers of 2 and 3) and random dropped columns; floats in
    float64."""
    value = st.builds(
        lambda k, i, j: Fraction(k, 2**i * 3**j),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
    )
    if not space.exact:
        value = value.map(float)
    index = st.integers(min_value=0, max_value=space.dim - 1)
    columns = data.draw(
        st.dictionaries(index, st.dictionaries(index, value, max_size=6), max_size=10)
    )
    dropped = data.draw(st.frozensets(index, max_size=4))
    return _Columns(space, columns, dropped)


def _dense(op):
    matrix = [[Fraction(0)] * op.space.dim for _ in range(op.space.dim)]
    for (row, col), v in op.entries.items():
        matrix[row][col] = v
    return matrix


def _dense_product(a, b):
    """a @ b by the textbook triple loop."""
    dim = len(a)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            if a[i][k]:
                for j in range(dim):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def _dropped_by_product(a, b):
    # a column of a @ b is lost where b loses it or where b maps it onto a
    # column that a loses
    return b.dropped_cols | {
        col for (mid, col) in b.entries if mid in a.dropped_cols
    }


def _assert_canonical(op):
    # no stored zeros, Fractions in exact mode
    for v in op.entries.values():
        assert v != 0
        assert isinstance(v, Fraction) == op.space.exact


def _mode(space, kind, n, bar):
    return build_virasoro(space, n, bar=bar, shifted=kind == "L shifted")


_KINDS = st.sampled_from(["L", "L shifted"])
_MODE = st.integers(min_value=-7, max_value=7)


@given(
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    bar=st.booleans(),
    kinds=st.tuples(_KINDS, _KINDS),
    m=_MODE,
    n=_MODE,
)
@example(l_max=0, exact=True, bar=False, kinds=("L", "L"), m=-1, n=1)
@example(l_max=1, exact=False, bar=True, kinds=("L shifted", "L"), m=0, n=-1)
@settings(max_examples=100, deadline=None)
def test_one_sided_products_match_dense_reference(l_max, exact, bar, kinds, m, n):
    # float64 is exact here too: the entries are multiples of 1/2, and the
    # one non-dyadic value, the -1/24 of a shifted L_0, sits on a diagonal,
    # so every product entry it enters is a single product
    space = _space(l_max, exact)
    a, b = _mode(space, kinds[0], m, bar), _mode(space, kinds[1], n, bar)
    A, B = _dense(a), _dense(b)
    ab, ba = _dense_product(A, B), _dense_product(B, A)
    comm = commutator(a, b)
    _assert_canonical(comm)
    assert _dense(comm) == [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    # the column reference on the lifted operands gives the same entries bit for bit
    assert comm.entries == _column_product(_Columns.of(a), _Columns.of(b), commute=True).entries


@given(
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    kind=_KINDS,
    n=_MODE,
    bar=st.booleans(),
    coeffs=st.dictionaries(
        st.integers(min_value=0, max_value=400),
        st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=7)),
        max_size=8,
    ),
    factor=st.none() | st.tuples(_KINDS, _MODE),
)
@example(l_max=0, exact=True, kind="L shifted", n=0, bar=False, coeffs={0: (1, 1)}, factor=None)
@example(l_max=0, exact=False, kind="L", n=-1, bar=True, coeffs={0: (2, 3)}, factor=None)
@example(l_max=1, exact=True, kind="L", n=-1, bar=True, coeffs={1: (3, 2), 2: (-1, 7)}, factor=None)
@example(l_max=1, exact=False, kind="L", n=1, bar=False, coeffs={1: (5, 1), 2: (1, 3)}, factor=None)
# commutators at l_max 0 and 1, in both arithmetics
@example(l_max=0, exact=True, kind="L shifted", n=0, bar=True, coeffs={0: (1, 2)}, factor=("L", 0))
@example(l_max=0, exact=False, kind="L", n=1, bar=False, coeffs={0: (3, 1)}, factor=("L", -1))
@example(l_max=1, exact=True, kind="L", n=1, bar=False, coeffs={0: (1, 1), 1: (2, 3), 2: (-4, 5)}, factor=("L", -1))
@example(l_max=1, exact=False, kind="L shifted", n=0, bar=True, coeffs={1: (1, 3), 2: (5, 7)}, factor=("L", -1))
@settings(max_examples=200, deadline=None)
def test_unlifted_table_acts_like_its_columns(l_max, exact, kind, n, bar, coeffs, factor):
    # a mode's table, or a commutator's two table products, lifted through
    # .entries and applied to a sparse state column by column, gives the
    # column reference's state for its factors bit for bit, with the same
    # scalar types
    space = _space(l_max, exact)
    values = {i % space.dim: Fraction(k, d) if exact else k / d for i, (k, d) in coeffs.items()}
    v = BoundaryState(space, values)
    op = a = _mode(space, kind, n, bar)
    if factor is None:
        ref = _Columns.of(a)
    else:
        b = _mode(space, factor[0], factor[1], bar)
        op = commutator(a, b)
        ref = _column_product(_Columns.of(a), _Columns.of(b), commute=True)
    got = _column_apply(_Columns(space, _by_column(op.entries), ()), v)
    want = _column_apply(ref, v)
    assert got.terms == want.terms
    types = [{i: type(c) for i, c in w.terms.items()} for w in (got, want)]
    assert types[0] == types[1]


@given(
    data=st.data(),
    l_max=st.integers(min_value=0, max_value=6),
    exact=st.booleans(),
    bar=st.booleans(),
    kinds=st.tuples(_KINDS, _KINDS, _KINDS),
    modes=st.tuples(_MODE, _MODE, _MODE),
)
@example(data=None, l_max=0, exact=True, bar=False, kinds=("L", "L", "L"), modes=(1, -1, 1))
@example(data=None, l_max=1, exact=False, bar=True, kinds=("L shifted", "L", "L"), modes=(1, -1, -1))
@example(data=None, l_max=4, exact=True, bar=False, kinds=("L", "L", "L"), modes=(2, -2, 1))
@settings(max_examples=80, deadline=None)
def test_products_of_products_match_the_column_path(data, l_max, exact, bar, kinds, modes):
    # a commutator of two modes on one side lifts to the column reference's
    # commutator of its factors, bit for bit.  A product of a commutator and
    # a third operator is not an operator; applied one factor at a time it
    # acts on a state as the column reference's product
    space = _space(l_max, exact)
    a, b = (_mode(space, kind, n, bar) for kind, n in zip(kinds[:2], modes))
    comm = commutator(a, b)
    ref = _column_product(_Columns.of(a), _Columns.of(b), commute=True)
    assert comm.entries == ref.entries
    comm_cols = _Columns(space, _by_column(comm.entries), ref.dropped_cols)
    same, other = (_mode(space, kinds[2], modes[2], side) for side in (bar, not bar))
    operands = [_Columns.of(same), _Columns.of(other), ref]
    if data is not None:
        operands.append(_random_operator(data, space))
    one = space.one_scalar()
    v = BoundaryState(space, {i: (i + 1) * one for i in range(0, space.dim, 2)}, 1)
    for c_ref in operands:
        pairs = [  # (comm after c, c after comm) on v, then their references
            (_column_apply(comm_cols, _column_apply(c_ref, v)), _column_product(ref, c_ref)),
            (_column_apply(c_ref, _column_apply(comm_cols, v)), _column_product(c_ref, ref)),
        ]
        for got, want in pairs:
            want = _column_apply(want, v)
            if exact:
                assert got == want
            else:  # the factors' sums are taken in another order
                assert _norm_inf(got - want) <= 1e-12 * max(1.0, _norm_inf(want))


def test_products_of_products_and_of_two_sides_raise():
    space = build_space(3)
    L1, Lm1 = build_virasoro(space, 1), build_virasoro(space, -1)
    Lbar1, Lbarm1 = build_virasoro(space, 1, bar=True), build_virasoro(space, -1, bar=True)
    comm = commutator(L1, Lm1)
    for a, b in [(comm, L1), (L1, comm), (comm, comm), (L1, Lbar1), (Lbarm1, Lm1)]:
        with pytest.raises(ValueError):
            commutator(a, b)
