"""Level-truncated Fock module for the free boson.

A basis key is (level, chiral, antichiral), the two partitions as
non-increasing tuples, and the columns run in graded-lexicographic key
order.  No per-column key is stored: `space.key_of(i)` reads column i's key
off the block map and `space.index_of(level, mu, nu)` is its inverse.  A
space holds the OPE tables fqft.observables extracts on it (`ope_tables`).
Boundary states are the sparse algebra of fqft.rexp.Sparse over a space,
{basis index: nonzero coefficient}, with a truncation-loss count;
`apply_current` applies a U(1) current mode j_n (or jbar_n) to a state one
nonzero at a time, and `scale_by_level` scales each level's part by one
scalar.  A mode operator is L_n (`build_virasoro`), a partition table {mu:
{new: weight}} acting on the chiral partition with a level shift, or the
`commutator` of two modes, whose tables multiply as integers over one
denominator.  Its `.entries`, {(row, col): nonzero scalar}, lift the
tables onto the columns on each read: the levels fall into runs that keep
the same tables, each run's tables are summed once over the partitions
its levels place, with one scalar per distinct numerator, an int when
integral and a Fraction otherwise, and each level of the run places the
summed partitions it holds.  The antichiral side is a spectator of every
mode.  Every scalar is an exact rational (an int or a Fraction).  The unit
coefficient of the vacuum and of every basis state is one shared immutable
Fraction(1), `_ONE`.

The zero mode j_0 acts as zero throughout (the zero-mode sector is out of
scope).  `apply_current` drops components pushed above the truncation level
and counts them as truncation loss; an operator keeps no entries there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _logger
from .errors import ResourceLimitError, SpaceMismatchError
from .rexp import Sparse
from .scalars import canonical_rational

# Hard cap on the truncation level.  dim grows like sum p(k)p(m) (7 567 at
# 14, 17 345 at 16, 38 045 at 18).  Exact arithmetic, one process on a
# 2-core Xeon, Python 3.11, median of 5: build_space, the tables of L_{+-2}
# and L_0, [L_2, L_{-2}] with its lift, and L_0's lift take 0.001 + 0.0026
# + 0.0002 + 0.0068 + 0.0018 s at 14 (peak RSS 20 MB, 15 MB of it imports)
# and 0.0019 + 0.0051 + 0.0004 + 0.018 + 0.0042 s at 16 (27 MB); with the
# cap lifted, 0.0035 + 0.0099 + 0.0008 + 0.048 + 0.0092 s and 46 MB at 18.
# Per two levels time and memory above imports grow 2-3x; the commutator's
# lift is the largest cost, most of it the dict inserts of its entries.
L_MAX_HARD_CAP = 16


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as non-increasing tuples, lexicographically sorted."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(sorted(out))


def partition_count(n: int) -> int:
    return len(partitions(n))


@lru_cache(maxsize=None)
def _rank(n: int) -> dict:
    """{partition: its position in partitions(n)}."""
    return {p: i for i, p in enumerate(partitions(n))}


_ONE = Fraction(1)  # the unit coefficient of basis states; a Fraction is immutable


def _key(chiral, antichiral) -> tuple:
    """The basis key (level, chiral, antichiral) of j_{chiral} jbar_{antichiral}|0>;
    parts must be positive ints (not bools or floats) and non-increasing."""
    mu, nu = tuple(chiral), tuple(antichiral)
    for parts in (mu, nu):
        if any(type(p) is not int or p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive integers, got {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be non-increasing")
    return (sum(mu) + sum(nu), mu, nu)


class TruncatedFockSpace:
    """All basis states with total level <= l_max, graded-lexicographic order.

    Columns are addressed through the block map: per level, mu runs over the
    chiral partitions of size <= level, lexicographically, and nu over the
    partitions of level - |mu|; the columns of one (level, mu) form a block,
    blocks[level][mu] its first column.  Per column it keeps only its level
    and a reference to its block's record."""

    def __init__(self, l_max: int):
        if l_max < 0:
            raise ValueError("l_max must be >= 0")
        if l_max > L_MAX_HARD_CAP:
            raise ResourceLimitError(
                f"l_max={l_max} exceeds hard cap {L_MAX_HARD_CAP}"
            )
        self.l_max = l_max
        nus = [(p, len(p)) for p in map(partitions, range(l_max + 1))]
        # per column its block's record (level, mu, |mu|, first column,
        # partitions of nu) and its level, filled by list repeats
        self.blocks, self._block_of, self.levels = [], [], []
        blocks, block_of, levels = self.blocks, self._block_of, self.levels
        chiral, start = [], 0
        for level in range(l_max + 1):
            # the chiral partitions of size <= level, lexicographically
            chiral = sorted(chiral + [(mu, level) for mu in nus[level][0]])
            starts, first = {}, start
            for mu, k in chiral:
                parts, size = nus[level - k]
                starts[mu] = start
                block_of += [(level, mu, k, start, parts)] * size
                start += size
            blocks.append(starts)
            levels += [level] * (start - first)
        self.dim = start
        self._ranks = [_rank(k) for k in range(l_max + 1)]
        self.ope_tables = {}  # fqft.observables.ope_extract keeps its tables here

    def key_of(self, i: int) -> tuple:
        """The key (level, chiral, antichiral) of column i."""
        level, mu, _, start, nus = self._block_of[i]
        return level, mu, nus[i - start]

    def index_of(self, level: int, mu: tuple, nu: tuple):
        """The column of the key (level, mu, nu), or None outside the space."""
        if not 0 <= level <= self.l_max:
            return None
        start = self.blocks[level].get(mu)
        rank = None if start is None else self._ranks[level - sum(mu)].get(nu)
        return None if rank is None else start + rank

    def zero(self) -> "BoundaryState":
        return BoundaryState(self, {})

    def vacuum(self) -> "BoundaryState":
        return BoundaryState._of(self, {0: _ONE})

    def state(self, chiral=(), antichiral=()) -> "BoundaryState":
        """Basis vector j_{chiral} jbar_{antichiral} |0>."""
        key = _key(chiral, antichiral)
        i = self.index_of(*key)
        if i is None:
            raise ValueError(f"state {key} above truncation l_max={self.l_max}")
        return BoundaryState(self, {i: _ONE})


class BoundaryState(Sparse):
    """Sparse coefficient map {basis index: nonzero scalar} over a truncated
    basis; element of a boundary space.  The Sparse algebra over `space`:
    an index outside 0..dim-1 raises ValueError, and operands over two
    spaces raise SpaceMismatchError.  `truncation_loss` counts the nonzeros
    apply_current pushed above l_max; + and - sum it, and scaling keeps it.
    Every operation costs O(number of nonzeros)."""

    __slots__ = ("space", "truncation_loss")
    _context = "space"
    _mismatch = SpaceMismatchError

    def __init__(self, space, terms=None, truncation_loss=0):
        self.space, self.truncation_loss = space, truncation_loss
        super().__init__(terms)

    def _norm(self, i):
        if 0 <= i < self.space.dim:
            return i
        raise ValueError("basis index outside the space")

    @classmethod
    def _of(cls, space, terms, truncation_loss=0):
        """Wrap a dict unchecked, as Sparse._of does: every index in
        0..dim-1 and no zero coefficient."""
        out = object.__new__(cls)
        out.space, out.terms, out.truncation_loss = space, terms, truncation_loss
        return out

    def _like(self, terms, other=None):
        loss = self.truncation_loss
        return self._of(self.space, terms, loss if other is None else loss + other.truncation_loss)

    def __getitem__(self, i):
        """Coefficient of basis vector i; Fraction(0) when absent."""
        c = self.terms.get(i)
        return Fraction(0) if c is None else c

    def nonzero(self):
        """(index, coefficient) pairs in basis order."""
        return sorted(self.terms.items())

    def __repr__(self):
        terms = []
        for i, c in self.nonzero()[:6]:
            _, mu, nu = self.space.key_of(i)
            terms.append(f"{c}*|{list(mu)};{list(nu)}>")
        return "BoundaryState(" + " + ".join(terms or ["0"]) + ")"


def scale_by_level(v: BoundaryState, by_level) -> BoundaryState:
    """v with its level-E part scaled by by_level[E], a nonzero rational for
    each level v holds (a list or a dict); a product of two nonzero
    rationals is nonzero, so no zero is stored."""
    levels = v.space.levels
    return v._like({i: by_level[levels[i]] * c for i, c in v.terms.items()})


_EMPTY: dict = {}  # the image of a partition a table does not map


class ModeOperator:
    """L_n on a truncated space, or the commutator of two of them; it maps
    level x to x - n.  It is held as its terms (partition table {p: {new:
    weight}} with integer weights over `denominator`; sign; level shift of
    the factor acting first).  A mode keeps its own `table`, a commutator
    None.  `.entries` lifts the terms onto the columns on each read; a column
    whose image, or whose first factor's image, lies above l_max keeps no
    entries from that term.  The levels x with x - n in 0..l_max fall into
    runs that keep the same terms: one for a mode, at most two for a
    commutator, since a term stops at a level threshold.  The lift sums a
    run's tables once, over the partitions of size <= its last level (a
    lone term is only signed), and places them at each level of the run;
    an entry is an int when integral and a Fraction otherwise.  Nothing is
    kept between reads."""

    __slots__ = ("space", "n", "denominator", "terms", "table")

    def __init__(self, space, n, denominator, terms, table=None):
        self.space, self.n, self.denominator = space, n, denominator
        self.terms, self.table = terms, table

    def _summed(self, terms, top) -> list:
        """The signed sum of the terms' tables over the partitions of size
        <= top, in size order, as (mu, |mu|, [(new, scalar)]) with one
        scalar per distinct numerator, canonical (an int when integral, a
        Fraction otherwise).  Zeros are dropped; a lone term is only
        signed."""
        numerators, sign = [], 1
        if len(terms) == 1:
            [(table, sign, _)] = terms
            for size in range(top + 1):
                for mu in partitions(size):
                    image = table.get(mu)
                    if image:
                        numerators.append((mu, size, image))
        else:
            for size in range(top + 1):
                for mu in partitions(size):
                    acc = {}
                    for table, term_sign, _ in terms:
                        for new, w in table.get(mu, _EMPTY).items():
                            acc[new] = acc.get(new, 0) + term_sign * w
                    if acc:
                        numerators.append((mu, size, acc))
        values = {s for _, _, image in numerators for s in image.values()}
        den = self.denominator
        scalar = {s: canonical_rational(Fraction(sign * s, den)) for s in values}
        return [
            (mu, size, [(new, scalar[s]) for new, s in image.items() if s])
            for mu, size, image in numerators
        ]

    @property
    def entries(self) -> dict:
        """A fresh {(row, col): int or Fraction} dict of the nonzero
        entries, run by run: at a level x of a run, an image new of a summed
        mu of size <= x maps the block (x, mu) onto (x - n, new) in order."""
        space, n, terms = self.space, self.n, self.terms
        l_max, blocks = space.l_max, space.blocks
        offsets = [range(partition_count(k)) for k in range(l_max + 1)]
        out = {}
        x, top = max(0, n), min(l_max, l_max + n)
        while x <= top:
            kept = [term for term in terms if x - term[2] <= l_max]
            last = min([top] + [l_max + term[2] for term in kept])
            summed = self._summed(kept, last)
            for level in range(x, last + 1):
                starts, targets = blocks[level], blocks[level - n]
                for mu, size, image in summed:
                    if size > level:
                        break
                    start, block = starts[mu], offsets[level - size]
                    for new, v in image:
                        row = targets[new]
                        for i in block:
                            out[row + i, start + i] = v
            x = last + 1
        return out


def _table_product(a: dict, b: dict, top: int) -> dict:
    """The partition table of a @ b (b acts first), unreduced: every
    partition b maps of size <= top keeps an image, possibly empty."""
    out = {}
    for p, image in b.items():
        if sum(p) > top:
            continue
        acc = {}
        for mid, w in image.items():
            for new, w2 in a.get(mid, _EMPTY).items():
                x = w2 * w
                acc[new] = acc[new] + x if new in acc else x
        out[p] = acc
    return out


def build_space(l_max: int) -> TruncatedFockSpace:
    space = TruncatedFockSpace(l_max)
    log = _logger(10)
    if log:
        blocks = sum(map(len, space.blocks))
        log.debug("fock space l_max=%d dim=%d blocks=%d", l_max, space.dim, blocks)
    return space


def _mode_on_partition(mu: tuple, n: int):
    """j_n on the chiral state j_{-mu}|0>: (new partition, weight), or None
    when the image vanishes.  j_{-n} with n > 0 adds a part -n with weight
    1; j_n removes one occurrence of n with weight n * multiplicity, per
    [j_m, j_n] = m delta_{m+n,0}; j_0 finds no part 0 and acts as zero."""
    if n < 0:
        return tuple(sorted(mu + (-n,), reverse=True)), 1
    count = mu.count(n)
    if not count:
        return None
    k = mu.index(n)
    return mu[:k] + mu[k + 1 :], n * count


def apply_current(v: BoundaryState, n: int, bar: bool = False) -> BoundaryState:
    """j_n (or jbar_n) applied to v one nonzero at a time.  A nonzero whose
    level - n exceeds l_max is dropped and counted as truncation loss; j_0,
    and j_n with n > 0 on a partition without a part n, map to zero.  Its
    images are nonzero (a weight is a positive integer) and in range, so the
    state is wrapped unchecked."""
    space, out, loss = v.space, {}, 0
    for col, c in v.terms.items():
        level, mu, m, start, nus = space._block_of[col]
        y = level - n
        if y > space.l_max:
            loss += 1
            continue
        image = _mode_on_partition(nus[col - start] if bar else mu, n)
        if image is not None:
            new, weight = image
            # a chiral image keeps its offset in the block; an antichiral one
            # lands in the block (y, mu) at the rank of new
            if bar:
                row = space.blocks[y][mu] + space._ranks[y - m][new]
            else:
                row = space.blocks[y][new] + col - start
            # 1 * c would be a new Fraction; every OPE-pipeline weight is 1
            out[row] = c if weight == 1 else weight * c
    return BoundaryState._of(space, out, v.truncation_loss + loss)


def _twice_virasoro(mu: tuple, n: int, creators) -> dict:
    """2 L_n on the chiral state j_{-mu}|0> as {new partition: integer
    weight}.  A pair (m1, m2) whose annihilator m2 is a part of mu removes
    one m2 by index (weight m2 times its multiplicity), then inserts the
    part -m1 (m1 < 0, weight 1) or removes one m1 (weight m1 times the
    multiplicity left); an off-diagonal pair counts twice.  `creators` are
    the pairs of two creation modes in L_n, as (the two parts they insert,
    weight)."""
    twice = {}
    for m2 in set(mu):
        m1 = n - m2
        # normal order puts m1 <= m2, and j_0 acts as zero
        if m1 > m2 or not m1:
            continue
        k = mu.index(m2)
        w = (m2 if m1 == m2 else 2 * m2) * mu.count(m2)
        mid = mu[:k] + mu[k + 1 :]
        if m1 < 0:
            new = tuple(sorted(mid + (-m1,), reverse=True))
        else:
            count = mid.count(m1)
            if not count:
                continue
            k = mid.index(m1)
            new, w = mid[:k] + mid[k + 1 :], w * m1 * count
        twice[new] = twice.get(new, 0) + w
    for parts, w in creators:
        new = tuple(sorted(mu + parts, reverse=True))
        twice[new] = twice.get(new, 0) + w
    return twice


def build_virasoro(space: TruncatedFockSpace, n: int) -> ModeOperator:
    """L_n = (1/2) sum_k :j_{-k} j_{k+n}:, as a partition table.

    Normal ordering puts the larger mode on the right, so L_n is the sum of
    j_{m1} j_{m2} over m1 <= m2, m1 + m2 = n, with weight 1/2 when m1 == m2
    and 1 otherwise.  On a partition only two kinds of pair act: those whose
    annihilator m2 > 0 is one of its parts, and, for n < 0, pairs of two
    creators.  L_n acts on the chiral partition of a column alone; a column
    whose level - n exceeds l_max maps wholly above the truncation and
    keeps no entries.  L_0 is unshifted: it counts the chiral level.
    """
    # weights are integers over 24: a pair's w/2 is 12 w
    denominator, half = 24, 12
    # both creators: m2 runs over ceil(n/2)..-1, and j_{m1} with -m1 > l_max
    # leaves every column it reaches above the truncation
    creators = [
        ((m2 - n, -m2), 1 if 2 * m2 == n else 2)
        for m2 in range(-(-n // 2), min(0, n + space.l_max + 1))
    ]
    table = {}
    # a column whose chiral partition exceeds l_max + n maps above l_max
    for size in range(min(space.l_max, space.l_max + n) + 1):
        for mu in partitions(size):
            if n:
                image = {new: half * w for new, w in _twice_virasoro(mu, n, creators).items()}
            else:  # each part k of mu, m times, pairs to 2 k m: 2 L_0 is 2 |mu|
                image = {mu: half * (2 * size)} if size else {}
            # pair weights are positive and L_0's diagonal |mu| vanishes on () alone
            if image:
                table[mu] = image
    return ModeOperator(space, n, denominator, [(table, 1, n)], table)


def commutator(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """[a, b] = a @ b - b @ a of two modes, the two table
    products summed per level as integers before any entry becomes a
    scalar.  Each product covers the partitions of size <= l_max + min(n,
    0) alone, since the lift places none above that level."""
    if a.space is not b.space:
        raise SpaceMismatchError("operands live in different truncated spaces")
    if a.table is None or b.table is None:
        raise ValueError("only two modes commute")
    n = a.n + b.n
    top = a.space.l_max + min(n, 0)
    terms = [
        (_table_product(a.table, b.table, top), 1, b.n),
        (_table_product(b.table, a.table, top), -1, a.n),
    ]
    return ModeOperator(a.space, n, a.denominator * b.denominator, terms)
