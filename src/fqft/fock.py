"""Level-truncated Fock module for the free boson.

The basis is the list of key tuples (level, chiral, antichiral), the two
partitions as non-increasing tuples, in graded-lexicographic order;
`space.index` maps a key to its basis index.  Boundary states are sparse
{basis index: nonzero coefficient} maps; `apply_current` applies a U(1)
current mode to a state one nonzero at a time.  Operators are read by
column, {col: {row: nonzero scalar}}.  j_n, L_n and their bars act on one
chiral side: each is a partition table {mu: {new: weight}} with its side
and level shift.  `compose` and `commutator` of two tables on one side
multiply the tables, as integers over one denominator in exact arithmetic;
other operands multiply column by column.  A table, or such a product, is
lifted lazily from block runs (one Fraction per distinct numerator), and
its entries are read from the runs.  The Shapovalov pairing is diagonal.

The zero mode j_0 acts as zero throughout (the zero-mode sector is out of
scope), and components pushed above the truncation level are dropped with a
queryable loss counter.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceLimitError, SpaceMismatchError
from .scalars import encode_scalar

# Hard cap on the truncation level.  dim grows like sum p(k)p(m) (7 567 at
# 14, 17 345 at 16, 38 045 at 18).  Exact arithmetic, one process on a
# 2-core Xeon, Python 3.11, median of 5: build_space, the tables of L_{+-2}
# and L_0, lifting [L_2, L_{-2}] and L_0's columns take 0.004 + 0.004 + 0.001
# + 0.014 + 0.004 s at 14 (peak RSS 22 MB, 14 MB of it imports) and 0.008 +
# 0.008 + 0.002 + 0.033 + 0.011 s at 16 (31 MB); with the cap lifted, 0.026 +
# 0.019 + 0.005 + 0.087 + 0.026 s and 50 MB at 18.  Per two levels time and
# memory above imports grow 2-3x; the commutator's lift is the largest cost.
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
    """All basis states with total level <= l_max, graded-lexicographic order."""

    def __init__(self, l_max: int, exact: bool = True):
        if l_max < 0:
            raise ValueError("l_max must be >= 0")
        if l_max > L_MAX_HARD_CAP:
            raise ResourceLimitError(
                f"l_max={l_max} exceeds hard cap {L_MAX_HARD_CAP}"
            )
        self.l_max = l_max
        self.exact = exact
        # built in order: per level, mu runs over the chiral partitions of
        # size <= level, lexicographically, and nu over the rest; the columns
        # of one (level, mu) form a block, blocks[level][mu] its first column
        chiral = sorted((mu, k) for k in range(l_max + 1) for mu in partitions(k))
        self.basis, self.blocks = basis, blocks = [], []
        for total in range(l_max + 1):
            blocks.append({})
            for mu, k in chiral:
                if k <= total:
                    blocks[total][mu] = len(basis)
                    basis += [(total, mu, nu) for nu in partitions(total - k)]
        self.index = dict(zip(basis, range(len(basis))))
        self.dim, self.levels = len(basis), [key[0] for key in basis]

    def zero_scalar(self):
        return Fraction(0) if self.exact else 0.0

    def one_scalar(self):
        return Fraction(1) if self.exact else 1.0

    def zero(self) -> "BoundaryState":
        return BoundaryState(self, {})

    def vacuum(self) -> "BoundaryState":
        return BoundaryState(self, {0: self.one_scalar()})

    def state(self, chiral=(), antichiral=()) -> "BoundaryState":
        """Basis vector j_{chiral} jbar_{antichiral} |0>."""
        key = _key(chiral, antichiral)
        if key not in self.index:
            raise ValueError(f"state {key} above truncation l_max={self.l_max}")
        return BoundaryState(self, {self.index[key]: self.one_scalar()})

    def find(self, chiral, antichiral):
        return self.index.get(_key(chiral, antichiral))

    def to_json(self, operators=None) -> str:
        """Dump {l_max, basis, operators:{name: sparse triplets}} for golden files."""
        doc = {
            "l_max": self.l_max,
            "basis": [[list(mu), list(nu)] for _, mu, nu in self.basis],
            "operators": {},
        }
        for name, op in (operators or {}).items():
            triplets = [
                [i, j, encode_scalar(val)]
                for (i, j), val in sorted(op.entries.items())
            ]
            doc["operators"][name] = triplets
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class BoundaryState:
    """Sparse coefficient map {basis index: scalar} over a truncated basis;
    element of a boundary space.  Zero coefficients are never stored, so
    every operation costs O(number of nonzeros)."""

    __slots__ = ("space", "coeffs", "truncation_loss")

    def __init__(self, space, coeffs, truncation_loss=0):
        coeffs = {i: c for i, c in coeffs.items() if c != 0}
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < space.dim):
            raise ValueError("basis index outside the space")
        self.space = space
        self.coeffs = coeffs
        self.truncation_loss = truncation_loss

    def __getitem__(self, i):
        """Coefficient of basis vector i; the zero scalar when absent."""
        return self.coeffs.get(i, self.space.zero_scalar())

    def __add__(self, other):
        _check_space(self, other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out[i] + c if i in out else c
        return BoundaryState(
            self.space, out, self.truncation_loss + other.truncation_loss
        )

    def __sub__(self, other):
        _check_space(self, other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out[i] - c if i in out else -c
        return BoundaryState(
            self.space, out, self.truncation_loss + other.truncation_loss
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "BoundaryState":
        return BoundaryState(
            self.space, {i: c * a for i, a in self.coeffs.items()}, self.truncation_loss
        )

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            isinstance(other, BoundaryState)
            and self.space is other.space
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_inf(self) -> float:
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def nonzero(self):
        """(index, coefficient) pairs in basis order."""
        return sorted(self.coeffs.items())

    def levels_present(self):
        return sorted({self.space.levels[i] for i in self.coeffs})

    def __repr__(self):
        basis = self.space.basis
        terms = [
            f"{c}*|{list(basis[i][1])};{list(basis[i][2])}>" for i, c in self.nonzero()[:6]
        ]
        return "BoundaryState(" + " + ".join(terms or ["0"]) + ")"


def _check_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError("operands live in different truncated spaces")


_EMPTY: dict = {}  # the column of an operator that has none stored


class ModeOperator:
    """Sparse action of j_n / jbar_n / L_n / Lbar_n on a truncated space,
    read by column as {col: {row: nonzero scalar}}.  dropped_cols are the
    columns whose image has components above l_max (dropped, and counted as
    truncation loss by apply_mode).  A mode on one side (`bar` False or
    True, else None) holds its partition table with weights over
    `denominator` (integers in exact arithmetic, floats over 1 in float64).
    A mode or a product of two on one side is lifted from its `_pending`
    terms (then let go) when its columns are first read; its entries are
    read from the lift's runs without lifting it."""

    __slots__ = (
        "kind", "n", "space", "bar", "table", "denominator", "_pending", "_columns", "_dropped"
    )

    def __init__(self, kind, n, space, columns, dropped_cols=frozenset()):
        self.kind, self.n, self.space = kind, n, space
        self.bar, self.table, self.denominator, self._pending = None, None, 1, None
        self._columns = {}
        for col, column in columns.items():
            column = {row: v for row, v in column.items() if v != 0}
            if column:
                self._columns[col] = column
        self._dropped = frozenset(dropped_cols)

    @classmethod
    def _one_sided(cls, kind, n, space, bar, table, denominator) -> "ModeOperator":
        """Wrap a partition table whose images are nonempty and zero-free."""
        out = cls(kind, n, space, {})
        out.bar, out.table, out.denominator, out._columns = bar, table, denominator, None
        out._pending = (bar, n, [(table, 1, n, ())], denominator)  # _lift's arguments
        return out

    @property
    def columns(self) -> dict:
        if self._columns is None:
            (runs, self._dropped), self._pending = _lift(self.space, *self._pending), None
            self._columns = columns = {}
            for row, col, size, v in runs:
                if size == 1:  # most runs are single entries: skip the range
                    columns.setdefault(col, {})[row] = v
                    continue
                for i in range(size):
                    columns.setdefault(col + i, {})[row + i] = v
        return self._columns

    @property
    def dropped_cols(self) -> frozenset:
        self.columns  # a table is lifted on first read
        return self._dropped

    @property
    def entries(self) -> dict:
        """A fresh {(row, col): scalar} dict of the nonzero entries."""
        if self._columns is not None:
            return {(r, col): v for col in self._columns for r, v in self._columns[col].items()}
        out = {}  # read from the runs, without lifting
        for row, col, size, v in _lift(self.space, *self._pending)[0]:
            if size == 1:
                out[row, col] = v
                continue
            for i in range(size):
                out[row + i, col + i] = v
        return out

    def compose(self, other) -> "ModeOperator":
        """Matrix product self @ other (other acts first)."""
        _check_space(self, other)
        if self.bar is not None and self.bar == other.bar:
            return _table_product(self, other, commute=False)
        columns, dropped = _product(
            self.columns, self.dropped_cols, other.columns, other.dropped_cols
        )
        return ModeOperator("composite", None, self.space, columns, dropped)

    def add(self, other, scale_other=1) -> "ModeOperator":
        _check_space(self, other)
        columns = {col: dict(column) for col, column in self.columns.items()}
        _accumulate(columns, other.columns, scale_other)
        return ModeOperator(
            "composite", None, self.space, columns, self.dropped_cols | other.dropped_cols
        )

    def scale(self, c) -> "ModeOperator":
        columns = {
            col: {row: c * v for row, v in column.items()}
            for col, column in self.columns.items()
        }
        return ModeOperator(self.kind, self.n, self.space, columns, self.dropped_cols)

    def is_zero(self) -> bool:
        return not self.columns

    def __add__(self, other):
        return self.add(other)

    def __mul__(self, other):
        if isinstance(other, ModeOperator):
            return self.compose(other)
        if isinstance(other, BoundaryState):
            return apply_mode(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            isinstance(other, ModeOperator)
            and self.space is other.space
            and self.columns == other.columns
        )


def _product(a, a_dropped, b, b_dropped):
    """Columns of a @ b (b acts first) as unreduced sums of products of the
    given column values, and the dropped columns: those b drops, and those
    whose image under b meets a column that a drops.  Partition tables
    multiply alike, keyed by partition."""
    columns = {}
    dropped = set(b_dropped)
    for col, column in b.items():
        out = {}
        for mid, val in column.items():
            if mid in a_dropped:
                dropped.add(col)
            for row, val2 in a.get(mid, _EMPTY).items():
                p = val2 * val
                out[row] = out[row] + p if row in out else p
        columns[col] = out
    return columns, dropped


def _accumulate(out, columns, scale=1):
    """out += scale * columns, in place, column by column."""
    for col, column in columns.items():
        acc = out.setdefault(col, {})
        for row, val in column.items():
            # negation is exact and cheaper than a product with -1
            val = val if scale == 1 else -val if scale == -1 else scale * val
            acc[row] = acc[row] + val if row in acc else val


def _table_product(a: ModeOperator, b: ModeOperator, commute: bool) -> ModeOperator:
    """a @ b, or [a, b] when commute, of two tables on one side, lifted
    when read.  A column keeps a product's entries when every level it
    passes is at most l_max; a @ b drops it when b drops it, or when b's
    image of its partition is nonzero and a drops that image."""
    terms = [(_product(a.table, (), b.table, ())[0], 1, b.n, b.table)]
    if commute:
        terms.append((_product(b.table, (), a.table, ())[0], -1, a.n, a.table))
    out = ModeOperator("composite", None, a.space, {})
    out._pending = (a.bar, a.n + b.n, terms, a.denominator * b.denominator)
    out._columns = None  # lifted when read
    return out


def _lift(space, bar, n, terms, denominator):
    """(runs, dropped columns) of the one-sided operator from level x to
    x - n that sums `terms` (table over `denominator`, sign, level shift of
    the factor acting first, partitions that factor maps to nonzero); a run
    (row, col, size, value) is the entries (row + i, col + i), i < size.  A
    term reaches level x where x - first and x - n are at most l_max; a
    column is dropped where some x - first exceeds l_max, or where x - n
    does and a first factor maps its partition to nonzero.  A chiral image
    new of mu maps the block (x, mu) onto (x - n, new) in order, one run; an
    antichiral image new of nu maps (x, mu, nu) into the block (x - n, mu)."""
    l_max, blocks = space.l_max, space.blocks
    rules, tables = [], {}
    for x in range(l_max + 1):
        kept = tuple(t for t, term in enumerate(terms) if max(x - term[2], x - n) <= l_max)
        if kept not in tables:
            summed = {}
            for t in kept:
                _accumulate(summed, terms[t][0], terms[t][1])
            # one scalar per distinct numerator; zeros are not lifted
            values = {s for image in summed.values() for s in image.values()}
            scalar = {s: Fraction(s, denominator) if space.exact else s for s in values}
            tables[kept] = {
                p: {new: scalar[s] for new, s in image.items() if s} for p, image in summed.items()
            }
        drop_all = any(x - term[2] > l_max for term in terms)
        drop = () if drop_all or x - n <= l_max else {p for term in terms for p in term[3]}
        rules.append((tables[kept], drop_all, drop))
    runs, dropped = [], []
    counts = [partition_count(k) for k in range(l_max + 1)]
    for level, starts in enumerate(blocks):
        table, drop_all, drop = rules[level]
        y, sides = level - n, {}  # the images' level; antichiral images by |mu|
        targets = blocks[y] if 0 <= y <= l_max else None
        for mu, start in starts.items():
            m = sum(mu)
            if drop_all or not bar and mu in drop:
                dropped += range(start, start + counts[level - m])
            if not bar:
                for new, v in table.get(mu, _EMPTY).items():
                    runs.append((targets[new], start, counts[level - m], v))
                continue
            if m not in sides:  # (position of nu, rank of new, value), dropped positions
                nus = list(enumerate(partitions(level - m)))
                rank = {p: i for i, p in enumerate(partitions(y - m))} if targets else _EMPTY
                images = [
                    (j, rank[new], v) for j, nu in nus for new, v in table.get(nu, _EMPTY).items()
                ]
                sides[m] = images, [j for j, nu in nus if nu in drop]
            images, lost = sides[m]
            row = targets[mu] if images else None  # the block (y, mu) exists where nu has an image
            dropped += [start + j for j in lost]
            runs += [(row + r, start + j, 1, v) for j, r, v in images]
    return runs, frozenset(dropped)


def build_space(l_max: int, exact: bool = True) -> TruncatedFockSpace:
    return TruncatedFockSpace(l_max, exact=exact)


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


def current_mode(space: TruncatedFockSpace, n: int, bar: bool = False) -> ModeOperator:
    """j_n (bar=False) or jbar_n as an operator on the truncated space."""
    one = 1 if space.exact else 1.0
    table = {}
    for size in range(min(space.l_max, space.l_max + n) + 1):  # see build_virasoro
        for mu in partitions(size):
            image = _mode_on_partition(mu, n)
            if image is not None:
                table[mu] = {image[0]: image[1] * one}
    return ModeOperator._one_sided("jbar" if bar else "j", n, space, bar, table, 1)


def apply_current(v: BoundaryState, n: int, bar: bool = False) -> BoundaryState:
    """j_n (or jbar_n) applied to v one nonzero at a time, without building
    the operator; equals apply_mode(current_mode(v.space, n, bar), v),
    truncation loss included."""
    space = v.space
    out = {}
    loss = 0
    for col, c in v.coeffs.items():
        level, mu, nu = space.basis[col]
        level -= n
        if level > space.l_max:
            loss += 1
            continue
        image = _mode_on_partition(nu if bar else mu, n)
        if image is not None:
            new, weight = image
            out[space.index[(level, mu, new) if bar else (level, new, nu)]] = weight * c
    return BoundaryState(space, out, v.truncation_loss + loss)


def _twice_virasoro(mu: tuple, n: int, creators) -> dict:
    """2 L_n on the chiral state j_{-mu}|0> as {new partition: integer
    weight}; `creators` are the pairs of two creation modes in L_n."""
    pairs = [(n - m2, m2) for m2 in set(mu) if 2 * m2 >= n and m2 != n]
    twice = {}
    for m1, m2 in pairs + creators:
        mid, w2 = _mode_on_partition(mu, m2)
        image = _mode_on_partition(mid, m1)
        if image is not None:
            new, w1 = image
            w = w1 * w2 if m1 == m2 else 2 * w1 * w2
            twice[new] = twice.get(new, 0) + w
    return twice


def build_virasoro(
    space: TruncatedFockSpace, n: int, bar: bool = False, shifted: bool = False
) -> ModeOperator:
    """L_n = (1/2) sum_k :j_{-k} j_{k+n}:, as a partition table.

    Normal ordering puts the larger mode on the right, so L_n is the sum of
    j_{m1} j_{m2} over m1 <= m2, m1 + m2 = n, with weight 1/2 when m1 == m2
    and 1 otherwise.  On a partition only two kinds of pair act: those whose
    annihilator m2 > 0 is one of its parts, and, for n < 0, pairs of two
    creators.  L_n (Lbar_n) acts on the chiral (antichiral) partition of a
    column alone; a column whose level - n exceeds l_max maps wholly above
    the truncation and is dropped.

    With shifted=True, L_0 carries the -1/24 vacuum-energy offset.
    """
    # exact weights are integers over 24: a pair's w/2 is 12 w, the shift -1
    denominator, half, shift = (24, 12, -1) if space.exact else (1, 0.5, -1.0 / 24.0)
    shift = shift if shifted and n == 0 else 0
    # both creators: m2 runs over ceil(n/2)..-1, and j_{m1} with -m1 > l_max
    # leaves every column it reaches above the truncation
    creators = [(n - m2, m2) for m2 in range(-(-n // 2), min(0, n + space.l_max + 1))]
    table = {}
    # a column whose partition on this side exceeds l_max + n is dropped
    for size in range(min(space.l_max, space.l_max + n) + 1):
        for mu in partitions(size):
            if n:
                image = {new: half * w for new, w in _twice_virasoro(mu, n, creators).items()}
            else:  # each part k of mu, m times, pairs to 2 k m: 2 L_0 is 2 |mu|
                image = {mu: half * (2 * size) + shift} if size or shift else {}
            # pair weights are positive and L_0's diagonal |mu| - 1/24 never vanishes
            if image:
                table[mu] = image
    return ModeOperator._one_sided("Lbar" if bar else "L", n, space, bar, table, denominator)


def apply_mode(op: ModeOperator, v: BoundaryState) -> BoundaryState:
    """Linear action of a mode operator; counts truncation losses.  A table
    not lifted yet acts one nonzero at a time, as apply_current does, and
    stays unlifted: a column is lost where level - n exceeds l_max."""
    if op.space is not v.space:
        raise SpaceMismatchError("operator and state live in different spaces")
    space, out, loss = v.space, {}, 0
    if op.table is not None and op._columns is None:
        for col, c in v.coeffs.items():
            level, mu, nu = space.basis[col]
            level -= op.n
            if level > space.l_max:
                loss += 1
                continue
            for new, w in op.table.get(nu if op.bar else mu, _EMPTY).items():
                row = space.index[(level, mu, new) if op.bar else (level, new, nu)]
                val = (Fraction(w, op.denominator) if space.exact else w) * c
                out[row] = out[row] + val if row in out else val
        return BoundaryState(space, out, v.truncation_loss + loss)
    for col, c in v.coeffs.items():
        loss += col in op.dropped_cols
        for row, val in op.columns.get(col, _EMPTY).items():
            out[row] = out[row] + val * c if row in out else val * c
    return BoundaryState(space, out, v.truncation_loss + loss)


def commutator(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """[a, b] = a @ b - b @ a, the two products subtracted in one pass (for
    two tables on one side, as integers before any entry becomes a
    Fraction); in float64 it equals a.compose(b).add(b.compose(a),
    scale_other=-1) bit for bit."""
    _check_space(a, b)
    if a.bar is not None and a.bar == b.bar:
        return _table_product(a, b, commute=True)
    columns, dropped = _product(a.columns, a.dropped_cols, b.columns, b.dropped_cols)
    ba, dropped_ba = _product(b.columns, b.dropped_cols, a.columns, a.dropped_cols)
    _accumulate(columns, ba, -1)
    return ModeOperator("composite", None, a.space, columns, dropped | dropped_ba)


@lru_cache(maxsize=None)
def _chiral_norm(parts: tuple[int, ...]) -> int:
    """<mu|mu> = prod_k k^{m_k} m_k! from repeated mode commutation."""
    norm = 1
    for part in set(parts):
        m = parts.count(part)
        fact = 1
        for i in range(2, m + 1):
            fact *= i
        norm *= part**m * fact
    return norm


def shapovalov(u: BoundaryState, v: BoundaryState):
    """Bilinear Shapovalov pairing; basis states are pairwise orthogonal."""
    _check_space(u, v)
    space = u.space
    total = space.zero_scalar()
    for i, cu in u.nonzero():
        cv = v.coeffs.get(i)
        if cv is not None:
            _, mu, nu = space.basis[i]
            total = total + cu * cv * _chiral_norm(mu) * _chiral_norm(nu)
    return total
