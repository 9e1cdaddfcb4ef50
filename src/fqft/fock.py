"""Level-truncated Fock module for the free boson.

The basis is the list of key tuples (level, chiral, antichiral), the two
partitions as non-increasing tuples, in graded-lexicographic order;
`space.index` maps a key to its basis index.  Boundary states are sparse
{basis index: nonzero coefficient} maps.  U(1) current modes j_n / jbar_n
act on a basis vector by one index lookup (`_current_image`), either built
into an operator or applied to a state one nonzero at a time.  Operators
are stored by column, {col: {row: nonzero scalar}}, so products, sums and
the action on a state are per-column merges.  `compose` and `commutator`
share one product loop; in exact arithmetic it runs on integers, each
operand written over one common denominator, a commutator subtracts its two
products before any entry becomes a Fraction, and one Fraction is made per
distinct result.  L_n (Lbar_n) acts on the chiral (antichiral) partition of
a column alone, so `build_virasoro` computes the image of each distinct
partition under the normal-ordered current bilinears once and lifts it to
every column with that partition by index lookups.  The Shapovalov pairing
is diagonal in the basis.

The zero mode j_0 acts as zero throughout (the zero-mode sector is out of
scope), and components pushed above the truncation level are dropped with a
queryable loss counter.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ResourceLimitError, SpaceMismatchError
from .scalars import encode_scalar

# Hard cap on the truncation level.  dim grows like sum p(k)p(m) (7 567 at
# 14, 17 345 at 16, 38 045 at 18).  Exact arithmetic, one process on a
# 2-core Xeon, Python 3.11: build_space, L_{+-2}, L_0 and [L_2, L_{-2}] take
# 0.005 + 0.015 + 0.009 + 0.025 s at 14 (peak RSS 29 MB, 14 MB of it
# imports) and 0.010 + 0.034 + 0.019 + 0.069 s at 16 (peak RSS 49 MB); with
# the cap lifted, 0.020 + 0.083 + 0.041 + 0.178 s and 93 MB at 18.  Neither
# binds at 16.  Per two levels the time grows about 2.4x and the memory
# above imports about 2.3x, so the cap bounds time and memory alike; the
# commutator is still the largest single cost.
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
        self.basis = sorted(
            (total, mu, nu)
            for total in range(l_max + 1)
            for k in range(total + 1)
            for mu in partitions(k)
            for nu in partitions(total - k)
        )
        self.index = {key: i for i, key in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.levels = [key[0] for key in self.basis]

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
    stored by column as {col: {row: nonzero scalar}}.  dropped_cols are the
    columns whose image has components above l_max (dropped, and counted as
    truncation loss by apply_mode)."""

    __slots__ = ("kind", "n", "space", "columns", "dropped_cols")

    def __init__(self, kind, n, space, columns, dropped_cols=frozenset()):
        self.kind = kind
        self.n = n
        self.space = space
        self.columns = {}
        for col, column in columns.items():
            column = {row: v for row, v in column.items() if v != 0}
            if column:
                self.columns[col] = column
        self.dropped_cols = frozenset(dropped_cols)

    @property
    def entries(self) -> dict:
        """A fresh {(row, col): scalar} dict of the nonzero entries."""
        return {
            (row, col): v for col, column in self.columns.items() for row, v in column.items()
        }

    @classmethod
    def _of(cls, kind, n, space, columns, dropped_cols=frozenset()) -> "ModeOperator":
        """Wrap columns that are nonempty and zero-free, unchecked."""
        out = cls.__new__(cls)
        out.kind = kind
        out.n = n
        out.space = space
        out.columns = columns
        out.dropped_cols = frozenset(dropped_cols)
        return out

    def compose(self, other) -> "ModeOperator":
        """Matrix product self @ other (other acts first)."""
        _check_space(self, other)
        a, d_a = _common_denominator(self)
        b, d_b = _common_denominator(other)
        columns, dropped = _product(a, self.dropped_cols, b, other.dropped_cols)
        return _from_products(self.space, columns, d_a * d_b, dropped)

    def add(self, other, scale_other=1) -> "ModeOperator":
        _check_space(self, other)
        columns = {col: dict(column) for col, column in self.columns.items()}
        for col, column in other.columns.items():
            out = columns.setdefault(col, {})
            for row, val in column.items():
                # negation is exact and cheaper than a product with -1
                val = -val if scale_other == -1 else scale_other * val
                out[row] = out[row] + val if row in out else val
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


def _common_denominator(op: ModeOperator):
    """(columns, D): op's exact entries as integers over one common
    denominator D, the lcm of their denominators.  Float columns come back
    as they are, with D = 1."""
    if not op.space.exact:
        return op.columns, 1
    denominators = {v.denominator for column in op.columns.values() for v in column.values()}
    D = lcm(*denominators)
    scale = {d: D // d for d in denominators}
    columns = {
        col: {row: v.numerator * scale[v.denominator] for row, v in column.items()}
        for col, column in op.columns.items()
    }
    return columns, D


def _product(a, a_dropped, b, b_dropped):
    """Columns of a @ b (b acts first) as unreduced sums of products of the
    given column values, and the dropped columns: those b drops, and those
    whose image under b meets a column that a drops."""
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


def _from_products(space, columns, denominator, dropped) -> ModeOperator:
    """The composite operator of `_product` sums over `denominator`, zeros
    removed; exact entries become Fractions, one per distinct numerator."""
    out = {}
    if space.exact:
        scalars = {}
        for col, column in columns.items():
            kept = {}
            for row, s in column.items():
                if s:
                    v = scalars.get(s)
                    if v is None:
                        v = scalars[s] = Fraction(s, denominator)
                    kept[row] = v
            if kept:
                out[col] = kept
    else:
        for col, column in columns.items():
            kept = {row: v for row, v in column.items() if v != 0}
            if kept:
                out[col] = kept
    return ModeOperator._of("composite", None, space, out, dropped)


def build_space(l_max: int, exact: bool = True) -> TruncatedFockSpace:
    return TruncatedFockSpace(l_max, exact=exact)


# image of a basis vector pushed above l_max by a creation mode
_DROPPED = (-1, 0)


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


def _current_image(space: TruncatedFockSpace, n: int, col: int, bar: bool):
    """j_n (bar=False) or jbar_n on basis vector `col`.

    Returns (row, weight) with j_n|col> = weight |row>, None when the image
    vanishes, or _DROPPED when it lies above l_max.  For fixed (n, bar) the
    map col -> row is injective.
    """
    level, chiral, anti = space.basis[col]
    level -= n
    if level > space.l_max:
        return _DROPPED
    image = _mode_on_partition(anti if bar else chiral, n)
    if image is None:
        return None
    new, weight = image
    key = (level, chiral, new) if bar else (level, new, anti)
    return space.index[key], weight


def current_mode(space: TruncatedFockSpace, n: int, bar: bool = False) -> ModeOperator:
    """j_n (bar=False) or jbar_n as an operator on the truncated space."""
    one = space.one_scalar()
    columns = {}
    dropped = set()
    for col in range(space.dim):
        image = _current_image(space, n, col, bar)
        if image is _DROPPED:
            dropped.add(col)
        elif image is not None:
            row, weight = image
            columns[col] = {row: weight * one}
    return ModeOperator("jbar" if bar else "j", n, space, columns, dropped)


def apply_current(v: BoundaryState, n: int, bar: bool = False) -> BoundaryState:
    """j_n (or jbar_n) applied to v one nonzero at a time, without building
    the operator; equals apply_mode(current_mode(v.space, n, bar), v),
    truncation loss included."""
    space = v.space
    out = {}
    loss = 0
    for col, c in v.coeffs.items():
        image = _current_image(space, n, col, bar)
        if image is _DROPPED:
            loss += 1
        elif image is not None:
            row, weight = image
            out[row] = weight * c
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
    """L_n = (1/2) sum_k :j_{-k} j_{k+n}:, assembled one column at a time.

    Normal ordering puts the larger mode on the right, so L_n is the sum of
    j_{m1} j_{m2} over m1 <= m2, m1 + m2 = n, with weight 1/2 when m1 == m2
    and 1 otherwise.  On a partition only two kinds of pair act: those whose
    annihilator m2 > 0 is one of its parts, and, for n < 0, pairs of two
    creators.  L_n (Lbar_n) acts on the chiral (antichiral) partition of a
    column alone, so its image is computed once per distinct partition and
    lifted to each column by index lookups.  A column whose level - n
    exceeds l_max maps wholly above the truncation and is dropped.

    With shifted=True, L_0 carries the -1/24 vacuum-energy offset.
    """
    l_max, index = space.l_max, space.index
    shift = (Fraction(-1, 24) if space.exact else -1.0 / 24.0) if shifted and n == 0 else 0
    # both creators: m2 runs over ceil(n/2)..-1
    creators = [(n - m2, m2) for m2 in range(-(-n // 2), 0)]
    images = {}  # partition -> [(new partition, scalar)]
    columns = {}
    dropped = set()
    for col, (level, mu, nu) in enumerate(space.basis):
        level -= n
        if level > l_max:
            dropped.add(col)
            continue
        parts = nu if bar else mu
        image = images.get(parts)
        if image is None:
            image = images[parts] = [
                (new, Fraction(w, 2) if space.exact else 0.5 * w)
                for new, w in _twice_virasoro(parts, n, creators).items()
            ]
        if bar:
            column = {index[(level, mu, new)]: v for new, v in image}
        else:
            column = {index[(level, new, nu)]: v for new, v in image}
        if shift:
            column[col] = column.get(col, 0) + shift
        if column:
            columns[col] = column
    # pair weights are positive and L_0's diagonal |mu| - 1/24 never vanishes
    return ModeOperator._of("Lbar" if bar else "L", n, space, columns, dropped)


def apply_mode(op: ModeOperator, v: BoundaryState) -> BoundaryState:
    """Linear action of a mode operator; counts truncation losses."""
    if op.space is not v.space:
        raise SpaceMismatchError("operator and state live in different spaces")
    out = {}
    loss = 0
    for col, c in v.coeffs.items():
        loss += col in op.dropped_cols
        for row, val in op.columns.get(col, _EMPTY).items():
            out[row] = out[row] + val * c if row in out else val * c
    return BoundaryState(v.space, out, v.truncation_loss + loss)


def commutator(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """[a, b] = a @ b - b @ a.  Both products share one denominator, so the
    difference is taken before any entry becomes a Fraction; in float64 it
    equals a.compose(b).add(b.compose(a), scale_other=-1) bit for bit."""
    _check_space(a, b)
    ai, d_a = _common_denominator(a)
    bi, d_b = _common_denominator(b)
    columns, dropped = _product(ai, a.dropped_cols, bi, b.dropped_cols)
    ba, dropped_ba = _product(bi, b.dropped_cols, ai, a.dropped_cols)
    for col, column in ba.items():
        out = columns.setdefault(col, {})
        for row, v in column.items():
            out[row] = out[row] - v if row in out else -v
    return _from_products(a.space, columns, d_a * d_b, dropped | dropped_ba)


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
