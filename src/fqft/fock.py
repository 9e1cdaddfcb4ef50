"""Level-truncated Fock module for the free boson.

Basis enumeration over pairs of integer partitions (chiral, antichiral),
sparse boundary states {basis index: nonzero coefficient}, U(1) current
modes j_n / jbar_n (as operators, or applied to a state one nonzero at a
time), Virasoro generators assembled from normal-ordered current
bilinears, and the Shapovalov pairing.

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

# Hard cap on the truncation level; dim grows like sum p(k)p(m) and the
# operator assembly is O(dim^2) sparse products.
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


class Partition:
    """Non-increasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be non-increasing")
        self.parts = parts

    @property
    def level(self) -> int:
        return sum(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


class FockBasisState:
    """Pair of partitions indexing one truncated basis vector."""

    __slots__ = ("chiral", "antichiral")

    def __init__(self, chiral, antichiral):
        self.chiral = chiral if isinstance(chiral, Partition) else Partition(chiral)
        self.antichiral = (
            antichiral if isinstance(antichiral, Partition) else Partition(antichiral)
        )

    @property
    def level(self) -> int:
        return self.chiral.level + self.antichiral.level

    def key(self):
        return (self.level, self.chiral.parts, self.antichiral.parts)

    def __eq__(self, other):
        return isinstance(other, FockBasisState) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"|{list(self.chiral.parts)};{list(self.antichiral.parts)}>"


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
        basis = []
        for total in range(l_max + 1):
            for k in range(total + 1):
                for mu in partitions(k):
                    for nu in partitions(total - k):
                        basis.append(FockBasisState(mu, nu))
        basis.sort(key=lambda s: s.key())
        self.basis = basis
        self.index = {s.key(): i for i, s in enumerate(basis)}
        self.dim = len(basis)
        self.levels = [s.level for s in basis]

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
        key = FockBasisState(chiral, antichiral).key()
        if key not in self.index:
            raise ValueError(f"state {key} above truncation l_max={self.l_max}")
        return BoundaryState(self, {self.index[key]: self.one_scalar()})

    def find(self, chiral, antichiral):
        return self.index.get(FockBasisState(chiral, antichiral).key())

    def to_json(self, operators=None) -> str:
        """Dump {l_max, basis, operators:{name: sparse triplets}} for golden files."""
        doc = {
            "l_max": self.l_max,
            "basis": [
                [list(s.chiral.parts), list(s.antichiral.parts)] for s in self.basis
            ],
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
        terms = [f"{c}*{self.space.basis[i]!r}" for i, c in self.nonzero()[:6]]
        return "BoundaryState(" + " + ".join(terms or ["0"]) + ")"


def _check_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError("operands live in different truncated spaces")


class ModeOperator:
    """Sparse action of j_n / jbar_n / L_n / Lbar_n on a truncated space."""

    __slots__ = ("kind", "n", "space", "entries", "dropped_cols")

    def __init__(self, kind, n, space, entries, dropped_cols=frozenset()):
        self.kind = kind
        self.n = n
        self.space = space
        self.entries = entries  # {(row, col): scalar}
        self.dropped_cols = frozenset(dropped_cols)

    def compose(self, other) -> "ModeOperator":
        """Matrix product self @ other (other acts first)."""
        if self.space is not other.space:
            raise SpaceMismatchError("operators live in different spaces")
        by_col: dict[int, list] = {}
        for (i, j), val in self.entries.items():
            by_col.setdefault(j, []).append((i, val))
        entries: dict[tuple[int, int], object] = {}
        for (mid, col), val in other.entries.items():
            for row, val2 in by_col.get(mid, ()):
                key = (row, col)
                entries[key] = entries.get(key, 0) + val2 * val
        entries = {k: v for k, v in entries.items() if v != 0}
        return ModeOperator(
            "composite",
            None,
            self.space,
            entries,
            self.dropped_cols | other.dropped_cols,
        )

    def add(self, other, scale_other=1) -> "ModeOperator":
        if self.space is not other.space:
            raise SpaceMismatchError("operators live in different spaces")
        entries = dict(self.entries)
        for key, val in other.entries.items():
            entries[key] = entries.get(key, 0) + scale_other * val
        entries = {k: v for k, v in entries.items() if v != 0}
        return ModeOperator(
            "composite", None, self.space, entries, self.dropped_cols | other.dropped_cols
        )

    def scale(self, c) -> "ModeOperator":
        return ModeOperator(
            self.kind,
            self.n,
            self.space,
            {k: c * v for k, v in self.entries.items()},
            self.dropped_cols,
        )

    def is_zero(self) -> bool:
        return not self.entries

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
            and self.entries == other.entries
        )


def build_space(l_max: int, exact: bool = True) -> TruncatedFockSpace:
    return TruncatedFockSpace(l_max, exact=exact)


# image of a basis vector pushed above l_max by a creation mode
_DROPPED = (-1, 0)


def _current_image(space: TruncatedFockSpace, n: int, col: int, bar: bool):
    """j_n (bar=False) or jbar_n on basis vector `col`.

    Returns (row, weight) with j_n|col> = weight |row>, None when the image
    vanishes, or _DROPPED when it lies above l_max.  j_{-n} with n>0 adds a
    part; j_n removes one occurrence of n with weight n * multiplicity, per
    [j_m, j_n] = m delta_{m+n,0}; j_0 acts as zero.  For fixed (n, bar) the
    map col -> row is injective.
    """
    if n == 0:
        return None
    state = space.basis[col]
    chiral, anti = state.chiral.parts, state.antichiral.parts
    mu = anti if bar else chiral
    level = space.levels[col] - n
    if n < 0:
        if level > space.l_max:
            return _DROPPED
        new = tuple(sorted(mu + (-n,), reverse=True))
        weight = 1
    else:
        count = mu.count(n)
        if not count:
            return None
        k = mu.index(n)
        new = mu[:k] + mu[k + 1 :]
        weight = n * count
    key = (level, chiral, new) if bar else (level, new, anti)
    return space.index[key], weight


def current_mode(space: TruncatedFockSpace, n: int, bar: bool = False) -> ModeOperator:
    """j_n (bar=False) or jbar_n as an operator on the truncated space."""
    one = space.one_scalar()
    entries: dict[tuple[int, int], object] = {}
    dropped = set()
    for col in range(space.dim):
        image = _current_image(space, n, col, bar)
        if image is _DROPPED:
            dropped.add(col)
        elif image is not None:
            row, weight = image
            entries[(row, col)] = weight * one
    return ModeOperator("jbar" if bar else "j", n, space, entries, dropped)


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


def build_virasoro(
    space: TruncatedFockSpace, n: int, bar: bool = False, shifted: bool = False
) -> ModeOperator:
    """L_n = (1/2) sum_k :j_{-k} j_{k+n}: with the sum truncated to
    |k| <= l_max + |n| (omitted terms annihilate every truncated state).

    With shifted=True, L_0 carries the -1/24 vacuum-energy offset.
    """
    if abs(n) > 2 * space.l_max and space.l_max > 0:
        # larger modes act as zero on the truncation
        return ModeOperator("Lbar" if bar else "L", n, space, {}, frozenset())
    half = Fraction(1, 2) if space.exact else 0.5
    total: dict[tuple[int, int], object] = {}
    dropped = set()
    kmax = space.l_max + abs(n)
    modes: dict[int, ModeOperator] = {}

    def mode(m):
        if m not in modes:
            modes[m] = current_mode(space, m, bar=bar)
        return modes[m]

    for k in range(-kmax, kmax + 1):
        m1, m2 = -k, k + n
        if m1 > m2:
            continue  # each unordered pair once; see weight below
        if m1 == 0 or m2 == 0:
            continue  # j_0 acts as zero
        # the k-sum visits (m1, m2) and (m2, m1); normal ordering makes both
        # equal j_{m1} j_{m2}, so the pair carries weight 2 * 1/2 unless m1 == m2
        weight = half if m1 == m2 else 2 * half
        prod = mode(m1).compose(mode(m2))
        dropped |= prod.dropped_cols
        for key, val in prod.entries.items():
            total[key] = total.get(key, 0) + weight * val
    if shifted and n == 0:
        shift = Fraction(-1, 24) if space.exact else -1.0 / 24.0
        for i in range(space.dim):
            total[(i, i)] = total.get((i, i), 0) + shift
    total = {k: v for k, v in total.items() if v != 0}
    # columns that can genuinely overflow under a level-raising L_n
    if n < 0:
        dropped |= {
            col for col, lv in enumerate(space.levels) if lv + (-n) > space.l_max
        }
    return ModeOperator("Lbar" if bar else "L", n, space, total, dropped)


def apply_mode(op: ModeOperator, v: BoundaryState) -> BoundaryState:
    """Linear action of a mode operator; counts truncation losses."""
    if op.space is not v.space:
        raise SpaceMismatchError("operator and state live in different spaces")
    coeffs = v.coeffs
    out = {}
    for (i, j), val in op.entries.items():
        c = coeffs.get(j)
        if c is not None:
            out[i] = out[i] + val * c if i in out else val * c
    loss = sum(1 for j in coeffs if j in op.dropped_cols)
    return BoundaryState(v.space, out, v.truncation_loss + loss)


def commutator(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    return a.compose(b).add(b.compose(a), scale_other=-1)


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
            state = space.basis[i]
            norm = _chiral_norm(state.chiral.parts) * _chiral_norm(
                state.antichiral.parts
            )
            total = total + cu * cv * norm
    return total
