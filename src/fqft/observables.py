"""Local observables on the disk and their operator product expansion.

An observable is an equivalence class of good boundary-state families v_r;
we keep one canonical representative, the r -> 0 one-point correlator on
the unit disk, as a boundary state.  Dilation scales its level-E part by
lambda^{-E}, with lambda taken as a Fraction, so every coefficient stays an
exact rational, as in fqft.fock.

Correlators at z != 0 are computed by mode transport of the U(1) current:
the insertion of a current-generated observable on an annulus is the mode
sum  sum_n z^{-n-1} rho^{-(L0+L0bar)} j_n rho'^{L0+L0bar}  (and its
antichiral twin), under which the inner radius cancels exactly.  Only the
modes that act on a term are applied to it: an annihilator j_n (n > 0) acts
where n is a part of some nonzero's partition on its side, and a creator
j_{-n} where n <= l_max minus the term's lowest level; every other mode
maps the term to zero.  The two-point correlator is kept as a finite
bigraded series in (z, zbar) on the unit disk; on D_R each coefficient is
its dilation by R, which scales its level-E part by R^{-E}.  The OPE rows
are read off its coefficients, most singular first.  The space keeps each
table, keyed by all that its rows read (a's label and word, b's label and
nonzeros), so a repeated extraction on one space returns that table.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _logger
from .errors import GeometryError, SpaceMismatchError, ValidationError
from .fock import BoundaryState, apply_current, scale_by_level
from .rexp import RExpansion, Sparse


# ----------------------------------------------------------------- observables


class LocalObservable:
    """Equivalence class of good families, with its canonical representative.

    `word` lists the current factors ("j" / "jbar") generating the
    observable, enabling transport to z != 0; observables without a word
    support no correlator at z != 0.
    """

    __slots__ = ("label", "state", "dims", "word")

    def __init__(self, label, state, dims, word=None):
        self.label = label
        self.state = state  # canonical one-point correlator on D_1
        self.dims = dims  # (h, hbar)
        self.word = word

    def __repr__(self):
        return f"LocalObservable({self.label}, dims={self.dims})"


def identity_observable(space) -> LocalObservable:
    return LocalObservable("1", space.vacuum(), (0, 0), word=())


def current_observable(space, bar=False) -> LocalObservable:
    """The U(1) current j (or jbar), canonical family r^{-1} j_{-1}|0>."""
    label = "jbar" if bar else "j"
    state = space.state((), (1,)) if bar else space.state((1,))
    dims = (0, 1) if bar else (1, 0)
    return LocalObservable(label, state, dims, word=(label,))


def marginal_observable(space) -> LocalObservable:
    """The marginal field j jbar with dims (1, 1)."""
    return LocalObservable("jjbar", space.state((1,), (1,)), (1, 1), word=("j", "jbar"))


# --------------------------------------------------------------- correlators


class ZSeries(Sparse):
    """Finite bigraded series sum z^m zbar^mbar w_{m,mbar} with state coefficients."""

    __slots__ = ("space",)
    _zero = staticmethod(Sparse.is_zero)
    _context = "space"

    def __init__(self, space, terms=None):
        self.space = space
        super().__init__(terms)


def _acting(v: BoundaryState, bar: bool):
    """(parts, room) of a state: the parts of its nonzeros' chiral
    (antichiral) partitions, which the acting annihilators remove, and
    l_max minus its lowest level, the largest creator that acts."""
    space, parts, lowest = v.space, set(), v.space.l_max
    for i in v.terms:
        level, mu, nu = space.key_of(i)
        parts.update(nu if bar else mu)
        lowest = min(lowest, level)
    return parts, space.l_max - lowest


def _mode_sum_insert(series: ZSeries, kind: str) -> ZSeries:
    """Insert sum_n z^{-n-1} j_n (or the antichiral twin) into a series,
    applying to each term only the modes that act on it.  The loop runs n
    outside and terms inside, so each key's images are summed in a fixed
    order."""
    space = series.space
    bar = kind == "jbar"
    prepared = [(key, v, *_acting(v, bar)) for key, v in series.terms.items()]
    terms = {}
    for n in range(-space.l_max, space.l_max + 1):
        if n == 0:
            continue
        for (m, mbar), v, parts, room in prepared:
            if (n in parts) if n > 0 else (-n <= room):
                w = apply_current(v, n, bar=bar)
                key = (m, mbar - n - 1) if bar else (m - n - 1, mbar)
                terms[key] = terms[key] + w if key in terms else w
    return ZSeries(space, terms)


def two_point(a: LocalObservable, b: LocalObservable) -> ZSeries:
    """<O_a(z) O_b(0)>_{D_1} as a bigraded series in (z, zbar) over b's
    space; on D_R each coefficient is dilation(R, .)."""
    if a.word is None:
        raise ValidationError(
            f"observable {a.label} is not current-generated; transport to z != 0 "
            "is unsupported"
        )
    series = ZSeries(b.state.space, {(0, 0): b.state})
    for kind in reversed(a.word):
        series = _mode_sum_insert(series, kind)
    return series


# ------------------------------------------------------------------- dilation


def dilation(lam, x):
    """Dil_lambda, lambda positive and finite: a level-E homogeneous part
    scales by lambda^{-E}, on boundary states and RExpansions of them.
    lambda is taken as a Fraction, a float one exactly, so every scalar
    stays rational."""
    if not (lam > 0 and lam != math.inf):  # geometry's rule for a radius; NaN fails lam > 0
        raise GeometryError("dilation scale must be positive and finite")
    if isinstance(x, BoundaryState):
        lam = Fraction(lam)
        # lam^{-E} per level E, the int 1 at level 0
        return scale_by_level(x, [1] + [lam ** -E for E in range(1, x.space.l_max + 1)])
    if isinstance(x, RExpansion):
        return x.map_coeffs(lambda v: dilation(lam, v))
    raise TypeError(f"cannot dilate {type(x).__name__}")


# --------------------------------------------------------------------- OPE


class OpeTable:
    """Extracted OPE rows for ordered pairs of observables.

    Rows carry the target observable as (c, mu, mubar) — a primary label
    with descendant partitions — the (z, zbar) exponents, and the
    coefficient.  The exponents are redundant given the dimensions
    (Delta = h_c + |mu| - h_a - h_b per chirality).
    """

    def __init__(self, rows=None):
        self.rows = list(rows or [])

    def add_row(self, a, b, c, mu, mubar, exponents, coefficient):
        self.rows.append(
            {
                "a": a,
                "b": b,
                "c": c,
                "mu": tuple(mu),
                "mubar": tuple(mubar),
                "exponents": tuple(exponents),
                "coefficient": coefficient,
            }
        )

    def marginal_constants(self):
        """K (identity channel, |z|^{-4}) and C (marginal channel, |z|^{-2})
        of the marginal j jbar with itself; C sums the rows of both its
        targets."""
        K, C = {}, {}
        for row in self.rows:
            pair = (row["a"], row["b"])
            if pair != ("jjbar", "jjbar"):
                continue
            target = (row["c"], row["mu"], row["mubar"])
            if row["exponents"] == (-2, -2) and target == ("1", (), ()):
                K[pair] = row["coefficient"]
            if row["exponents"] == (-1, -1) and target in _MARGINAL_TARGETS:
                key = pair + ("jjbar",)
                C[key] = C.get(key, 0) + row["coefficient"]
        return {"K": K, "C": C}


# the |z|^{-2} targets of the marginal channel: j jbar as a primary, and as
# the descendant j_{-1} jbar_{-1} of the identity, which is the same state
_MARGINAL_TARGETS = (("jjbar", (), ()), ("1", (1,), (1,)))


def ope_extract(space, a: LocalObservable, b: LocalObservable) -> OpeTable:
    """Extract OPE rows of O_a(z) O_b(0) by coordinate read-off.

    On D_1 the coefficient of z^m zbar^mbar is the one-point correlator of
    the target combination, i.e. a vector in the truncated Fock module whose
    basis components are descendants of the identity; each nonzero component
    is one row.  b lies over space, which keeps the table: a repeated call
    returns it, and its readers share it and leave it unchanged.
    """
    if b.state.space is not space:
        raise SpaceMismatchError("OPE extraction across different truncated spaces")
    memo = (a.label, a.word, b.label, tuple(b.state.nonzero()))
    table = space.ope_tables.get(memo)
    if table is not None:
        return table
    series = two_point(a, b)
    table = OpeTable()
    # most singular first: ascending total exponent, then z-exponent
    for (m, mbar), v in sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0])):
        for i, coeff in v.nonzero():
            _, mu, mubar = space.key_of(i)
            table.add_row(a.label, b.label, "1", mu, mubar, (m, mbar), coeff)
    space.ope_tables[memo] = table
    log = _logger(10)
    if log:
        log.debug("ope_extract a=%s b=%s rows=%d", a.label, b.label, len(table.rows))
    return table
