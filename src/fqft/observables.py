"""Local observables on the disk and their operator product expansion.

An observable is an equivalence class of good boundary-state families v_r;
we keep one canonical representative, the r -> 0 one-point correlator on
the unit disk, as a boundary state.  Dilation scales its level-E part by
lambda^{-E}.

Correlators at z != 0 are computed by mode transport of the U(1) current:
the insertion of a current-generated observable on an annulus is the mode
sum  sum_n z^{-n-1} rho^{-(L0+L0bar)} j_n rho'^{L0+L0bar}  (and its
antichiral twin), under which the inner radius cancels exactly.  Only the
modes that act on a term are applied to it: an annihilator j_n (n > 0) acts
where n is a part of some nonzero's partition on its side, and a creator
j_{-n} where n <= l_max minus the term's lowest level; every other mode
maps the term to zero.  The two-point correlator is kept as a finite
bigraded series in (z, zbar), returned unscaled at R = 1 and otherwise with
its level-E parts scaled by R^{-E}; the OPE rows are read off its
coefficients at R = 1, most singular first.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .fock import BoundaryState, apply_current, scale_by_level
from .rexp import RExpansion, Sparse


def _inverse_powers(space, lam) -> list:
    """lam^{-E} per level E = 0..l_max, the int 1 at level 0."""
    return [1] + [lam ** -E for E in range(1, space.l_max + 1)]


# ----------------------------------------------------------------- observables


class LocalObservable:
    """Equivalence class of good families, with its canonical representative.

    `word` lists the current factors ("j" / "jbar") generating the
    observable, enabling transport to z != 0; observables without a word
    support no correlator at z != 0.
    """

    __slots__ = ("space", "label", "state", "dims", "word")

    def __init__(self, space, label, state, dims, word=None):
        self.space = space
        self.label = label
        self.state = state  # canonical one-point correlator on D_1
        self.dims = dims  # (h, hbar)
        self.word = word

    def __repr__(self):
        return f"LocalObservable({self.label}, dims={self.dims})"


def identity_observable(space) -> LocalObservable:
    return LocalObservable(space, "1", space.vacuum(), (0, 0), word=())


def current_observable(space, bar=False) -> LocalObservable:
    """The U(1) current j (or jbar), canonical family r^{-1} j_{-1}|0>."""
    label = "jbar" if bar else "j"
    state = space.state((), (1,)) if bar else space.state((1,))
    dims = (0, 1) if bar else (1, 0)
    return LocalObservable(space, label, state, dims, word=(label,))


def marginal_observable(space) -> LocalObservable:
    """The marginal field j jbar with dims (1, 1)."""
    return LocalObservable(space, "jjbar", space.state((1,), (1,)), (1, 1),
                           word=("j", "jbar"))


# --------------------------------------------------------------- correlators


class ZSeries(Sparse):
    """Finite bigraded series sum z^m zbar^mbar w_{m,mbar} with state coefficients."""

    __slots__ = ("space",)
    _zero = staticmethod(BoundaryState.is_zero)
    _context = "space"

    def __init__(self, space, terms=None):
        self.space = space
        super().__init__(terms)

    def coefficient(self, m, mbar=0) -> BoundaryState:
        return self.terms.get((m, mbar), self.space.zero())


def _acting(v: BoundaryState, bar: bool):
    """(parts, room) of a state: the parts of its nonzeros' chiral
    (antichiral) partitions, which the acting annihilators remove, and
    l_max minus its lowest level, the largest creator that acts."""
    space, parts, lowest = v.space, set(), v.space.l_max
    for i in v.coeffs:
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


def two_point(space, a: LocalObservable, b: LocalObservable, R=1) -> ZSeries:
    """<O_a(z) O_b(0)>_{D_R} as a bigraded series in (z, zbar); at R = 1
    the transported series itself, unscaled."""
    if a.word is None:
        raise ValidationError(
            f"observable {a.label} is not current-generated; transport to z != 0 "
            "is unsupported"
        )
    series = ZSeries(space, {(0, 0): b.state})
    for kind in reversed(a.word):
        series = _mode_sum_insert(series, kind)
    if R == 1:
        return series
    by_level = _inverse_powers(space, Fraction(R) if space.exact else float(R))
    return ZSeries(space, {key: scale_by_level(v, by_level) for key, v in series.terms.items()})


# ------------------------------------------------------------------- dilation


def dilation(lam, x):
    """Dil_lambda: a level-E homogeneous part scales by lambda^{-E}.

    Acts on boundary states and on RExpansions of them (families).  On an
    exact space a non-float lambda is taken as a Fraction.
    """
    if isinstance(x, BoundaryState):
        lam = Fraction(lam) if x.space.exact and not isinstance(lam, float) else lam
        return scale_by_level(x, _inverse_powers(x.space, lam))
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

    def __init__(self, primaries, rows=None):
        self.primaries = list(primaries)  # (label, h, hbar)
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

    def coefficient(self, a, b, c, mu=(), mubar=()):
        for row in self.rows:
            if (row["a"], row["b"], row["c"]) == (a, b, c) and row["mu"] == tuple(
                mu
            ) and row["mubar"] == tuple(mubar):
                return row["coefficient"]
        return None

    def marginal_constants(self):
        """K (identity channel, |z|^{-4}) and C (marginal channel, |z|^{-2})
        of the marginal j jbar with itself."""
        K, C = {}, {}
        for row in self.rows:
            pair = (row["a"], row["b"])
            if pair != ("jjbar", "jjbar"):
                continue
            target = (row["c"], row["mu"], row["mubar"])
            if row["exponents"] == (-2, -2) and target == ("1", (), ()):
                K[pair] = row["coefficient"]
            if row["exponents"] == (-1, -1) and target in _MARGINAL_TARGETS:
                key = pair + (row["c"],)
                C[key] = C.get(key, 0) + row["coefficient"]
        return {"K": K, "C": C}


# the |z|^{-2} targets of the marginal channel: j jbar as a primary, and as
# the descendant j_{-1} jbar_{-1} of the identity
_MARGINAL_TARGETS = (("jjbar", (), ()), ("1", (1,), (1,)))
# (label, h, hbar) of the identity, the currents j and jbar, and j jbar: the
# primaries of every OPE table
_PRIMARIES = (
    ("1", Fraction(0), Fraction(0)),
    ("j", Fraction(1), Fraction(0)),
    ("jbar", Fraction(0), Fraction(1)),
    ("jjbar", Fraction(1), Fraction(1)),
)


def ope_extract(space, a: LocalObservable, b: LocalObservable) -> OpeTable:
    """Extract OPE rows of O_a(z) O_b(0) by coordinate read-off.

    At R=1 the coefficient of z^m zbar^mbar is the one-point correlator of
    the target combination, i.e. a vector in the truncated Fock module whose
    basis components are descendants of the identity; each nonzero component
    is one row.
    """
    series = two_point(space, a, b, R=1)
    table = OpeTable(_PRIMARIES)
    # most singular first: ascending total exponent, then z-exponent
    for (m, mbar), v in sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0])):
        for i, coeff in v.nonzero():
            _, mu, mubar = space.key_of(i)
            table.add_row(a.label, b.label, "1", mu, mubar, (m, mbar), coeff)
    return table
