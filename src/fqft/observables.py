"""Local observables on the disk and their operator product expansion.

An observable is an equivalence class of good boundary-state families
v_r; we keep one canonical representative, the r -> 0 one-point correlator
on the unit disk.  A family with components w_E at total level E has the
expansion  v_r = sum_E r^{-E} w_E,  and its one-point correlator on D_R is
sum_E R^{-E} w_E.

Correlators at z != 0 are computed by mode transport of the U(1) current:
the insertion of a current-generated observable on an annulus is the mode
sum  sum_n z^{-n-1} rho^{-(L0+L0bar)} j_n rho'^{L0+L0bar}  (and its
antichiral twin), under which the inner radius cancels exactly.  The
two-point correlator is kept as a finite bigraded series in (z, zbar), and
the OPE rows are read off its coefficients, most singular first.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    ExtractionError,
    GoodnessError,
    SpaceMismatchError,
    TruncationOverflowError,
    ValidationError,
)
from .fock import BoundaryState, apply_current
from .rexp import RExpansion, Sparse, coeff_norm
from .scalars import decode_scalar, encode_scalar


# --------------------------------------------------------------- level tools


def split_levels(v: BoundaryState) -> dict:
    """Decompose a state into its total-level homogeneous parts, in
    ascending level order."""
    levels = v.space.levels
    parts: dict[int, dict] = {}
    for i, c in v.nonzero():
        parts.setdefault(levels[i], {})[i] = c
    return {E: BoundaryState(v.space, part) for E, part in parts.items()}


def scale_by_level(v: BoundaryState, factor_of_level) -> BoundaryState:
    levels = v.space.levels
    return BoundaryState(
        v.space,
        {i: factor_of_level(levels[i]) * c for i, c in v.coeffs.items()},
        v.truncation_loss,
    )


# ----------------------------------------------------------------- observables


def canonical_family(state: BoundaryState) -> RExpansion:
    """Canonical family sum_E r^{-E} w_E of a one-point correlator: an
    RExpansion of states, one nonzero level part per integer exponent."""
    return RExpansion._of({(-E, 0): part for E, part in split_levels(state).items()})


def canonical_state(space, family: RExpansion) -> BoundaryState:
    """One-point correlator at R=1 of a family: the sum of its coefficients."""
    return sum(family.terms.values(), space.zero())


class LocalObservable:
    """Equivalence class of good families, with its canonical representative.

    `word` lists the current factors ("j" / "jbar") generating the
    observable, enabling transport to z != 0; observables without a word
    (generic descendants) support correlators at the origin only.
    """

    __slots__ = ("space", "label", "state", "dims", "word")

    def __init__(self, space, label, state, dims, word=None):
        self.space = space
        self.label = label
        self.state = state  # canonical one-point correlator on D_1
        self.dims = dims  # (h, hbar)
        self.word = word

    @property
    def family(self) -> RExpansion:
        return canonical_family(self.state)

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


def descendant_family(obs: LocalObservable, mu=(), mubar=()) -> LocalObservable:
    """Apply creation modes j_{-mu} jbar_{-mubar} to the representative.

    On the family this is the conjugated mode action, shifting the exponent
    of each term by the added level.
    """
    mu, mubar = tuple(mu), tuple(mubar)
    if not mu and not mubar:
        return obs
    state = obs.state
    for m in mu:
        state = apply_current(state, -m)
    for m in mubar:
        state = apply_current(state, -m, bar=True)
    if state.truncation_loss:
        raise TruncationOverflowError(
            f"descendant ({mu}, {mubar}) of {obs.label} exceeds l_max"
        )
    label = f"{obs.label};{list(mu)};{list(mubar)}"
    dims = (obs.dims[0] + sum(mu), obs.dims[1] + sum(mubar))
    return LocalObservable(obs.space, label, state, dims, word=None)


# ------------------------------------------------------- families & goodness


def insert_family(space, family: RExpansion, R) -> RExpansion:
    """Pair a family at cut radius r with the ambient annulus D_R \\ D_r.

    Acting with (r/R)^{L0+L0bar} maps the term r^p w_E to r^{p+E} R^{-E} w_E;
    the constant term of the result is the candidate correlator.
    """
    R = Fraction(R) if space.exact else float(R)
    out = RExpansion()
    for (p, q), v in family.terms.items():
        if v.space is not space:
            raise SpaceMismatchError("family lives in a different space")
        for E, part in split_levels(v).items():
            out = out + RExpansion.term(p + E, q, part.scale(R ** -E if E else 1))
    return out


def limit_r0(e: RExpansion, space=None, rel_tol=1e-9) -> BoundaryState:
    """The r -> 0 limit of an expansion, when it exists.

    In exact arithmetic any surviving singular term fails; in float mode a
    singular term counts when its norm exceeds rel_tol times the constant
    term's norm (with an absolute floor for vanishing constants).
    """
    const = e.constant_term()
    sing = e.singular_terms()
    if sing:
        ref = coeff_norm(const)
        floor = rel_tol * ref if ref else rel_tol
        exact = space.exact if space is not None else True
        for (p, q), c in sorted(sing.items(), key=lambda kv: (kv[0][0], -kv[0][1])):
            n = coeff_norm(c)
            if (exact and n != 0) or (not exact and n > floor):
                raise GoodnessError(
                    f"family not good: term r^{p} log^{q} survives (norm {n})",
                    power=p,
                    log_power=q,
                    coeff_norm=n,
                )
    if const is not None:
        return const
    if space is not None:
        return space.zero()
    raise GoodnessError("expansion has no constant term and no space was given")


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

    def evaluate(self, z, zbar=None) -> BoundaryState:
        if zbar is None:
            zbar = z.conjugate() if isinstance(z, complex) else z
        return sum(
            (v.scale(z**m * zbar**mbar) for (m, mbar), v in self.terms.items()),
            self.space.zero(),
        )


def _mode_sum_insert(series: ZSeries, kind: str) -> ZSeries:
    """Insert sum_n z^{-n-1} j_n (or the antichiral twin) into a series."""
    space = series.space
    bar = kind == "jbar"
    terms = {}
    for n in range(-space.l_max, space.l_max + 1):
        if n == 0:
            continue
        for (m, mbar), v in series.terms.items():
            w = apply_current(v, n, bar=bar)
            if not w.is_zero():
                key = (m, mbar - n - 1) if bar else (m - n - 1, mbar)
                terms[key] = terms[key] + w if key in terms else w
    return ZSeries(space, terms)


def correlator_series(space, a: LocalObservable, b: LocalObservable, R=1) -> ZSeries:
    """<O_a(z) O_b(0)>_{D_R} as a bigraded series in (z, zbar)."""
    if a.word is None:
        raise ValidationError(
            f"observable {a.label} is not current-generated; transport to z != 0 "
            "is unsupported"
        )
    series = ZSeries(space, {(0, 0): b.state})
    for kind in reversed(a.word):
        series = _mode_sum_insert(series, kind)
    R = Fraction(R) if space.exact else float(R)
    return ZSeries(
        space,
        {
            key: scale_by_level(v, lambda E: R ** -E if E else 1)
            for key, v in series.terms.items()
        },
    )


def one_point(space, obs: LocalObservable, z, R) -> BoundaryState:
    """One-point correlator <O(z)>_{D_R}; at z = 0 a pure radius rescaling."""
    if abs(complex(z)) >= float(R):
        raise ValidationError("insertion point must lie inside the disk")
    Rs = Fraction(R) if space.exact and not isinstance(R, float) else R
    if z == 0:
        return scale_by_level(obs.state, lambda E: Rs ** -E if E else 1)
    series = correlator_series(space, obs, identity_observable(space), R=Rs)
    return series.evaluate(z)


def two_point(space, a: LocalObservable, b: LocalObservable, R=1) -> ZSeries:
    """Bigraded two-point correlator <O_a(z) O_b(0)>_{D_R}."""
    return correlator_series(space, a, b, R=R)


# ------------------------------------------------------------------- dilation


def dilation(lam, x):
    """Dil_lambda: a level-E homogeneous part scales by lambda^{-E}.

    Acts on boundary states and on RExpansions of them (families).  On an
    exact space a non-float lambda is taken as a Fraction, as one_point
    takes R.
    """
    if isinstance(x, BoundaryState):
        lam = Fraction(lam) if x.space.exact and not isinstance(lam, float) else lam
        return scale_by_level(x, lambda E: lam ** -E if E else 1)
    if isinstance(x, RExpansion):
        return x.map_coeffs(lambda v: dilation(lam, v))
    raise TypeError(f"cannot dilate {type(x).__name__}")


def scaling_dimension(obs: LocalObservable):
    """Total scaling dimension from the dilation action.

    Requires the canonical representative to be level-homogeneous (a
    dilation eigenvector); otherwise the action is not diagonal and we
    report the level support.
    """
    levels = obs.state.levels_present()
    if not levels:
        raise ValidationError("zero observable has no scaling dimension")
    if len(levels) > 1:
        raise ValidationError(
            f"dilation acts non-diagonally; level support {levels}"
        )
    return levels[0]


# --------------------------------------------------------------------- OPE


class OpeTable:
    """Extracted OPE rows for ordered pairs of observables.

    Rows carry the target observable as (c, mu, mubar) — a primary label
    with descendant partitions — the (z, zbar) exponents, and the
    coefficient.  The exponents are redundant given the dimensions
    (Delta = h_c + |mu| - h_a - h_b per chirality) and are checked on load.
    """

    def __init__(self, primaries, rows=None, mixing=None):
        self.primaries = list(primaries)  # (label, h, hbar)
        self.rows = list(rows or [])
        self.mixing = dict(mixing or {})

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

    def marginal_constants(self, marginal_labels=("jjbar",)):
        """K (identity channel, |z|^{-4}) and C (marginal channel, |z|^{-2})
        for each ordered pair of marginal observables."""
        K, C = {}, {}
        for row in self.rows:
            pair = (row["a"], row["b"])
            if row["a"] not in marginal_labels or row["b"] not in marginal_labels:
                continue
            if row["exponents"] == (-2, -2) and row["c"] == "1" and not row["mu"] and not row["mubar"]:
                K[pair] = row["coefficient"]
            if row["exponents"] == (-1, -1):
                if (row["c"], row["mu"], row["mubar"]) in [
                    (lbl, (), ()) for lbl in marginal_labels
                ] or (row["c"] == "1" and row["mu"] == (1,) and row["mubar"] == (1,)):
                    key = pair + (row["c"],)
                    C[key] = C.get(key, 0) + row["coefficient"]
        return {"K": K, "C": C}

    def to_json(self) -> str:
        doc = {
            "primaries": [
                {"label": l, "h": encode_scalar(h), "hbar": encode_scalar(hb)}
                for (l, h, hb) in self.primaries
            ],
            "rows": [
                {
                    "a": r["a"],
                    "b": r["b"],
                    "c": r["c"],
                    "mu": list(r["mu"]),
                    "mubar": list(r["mubar"]),
                    "exponents": list(r["exponents"]),
                    "coefficient": encode_scalar(r["coefficient"]),
                }
                for r in self.rows
            ],
            "mixing": {k: encode_scalar(v) for k, v in sorted(self.mixing.items())},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "OpeTable":
        doc = json.loads(text)
        primaries = [
            (p["label"], decode_scalar(p["h"]), decode_scalar(p["hbar"]))
            for p in doc["primaries"]
        ]
        dims = {l: (h, hb) for (l, h, hb) in primaries}
        table = cls(
            primaries,
            mixing={k: decode_scalar(v) for k, v in doc.get("mixing", {}).items()},
        )
        for r in doc["rows"]:
            table.add_row(
                r["a"],
                r["b"],
                r["c"],
                tuple(r["mu"]),
                tuple(r["mubar"]),
                tuple(r["exponents"]),
                decode_scalar(r["coefficient"]),
            )
            if r["a"] in dims and r["b"] in dims and r["c"] in dims:
                ha, hab = dims[r["a"]]
                hb, hbb = dims[r["b"]]
                hc, hcb = dims[r["c"]]
                want = (
                    hc + sum(r["mu"]) - ha - hb,
                    hcb + sum(r["mubar"]) - hab - hbb,
                )
                if tuple(r["exponents"]) != want:
                    raise ValidationError(
                        f"row exponents {r['exponents']} violate the dimension "
                        f"rule (expected {want})"
                    )
        return table


def ope_extract(space, a: LocalObservable, b: LocalObservable, max_order=None) -> OpeTable:
    """Extract OPE rows of O_a(z) O_b(0) by coordinate read-off.

    At R=1 the coefficient of z^m zbar^mbar is the one-point correlator of
    the target combination, i.e. a vector in the truncated Fock module whose
    basis components are descendants of the identity; each nonzero component
    is one row.  A component above max_order raises ExtractionError.
    """
    if max_order is None:
        max_order = space.l_max
    series = two_point(space, a, b, R=1)
    table = OpeTable(
        primaries=[("1", Fraction(0), Fraction(0))]
        + [(o.label, Fraction(o.dims[0]), Fraction(o.dims[1]))
           for o in (current_observable(space), current_observable(space, True),
                     marginal_observable(space))],
    )
    # most singular first: ascending total exponent, then z-exponent
    for (m, mbar), v in sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0])):
        for i, coeff in v.nonzero():
            level, mu, mubar = space.basis[i]
            if level > max_order:
                raise ExtractionError(
                    f"coefficient at z^{m} zbar^{mbar} contains level {level} "
                    f"above max_order={max_order}",
                    residual_norm=coeff_norm(v),
                )
            table.add_row(a.label, b.label, "1", mu, mubar, (m, mbar), coeff)
    return table


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
