"""Conformal perturbation theory: deformations, corrections, and the beta
function.

Two backends share the same pipeline.

* The formal backend works over abstract conformal theory data (primaries
  with dimensions, marginal-sector OPE rows, mixing matrix).  Vectors are
  formal combinations of correlator symbols <O_c^{mu,mubar}(0)>_{D_R} and
  integral atoms, with exact LogPoly coefficients (fqft.scalars): rational
  multiples of powers of R and lam and of log(R) and log(lam).  The
  structure constants are ints over the theory's denominators (the lcm of
  its row values' denominators, and that of its mixing values'): each OPE
  pair gets one record, made on first use in one pass over its rows, with
  its C and K numerators and its power rows, and every builder reads it.
  A pair whose (beta, alpha) rows equal its (alpha, beta) rows, as the
  commuting marginals' C_{alpha beta} = C_{beta alpha} give, shares one
  record with its twin, and anomalous_dilation hands the sides it builds
  for one of the two reads to the other.  double_deform and beta, written
  in the combined coupling g_c = g + g~, share one walk over unordered
  pairs, which raises RecombinationError where a pair's two orders differ.
  The constructor's row check keeps each channel's exponent (spin, s = 1,
  or 2(s - 1)), so a record reads it instead of recomputing it per row.
  Each builder value is built once per theory: one table maps (num, den,
  LogPoly key) to its LogPoly, over one table of Fractions, and since
  LogPoly is immutable every output may hold the same object.  Dilation
  computes each symbol's dimension once per theory, and a row whose
  symbols all have a zero lam shift keeps the input's own vector.
* The numeric free-boson backend deforms the truncated Fock-space partition
  functions by the marginal observable j jbar, with exact rational entries:
  the deformed annulus and disk act on jets of boundary states, through
  apply_current, never as assembled operators.

A family at cut radius r is an RExpansion whose (p, q) term means
r^p (log r)^q times a formal vector of families <...>_{D_r}; pairing with
the annulus D_R \\ D_r maps each family symbol to the correlator on D_R and
leaves the scalar (r, log r) prefactors as the expansion grading.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import RecombinationError, ValidationError
from .fock import _key as _fock_key
from .fock import apply_current
from .geometry import annulus_pf, glue
from .jets import Jet, JetAlgebra
from .rexp import RExpansion, Sparse
from .scalars import LogPoly, canonical_exponent, decode_scalar

LOG_R = LogPoly.monomial(log_R=1)
LOG_LAM = LogPoly.monomial(log_lam=1)
_ONE = LogPoly.monomial(1)  # the int 1, as FormalVector.corr and .atom store it


# ------------------------------------------------------------ formal vectors


class FormalVector(Sparse):
    """Formal combination of correlator/integral symbols with LogPoly scalars.

    Keys:
      ("corr", c, mu, mubar)  the correlator <O_c^{mu,mubar}(0)>_{D_R}
      ("disk",)               the undeformed disk partition function
      ("int", gamma)          int_{D_R} dmu <O_gamma(z)>_{D_R}   (R-independent)
      ("int0", a)             R^{-2} int_{D_R} dmu <O_a(z)>_{D_R} for dim-0 a
      ("reg", a, b)           unresolved regular part of the integrated
                              deformed one-point function (R-independent)
    """

    __slots__ = ()
    _zero = staticmethod(LogPoly.is_zero)

    def __init__(self, terms=None):
        super().__init__(
            {
                key: val if isinstance(val, LogPoly) else LogPoly.monomial(val)
                for key, val in (terms or {}).items()
            }
        )

    @classmethod
    def corr(cls, c, mu=(), mubar=(), value=1):
        return cls({("corr", c, tuple(mu), tuple(mubar)): value})

    @classmethod
    def atom(cls, key, value=1):
        return cls({tuple(key): value})

    def coefficient(self, key):
        return self.terms.get(tuple(key), LogPoly())

    def __repr__(self):
        bits = [f"{v}*{k}" for k, v in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return "FormalVector(" + " + ".join(bits or ["0"]) + ")"


# ------------------------------------------------------------- theory data


class Primary:
    __slots__ = ("label", "h", "hbar")

    def __init__(self, label, h, hbar):
        self.label = label
        self.h = Fraction(h)
        self.hbar = Fraction(hbar)

    def __repr__(self):
        return f"Primary({self.label}, h={self.h}, hbar={self.hbar})"


class FormalTheory:
    """Conformal theory data for the formal backend (zero central charge).

    rows: OPE rows of pairs of marginals, (alpha, beta, c, mu, mubar, value),
    with mu and mubar partitions (positive, non-increasing parts).
    mixing: M_a^gamma identifying the (1,1)-descendant of a dimension-0
    primary with a combination of marginal primaries.
    dims: label -> (h, hbar) as canonical exponents (ints when integral, as
    the LogPoly and RExpansion keys are), so exponent sums stay in ints; the
    primaries keep their Fractions.

    The builders compute in ints over the theory's two denominators: `den`,
    the lcm of the row values' denominators, and `mixing_den`, that of the
    mixing values', folded into the constructor's loops.  The constructor
    checks each distinct row target (c, mu, mubar) once and keeps its
    exponent in `_channels`: None for a spin row, else 2(s - 1), which is 0
    exactly at s = 1 and -2 exactly at s = 0.  Each pair (alpha, beta) has
    one record (`_pair`), made on first use in one pass over its rows, that
    reads those exponents; a mirrored pair, whose two row lists are equal,
    has one record for both orders, which holds anomalous_dilation's sides
    only between the twins' two reads.  Values leave the ints through two
    tables: `_fraction` makes one Fraction per (num, den), and `_value` one
    LogPoly per (num, den, monomial key) on top of it, shared by every
    output that holds that value.  `_dilate` fills a fourth table, each
    correlator symbol's dimension.  All four start empty, fill on use, and
    no two theories share them.
    """

    def __init__(self, primaries, rows, mixing=None):
        self.primaries = [
            p if isinstance(p, Primary) else Primary(*p) for p in primaries
        ]
        self.dims = {
            p.label: (canonical_exponent(p.h), canonical_exponent(p.hbar))
            for p in self.primaries
        }
        if len(self.dims) != len(self.primaries):
            raise ValidationError("duplicate primary labels")
        for p in self.primaries:
            if p.h < 0 or p.hbar < 0:
                raise ValidationError(
                    f"primary {p.label} has negative dimension components"
                )
            if (p.h, p.hbar) in ((1, 0), (0, 1)):
                raise ValidationError(
                    f"spin-carrying marginal primary {p.label} is unsupported"
                )
        self.marginals = [p.label for p in self.primaries if (p.h, p.hbar) == (1, 1)]
        self._marginal_set = set(self.marginals)
        self.mixing = {}
        self._mixing_of = {}  # source a -> [(gamma, M_a^gamma)], in mixing order
        mixing_den = 1
        for (a, gamma), val in (mixing or {}).items():
            if self.dims.get(a) != (0, 0):
                raise ValidationError(f"mixing source {a} must have dimension (0,0)")
            if gamma not in self._marginal_set:
                raise ValidationError(f"mixing target {gamma} must be marginal")
            val = self.mixing[(a, gamma)] = Fraction(val)
            self._mixing_of.setdefault(a, []).append((gamma, val))
            if mixing_den % val.denominator:
                mixing_den = lcm(mixing_den, val.denominator)
        self.rows = {}
        den = 1
        self._channels = channels = {}  # (c, mu, mubar) -> its exponent, see _check_channel
        for (alpha, beta, c, mu, mubar, value) in rows:
            if alpha not in self._marginal_set or beta not in self._marginal_set:
                raise ValidationError("OPE rows must pair marginal observables")
            mu, mubar = tuple(mu), tuple(mubar)
            if (c, mu, mubar) not in channels:
                channels[c, mu, mubar] = self._check_channel(c, mu, mubar)
            if type(value) is not Fraction:
                value = Fraction(value)
            if value:
                self.rows.setdefault((alpha, beta), []).append((c, mu, mubar, value))
                if den % value.denominator:
                    den = lcm(den, value.denominator)
        self.den, self.mixing_den = den, mixing_den
        # filled on use: pair records, Fractions, LogPoly values, symbol dimensions
        self._pairs, self._fractions, self._values, self._dimensions = {}, {}, {}, {}

    def _check_channel(self, c, mu, mubar):
        """Reject a row target that is unknown, has descendant labels that are
        not partitions, or sits at h + |mu| = hbar + |mubar| = 1 without being
        a marginal channel; zero-valued rows are checked too.

        Returns the channel's exponent: None for a spin row (s != sbar),
        else 2(s - 1), canonical.  It is 0 exactly at s = 1, the marginal
        and mixing channels, and -2 exactly at s = 0, the K channels."""
        if c not in self.dims:
            raise ValidationError(f"unknown OPE target {c}")
        try:
            _fock_key(mu, mubar)
        except ValueError as err:
            raise ValidationError(f"OPE row ({c}, {mu}, {mubar}): {err}") from None
        s, sbar = self.exponent_pair(c, mu, mubar)
        if s == sbar == 1 and not self._is_marginal_channel(c, mu, mubar):
            raise ValidationError(
                f"degenerate row ({c}, {mu}, {mubar}) with h+|mu|=1 is "
                "neither a marginal primary nor a mixing channel"
            )
        return canonical_exponent(2 * (s - 1)) if s == sbar else None

    def exponent_pair(self, c, mu, mubar):
        h, hbar = self.dims[c]
        return h + sum(mu), hbar + sum(mubar)

    def _is_marginal_channel(self, c, mu, mubar):
        if c in self._marginal_set and mu == () and mubar == ():
            return True
        return self.dims[c] == (0, 0) and mu == (1,) and mubar == (1,)

    def _fraction(self, num, den):
        """num / den as a Fraction, one per distinct (num, den) per theory."""
        out = self._fractions.get((num, den))
        if out is None:
            out = self._fractions[num, den] = Fraction(num, den)
        return out

    def _value(self, num, den, key=(0, 0, 0, 0)):
        """num / den times the monomial of the canonical LogPoly key, one
        LogPoly per distinct (num, den, key) per theory; num is nonzero.
        LogPoly is immutable, so every output may hold the same object."""
        out = self._values.get((num, den, key))
        if out is None:
            out = self._values[num, den, key] = LogPoly._of({key: self._fraction(num, den)})
        return out

    def _pair(self, alpha, beta):
        """The record of (alpha, beta), made in one pass over its rows:

        C      {gamma: int}, C_{alpha beta}^gamma times den * mixing_den, the
               marginal channel and the mixing channel of dimension-0
               (1,1)-descendants together;
        K      {a: int}, K_{alpha beta}^a times den, the dimension-0
               identity-sector constants;
        powers ((2(s - 1), c, mu, mubar, num, dd), ...), one per symbol of
               the rows at s = sbar != 1, value / (2(s - 1)) = num / dd, the
               exponent canonical (2(1/2 - 1) is the int -1).

        Each keeps the order of first occurrence, with repeated targets
        summed as ints and no zero numerator: the builders read them as they
        are, and no two of their entries meet.  A theory keeps its records,
        so they are tuples and dicts of ints, not of Fractions.

        When the rows of (beta, alpha) equal those of (alpha, beta), in the
        same order, the record is stored under both: equal rows make equal
        records, so the twin's walk is skipped.  Rows that differ, if only
        in order, keep one record each.
        """
        record = self._pairs.get((alpha, beta))
        if record is not None:
            return record
        den, mixing_den, channels = self.den, self.mixing_den, self._channels
        C, K, sums = {}, {}, {}
        rows = self.rows.get((alpha, beta), ())
        for (c, mu, mubar, value) in rows:
            d = channels[c, mu, mubar]
            if d is None:
                continue  # a spin row: it integrates to zero
            n = value.numerator * (den // value.denominator)
            if d == 0:  # s = 1: the constructor let only the two channels through
                if c in self._marginal_set:
                    C[c] = C.get(c, 0) + n * mixing_den
                    continue
                for gamma, m in self._mixing_of.get(c, ()):
                    C[gamma] = C.get(gamma, 0) + n * m.numerator * (mixing_den // m.denominator)
                continue
            if d == -2:  # s = 0
                K[c] = K.get(c, 0) + n
            symbol = (c, mu, mubar)
            if symbol in sums:
                sums[symbol][1] += n
            else:
                sums[symbol] = [d, n]
        record = self._pairs[alpha, beta] = _Pair(
            {g: n for g, n in C.items() if n},
            {a: n for a, n in K.items() if n},
            tuple(
                (d, *symbol, n * d.denominator, den * d.numerator)
                for symbol, (d, n) in sums.items()
                if n
            ),
        )
        if rows == self.rows.get((beta, alpha), ()):
            self._pairs[beta, alpha] = record  # a mirrored pair: its twin's record
        return record


class _Pair:
    """One pair's structure constants in ints (see FormalTheory._pair), and
    `sides`: None, or the (beta, dv, lhs, rhs) that anomalous_dilation keeps
    on a twin record between its two reads."""

    __slots__ = ("C", "K", "powers", "sides")

    def __init__(self, C, K, powers):
        self.C, self.K, self.powers = C, K, powers
        self.sides = None


def theory_from_json(text: str) -> FormalTheory:
    """The FormalTheory of a JSON document {"primaries": [{"label", "h",
    "hbar"}], "coefficients": [{"a", "b", "c", "mu", "mubar", "value"}],
    "mixing": [{"a", "gamma", "value"}]}, the last two optional.

    A label is a JSON string.  A dimension or value is a JSON number or a
    string Fraction reads ("3/4", "-2", "1.5e-3"); a JSON bool is not a
    number and raises ValueError, as does a string past
    scalars.SCALAR_MAX_DIGITS.  Partition parts are positive JSON ints,
    bools excluded.  Malformed documents raise ValueError, KeyError,
    TypeError or ArithmeticError (a zero denominator, an infinite float)."""
    import json

    doc = json.loads(text)
    primaries = [
        (p["label"], decode_scalar(p["h"]), decode_scalar(p["hbar"]))
        for p in doc["primaries"]
    ]
    for label, _, _ in primaries:
        if type(label) is not str:
            raise ValueError(f"primary label {label!r} is not a string")
    rows = [
        (
            c["a"],
            c["b"],
            c["c"],
            tuple(c["mu"]),
            tuple(c["mubar"]),
            decode_scalar(c["value"]),
        )
        for c in doc.get("coefficients", [])
    ]
    mixing = {
        (m["a"], m["gamma"]): decode_scalar(m["value"]) for m in doc.get("mixing", [])
    }
    return FormalTheory(primaries, rows, mixing)


# ------------------------------------------------------ correction (delta v)


def _expansion(terms) -> RExpansion:
    """Wrap {(p, q): {key: nonzero LogPoly}} with the unchecked constructors,
    dropping rows left empty.  The callers make every p canonical (an int
    when integral) and every q an int."""
    return RExpansion._of({pq: FormalVector._of(vec) for pq, vec in terms.items() if vec})


def _channel(theory, C, key=(0, 0, 0, 0), sign=1):
    """The marginal channel sign * C^gamma <O_gamma> as vector terms, from a
    record's C numerators, each value times the monomial of the canonical
    LogPoly key (a, b, i, j)."""
    den, value = theory.den * theory.mixing_den, theory._value
    return {("corr", g, (), ()): value(sign * n, den, key) for g, n in C.items()}


def compute_correction(theory: FormalTheory, alpha, beta) -> RExpansion:
    """Minimal-subtraction correction, the counterterm restoring goodness:
    delta v = log(r) * C * <O_gamma>_{D_r}
              + sum_{s = sbar != 1} value * r^{2(s-1)}/(2(s-1)) * <O_c^{..}>_{D_r}.
    The s = 0 term is the -K/(2 r^2) counterterm of the special marginal OPE.
    """
    record, value = theory._pair(alpha, beta), theory._value
    terms = {(0, 1): _channel(theory, record.C)}
    for d, c, mu, mubar, num, dd in record.powers:
        terms.setdefault((d, 0), {})[("corr", c, mu, mubar)] = value(num, dd)
    return _expansion(terms)


def integrated_ope(theory: FormalTheory, alpha, beta) -> RExpansion:
    """int_{D_R \\ D_r} dmu <O_alpha(z) O_beta(0)>_{D_R}, termwise via the
    annulus moments; an RExpansion in r with symbolic R in the scalars."""
    record, value = theory._pair(alpha, beta), theory._value
    # log(R/r) * C * <O_gamma>_{D_R}
    const = _channel(theory, record.C, (0, 0, 1, 0))
    terms = {(0, 0): const, (0, 1): _channel(theory, record.C, sign=-1)}
    for d, c, mu, mubar, num, dd in record.powers:
        key = ("corr", c, mu, mubar)
        const[key] = value(num, dd, (d, 0, 0, 0))
        terms.setdefault((d, 0), {})[key] = value(-num, dd)
    return _expansion(terms)


def marginal_coupling_algebra(theory):
    """One first-order coupling g[m] per marginal m."""
    return JetAlgebra([f"g[{m}]" for m in theory.marginals], 1)


def insert_family_deformed(theory: FormalTheory, beta, correction=True) -> Jet:
    """Insert v_beta + g^alpha delta v_{alpha beta} into the deformed annulus.

    Returns a jet over the couplings g[alpha] whose coefficients are
    RExpansions in r; with the correction included the order-g terms have no
    singular part, and the r -> 0 limit is the deformed one-point correlator.
    """
    alg = marginal_coupling_algebra(theory)
    coeffs = {(): RExpansion.constant(FormalVector.corr(beta))}
    for alpha in theory.marginals:
        term = integrated_ope(theory, alpha, beta)
        if correction:
            term = term + compute_correction(theory, alpha, beta)
        if not term.is_zero():
            coeffs[(f"g[{alpha}]",)] = term
    return Jet(alg, coeffs)


def deformed_one_point(theory: FormalTheory, beta) -> Jet:
    """<O~_beta(0)>^{def}_{D_R} as a jet over the couplings.

    The coefficients are assembled at the origin of the cut disk:
    counterterm plus the annulus integral centered at the insertion point.
    """
    jet = insert_family_deformed(theory, beta, correction=True)

    def take_limit(e: RExpansion) -> FormalVector:
        sing = e.singular_terms()
        if any(not v.is_zero() for v in sing.values()):
            raise ValidationError("deformed family is not good; correction missing")
        const = e.constant_term()
        return const if const is not None else FormalVector()

    return jet.map_coeffs(take_limit)


# ------------------------------------------------------------------ dilation


def _dilate(theory, expansion, weight) -> RExpansion:
    """lam^weight * Dil_lambda(expansion): the family evaluated at radius
    lam * r.  r^p -> lam^p r^p, log(r) -> log(lam) + log(r), and each
    correlator symbol scales by lam^{-dimension}: the value at r^p (log r)^q
    of a symbol of dimension D contributes comb(q, j) lam^{weight + p - D}
    (log lam)^{q - j} times itself at r^p (log r)^j, for j = 0..q.

    Each symbol's dimension is computed once per theory, and every symbol's
    lam shift weight + p - D from it.  Each monomial's exponents shift
    directly; a zero shift (so j = q and comb(q, j) = 1) is the value
    itself, and the row at j = q of a (p, q) whose every symbol has a zero
    shift is the input's own FormalVector (as lam^2 Dil leaves every row of
    a correction).  Shifted values stay zero-free, but rows from different
    q can meet at one (p, j): those are summed by FormalVector addition,
    which drops what cancels and changes no operand."""
    dims, out = theory._dimensions, {}
    for (p, q), vec in expansion.terms.items():
        shifts, unshifted = {}, True
        for key in vec.terms:
            D = dims.get(key)
            if D is None:
                _, label, mu, mubar = key
                h, hbar = theory.dims[label]
                D = dims[key] = canonical_exponent(h + hbar + sum(mu) + sum(mubar))
            lam = shifts[key] = canonical_exponent(weight + p - D)
            unshifted = unshifted and not lam
        for j in range(q + 1):
            if unshifted and j == q:
                moved = vec
            else:
                dj, n = q - j, comb(q, j)
                moved = FormalVector._of(
                    {key: _shift(val, shifts[key], dj, n) for key, val in vec.terms.items()}
                )
            row = out.get((p, j))
            out[p, j] = moved if row is None else row + moved
    return RExpansion._of({pq: vec for pq, vec in out.items() if vec.terms})


def _shift(val, lam, dj, n):
    """n lam^lam (log lam)^dj times the LogPoly val: each monomial's exponents
    move, and the coefficients are reused where n is 1; val itself when
    nothing moves (then n is comb(q, q) = 1)."""
    if not (lam or dj):
        return val
    return LogPoly._of(
        {
            (a, canonical_exponent(b + lam), i, k + dj): c * n if n != 1 else c
            for (a, b, i, k), c in val.terms.items()
        }
    )


def anomalous_dilation(theory: FormalTheory, beta):
    """Check/return the anomalous scaling of the corrected family:
    lam^2 Dil_lam v~_beta = v~_beta + log(lam) g^alpha C_{alpha beta}^gamma v_gamma.

    Returns (lhs, rhs) as jets over the couplings.

    A mirrored pair's two reads, here for beta and for alpha, share one
    record (see FormalTheory._pair) and meet equal corrections.  The first
    read keeps its beta, its correction and both its sides on the record;
    the twin's read takes the sides when its own correction equals the kept
    one, and clears the slot either way, so the sides live only until that
    read.  A second read for the same beta is not the twin's: it computes
    its sides and leaves them kept.
    """
    alg = marginal_coupling_algebra(theory)
    v = RExpansion._of({(0, 0): FormalVector._of({("corr", beta, (), ()): _ONE})})
    lhs, rhs = {(): _dilate(theory, v, 2)}, {(): v}
    for alpha in theory.marginals:
        dv = compute_correction(theory, alpha, beta)
        record = theory._pair(alpha, beta)
        kept = record.sides
        twin_read = kept is not None and kept[0] == alpha  # kept by the read for alpha
        if twin_read and kept[1] == dv:
            left, right = kept[2:]
        else:
            left, right = _dilation_sides(theory, dv, record.C)
        if twin_read:
            record.sides = None
        elif alpha != beta and theory._pairs.get((beta, alpha)) is record:
            record.sides = (beta, dv, left, right)
        mono = (f"g[{alpha}]",)
        if left is not None:
            lhs[mono] = left
        if right is not None:
            rhs[mono] = right
    # monomials () and single symbols; nonzero values: dilation is invertible
    return Jet._of(alg, lhs), Jet._of(alg, rhs)


def _dilation_sides(theory, dv, C):
    """One correction's coefficients in the dilation identity: lam^2 Dil_lam
    dv, and dv's rows plus the log(lam) channel of the record's C at (0, 0);
    None for a side with no terms.  compute_correction writes rows (0, 1)
    and (2(s - 1), 0) with s != 1 only, so no (0, 0) row is there to merge;
    were one there, it would be on the left side only, and lhs != rhs."""
    left = _dilate(theory, dv, 2) if dv.terms else None
    if not C:
        return left, dv if dv.terms else None
    # the record stores no zeros, so the channel vector is nonzero
    log_lam = FormalVector._of(_channel(theory, C, (0, 0, 0, 1)))
    return left, RExpansion._of({**dv.terms, (0, 0): log_lam})


# ------------------------------------------------------- double deformation


def _unordered_pairs(theory):
    """(li, lj, record of (lj, li)) once per unordered pair of marginals, li
    not after lj in marginal order.  The g_c form needs a pair's two records
    to agree in C, in K and in having rows, else RecombinationError; twins
    that share one record (FormalTheory._pair) pass on an identity test."""
    labels, rows = theory.marginals, theory.rows
    for i, li in enumerate(labels):
        for lj in labels[i:]:
            record, twin = theory._pair(lj, li), theory._pair(li, lj)
            if record is not twin and (record.C, record.K, (lj, li) in rows) != (
                twin.C, twin.K, (li, lj) in rows
            ):
                raise RecombinationError(f"bilinear part not symmetric in ({li}, {lj})")
            yield li, lj, record


def double_deform(theory: FormalTheory) -> Jet:
    """Second-order partition function on D_R in the combined coupling g_c.

    The (g~ g)-bilinear term integrates the deformed one-point correlator:
    its computable parts are log(R) C I_gamma and -K/2 A_a, with the
    remaining R-independent regular part kept as an explicit atom.  The
    result is written in g_c = g + g~ directly: the linear terms pair up,
    g^alpha g~^beta and g^beta g~^alpha become g_c^alpha g_c^beta, and
    g^alpha g~^alpha becomes half of g_c^alpha g_c^alpha.  That needs the
    two bilinear terms of each pair to be equal; a theory whose terms
    differ has no g_c form, and _unordered_pairs raises RecombinationError.
    """
    labels = theory.marginals
    alg = JetAlgebra.combined_coupling(labels)
    den, value = theory.den, theory._value
    names = {m: f"gc[{m}]" for m in labels}
    coeffs = {(): FormalVector._of({("disk",): _ONE})}
    for m in labels:
        coeffs[(names[m],)] = FormalVector._of({("int", m): _ONE})
    # each unordered pair once, from the term g^lj g~^li
    for li, lj, record in _unordered_pairs(theory):
        half, unit = (2, value(1, 2)) if li == lj else (1, _ONE)
        cden, kden = half * den * theory.mixing_den, -2 * half * den
        vec = {("int", g): value(n, cden, (0, 0, 1, 0)) for g, n in record.C.items()}
        vec.update((("int0", a), value(n, kden)) for a, n in record.K.items())
        if (lj, li) in theory.rows:
            vec[("reg",) + tuple(sorted((li, lj)))] = unit
        if vec:  # C and K store no zeros, and the keys are distinct atoms
            coeffs[tuple(sorted((names[li], names[lj])))] = FormalVector._of(vec)
    # sorted monomials of degree at most two in gc, nonzero atom vectors
    return Jet._of(alg, coeffs)


def radius_scaled(theory: FormalTheory, pf: Jet) -> Jet:
    """The same partition function on D_{lam R}: log(R) -> log(R) + log(lam)."""
    return pf.map_coeffs(lambda vec: vec.map_coeffs(LogPoly.scale_radius))


# ---------------------------------------------------------------- beta


class BetaResult:
    """beta^gamma(g_c) = (1/2) g_c^alpha g_c^beta C_{alpha beta}^gamma."""

    __slots__ = ("algebra", "coefficients")

    def __init__(self, algebra, coefficients):
        self.algebra = algebra
        self.coefficients = coefficients  # {gamma: Jet in g_c}

    def running(self):
        """g_c^gamma(lam) = g_c^gamma + log(lam) * beta^gamma."""
        out = {}
        for gamma, b in self.coefficients.items():
            linear = Jet.symbol(self.algebra, f"gc[{gamma}]", Fraction(1))
            out[gamma] = linear + b.map_coeffs(lambda c: LogPoly._of({(0, 0, 0, 1): c}))
        return out

    def is_zero(self):
        return all(b.is_zero() for b in self.coefficients.values())


def beta(theory: FormalTheory) -> BetaResult:
    """beta^gamma in g_c; RecombinationError where double_deform raises it."""
    labels = theory.marginals
    alg = JetAlgebra.combined_coupling(labels)
    names = {label: f"gc[{label}]" for label in labels}
    den, frac = theory.den * theory.mixing_den, theory._fraction
    per_gamma = {gamma: {} for gamma in labels}
    # one record per unordered pair, symmetric in C: the off-diagonal pair
    # stands for both orders, so its monomial gets twice its C
    for alpha, b_, record in _unordered_pairs(theory):
        mono = tuple(sorted((names[alpha], names[b_])))
        weight = 1 if alpha == b_ else 2
        for gamma, n in record.C.items():
            per_gamma[gamma][mono] = weight * n
    # the monomials are sorted quadratics in gc, each allowed, and C stores no zeros
    coefficients = {
        gamma: Jet._of(alg, {mono: frac(n, 2 * den) for mono, n in coeffs.items()})
        for gamma, coeffs in per_gamma.items()
    }
    return BetaResult(alg, coefficients)


# ------------------------------------------------- numeric free-boson route


def fb_theory(space) -> FormalTheory:
    """Formal theory data of the truncated free boson's marginal sector,
    with structure constants taken from the extraction pipeline."""
    from .observables import marginal_observable, ope_extract

    o = marginal_observable(space)
    table = ope_extract(space, o, o)
    rows = []
    for row in table.rows:
        if row["coefficient"] == 0:
            continue
        s = sum(row["mu"])
        sbar = sum(row["mubar"])
        if s != sbar:
            continue  # spin rows integrate to zero; drop from theory data
        rows.append(
            ("jjbar", "jjbar", "1", row["mu"], row["mubar"], row["coefficient"])
        )
    return FormalTheory(
        primaries=[("1", 0, 0), ("jjbar", 1, 1)],
        rows=rows,
        mixing={("1", "jjbar"): 1},
    )


def fb_deformed_annulus(space, R, r, w: Jet) -> Jet:
    """The j jbar-deformed free-boson annulus D_R \\ D_r, to first order in
    g, glued onto a jet w of boundary states on its inner circle:
    (1 + g sum_{n != 0} c_n j_n jbar_n) (r/R)^{L0+L0bar} w.

    The undeformed factor is geometry's annulus, applied by glue, so radii
    that break R > r > 0 raise its GeometryError.

    Termwise integration of the transported insertion mode sums leaves only
    the diagonal modes, with moment c_n = ((R/r)^{2n} - 1) / (2n) per mode
    n; j_n jbar_n vanishes on the truncated space for |n| > l_max / 2.
    """
    annulus = annulus_pf(space, R, r)
    terms = {mono: glue(annulus, v) for mono, v in w.terms.items()}
    base = terms.get(())
    if base is not None:
        ratio = Fraction(r) / Fraction(R)
        g = terms.get(("g[jjbar]",), space.zero())
        for n in range(-(space.l_max // 2), space.l_max // 2 + 1):
            if n:
                image = apply_current(apply_current(base, n, bar=True), n)
                g = g + image.scale((ratio ** (-2 * n) - 1) / (2 * n))
        terms[("g[jjbar]",)] = g
    return Jet(w.algebra, terms)


def fb_deformed_disk(space) -> Jet:
    """First-order deformed disk: vacuum + g sum_k j_{-k} jbar_{-k}|0>/(2k).

    It takes no radius: marginality makes it radius-independent.
    """
    alg = JetAlgebra(["g[jjbar]"], 1)
    w = space.zero()
    for k in range(1, space.l_max // 2 + 1):
        state = apply_current(apply_current(space.vacuum(), -k), -k, bar=True)
        w = w + state.scale(Fraction(1, 2 * k))
    coeffs = {(): space.vacuum()}
    if not w.is_zero():
        coeffs[("g[jjbar]",)] = w
    return Jet(alg, coeffs)
