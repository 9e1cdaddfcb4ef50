"""Surfaces, their partition functions, and the cutting axiom.

A surface's kind is its type.  An Annulus depends on L_0 + Lbar_0 alone,
so it is stored as one scalar per total level 0..l_max; a Disk is a
boundary state, the vacuum.  Each checks its own radii.  glue takes an
Annulus as its outer piece and dispatches on the inner one: annulus o
annulus multiplies level scalars into an Annulus, annulus o disk applies
them to the nonzeros of the disk's state and gives a Disk, and a bare
BoundaryState comes back scaled and bare.  verify_cutting checks the
cutting identities over chains of nested annuli level by level, in
O(l_max) per cut.  An exact annulus forms r/R once and its levels (r/R)^E
as running integer products, one normalised Fraction each.

The shifted convention L_0 -> L_0 - 1/24 is the default, so annulus entries
are (r/R)^{total level} and the disk is radius-independent.  shifted=False
restores the conformal anomaly (c = 1) for cross-checks: one factor per
surface, (r/R)^{1/12} on an annulus and R^{-1/12} on a disk, whatever the
level.  A partition function holds it as the rational q of q^{1/12} (its
`anomaly`: r/R, 1/R, or 1 when shifted), and gluing multiplies anomalies.
As q -> q^{1/12} is one-to-one and multiplicative on the positive
rationals, comparing the anomalies exactly checks the factors exactly, and
every exact scalar stays a rational.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GeometryError, SpaceMismatchError
from .fock import BoundaryState, TruncatedFockSpace, scale_by_level
from .scalars import _rational


class Annulus:
    """The annulus r <= |z| <= R: one scalar per total level 0..l_max (the
    level-E subspace's eigenvalue) times the conformal anomaly q^{1/12},
    held as the positive rational (float in float64) q: 1 in the shifted
    convention."""

    __slots__ = ("space", "R", "r", "by_level", "anomaly")

    def __init__(self, space, R, r, by_level, anomaly):
        _check_annulus(R, r)
        if len(by_level) != space.l_max + 1:
            raise ValueError("need one scalar per level 0..l_max")
        self.space, self.R, self.r = space, R, r
        self.by_level = by_level
        self.anomaly = anomaly


class Disk:
    """The disk |z| <= R: a boundary state times the conformal anomaly
    q^{1/12}, held as q as on an Annulus."""

    __slots__ = ("space", "R", "state", "anomaly")

    def __init__(self, space, R, state, anomaly):
        _check_disk(R)
        self.space, self.R = space, R
        self.state = state  # BoundaryState
        self.anomaly = anomaly


def _check_annulus(R, r):
    if not R > r > 0:
        raise GeometryError("annulus radii must satisfy R > r > 0")


def _check_disk(R):
    if not R > 0:  # NaN too
        raise GeometryError("disk radius must be positive")


def _powers(ratio: Fraction, count: int) -> list:
    """[ratio**E for E in 0..count-1]: running integer products of the
    numerator and of the denominator, normalised into one Fraction each."""
    num = den = 1
    a, b = ratio.numerator, ratio.denominator
    out = []
    for _ in range(count):
        out.append(Fraction(num, den))
        num *= a
        den *= b
    return out


def annulus_pf(space: TruncatedFockSpace, R, r, shifted: bool = True) -> Annulus:
    """(r/R)^{L_0 + Lbar_0} on the annulus r <= |z| <= R; unshifted, times
    the anomaly (r/R)^{1/12}."""
    _check_annulus(R, r)  # before r/R is formed
    if space.exact:
        Rq, rq = _rational(R), _rational(r)  # ints and Fractions as they are
        ratio = Fraction(rq.numerator * Rq.denominator, rq.denominator * Rq.numerator)
        by_level = _powers(ratio, space.l_max + 1)
    else:
        ratio = float(r) / float(R)
        by_level = [ratio**E for E in range(space.l_max + 1)]
    return Annulus(space, R, r, by_level, 1 if shifted else ratio)


def disk_pf(space: TruncatedFockSpace, R, shifted: bool = True) -> Disk:
    """Vacuum boundary state on the disk of radius R.

    In the shifted convention the result is R-independent; unshifted it
    carries the conformal-anomaly factor R^{-1/12}, as the anomaly 1/R.
    """
    _check_disk(R)  # before 1/R is formed
    if shifted:
        anomaly = 1
    else:
        anomaly = Fraction(1, _rational(R)) if space.exact else 1.0 / float(R)
    return Disk(space, R, space.vacuum(), anomaly)


def glue(outer: Annulus, inner) -> Annulus | Disk | BoundaryState:
    """Sew the inner boundary of the annulus `outer` to the outer boundary
    of `inner`: levels multiply pairwise (annulus), or scale the inner
    state (disk), and anomalies multiply.  A bare BoundaryState carries no
    radius and no anomaly, so gluing onto one returns the scaled bare
    BoundaryState."""
    if not isinstance(outer, Annulus):
        raise GeometryError("outer piece of a gluing must be an annulus")
    if outer.space is not inner.space:
        raise SpaceMismatchError("gluing across different truncated spaces")
    if isinstance(inner, BoundaryState):
        return scale_by_level(inner, outer.by_level)
    if outer.r != inner.R:
        raise GeometryError("the annulus's inner radius must equal the inner piece's outer radius")
    anomaly = outer.anomaly * inner.anomaly
    if isinstance(inner, Annulus):
        by_level = [x * y for x, y in zip(outer.by_level, inner.by_level)]
        return Annulus(outer.space, outer.R, inner.r, by_level, anomaly)
    return Disk(outer.space, outer.R, scale_by_level(inner.state, outer.by_level), anomaly)


def _residual(got, want, got_anomaly, want_anomaly, exact):
    """Max-abs residual between the values got[k] * got_anomaly^{1/12} and
    want[k] * want_anomaly^{1/12}, and the k of the worst one (None when
    they agree).  Exact values agree when the anomalies and the scalars are
    equal as stored; an exact mismatch is never 0.0: one whose float
    difference rounds to 0 reads inf."""
    same_anomaly = got_anomaly == want_anomaly
    if exact and same_anomaly and got == want:
        return 0.0, None
    fg, fw = float(got_anomaly) ** (1 / 12), float(want_anomaly) ** (1 / 12)
    worst, arg = 0.0, None
    for k, (x, y) in enumerate(zip(got, want)):
        if exact and same_anomaly and x == y:
            continue
        d = abs(fg * float(x) - fw * float(y))
        if exact and not d:
            d = float("inf")  # unequal, though no float tells them apart
        if d > worst:
            worst, arg = d, k
    return worst, arg


def verify_cutting(space, cut_points, shifted=True):
    """Check the cutting axiom on an annulus chain.

    cut_points is a decreasing list of radii [R_0 > R_1 > ... > R_n]; for
    every intermediate cut m the identity
        annulus(R_0, R_m) o annulus(R_m, R_n) = annulus(R_0, R_n)
    is checked level by level, plus the disk closure
        annulus(R_0, R_n) |disk(R_n)> = |disk(R_0)>;
    each side's anomaly is compared with the other's alongside.
    Returns a residual report dict.
    """
    radii = list(cut_points)
    if len(radii) < 2 or any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise GeometryError("cut points must be strictly decreasing radii")
    R0, Rn = radii[0], radii[-1]
    direct = annulus_pf(space, R0, Rn, shifted=shifted)

    worst, arg, worst_cut = 0.0, None, None
    cuts = range(1, len(radii) - 1)
    for m in cuts:
        outer = annulus_pf(space, R0, radii[m], shifted=shifted)
        inner = annulus_pf(space, radii[m], Rn, shifted=shifted)
        glued = glue(outer, inner)
        res, level = _residual(
            glued.by_level, direct.by_level, glued.anomaly, direct.anomaly, space.exact
        )
        if level is not None and (arg is None or res > worst):
            worst, arg, worst_cut = res, level, m

    # disk closure, over the union of both states' nonzeros
    closed = glue(direct, disk_pf(space, Rn, shifted=shifted))
    disk_direct = disk_pf(space, R0, shifted=shifted)
    support = closed.state.terms.keys() | disk_direct.state.terms.keys()
    disk_res, _ = _residual(
        [closed.state[i] for i in support],
        [disk_direct.state[i] for i in support],
        closed.anomaly,
        disk_direct.anomaly,
        space.exact,
    )

    return {
        "l_max": space.l_max,
        "mode": "exact" if space.exact else "f64",
        "shifted": shifted,
        "cuts_checked": len(cuts),
        "max_residual": worst,
        "offending_level": arg,
        "offending_cut": worst_cut,
        "disk_residual": disk_res,
        "exact_zero": space.exact and arg is None and disk_res == 0.0,
    }
