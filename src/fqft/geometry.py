"""Surfaces, their partition functions, and the cutting axiom.

A surface's kind is its type.  An Annulus depends on L_0 + Lbar_0 alone,
so it is stored as one scalar per total level 0..l_max, int numerators
over one int denominator; a Disk is a boundary state, the vacuum.
Annulus(...) and Disk(...) check their radii.  annulus_pf and disk_pf
check theirs once, before any ratio is formed, and build unchecked
(`_of`), as glue does, whose radii are its pieces'.  glue takes an Annulus
as its outer piece and dispatches on the inner one: annulus o annulus
multiplies numerators pairwise and denominators once into an Annulus,
annulus o disk scales the disk's state level by level and gives a Disk,
and a bare BoundaryState comes back scaled and bare.  verify_cutting
checks the cutting identities over chains of nested annuli level by
level, in O(l_max) per cut, on cross-multiplied numerators.  For r/R = a/b
in lowest terms, level E holds a^E b^(l_max - E) over b^l_max, each
numerator from the last by one exact division and one int product.

A radius enters by one rule.  An int or Fraction radius is made canonical
(scalars.canonical_rational: an int when integral) before its check, so an
integral one is compared as an int; any other radius, a float, is checked
as it is and then taken exactly.  Every surface holds canonical radii, so
glue's radius test compares ints where the radii are integral, and
verify_cutting makes its chain canonical once.

The shifted convention L_0 -> L_0 - 1/24 is the default, so annulus entries
are (r/R)^{total level} and the disk is radius-independent.  shifted=False
restores the conformal anomaly (c = 1) for cross-checks: one factor per
surface, (r/R)^{1/12} on an annulus and R^{-1/12} on a disk, whatever the
level.  A partition function holds it as the rational q of q^{1/12} (its
`anomaly`: r/R, 1/R, or 1 when shifted), and gluing multiplies anomalies.
As q -> q^{1/12} is one-to-one and multiplicative on the positive
rationals, comparing the anomalies exactly checks the factors exactly, and
every scalar stays a rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _logger
from .errors import GeometryError, SpaceMismatchError
from .fock import BoundaryState, TruncatedFockSpace, scale_by_level
from .scalars import _rational, canonical_rational


class Annulus:
    """The annulus r <= |z| <= R: one scalar per total level 0..l_max (the
    level-E subspace's eigenvalue) times the conformal anomaly q^{1/12},
    held as the positive rational q: 1 in the shifted convention.  The
    scalars are int numerators `nums` over one int denominator `den`;
    `by_level` reads them as Fractions."""

    __slots__ = ("space", "R", "r", "nums", "den", "anomaly")

    def __init__(self, space, R, r, by_level, anomaly):
        R, r = _check_annulus(R, r)
        if len(by_level) != space.l_max + 1:
            raise ValueError("need one scalar per level 0..l_max")
        values = [_rational(x) for x in by_level]
        self.space, self.R, self.r, self.anomaly = space, R, r, anomaly
        self.den = math.lcm(*(x.denominator for x in values))
        self.nums = [x.numerator * (self.den // x.denominator) for x in values]

    @classmethod
    def _of(cls, space, R, r, nums, den, anomaly):
        """Build unchecked, as BoundaryState._of does: R > r > 0, both
        finite and canonical, and one numerator per level 0..l_max."""
        out = object.__new__(cls)
        out.space, out.R, out.r, out.nums, out.den, out.anomaly = space, R, r, nums, den, anomaly
        return out

    @property
    def by_level(self) -> list:
        """The level scalars as normalised Fractions, made on each read."""
        return [Fraction(n, self.den) for n in self.nums]


class Disk:
    """The disk |z| <= R: a boundary state over its space times the
    conformal anomaly q^{1/12}, held as q as on an Annulus."""

    __slots__ = ("space", "R", "state", "anomaly")

    def __init__(self, space, R, state, anomaly):
        self.space, self.R = space, _check_disk(R)
        if state.space is not space:
            raise SpaceMismatchError("gluing across different truncated spaces")
        self.state = state  # BoundaryState
        self.anomaly = anomaly

    @classmethod
    def _of(cls, space, R, state, anomaly):
        """Build unchecked, as BoundaryState._of does: R > 0, finite and
        canonical."""
        out = object.__new__(cls)
        out.space, out.R, out.state, out.anomaly = space, R, state, anomaly
        return out


def _canonical(x):
    """An int or Fraction radius in canonical form, an int when integral;
    any other radius as it is."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _check_annulus(R, r):
    """The checked radii R > r > 0, both finite, as canonical exact
    rationals."""
    R, r = _canonical(R), _canonical(r)
    # compared with math.inf, never passed through float(), which overflows
    # on a finite exact radius such as Fraction(10**400)
    if not (R > r > 0 and R != math.inf):
        raise GeometryError("annulus radii must satisfy R > r > 0 and be finite")
    return canonical_rational(R), canonical_rational(r)


def _check_disk(R):
    """The checked radius R > 0, finite, as a canonical exact rational."""
    R = _canonical(R)
    if not (R > 0 and R != math.inf):  # NaN fails R > 0
        raise GeometryError("disk radius must be positive and finite")
    return canonical_rational(R)


def annulus_pf(space: TruncatedFockSpace, R, r, shifted: bool = True) -> Annulus:
    """(r/R)^{L_0 + Lbar_0} on the annulus r <= |z| <= R; unshifted, times
    the anomaly (r/R)^{1/12}."""
    R, r = _check_annulus(R, r)  # before r/R is formed
    a, b = r.numerator * R.denominator, r.denominator * R.numerator
    g = math.gcd(a, b)
    a, b = a // g, b // g
    nums = [b**space.l_max]
    for _ in range(space.l_max):
        nums.append(nums[-1] // b * a)  # b divides a^E b^(l_max - E) for E < l_max
    ratio = None if shifted else Fraction(a, b)
    return Annulus._of(space, R, r, nums, nums[0], 1 if shifted else ratio)


def disk_pf(space: TruncatedFockSpace, R, shifted: bool = True) -> Disk:
    """Vacuum boundary state on the disk of radius R.

    In the shifted convention the result is R-independent; unshifted it
    carries the conformal-anomaly factor R^{-1/12}, as the anomaly 1/R.
    """
    R = _check_disk(R)  # before 1/R is formed
    anomaly = 1 if shifted else Fraction(1, R)
    return Disk._of(space, R, space.vacuum(), anomaly)


def glue(outer: Annulus, inner) -> Annulus | Disk | BoundaryState:
    """Sew the inner boundary of the annulus `outer` to the outer boundary
    of `inner`: levels multiply pairwise (annulus), or scale the inner
    state (disk), and anomalies multiply.  A bare BoundaryState carries no
    radius and no anomaly, so gluing onto one returns the scaled bare
    BoundaryState."""
    if not isinstance(outer, Annulus):
        raise GeometryError("outer piece of a gluing must be an annulus")
    if not isinstance(inner, (Annulus, Disk, BoundaryState)):
        raise GeometryError(
            "inner piece of a gluing must be an annulus, a disk or a boundary state"
        )
    if outer.space is not inner.space:
        raise SpaceMismatchError("gluing across different truncated spaces")
    if isinstance(inner, BoundaryState):
        return scale_by_level(inner, _scalars(outer, inner))
    if outer.r != inner.R:
        raise GeometryError("the annulus's inner radius must equal the inner piece's outer radius")
    # the result's radii are its pieces', checked when they were built
    anomaly = outer.anomaly * inner.anomaly
    if isinstance(inner, Annulus):
        nums = [x * y for x, y in zip(outer.nums, inner.nums)]
        return Annulus._of(outer.space, outer.R, inner.r, nums, outer.den * inner.den, anomaly)
    state = inner.state
    return Disk._of(outer.space, outer.R, scale_by_level(state, _scalars(outer, state)), anomaly)


def _scalars(outer: Annulus, state: BoundaryState) -> dict:
    """{E: outer's level-E scalar as a Fraction} at the levels state holds."""
    levels, nums, den = state.space.levels, outer.nums, outer.den
    return {E: Fraction(nums[E], den) for E in {levels[i] for i in state.terms}}


def _residual(got, want, got_anomaly, want_anomaly, got_den=1, want_den=1):
    """Max-abs residual between the values got[k] / got_den *
    got_anomaly^{1/12} and want[k] / want_den * want_anomaly^{1/12}, and
    the k of the worst one (None when they agree).  The values agree when
    the anomalies are equal and so are the cross-multiplied numerators
    got[k] * want_den and want[k] * got_den; a mismatch is never 0.0: one
    whose float difference rounds to 0 reads inf."""
    same_anomaly = got_anomaly == want_anomaly
    crossed = [x * want_den for x in got], [y * got_den for y in want]
    if same_anomaly and crossed[0] == crossed[1]:
        return 0.0, None
    fg, fw = float(got_anomaly) ** (1 / 12), float(want_anomaly) ** (1 / 12)
    worst, arg = 0.0, None
    for k, (x, y, cx, cy) in enumerate(zip(got, want, *crossed)):
        if same_anomaly and cx == cy:
            continue
        # int true division rounds as float(Fraction(x, got_den)) does
        d = abs(fg * (x / got_den) - fw * (y / want_den))
        if not d:
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
    radii = [_canonical(x) for x in cut_points]
    if len(radii) < 2 or any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise GeometryError("cut points must be strictly decreasing radii")
    log = _logger(10)
    if log:
        log.debug("verify_cutting l_max=%d radii=%d", space.l_max, len(radii))
    R0, Rn = radii[0], radii[-1]
    direct = annulus_pf(space, R0, Rn, shifted=shifted)

    worst, arg, worst_cut = 0.0, None, None
    cuts = range(1, len(radii) - 1)
    for m in cuts:
        outer = annulus_pf(space, R0, radii[m], shifted=shifted)
        inner = annulus_pf(space, radii[m], Rn, shifted=shifted)
        glued = glue(outer, inner)
        res, level = _residual(
            glued.nums, direct.nums, glued.anomaly, direct.anomaly, glued.den, direct.den
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
    )

    return {
        "l_max": space.l_max,
        "shifted": shifted,
        "cuts_checked": len(cuts),
        "max_residual": worst,
        "offending_level": arg,
        "offending_cut": worst_cut,
        "disk_residual": disk_res,
        "exact_zero": arg is None and disk_res == 0.0,
    }
