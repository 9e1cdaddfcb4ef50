"""Surfaces, their partition functions, and the cutting axiom.

Annulus partition functions are functions of L_0 + Lbar_0 alone, so they
are stored as one scalar per total level 0..l_max; the disk
partition function is the vacuum state.  Gluing multiplies level scalars or
applies them to the nonzeros of a boundary state, and verify_cutting checks
the cutting identities over chains of nested annuli level by level, in
O(l_max) per cut.

What does not depend on the level is done once per annulus or glue: an
exact annulus forms r/R once and its levels c * (r/R)^E as running integer
products, one normalised Fraction each; an unshifted one factorises r/R
once, and its levels share that one exponent map.  Gluing two annuli sums
each pair of exponent maps once (scalars.products) and multiplies only
rational coefficients per level.  Every glued level is still compared with
the direct annulus's level.

The shifted convention L_0 -> L_0 - 1/24 is the default, so annulus entries
are (r/R)^{total level} and the disk is radius-independent; shifted=False
restores the explicit 1/12 in the annulus exponent for cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GeometryError, SpaceMismatchError
from .fock import BoundaryState, TruncatedFockSpace, scale_by_level
from .scalars import PowerValue, _rational, products


class Surface:
    """One of annulus(R, r), disk(R)."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, **params):
        if kind == "annulus":
            R, r = params.get("R", 0), params.get("r", 0)
            if not R > r > 0:
                raise GeometryError("annulus radii must satisfy R > r > 0")
        elif kind == "disk":
            if params.get("R", 0) <= 0:
                raise GeometryError("disk radius must be positive")
        else:
            raise GeometryError(f"unknown surface kind {kind!r}")
        self.kind = kind
        self.params = dict(params)

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"Surface({self.kind}, {args})"


class PartitionFunction:
    """Level-graded operator (annulus) or boundary state (disk)."""

    __slots__ = ("surface", "space", "by_level", "state")

    def __init__(self, surface, space, by_level=None, state=None):
        if (by_level is None) == (state is None):
            raise ValueError("exactly one of by_level/state must be given")
        if by_level is not None and len(by_level) != space.l_max + 1:
            raise ValueError("need one scalar per level 0..l_max")
        self.surface = surface
        self.space = space
        self.by_level = by_level  # scalar on the level-E subspace, E = 0..l_max
        self.state = state  # BoundaryState

    @property
    def is_operator(self):
        return self.by_level is not None


def _scaled_powers(c, ratio: Fraction, count: int) -> list:
    """[c * ratio**E for E in 0..count-1], c rational: running integer
    products of the numerators and of the denominators, normalised into one
    Fraction each."""
    num, den = c.numerator, c.denominator
    a, b = ratio.numerator, ratio.denominator
    out = []
    for _ in range(count):
        out.append(Fraction(num, den))
        num *= a
        den *= b
    return out


def annulus_pf(
    space: TruncatedFockSpace, R, r, shifted: bool = True
) -> PartitionFunction:
    """(r/R)^{L_0 + Lbar_0} on the annulus r <= |z| <= R."""
    surface = Surface("annulus", R=R, r=r)
    if space.exact:
        R, r = _rational(R), _rational(r)  # ints and Fractions as they are
        ratio = Fraction(r.numerator * R.denominator, r.denominator * R.numerator)
        if shifted:
            by_level = _scaled_powers(1, ratio, space.l_max + 1)
        else:
            # (r/R)^(E + 1/12): factorise r/R once; every level scales its
            # coefficient by the rational (r/R)^E and shares its exponents
            base = PowerValue.from_pow(ratio, Fraction(1, 12))
            exps = base.prime_exps
            by_level = [
                PowerValue._of(c, exps)
                for c in _scaled_powers(base.coeff, ratio, space.l_max + 1)
            ]
    else:
        ratio = float(r) / float(R)
        offset = 0.0 if shifted else 1.0 / 12.0
        by_level = [ratio ** (E + offset) for E in range(space.l_max + 1)]
    return PartitionFunction(surface, space, by_level=by_level)


def disk_pf(space: TruncatedFockSpace, R, shifted: bool = True) -> PartitionFunction:
    """Vacuum boundary state on the disk of radius R.

    In the shifted convention the result is R-independent; unshifted it
    carries the conformal-anomaly factor R^{-1/12}.
    """
    surface = Surface("disk", R=R)
    vac = space.vacuum()
    if not shifted:
        if space.exact:
            vac = vac.scale(PowerValue.from_pow(R, Fraction(-1, 12)))
        else:
            vac = vac.scale(float(R) ** (-1.0 / 12.0))
    return PartitionFunction(surface, space, state=vac)


def _glued_surface(outer: Surface, inner: Surface) -> Surface:
    if outer.kind == "annulus" and inner.kind == "annulus":
        if outer.params["r"] != inner.params["R"]:
            raise GeometryError(
                "annulus gluing needs inner radius of outer = outer radius of inner"
            )
        return Surface("annulus", R=outer.params["R"], r=inner.params["r"])
    if outer.kind == "annulus" and inner.kind == "disk":
        if outer.params["r"] != inner.params["R"]:
            raise GeometryError("disk radius must match the annulus inner radius")
        return Surface("disk", R=outer.params["R"])
    raise GeometryError(f"cannot glue {outer.kind} onto {inner.kind}")


def glue(outer: PartitionFunction, inner) -> PartitionFunction:
    """Sew the inner boundary of `outer` to the outer boundary of `inner`."""
    if isinstance(inner, BoundaryState):
        if not outer.is_operator:
            raise GeometryError("outer piece of a gluing must be an operator")
        if outer.space is not inner.space:
            raise SpaceMismatchError("gluing across different truncated spaces")
        return PartitionFunction(
            outer.surface, outer.space, state=scale_by_level(inner, outer.by_level)
        )
    if outer.space is not inner.space:
        raise SpaceMismatchError("gluing across different truncated spaces")
    surface = _glued_surface(outer.surface, inner.surface)
    if not outer.is_operator:
        raise GeometryError("outer piece of a gluing must be an operator")
    if inner.is_operator:
        by_level = products(outer.by_level, inner.by_level)
        return PartitionFunction(surface, outer.space, by_level=by_level)
    return PartitionFunction(
        surface, outer.space, state=scale_by_level(inner.state, outer.by_level)
    )


def _level_residual(values_a, values_b, exact):
    """Max-abs residual between level scalars; level of the worst one."""
    if exact and values_a == values_b:
        return 0.0, None
    worst, arg = 0.0, None
    for E, (x, y) in enumerate(zip(values_a, values_b)):
        if exact:
            if x != y:
                d = abs(float(x) - float(y)) or float("inf")
                if d > worst or arg is None:
                    worst, arg = d, E
        else:
            d = abs(float(x) - float(y))
            if d > worst:
                worst, arg = d, E
    return worst, arg


def verify_cutting(space, cut_points, shifted=True):
    """Check the cutting axiom on an annulus chain.

    cut_points is a decreasing list of radii [R_0 > R_1 > ... > R_n]; for
    every intermediate cut m the identity
        annulus(R_0, R_m) o annulus(R_m, R_n) = annulus(R_0, R_n)
    is checked level by level, plus the disk closure
        annulus(R_0, R_n) |disk(R_n)> = |disk(R_0)>.
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
        res, level = _level_residual(glued.by_level, direct.by_level, space.exact)
        if level is not None and (arg is None or res > worst):
            worst, arg, worst_cut = res, level, m

    # disk closure, over the union of both states' nonzeros
    closed = glue(direct, disk_pf(space, Rn, shifted=shifted)).state
    disk_direct = disk_pf(space, R0, shifted=shifted).state
    support = closed.coeffs.keys() | disk_direct.coeffs.keys()
    if space.exact and all(closed[i] == disk_direct[i] for i in support):
        disk_res = 0.0
    else:
        disk_res = max(
            (abs(float(closed[i]) - float(disk_direct[i])) for i in support),
            default=0.0,
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
