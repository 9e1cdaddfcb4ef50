"""Tests for the conformal perturbation theory engine."""

import contextlib
import gc
import hashlib
import json
import logging
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fqft.deformation
from fqft.cli import main

from fqft.deformation import (
    LOG_LAM,
    LOG_R,
    BetaResult,
    FormalTheory,
    FormalVector,
    _dilate,
    anomalous_dilation,
    beta,
    compute_correction,
    deformed_one_point,
    double_deform,
    fb_deformed_annulus,
    fb_deformed_disk,
    fb_theory,
    insert_family_deformed,
    integrated_ope,
    marginal_coupling_algebra,
    radius_scaled,
    theory_from_json,
)
from fqft.errors import GeometryError, RecombinationError, ValidationError
from fqft.fock import BoundaryState, build_space
from fqft.jets import Jet, JetAlgebra
from fqft.rexp import LogPoly, RExpansion
from fqft.scalars import canonical_rational
from formal_ref import logpoly_product, ref_dims, ref_effective_C, ref_K, rows_for
from jet_ref import const, jet_mul
from recombine_ref import recombine
from theory_json import theory_to_json

SYM_R, SYM_LAM = sympy.symbols("R lam", positive=True)


def to_sympy(x: LogPoly):
    """The sympy expression of a LogPoly, term by term."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * SYM_R ** sympy.Rational(a)
            * SYM_LAM ** sympy.Rational(b)
            * sympy.log(SYM_R) ** i
            * sympy.log(SYM_LAM) ** j
            for (a, b, i, j), c in x.terms.items()
        )
    )


def annulus_moment(a: int, b: int, R, r):
    """int_{D_R \\ D_r} dzbar^dz/(4 pi i) z^a zbar^b, exact, in sympy.

    Zero unless a = b (phase integral); log(R/r) at a = -1, else the power
    formula.  R and r may be numbers or sympy symbols.
    """
    if a != b:
        return 0
    R, r = sympy.sympify(R), sympy.sympify(r)
    if a == -1:
        return sympy.log(R / r)
    k = 2 * a + 2
    return (R**k - r**k) / k


def simple_theory(C0=Fraction(3), K0=Fraction(5)):
    """One marginal e; OPE rows K0 |z|^{-4} identity + C0 |z|^{-2} e."""
    rows = []
    if K0:
        rows.append(("e", "e", "1", (), (), K0))
    if C0:
        rows.append(("e", "e", "e", (), (), C0))
    return FormalTheory(primaries=[("1", 0, 0), ("e", 1, 1)], rows=rows)


# ----------------------------------------------------------------- validation


def test_theory_validation():
    with pytest.raises(ValidationError):
        FormalTheory([("bad", -1, 0)], [])
    with pytest.raises(ValidationError):
        FormalTheory([("bad", 0, -1)], [])
    # both chiral spin primaries, the holomorphic one and the antichiral one
    for h, hbar in [(1, 0), (0, 1)]:
        with pytest.raises(ValidationError):
            FormalTheory([("spin", h, hbar)], [])
    with pytest.raises(ValidationError):
        # degenerate h_c + |mu| = 1 row that is not a marginal channel
        FormalTheory(
            [("1", 0, 0), ("e", 1, 1), ("half", Fraction(1, 2), Fraction(1, 2))],
            [("e", "e", "half", (Fraction(1, 2),), (Fraction(1, 2),), 1)],
        )
    with pytest.raises(ValidationError):
        FormalTheory([("1", 0, 0), ("e", 1, 1)], [], mixing={("e", "e"): 1})
    # a zero-valued row is validated before it is dropped
    for row in [("e", "f", "nope", (), (), 0), ("e", "e", "nope", (), (), 0)]:
        with pytest.raises(ValidationError):
            FormalTheory([("1", 0, 0), ("e", 1, 1)], [row])
    # descendant labels are partitions: positive int, non-increasing parts
    bad_labels = [((2, 3), ()), ((), (1, 2)), ((-1,), ()), ((0,), (0,))]
    bad_labels += [((0.5,), (0.5,)), ((1.0,), (1,)), ((True,), (True,)), ((Fraction(1),), (1,))]
    for mu, mubar in bad_labels:
        with pytest.raises(ValidationError):
            FormalTheory([("1", 0, 0), ("e", 1, 1)], [("e", "e", "1", mu, mubar, 1)])


def test_effective_c_with_mixing():
    th = FormalTheory(
        [("1", 0, 0), ("e", 1, 1)],
        [("e", "e", "e", (), (), Fraction(2)), ("e", "e", "1", (1,), (1,), Fraction(3))],
        mixing={("1", "e"): Fraction(1, 2)},
    )
    assert ref_effective_C(th, "e", "e") == {"e": Fraction(2) + Fraction(3, 2)}
    # the library's C is the log(r) channel of the correction
    assert compute_correction(th, "e", "e") == RExpansion(
        {(0, 1): FormalVector.corr("e", value=Fraction(7, 2))}
    )


def test_theory_json_roundtrip():
    th = simple_theory()
    text = theory_to_json(th)
    back = theory_from_json(text)
    assert theory_to_json(back) == text
    assert ref_K(back, "e", "e") == {"1": 5}
    assert compute_correction(back, "e", "e").terms.get((-2, 0)) == FormalVector.corr(
        "1", value=Fraction(-5, 2)
    )


# ------------------------------------------------------------------- moments


def test_annulus_moment_values():
    R, r = sympy.symbols("Rm rm", positive=True)
    m = annulus_moment(-2, -2, R, r)
    assert sympy.simplify(m - (1 / (2 * r**2) - 1 / (2 * R**2))) == 0
    assert annulus_moment(-1, -1, R, r) == sympy.log(R / r)
    assert annulus_moment(0, 1, R, r) == 0
    assert annulus_moment(0, 0, R, r) == (R**2 - r**2) / 2


def test_annulus_moment_selection_rule():
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a != b:
                assert annulus_moment(a, b, 2, 1) == 0


def test_integrated_ope_matches_annulus_moments():
    # each OPE row value * z^{s-2} zbar^{sbar-2} integrates to value times the
    # annulus moment; s = sbar = 1 rows reach the marginals directly or
    # through the mixing matrix
    r = sympy.Symbol("r", positive=True)
    rng = random.Random(5)
    for _ in range(10):
        th = _random_theory(rng, rng.randint(1, 3))
        for alpha in th.marginals:
            for beta_ in th.marginals:
                want = {}
                for c, mu, mubar, val in rows_for(th, alpha, beta_):
                    s, sbar = th.exponent_pair(c, mu, mubar)
                    moment = sympy.Rational(val) * annulus_moment(s - 2, sbar - 2, SYM_R, r)
                    if (s, sbar) != (1, 1):
                        targets = {("corr", c, mu, mubar): 1}
                    elif th.dims[c] == (0, 0):  # (1,1)-descendant: through the mixing
                        targets = {("corr", g, (), ()): m for (a, g), m in th.mixing.items() if a == c}
                    else:
                        targets = {("corr", c, (), ()): 1}
                    for key, m in targets.items():
                        want[key] = want.get(key, 0) + sympy.Rational(m) * moment
                got = {}
                for (p, q), vec in integrated_ope(th, alpha, beta_).terms.items():
                    for key, val in vec.terms.items():
                        got[key] = got.get(key, 0) + r ** sympy.Rational(p) * sympy.log(r) ** q * to_sympy(val)
                for key in set(want) | set(got):
                    diff = sympy.expand_log(want.get(key, 0) - got.get(key, 0), force=True)
                    assert sympy.expand(diff) == 0, (alpha, beta_, key)


# ----------------------------------------------------------------- correction


def test_correction_matches_special_form():
    # delta v = log(r) C <O_e>_{D_r} - (1/2r^2) K <1>_{D_r}
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    dv = compute_correction(th, "e", "e")
    assert dv.terms.get((0, 1)) == FormalVector.corr("e", value=3)
    assert dv.terms.get((-2, 0)) == FormalVector.corr("1", value=Fraction(-5, 2))
    assert len(dv.terms) == 2


def test_correction_zero_without_rows():
    th = simple_theory(C0=0, K0=0)
    assert compute_correction(th, "e", "e").is_zero()


def test_correction_general_sum():
    # a (2,2) primary channel contributes + r^{2(s-1)}/(2(s-1)) with s = 2
    th = FormalTheory(
        [("1", 0, 0), ("e", 1, 1), ("phi", 2, 2)],
        [("e", "e", "phi", (), (), Fraction(7))],
    )
    dv = compute_correction(th, "e", "e")
    assert dv.terms.get((2, 0)) == FormalVector.corr("phi", value=Fraction(7, 2))


def test_correction_skips_spin_rows():
    th = FormalTheory(
        [("1", 0, 0), ("e", 1, 1)],
        [("e", "e", "1", (2,), (), Fraction(4))],
    )
    assert compute_correction(th, "e", "e").is_zero()


# ------------------------------------------------------- deformed insertion


def test_insertion_is_good_with_correction():
    th = simple_theory()
    jet = insert_family_deformed(th, "e")
    for mono, e in jet.terms.items():
        assert not any(not v.is_zero() for v in e.singular_terms().values()), mono


def test_insertion_without_correction_reintroduces_singularities():
    # the uncorrected family is the integrated OPE: the correction is what
    # cancels its log(r) and r^-2 terms in the deformed insertion
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    e = integrated_ope(th, "e", "e")
    assert e.terms.get((0, 1)) == FormalVector.corr("e", value=-3)
    assert e.terms.get((-2, 0)) == FormalVector.corr("1", value=Fraction(5, 2))
    corrected = insert_family_deformed(th, "e").coefficient(("g[e]",))
    assert corrected == e + compute_correction(th, "e", "e")


def test_deformed_one_point_structure():
    # Matches <O_e> + g (log R * C <O_e> - K/(2R^2) <1>) exactly
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    jet = deformed_one_point(th, "e")
    assert jet.coefficient(()) == FormalVector.corr("e")
    first = jet.coefficient(("g[e]",))
    want = FormalVector.corr("e", value=3 * LOG_R) + FormalVector.corr(
        "1", value=LogPoly.monomial(Fraction(-5, 2), R=-2)
    )
    assert first == want


def test_deformed_one_point_r_cancellation_general():
    # the r^{2(s-1)} counterterm cancels the integral's r-term, leaving
    # R^{2(s-1)}/(2(s-1)) exactly
    th = FormalTheory(
        [("1", 0, 0), ("e", 1, 1), ("phi", 2, 2)],
        [("e", "e", "phi", (), (), Fraction(4))],
    )
    jet = deformed_one_point(th, "e")
    first = jet.coefficient(("g[e]",))
    assert first == FormalVector.corr("phi", value=LogPoly.monomial(2, R=2))


# ------------------------------------------------------------------ dilation


def test_dilate_family_log_shift():
    th = simple_theory()
    e = RExpansion({(0, 1): FormalVector.corr("e")})
    d = _dilate(th, e, 0)
    # log(lam r) <O_e>_{D_{lam r}} = lam^{-2} (log lam + log r) <O_e>_{D_r}
    assert d.terms.get((0, 1)) == FormalVector.corr("e", value=LogPoly.monomial(lam=-2))
    assert d.terms.get((0, 0)) == FormalVector.corr(
        "e", value=LogPoly.monomial(lam=-2, log_lam=1)
    )


def test_anomalous_dilation_simple():
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    lhs, rhs = anomalous_dilation(th, "e")
    assert lhs == rhs


def test_anomalous_dilation_no_log_when_c_zero():
    th = simple_theory(C0=0, K0=Fraction(5))
    lhs, rhs = anomalous_dilation(th, "e")
    assert lhs == rhs
    # rhs has no log(lam): exactly marginal
    tilde = Jet(rhs.algebra, dict(rhs.terms))
    assert lhs == tilde


def _random_theory(rng, n):
    labels = [f"m{i}" for i in range(n)]
    primaries = [("1", 0, 0)] + [(l, 1, 1) for l in labels] + [("phi", 2, 1)]
    rows = []
    for a in labels:
        for b in labels:
            for c in labels:
                if rng.random() < 0.6:
                    rows.append((a, b, c, (), (), Fraction(rng.randint(-4, 4))))
            if rng.random() < 0.6:
                rows.append((a, b, "1", (), (), Fraction(rng.randint(-4, 4), 2)))
            if rng.random() < 0.4:
                rows.append((a, b, "1", (1,), (1,), Fraction(rng.randint(-3, 3))))
            if rng.random() < 0.4:
                rows.append((a, b, "phi", (), (1,), Fraction(rng.randint(-3, 3))))
            if rng.random() < 0.4:
                rows.append((a, b, "phi", (1, 1), (2, 2), Fraction(rng.randint(-3, 3))))
    mixing = {("1", l): Fraction(rng.randint(-2, 2)) for l in labels if rng.random() < 0.5}
    return FormalTheory(primaries, rows, mixing)


def test_anomalous_dilation_randomized():
    rng = random.Random(11)
    for _ in range(20):
        th = _random_theory(rng, rng.randint(1, 3))
        for b in th.marginals:
            lhs, rhs = anomalous_dilation(th, b)
            assert lhs == rhs


# ---------------------------------------------------------- double deformation


def test_double_deform_structure():
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    pf = double_deform(th)
    assert pf.coefficient(()) == FormalVector({("disk",): 1})
    assert pf.coefficient(("gc[e]",)) == FormalVector({("int", "e"): 1})
    second = pf.coefficient(("gc[e]", "gc[e]"))
    # (1/2) { log(R) C I_e - (K/2) A_1 + REG }
    assert second.terms[("int", "e")] == Fraction(3, 2) * LOG_R
    assert second.terms[("int0", "1")] == Fraction(-5, 4)
    assert second.terms[("reg", "e", "e")] == Fraction(1, 2)


def test_double_deform_asymmetric_fails():
    th = FormalTheory(
        [("1", 0, 0), ("x", 1, 1), ("y", 1, 1)],
        [("x", "y", "x", (), (), Fraction(1)), ("y", "x", "x", (), (), Fraction(2))],
    )
    with pytest.raises(RecombinationError):
        double_deform(th)


def _one_row_theory():
    """Two marginals and one row, (m, n -> m): C_mn^m = 1, C_nm = 0."""
    return FormalTheory(
        [("1", 0, 0), ("m", 1, 1), ("n", 1, 1)], [("m", "n", "m", (), (), Fraction(1))]
    )


def _reordered_theory():
    """A mirrored two-marginal theory whose (f, e) rows are the (e, f) rows
    in reverse order: equal C and K, unequal row lists."""
    new = [("e", "f", "e", (), (), 3), ("e", "f", "1", (), (), 5), ("e", "f", "f", (), (), -2)]
    rows = new + [("f", "e", *row[2:]) for row in reversed(new)]
    return FormalTheory([("1", 0, 0), ("e", 1, 1), ("f", 1, 1)], rows)


def _assert_records_match_reference(th):
    for a in th.marginals:
        for b in th.marginals:
            record = th._pair(a, b)
            C = {g: Fraction(n, th.den * th.mixing_den) for g, n in record.C.items()}
            assert C == ref_effective_C(th, a, b)
            assert {c: Fraction(n, th.den) for c, n in record.K.items()} == ref_K(th, a, b)


def test_mirrored_pairs_share_one_record():
    th = FormalTheory(*_formal_rows(random.Random(6), 6))
    for a in th.marginals:
        for b in th.marginals:
            if a != b:
                assert th._pair(a, b) is th._pair(b, a)
    _assert_records_match_reference(th)
    # equal records, so double_deform meets its symmetry check on one object
    double_deform(th)


def test_unequal_row_lists_keep_two_records():
    one_row, reordered = _one_row_theory(), _reordered_theory()
    assert one_row._pair("m", "n") is not one_row._pair("n", "m")
    assert reordered._pair("e", "f") is not reordered._pair("f", "e")
    for th in (one_row, reordered):
        _assert_records_match_reference(th)
        _assert_sides_handed_over(th)
    # the reordered twins agree in C and K, so they still have a g_c form
    assert reordered._pair("e", "f").C == reordered._pair("f", "e").C
    double_deform(reordered)
    got, want = beta(reordered), _ref_beta(reordered)
    _same(got.coefficients, want.coefficients)
    for builder in (double_deform, beta):
        with pytest.raises(RecombinationError, match=r"bilinear part not symmetric in \(m, n\)"):
            builder(one_row)


@pytest.mark.parametrize("builder", [double_deform, beta])
def test_index_valued_rows_have_no_gc_form(builder):
    # each (a, b) writes 0.1 (i + 1) into marginals[i:] by the index i of a,
    # so C_{m0 m1} != C_{m1 m0}: neither builder may return
    marginals = ["m0", "m1", "m2"]
    rows = [
        (a, b, c, (), (), 0.1 * (i + 1))
        for i, a in enumerate(marginals)
        for b in marginals
        for c in marginals[i:]
    ]
    th = FormalTheory([("1", 0, 0)] + [(m, 1, 1) for m in marginals], rows)
    with pytest.raises(RecombinationError, match=r"bilinear part not symmetric in \(m0, m1\)"):
        builder(th)


def test_radius_scaling_anomaly():
    # pf(lam R) - pf(R) = log(lam) (1/2) gc gc C I_gamma
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    pf = double_deform(th)
    scaled = radius_scaled(th, pf)
    diff = scaled - pf
    expect = Jet(
        pf.algebra,
        {
            ("gc[e]", "gc[e]"): FormalVector({("int", "e"): Fraction(3, 2) * LOG_LAM})
        },
    )
    assert diff == expect


# ---------------------------------------------------------------------- beta


def test_beta_single_marginal():
    c0 = Fraction(3)
    th = simple_theory(C0=c0, K0=Fraction(5))
    res = beta(th)
    b = res.coefficients["e"]
    assert b.coefficient(("gc[e]", "gc[e]")) == c0 / 2
    run = res.running()["e"]
    assert run.coefficient(("gc[e]",)) == 1
    assert run.coefficient(("gc[e]", "gc[e]")) == Fraction(3, 2) * LOG_LAM


def test_beta_zero():
    th = simple_theory(C0=0, K0=Fraction(1))
    assert beta(th).is_zero()


# --------------------------------------------------------- free boson backend


def test_fb_theory_constants():
    space = build_space(4)
    th = fb_theory(space)
    assert ref_K(th, "jjbar", "jjbar") == {"1": 1}
    assert ref_effective_C(th, "jjbar", "jjbar") == {}
    dv = compute_correction(th, "jjbar", "jjbar")
    assert dv.terms.get((0, 1)) is None
    assert dv.terms.get((-2, 0)) == FormalVector.corr("1", value=Fraction(-1, 2))
    assert beta(th).is_zero()


FB_JETS = JetAlgebra(["g[jjbar]"], 1)


def _basis_jets(space):
    """Every basis state as a jet, alone and with a g part."""
    for i in range(space.dim):
        e = BoundaryState(space, {i: Fraction(1)})
        g = BoundaryState(space, {space.dim - 1 - i: Fraction(3), 0: Fraction(-1, 2)})
        yield const(FB_JETS, e)
        yield Jet(FB_JETS, {(): e, ("g[jjbar]",): g})


def test_fb_deformed_annulus_cutting():
    # A(R, m) glued onto A(m, r) is A(R, r), on state jets at integer and
    # non-integer radii
    space = build_space(4)
    radii = [(4, 2, 1), (Fraction(7, 2), Fraction(5, 3), 1), (Fraction(7, 2), 2, Fraction(5, 3))]
    for R, m, r in radii:
        for w in _basis_jets(space):
            glued = fb_deformed_annulus(space, R, m, fb_deformed_annulus(space, m, r, w))
            assert glued == fb_deformed_annulus(space, R, r, w), (R, m, r, w)


def test_fb_deformed_disk_closure():
    space = build_space(4)
    for R, r in [(3, 1), (4, 2), (Fraction(7, 2), Fraction(5, 3))]:
        glued = fb_deformed_annulus(space, R, r, fb_deformed_disk(space))
        assert glued == fb_deformed_disk(space), (R, r)


def test_fb_deformed_disk_radius_independent():
    # the disk takes no radius; its g term is sum_k j_{-k} jbar_{-k}|0>/(2k)
    space = build_space(6)
    w = fb_deformed_disk(space).coefficient(("g[jjbar]",))
    for k in (1, 2, 3):
        assert w[space.index_of(2 * k, (k,), (k,))] == Fraction(1, 2 * k)


def test_fb_deformed_annulus_rejects_bad_radii():
    # the annulus's own radius check, made before r/R is formed
    space = build_space(2)
    w = fb_deformed_disk(space)
    for R, r in [(1, 2), (2, 2), (-1, -2), (1, 0), (0, 0), (Fraction(1, 2), Fraction(2, 3))]:
        with pytest.raises(GeometryError, match="annulus radii must satisfy R > r > 0"):
            fb_deformed_annulus(space, R, r, w)


def test_fb_deformed_annulus_g_zero_is_undeformed():
    # at g = 0 the annulus scales a state by (r/R)^level
    space = build_space(4)
    for w in _basis_jets(space):
        (i, c), = w.coefficient(()).terms.items()
        out = fb_deformed_annulus(space, 2, 1, w).coefficient(())
        assert out == BoundaryState(space, {i: Fraction(1, 2) ** space.levels[i] * c})


# ------------------------------------------------ single-pass builders vs oracle
# Test-only copies of the formal builders as first written: every result grows
# by `+` over the immutable value types, C_{alpha beta}^gamma scans the whole
# mixing matrix, and the dimensions are the primaries' Fractions.


def _ref_exponents(th, c, mu, mubar):
    h, hbar = ref_dims(th)[c]
    return h + sum(mu), hbar + sum(mubar)


def _ref_correction(th, alpha, beta_):
    exp = RExpansion()
    for gamma, val in ref_effective_C(th, alpha, beta_).items():
        exp = exp + RExpansion({(0, 1): FormalVector.corr(gamma, value=val)})
    for (c, mu, mubar, val) in rows_for(th, alpha, beta_):
        s, sbar = _ref_exponents(th, c, mu, mubar)
        if s != sbar or s == 1:
            continue
        coeff = Fraction(val) / (2 * (s - 1))
        exp = exp + RExpansion({(2 * (s - 1), 0): FormalVector.corr(c, mu, mubar, value=coeff)})
    return exp


def _ref_integrated_ope(th, alpha, beta_):
    exp = RExpansion()
    for gamma, val in ref_effective_C(th, alpha, beta_).items():
        exp = exp + RExpansion({(0, 0): FormalVector.corr(gamma, value=val * LOG_R)})
        exp = exp + RExpansion({(0, 1): FormalVector.corr(gamma, value=-val)})
    for (c, mu, mubar, val) in rows_for(th, alpha, beta_):
        s, sbar = _ref_exponents(th, c, mu, mubar)
        if s != sbar or s == 1:
            continue
        denom = 2 * (s - 1)
        value = LogPoly.monomial(val / denom, R=denom)
        exp = exp + RExpansion({(0, 0): FormalVector.corr(c, mu, mubar, value=value)})
        exp = exp + RExpansion({(denom, 0): FormalVector.corr(c, mu, mubar, value=-val / denom)})
    return exp


def _times(p, x):
    """x with each scalar in it multiplied by the LogPoly p, through the
    tests' reference product."""
    if isinstance(x, (int, Fraction)):
        return x * p
    if isinstance(x, LogPoly):
        return logpoly_product(p, x)
    return x.map_coeffs(lambda v: _times(p, v))


def _ref_dilate(th, expansion):
    dims, out = ref_dims(th), RExpansion()
    for (p, q), vec in expansion.terms.items():
        scaled = FormalVector(
            {
                key: logpoly_product(
                    val, LogPoly.monomial(lam=-(sum(dims[key[1]]) + sum(key[2]) + sum(key[3])))
                )
                for key, val in vec.terms.items()
            }
        )
        for j in range(q + 1):
            factor = LogPoly.monomial(comb(q, j), lam=p, log_lam=q - j)
            out = out + RExpansion({(p, j): _times(factor, scaled)})
    return out


def _ref_anomalous_dilation(th, beta_):
    alg = marginal_coupling_algebra(th)
    tilde = Jet(alg, {(): RExpansion({(0, 0): FormalVector.corr(beta_)})})
    for alpha in th.marginals:
        dv = _ref_correction(th, alpha, beta_)
        if not dv.is_zero():
            tilde = tilde + Jet(alg, {(f"g[{alpha}]",): dv})
    lhs = tilde.map_coeffs(lambda e: _times(LogPoly.monomial(lam=2), _ref_dilate(th, e)))
    rhs = tilde
    for alpha in th.marginals:
        for gamma, val in ref_effective_C(th, alpha, beta_).items():
            extra = RExpansion({(0, 0): FormalVector.corr(gamma, value=val * LOG_LAM)})
            rhs = rhs + Jet(alg, {(f"g[{alpha}]",): extra})
    return lhs, rhs


def _ref_double_deform(th):
    labels = th.marginals
    coeffs = {(): FormalVector({("disk",): 1})}
    for m in labels:
        coeffs[(f"g[{m}]",)] = FormalVector({("int", m): 1})
        coeffs[(f"gt[{m}]",)] = FormalVector({("int", m): 1})
    for alpha in labels:
        for beta_ in labels:
            vec = FormalVector()
            for gamma, val in ref_effective_C(th, alpha, beta_).items():
                vec = vec + FormalVector({("int", gamma): val * LOG_R})
            for a, val in ref_K(th, alpha, beta_).items():
                vec = vec + FormalVector({("int0", a): -Fraction(val) / 2})
            if rows_for(th, alpha, beta_):
                vec = vec + FormalVector({("reg",) + tuple(sorted((alpha, beta_))): 1})
            if not vec.is_zero():
                coeffs[tuple(sorted((f"gt[{beta_}]", f"g[{alpha}]")))] = vec
    return recombine(coeffs, labels=labels)


def _ref_beta(th):
    labels = th.marginals
    alg = JetAlgebra.combined_coupling(labels)
    per_gamma = {gamma: Jet(alg, {}) for gamma in labels}
    for alpha in labels:
        for b_ in labels:
            for gamma, val in ref_effective_C(th, alpha, b_).items():
                mono = tuple(sorted((f"gc[{alpha}]", f"gc[{b_}]")))
                per_gamma[gamma] = per_gamma[gamma] + Jet(alg, {mono: Fraction(val) / 2})
    return BetaResult(alg, per_gamma)


_HOSTILE_PRIMARIES = [
    ("1", 0, 0),
    ("z", 0, 0),
    ("half", Fraction(1, 2), Fraction(1, 2)),  # s = 1/2: r^{-1} from a Fraction exponent
    ("qtr", Fraction(1, 4), Fraction(1, 4)),  # s = 1/4: r^{-3/2}
    ("phi", 2, 2),
    ("sp", 2, 1),
]
# every (c, mu, mubar) below is a valid target; m0 is always a marginal
_HOSTILE_CHANNELS = [
    ("1", (), ()),  # K: the r^{-2} counterterm
    ("z", (), ()),
    ("1", (1,), (1,)),  # mixing channels
    ("z", (1,), (1,)),
    ("1", (1,), ()),  # spin row, dropped by the builders
    ("sp", (), ()),  # spin row
    ("sp", (), (1,)),  # s = sbar = 2
    ("1", (2, 1), (2, 1)),
    ("1", (2, 1), (3,)),
    ("half", (), ()),
    ("half", (1,), (1,)),
    ("qtr", (), ()),
    ("qtr", (2, 1), (1, 1, 1)),
    ("phi", (), ()),
    ("m0", (1,), (1,)),
]


@st.composite
def _hostile_theories(draw):
    """1-4 marginals; repeated rows in one pair, some cancelling to zero;
    mixing, spin rows, Fraction dimensions and (2, 1) descendants.  Row and
    mixing values have small, coprime (7) and large (2**61 - 1) denominators
    or are decoded floats (2**k denominators), so the builders' common
    denominators are rarely 1; mixing values may also be ints.  Rows are
    mirrored in (a, b) with sign +1 (symmetric), -1 (antisymmetric) or not
    at all; double_deform and beta raise on the last two unless their
    bilinear part happens to be symmetric."""
    labels = [f"m{i}" for i in range(draw(st.integers(1, 4)))]
    channels = [(m, (), ()) for m in labels] + _HOSTILE_CHANNELS
    value = st.one_of(
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7, 2**61 - 1])),
        st.sampled_from([0.1, -0.3, 2.5, 1e-3]).map(Fraction),
    )
    mirror = draw(st.sampled_from([1, -1, None]))
    rows = []
    for ia, a in enumerate(labels):
        for b in labels[ia if mirror else 0:]:
            new = []
            for _ in range(draw(st.integers(0, 5))):
                (c, mu, mubar), v = draw(st.sampled_from(channels)), draw(value)
                new.append((a, b, c, mu, mubar, v))
                twin = draw(st.sampled_from([None, 1, -1]))  # a repeat, or its cancellation
                if twin:
                    new.append((a, b, c, mu, mubar, twin * v))
            rows.extend(new)
            if mirror and a != b:
                rows.extend((b, a, *row[2:5], mirror * row[5]) for row in new)
    mixing = {
        (src, m): draw(st.one_of(st.integers(-2, 2), value))
        for src in ("1", "z")
        for m in labels
        if draw(st.booleans())
    }
    primaries = _HOSTILE_PRIMARIES + [(m, 1, 1) for m in labels]
    return FormalTheory(primaries, rows, mixing)


def _same(got, want):
    # _typed: the repr, and how many exact scalars are ints and Fractions
    assert got == want
    assert _typed(got) == _typed(want)


def _checked_beta(th):
    """beta(th) checked against the references: it raises exactly where the
    reference double deformation finds no g_c form (then None is returned),
    and otherwise equals the reference beta."""
    try:
        _ref_double_deform(th)
    except RecombinationError:
        with pytest.raises(RecombinationError):
            beta(th)
        return None
    got, want = beta(th), _ref_beta(th)
    _same(got.coefficients, want.coefficients)
    _same(got.running(), want.running())
    return got


@settings(max_examples=100, deadline=None)
@given(_hostile_theories())
def test_single_pass_builders_match_reference(th):
    for a in th.marginals:
        for b in th.marginals:
            dv = compute_correction(th, a, b)
            _same(dv, _ref_correction(th, a, b))
            io = integrated_ope(th, a, b)
            _same(io, _ref_integrated_ope(th, a, b))
            _same(_dilate(th, dv, 0), _ref_dilate(th, dv))
            _same(_dilate(th, io, 0), _ref_dilate(th, io))
    for b in th.marginals:
        got, want = anomalous_dilation(th, b), _ref_anomalous_dilation(th, b)
        _same(got[0], want[0])
        _same(got[1], want[1])
    try:
        want = _ref_double_deform(th)
    except RecombinationError:
        with pytest.raises(RecombinationError):
            double_deform(th)
    else:
        _same(double_deform(th), want)
    _checked_beta(th)


def _general_dilate(th, expansion):
    """Dil_lambda by the general rule, term by term: every coefficient times
    comb(q, j), every key shifted by lam^{p - D} (log lam)^{q - j}."""
    dims, terms = ref_dims(th), {}
    for (p, q), vec in expansion.terms.items():
        for key, val in vec.terms.items():
            lam = p - (sum(dims[key[1]]) + sum(key[2]) + sum(key[3]))
            for j in range(q + 1):
                out = terms.setdefault((p, j), {}).setdefault(key, {})
                for (a, b, i, k), c in val.terms.items():
                    key2 = (a, canonical_rational(b + lam), i, k + q - j)
                    out[key2] = out.get(key2, 0) + c * comb(q, j)
    return RExpansion(
        {pq: FormalVector({k: LogPoly(t) for k, t in vec.items()}) for pq, vec in terms.items()}
    )


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from([-2, -1, 0, 1, Fraction(-3, 2)]), st.integers(0, 4)),
        st.dictionaries(
            st.sampled_from([("1", (), ()), ("half", (), ()), ("phi", (1,), (1,)), ("m0", (), ())]),
            st.dictionaries(
                st.tuples(
                    st.sampled_from([0, 1, Fraction(1, 2)]),
                    st.sampled_from([0, -2, Fraction(1, 3)]),
                    st.integers(0, 2),
                    st.integers(0, 2),
                ),
                st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2])),
                max_size=3,
            ),
            max_size=3,
        ),
        max_size=4,
    )
)
@example(  # r^0 <1> stays put and meets the log(lam) part of the log(r) row
    {(0, 0): {("1", (), ()): {(0, 0, 0, 1): Fraction(-1)}}, (0, 1): {("1", (), ()): {(0, 0, 0, 0): 1}}}
)
@example(  # a reused row met by a log(r)^2 row that brings a shifted symbol along
    {
        (0, 0): {("1", (), ()): {(0, 0, 0, 0): 2}},
        (0, 2): {("1", (), ()): {(0, 0, 0, 0): 3}, ("half", (), ()): {(0, -2, 0, 1): 1}},
    }
)
def test_dilation_with_log_powers_matches_general_rule(raw):
    # (log r)^q up to 4, so comb(q, j) > 1 multiplies coefficients; the rest
    # of the terms are pure exponent shifts.  A row at j = q that nothing
    # shifts is passed through, so the input must come out as it went in
    th = FormalTheory(_HOSTILE_PRIMARIES + [("m0", 1, 1)], [])
    expansion = RExpansion(
        {
            pq: FormalVector({("corr", *label): LogPoly(t) for label, t in vec.items()})
            for pq, vec in raw.items()
        }
    )
    before = _typed(expansion)
    _same(_dilate(th, expansion, 0), _general_dilate(th, expansion))
    assert _typed(expansion) == before


def test_dilate_reuses_unshifted_rows_and_sums_where_they_meet():
    # at weight 0, r^0 <1>_{D_r} does not move: its row is the input's own
    # vector.  The log(lam) <1> part of a log(r) row meets it at (0, 0):
    # the sum is a new vector, and where it cancels the row drops
    th = FormalTheory(_HOSTILE_PRIMARIES + [("m0", 1, 1)], [])
    one = ("corr", "1", (), ())
    still = FormalVector({one: -LOG_LAM})
    assert _dilate(th, RExpansion({(0, 0): still}), 0).terms[0, 0] is still
    for c, want in ((1, None), (2, FormalVector({one: LOG_LAM}))):
        log_row = FormalVector({one: c})
        expansion = RExpansion({(0, 0): still, (0, 1): log_row})
        got = _dilate(th, expansion, 0)
        assert got.terms.get((0, 0)) == want
        assert got.terms.get((0, 1)) is log_row
        assert still == FormalVector({one: -LOG_LAM}) and log_row == FormalVector({one: c})
        _same(got, _general_dilate(th, expansion))


def test_dilate_memo_tells_apart_the_shifts_of_one_value(monkeypatch):
    # the corrections hand _dilate one LogPoly object in many rows, and its
    # per-theory memo keys each shifted value by the value's identity, the
    # lam shift, the log(lam) power and comb(q, j).  Here one object sits at
    # three powers p, under symbols of dimension 0, 1, 2 and 4, and in rows
    # up to q = 2 whose comb(2, 1) = 2 meets the q = 1 row's 1 at one
    # (lam, dj).  A key that drops lam, dj or the binomial gives some term
    # another's shift
    th = FormalTheory(_HOSTILE_PRIMARIES + [("m0", 1, 1)], [])
    x = LogPoly({(0, 1, 0, 0): Fraction(2), (1, Fraction(-1, 2), 1, 0): Fraction(-3)})
    keys = {c: ("corr", c, (), ()) for c in ("1", "half", "m0", "phi")}
    expansion = RExpansion._of(
        {
            (0, 0): FormalVector._of({keys["1"]: x, keys["phi"]: x}),
            (1, 0): FormalVector._of({keys["1"]: x, keys["half"]: x}),
            (-2, 1): FormalVector._of({keys["half"]: x, keys["m0"]: x}),
            (-2, 2): FormalVector._of({keys["half"]: x, keys["phi"]: x}),
        }
    )
    want = _general_dilate(th, expansion)
    built, shift = [], fqft.deformation._shift

    def counted(*args):
        built.append(args)
        return shift(*args)

    monkeypatch.setattr(fqft.deformation, "_shift", counted)
    assert th._shifted == {}
    _same(_dilate(th, expansion, 0), want)  # cold: each shifted value built
    assert len(built) == len(th._shifted) > 0
    _same(_dilate(th, expansion, 0), want)  # warm: each read from the memo
    assert len(built) == len(th._shifted)
    # every entry pins the value its key names, so no id in a key is reused
    assert all(key[0] == id(val) for key, (val, _) in th._shifted.items())


def _walk(x):
    """x and everything inside it: the values of dicts, jets, expansions,
    formal vectors and LogPolys, down to their scalars."""
    yield x
    for v in (x if isinstance(x, dict) else getattr(x, "terms", {})).values():
        yield from _walk(v)


def _canonical(x):
    """A rational exponent stored as the builders must: an int when integral."""
    return type(x) is int or type(x) is Fraction and x.denominator > 1


@settings(max_examples=60, deadline=None)
@given(_hostile_theories())
def test_trusted_constructors_store_no_zeros(th):
    # the builders wrap their dicts unchecked: no level of any output may
    # store a zero, and every key must be one the checked constructors keep
    outputs = []
    for a in th.marginals:
        for b in th.marginals:
            outputs += [compute_correction(th, a, b), integrated_ope(th, a, b)]
        outputs += anomalous_dilation(th, a)
    with contextlib.suppress(RecombinationError):
        outputs.append(double_deform(th))
    res = _checked_beta(th)
    if res is not None:
        outputs += [res.coefficients, res.running()]
    for x in (x for out in outputs for x in _walk(out)):
        if isinstance(x, (Jet, RExpansion, FormalVector, LogPoly)):
            for v in x.terms.values():
                assert v != 0 if isinstance(v, (int, Fraction)) else v.terms, x
        if isinstance(x, RExpansion):
            assert all(_canonical(p) and type(q) is int for p, q in x.terms), x
        if isinstance(x, LogPoly):
            assert all(_canonical(a) and _canonical(b) for a, b, _, _ in x.terms), x
        if isinstance(x, Jet):
            assert all(m == tuple(sorted(m)) and x.algebra.monomial_ok(m) for m in x.terms), x


@settings(max_examples=40, deadline=None)
@given(_hostile_theories())
def test_shared_values_are_never_mutated(th):
    # the builders hand out one LogPoly per value per theory, and _dilate
    # passes unshifted rows through: whatever runs after them on the same
    # theory, or computes with their outputs, must leave those outputs as
    # they were
    outputs = []
    with contextlib.suppress(RecombinationError):
        outputs.append(double_deform(th))
    for b in th.marginals:
        outputs += anomalous_dilation(th, b)
    res = _checked_beta(th)
    betas = [] if res is None else [res.coefficients, res.running()]
    before = _typed(outputs + betas)
    derived = []
    for a in th.marginals:
        for b in th.marginals:
            dv, io = compute_correction(th, a, b), integrated_ope(th, a, b)
            sums = [dv + io, dv - io, _times(LOG_R, io), dv.map_coeffs(lambda v: -v)]
            derived += [_dilate(th, x, 2) for x in sums] + [_dilate(th, io, 0)]
        derived += [insert_family_deformed(th, a)]
        derived += [deformed_one_point(th, a).scale(Fraction(-3, 7))]
    for x in outputs:
        if x.algebra.order == 2:  # the double deformation
            derived.append(radius_scaled(th, x) - x)
        derived += [x + x, x - x, _times(LOG_LAM, x), x.scale(Fraction(2, 3))]
        derived.append(_times(LOG_R, x))
        for e in x.terms.values():
            if isinstance(e, RExpansion):
                derived += [_dilate(th, e, 0), _times(LOG_LAM, e), e + e]
    for jets in betas:
        for jet in jets.values():
            derived += [jet_mul(jet, jet), jet + jet, jet - jet, jet.scale(Fraction(5, 2))]
            derived.append(_times(LOG_LAM, jet))
    assert _typed(outputs + betas) == before


def _rebuilt(th):
    """A new theory from th's primaries, rows and mixing: no record read."""
    rows = [(a, b, *row) for (a, b), pair_rows in th.rows.items() for row in pair_rows]
    return FormalTheory(th.primaries, rows, th.mixing)


def _assert_sides_handed_over(th):
    # one fresh theory per marginal: no record there ever keeps sides
    fresh = {b: _typed(anomalous_dilation(_rebuilt(th), b)) for b in th.marginals}
    # a repeated read for one beta is not its twin's, and leaves the sides kept
    for order in (th.marginals, th.marginals[::-1], th.marginals[:1] + th.marginals):
        shared = _rebuilt(th)
        for b in order:
            assert _typed(anomalous_dilation(shared, b)) == fresh[b]
        assert all(record.sides is None for record in shared._pairs.values())


@settings(max_examples=60, deadline=None)
@given(_hostile_theories())
def test_dilation_sides_handed_to_the_twin_match_fresh_theories(th):
    _assert_sides_handed_over(th)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dilation_sides_handed_over_on_mirrored_theories(n):
    th = FormalTheory(*_formal_rows(random.Random(n), n))
    _assert_sides_handed_over(th)
    # the first read of a twin record keeps its sides until the twin's read
    anomalous_dilation(th, "m0")
    held = {key for key, record in th._pairs.items() if record.sides is not None}
    assert held == {key for a in th.marginals[1:] for key in ((a, "m0"), ("m0", a))}
    anomalous_dilation(th, "m1")
    assert ("m0", "m1") not in {k for k, r in th._pairs.items() if r.sides is not None}


def _with_correction(monkeypatch, change):
    """Let anomalous_dilation read compute_correction's output through change,
    for every pair."""
    original = fqft.deformation.compute_correction

    def patched(th, a, b):
        return change(original(th, a, b))

    monkeypatch.setattr(fqft.deformation, "compute_correction", patched)


@pytest.mark.parametrize("p", [-2, 2])  # the K counterterm (s = 0) and phi (s = 2)
def test_dilation_identity_bites_on_a_wrong_correction(monkeypatch, p):
    # the left side must come from dilating the correction, term by term: a
    # term moved off its r^{2(s-1)}, or a missing log(r) channel, breaks it
    th = FormalTheory(
        [("1", 0, 0), ("e", 1, 1), ("phi", 2, 2)],
        [("e", "e", "e", (), (), 3), ("e", "e", "1", (), (), 5), ("e", "e", "phi", (), (), 7)],
    )

    def unchanged(dv):
        return dv

    def doubled(dv):
        return dv + RExpansion({(p, 0): dv.terms.get((p, 0))})

    def moved(dv):  # r^{2(s-1)} -> r^{4(s-1)}
        term = dv.terms.get((p, 0))
        return dv - RExpansion({(p, 0): term}) + RExpansion({(2 * p, 0): term})

    def no_log(dv):
        return dv - RExpansion({(0, 1): dv.terms.get((0, 1))})

    def constant(dv):  # a (0, 0) row, which compute_correction never writes
        return dv + RExpansion({(0, 0): dv.terms.get((0, 1))})

    # lam^2 Dil_lam scales r^{2(s-1)} <O>_{D_r} by lam^{2 + 2(s-1) - 2s} = 1,
    # so the identity holds whatever that term's coefficient
    for change, holds in (
        (unchanged, True), (doubled, True), (moved, False), (no_log, False), (constant, False)
    ):
        _with_correction(monkeypatch, change)
        lhs, rhs = anomalous_dilation(th, "e")
        assert (lhs == rhs) == holds, change.__name__
        monkeypatch.undo()
    # a mirrored pair shares one record, and the first of its two reads hands
    # its sides to the other: a fault in the shared record's correction, on
    # both orders, must break the identity on both reads, in either order
    new = [("e", "f", "e", (), (), 3), ("e", "f", "1", (), (), 5), ("e", "f", "phi", (), (), 7)]
    rows = new + [("f", "e", *row[2:]) for row in new]
    for change, holds in (
        (unchanged, True), (doubled, True), (moved, False), (no_log, False), (constant, False)
    ):
        for order in (("e", "f"), ("f", "e")):
            th = FormalTheory([("1", 0, 0), ("e", 1, 1), ("f", 1, 1), ("phi", 2, 2)], rows)
            assert th._pair("e", "f") is th._pair("f", "e")
            _with_correction(monkeypatch, change)
            # anomalous_dilation(th, "f") reads (e, f), and "e" reads (f, e)
            got = {b: anomalous_dilation(th, b) for b in order}
            for b in order:
                assert (got[b][0] == got[b][1]) == holds, (change.__name__, order, b)
            assert th._pair("e", "f").sides is None
            monkeypatch.undo()


@pytest.mark.parametrize("n", [2, 5, 11, "hostile"])
def test_dilation_sweep_computes_one_correction_per_record(monkeypatch, n):
    # on a mirrored theory every off-diagonal pair shares its twin's record,
    # and the twin's read takes the sides: a sweep over every marginal
    # computes n diagonal corrections and one per unordered pair.  The
    # hostile theory lists each pair's rows in opposite orders, so no pair
    # shares a record, and a sweep computes one per ordered pair
    if n == "hostile":
        th = theory_from_json((Path(__file__).parent / "theories" / "hostile.json").read_text())
        want = len(th.marginals) ** 2
    else:
        th = FormalTheory(*_formal_rows(random.Random(n), n))
        want = n * (n + 1) // 2
    original, calls = fqft.deformation.compute_correction, []

    def counted(th, a, b):
        calls.append((a, b))
        return original(th, a, b)

    monkeypatch.setattr(fqft.deformation, "compute_correction", counted)
    for b in th.marginals:
        anomalous_dilation(th, b)
    assert len(calls) == want > 1
    assert {frozenset(pair) for pair in calls} == {
        frozenset((a, b)) for a in th.marginals for b in th.marginals
    }
    assert all(record.sides is None for record in th._pairs.values())


@pytest.mark.parametrize("key", [None, (-2, 0), (0, 1)], ids=["all", "K", "log"])
def test_goodness_sees_the_counterterm_coefficients(monkeypatch, key):
    # the dilation identity cannot see the coefficient of the -K/(2 r^2)
    # counterterm (see above); goodness does: doubling the whole correction,
    # that term alone or the log(r) channel alone leaves a singular term
    th = simple_theory(C0=Fraction(3), K0=Fraction(5))
    deformed_one_point(th, "e")  # good with the correction as computed

    def doubled(dv):
        return dv + (dv if key is None else RExpansion({key: dv.terms.get(key)}))

    _with_correction(monkeypatch, doubled)
    with pytest.raises(ValidationError, match="deformed family is not good"):
        deformed_one_point(th, "e")


# ----------------------------------------------------- pinned formal outputs


def _formal_rows(rng, n_marginals):
    """A copy of the benchmark's random_formal_rows: symmetric random
    marginal-sector data (primaries, rows, mixing), the same number of rows
    for every pair of marginals."""

    def value(limit, denominator=1):
        return Fraction(rng.choice([v for v in range(-limit, limit + 1) if v]), denominator)

    labels = [f"m{i}" for i in range(n_marginals)]
    primaries = [("1", 0, 0)] + [(l, 1, 1) for l in labels] + [("phi", 2, 2)]
    rows = []
    for ia, a in enumerate(labels):
        for b in labels[ia:]:
            targets = rng.sample(labels, (n_marginals + 1) // 2)
            new = [(a, b, c, (), (), value(5)) for c in sorted(targets)]
            new.append((a, b, "1", (), (), value(6, 2)))
            new.append((a, b, "1", (1,), (1,), value(3)))
            new.append((a, b, "phi", (1,), (1,), value(3, 3)))
            rows.extend(new)
            if a != b:
                rows.extend((b, a, c, mu, mubar, v) for (_, _, c, mu, mubar, v) in new)
    mixing = {("1", l): value(2) for l in sorted(rng.sample(labels, (n_marginals + 1) // 2))}
    return primaries, rows, mixing


def _typed(x):
    """repr(x), and how many of the exact scalars inside it are ints and how
    many Fractions: repr prints the two alike, the report codec does not."""
    kinds = Counter(type(v).__name__ for v in _walk(x) if isinstance(v, (int, Fraction)))
    return f"{x!r} {sorted(kinds.items())}"


def _formal_digest(th):
    """SHA-256 over double_deform, both sides of anomalous_dilation for
    every marginal, and beta's coefficients and running couplings."""
    digest = hashlib.sha256(_typed(double_deform(th)).encode())
    for b in th.marginals:
        lhs, rhs = anomalous_dilation(th, b)
        digest.update(f"{b}: {_typed(lhs)} = {_typed(rhs)}".encode())
    res = beta(th)
    digest.update(f"{_typed(res.coefficients)} {_typed(res.running())}".encode())
    return digest.hexdigest()


def _formal_report_digest(capsys, tmp_path, th):
    """SHA-256 of the `fqft beta --backend formal` JSON report."""
    path = tmp_path / "theory.json"
    path.write_text(theory_to_json(th))
    assert main(["beta", "--backend", "formal", "--theory", str(path)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# _formal_digest of the theory _formal_rows(random.Random(n), n) draws, and
# the report digest for n = 11, as the builders of commit 5ec2856 computed
# them (checked constructors throughout), the report moved to schema 6
# (schema_version 6; its keys are otherwise unchanged): the formal outputs
# are pinned byte for byte
FORMAL_DIGESTS = {
    1: "743b98b125d36d64f0761ae9b2f02065309e9d6b649d16060d2486351d4a4b84",
    2: "e711027e24b0e715965af76ce2f390dbba03ce132481069b57d1471806583ede",
    3: "5ad5a86d8698b95e01d8ab3145aa3e6522bb25ebff89b2118b26f4171ad86ebe",
    4: "0df70f63249c4b5a01b756d96aa5fcb2c0325a14f648ab9718cabec5d1fbc919",
    5: "5a7988ef411dec953510447edb86369feafde4f6ae4d7a652ae520abda6e48be",
    6: "54fc92e3fabe2febae44aaa4fafe78c32f76bfab5caa06932b21ea12e30005e7",
    7: "6481820efa0b4d03e2a771373eb1dbe6a7cfce561e5a9971c9288adf278fb5c7",
    8: "d4c149c657152ad23990226f510a1aea9a1ac48005d371d2fcb6697e0b092114",
    9: "9fecebbd37980df1c5ed5803ca25d13f844f0d69d2b06ff47f462ecad9a3d7c0",
    10: "d64e1490f0d1566a2b526cc17da3c74b7986bc79a61887cdccbedc478c44bd68",
    11: "7c38996348a77fc92e3bd8e4d483c224eb8b862c1b491a8b1cdde564493762cb",
}
FORMAL_REPORT_DIGEST = "35110d39ef594da59bbee1921e133df4f43e35bb025f38696260bfc5f6047c4d"


@pytest.mark.parametrize("n", range(1, 12))
def test_formal_outputs_match_pinned_digests(n):
    th = FormalTheory(*_formal_rows(random.Random(n), n))
    assert _formal_digest(th) == FORMAL_DIGESTS[n]


def test_beta_logs_its_marginal_count(caplog):
    th = FormalTheory(*_formal_rows(random.Random(5), 5))
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        beta(th)
    assert caplog.messages == ["beta marginals=5"]


# bytes a formal theory holds once built and swept as the deform workload
# sweeps it (double_deform, anomalous_dilation for every marginal, beta),
# with tracemalloc on Python 3.11: the larger of a standalone run and a run
# inside the suite, which differ by up to 10 %.  Each bound is 1.5 times
# that, room for another interpreter's object sizes; memos that outlive the
# sweep (the kept-sides variant held 2.3 times as much) fail it
SWEPT_THEORY_BYTES = {2: 20_944, 5: 73_592, 11: 244_584}


@pytest.mark.parametrize("n", sorted(SWEPT_THEORY_BYTES))
def test_a_swept_formal_theory_retains_a_pinned_size(n):
    def sweep(th):
        double_deform(th)
        for b in th.marginals:
            anomalous_dilation(th, b)
        beta(th)

    # a first sweep of another theory of the size warms state outside the trace
    sweep(FormalTheory(*_formal_rows(random.Random(n + 100), n)))
    rows = _formal_rows(random.Random(n), n)
    gc.collect()
    tracemalloc.start()
    try:
        th = FormalTheory(*rows)
        sweep(th)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * SWEPT_THEORY_BYTES[n], kept


def test_memos_are_per_theory():
    # the pair records, the Fraction and LogPoly value tables, the symbol
    # dimensions and the shifted values fill on use, per theory: a theory
    # built after another from the same rows starts with none of them, gets
    # the same outputs, and holds none of the first theory's Fractions or
    # LogPolys
    data = _formal_rows(random.Random(5), 5)
    first = FormalTheory(*data)
    want = _formal_digest(first)
    assert first._pairs and first._fractions and first._values and first._dimensions
    assert first._shifted
    second = FormalTheory(*data)
    assert second._pairs == second._fractions == second._values == second._dimensions == {}
    assert second._shifted == {}
    assert _formal_digest(second) == want
    assert second._pairs.keys() == first._pairs.keys()
    assert second._values.keys() == first._values.keys()
    assert len(second._shifted) == len(first._shifted)
    outputs = [double_deform(second), beta(second).coefficients]
    for b in second.marginals:
        outputs += anomalous_dilation(second, b)
    seen = {id(f) for f in first._fractions.values()}
    seen |= {id(v) for v in first._values.values()}
    seen |= {id(x) for entry in first._shifted.values() for x in entry}
    assert not any(id(x) in seen for entry in second._shifted.values() for x in entry)
    assert not any(id(x) in seen for out in outputs for x in _walk(out))
    held = [x for out in outputs for x in _walk(out) if isinstance(x, LogPoly)]
    assert any(id(x) in {id(v) for v in second._values.values()} for x in held)
    # the sides a twin record keeps between its two reads are per record: a
    # third theory's first read keeps them on its own records alone, and
    # after every marginal's read no record of any theory holds them
    third = FormalTheory(*data)
    anomalous_dilation(third, "m0")
    records = [r for th in (first, second, third) for r in th._pairs.values()]
    assert {id(r) for r in third._pairs.values()}.isdisjoint(
        id(r) for th in (first, second) for r in th._pairs.values()
    )
    assert [r for r in records if r.sides is not None] == [
        r for r in third._pairs.values() if r.sides is not None
    ] != []
    for b in third.marginals[1:]:
        anomalous_dilation(third, b)
    assert all(r.sides is None for r in records)


def test_formal_report_matches_pinned_digest(capsys, tmp_path):
    th = FormalTheory(*_formal_rows(random.Random(11), 11))
    assert _formal_report_digest(capsys, tmp_path, th) == FORMAL_REPORT_DIGEST


# ------------------------------------------- dimensions in any representation


def _dims_as(primaries, kind):
    """primaries with each dimension written as kind: "int" (an int when
    integral, else a Fraction), "Fraction", "float" or "str" (as a JSON
    string)."""
    write = {
        "int": canonical_rational,
        "Fraction": Fraction,
        "float": float,
        "str": lambda x: str(Fraction(x)),
    }[kind]
    return [(label, write(h), write(hbar)) for label, h, hbar in primaries]


_DIM_KINDS = ["int", "Fraction", "float", "str"]
# each bad primary list with the whole ValidationError message it raises
_BAD_PRIMARIES = [
    ([("bad", -1, 0)], "primary bad has negative dimension components"),
    ([("bad", 0, Fraction(-1, 2))], "primary bad has negative dimension components"),
    ([("ok", 2, 2), ("bad", Fraction(1, 2), -3)], "primary bad has negative dimension components"),
    ([("spin", 1, 0)], "spin-carrying marginal primary spin is unsupported"),
    ([("spin", 0, 1)], "spin-carrying marginal primary spin is unsupported"),
    # the first bad primary is named, in the primaries' order
    ([("spin", 0, 1), ("bad", -1, -1)], "spin-carrying marginal primary spin is unsupported"),
    ([("bad", -1, -1), ("spin", 1, 0)], "primary bad has negative dimension components"),
    ([("dup", 1, 1), ("dup", -1, 0)], "duplicate primary labels"),
]


@pytest.mark.parametrize("kind", _DIM_KINDS)
@pytest.mark.parametrize("case", range(len(_BAD_PRIMARIES)))
def test_theory_validation_reads_dims_in_any_representation(case, kind):
    primaries, message = _BAD_PRIMARIES[case]
    with pytest.raises(ValidationError) as raised:
        FormalTheory(_dims_as(primaries, kind), [])
    assert str(raised.value) == message


@pytest.mark.parametrize("kind", _DIM_KINDS)
def test_marginals_are_the_dimension_one_one_primaries(kind):
    # (1, 1) alone is marginal: (1, 2), (2, 1) and (1/2, 1) are not
    primaries = [("1", 0, 0), ("a", 1, 2), ("e", 1, 1), ("b", 2, 1), ("c", Fraction(1, 2), 1),
                 ("f", 1, 1)]
    th = FormalTheory(_dims_as(primaries, kind), [])
    assert th.marginals == ["e", "f"]
    assert th.dims == {label: (canonical_rational(h), canonical_rational(hb))
                       for label, h, hb in primaries}
    assert [type(x) for d in th.dims.values() for x in d] == [
        type(canonical_rational(x)) for _, h, hb in primaries for x in (h, hb)
    ]


@pytest.mark.parametrize("n", [1, 3])
def test_formal_outputs_do_not_depend_on_how_dims_are_written(n):
    # ints, Fractions, floats and strings, and the JSON document's strings,
    # give the pinned digest
    primaries, rows, mixing = _formal_rows(random.Random(n), n)
    for kind in _DIM_KINDS:
        th = FormalTheory(_dims_as(primaries, kind), rows, mixing)
        assert _formal_digest(th) == FORMAL_DIGESTS[n], kind
    doc = json.loads(theory_to_json(FormalTheory(primaries, rows, mixing)))
    for write in (str, int, float):  # a JSON string, int or float
        for p in doc["primaries"]:
            p["h"], p["hbar"] = write(Fraction(p["h"])), write(Fraction(p["hbar"]))
        assert _formal_digest(theory_from_json(json.dumps(doc))) == FORMAL_DIGESTS[n], write
