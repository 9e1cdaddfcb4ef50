"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction

import numpy as np

from fqft.deformation import (
    LOG_LAM,
    FormalTheory,
    FormalVector,
    anomalous_dilation,
    beta,
    compute_correction,
    double_deform,
    fb_theory,
    insert_family_deformed,
    radius_scaled,
)
from fqft.fock import build_space
from fqft.geometry import verify_cutting
from fqft.jets import Jet
from fqft.observables import (
    current_observable,
    dilation,
    marginal_observable,
    ope_extract,
)
from fqft.qm import QmTheory, qm_double_deform, taylor_series_oracle
from fqft.rexp import RExpansion
from formal_ref import ref_effective_C, rows_for


def _report(number, name, ok):
    print(f"\nacceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_1_cutting_axiom():
    radii = [Fraction(k) for k in (4, 3, 2, 1)]
    ok = True
    start = time.perf_counter()
    for l_max in (2, 4, 6):
        ok = ok and verify_cutting(build_space(l_max), radii)["exact_zero"]
    ok = ok and (time.perf_counter() - start) < 10.0
    _report(1, "cutting axiom, exact, l_max in {2,4,6}", ok)


def test_acceptance_2_current_current_ope():
    space = build_space(5)
    j = current_observable(space)
    table = ope_extract(space, j, j)
    singular = [
        r
        for r in table.rows
        if (r["exponents"][0] < 0 or r["exponents"][1] < 0) and r["coefficient"] != 0
    ]
    ok = len(singular) == 1
    ok = ok and singular[0]["c"] == "1" and singular[0]["exponents"] == (-2, 0)
    ok = ok and singular[0]["coefficient"] == 1
    # regular rows: z^{n} row is the descendant j_{-n-1} j_{-1} |0>
    rows = {(r["exponents"], r["mu"], r["mubar"]): r["coefficient"] for r in table.rows}
    for n in range(0, space.l_max - 2):
        mu = tuple(sorted((n + 1, 1), reverse=True))
        ok = ok and rows[(n, 0), mu, ()] == 1
    _report(2, "current-current OPE rows", ok)


def test_acceptance_3_marginality():
    space = build_space(4)
    w = space.state((1,), (1,))
    lam = Fraction(7, 3)
    ok = dilation(lam, w) == w.scale(lam**-2)  # dimension exactly 2
    o = marginal_observable(space)
    consts = ope_extract(space, o, o).marginal_constants()
    ok = ok and consts["K"][("jjbar", "jjbar")] == 1
    ok = ok and all(v == 0 for v in consts["C"].values())
    ok = ok and beta(fb_theory(space)).is_zero()
    _report(3, "marginality: Delta=2, K=1, C=0, beta=0", ok)


def _random_formal_theory(rng, n_marginals, symmetric=False):
    """Random structure constants; `symmetric` mirrors every row in (a, b),
    as for the OPE of a commutative product (needed for recombination)."""
    labels = [f"m{i}" for i in range(n_marginals)]
    primaries = [("1", 0, 0)] + [(l, 1, 1) for l in labels] + [("phi", 2, 2)]
    rows = []
    for ia, a in enumerate(labels):
        for ib, b in enumerate(labels):
            if symmetric and ib < ia:
                continue
            new = []
            for c in labels:
                if rng.random() < 0.5:
                    new.append((a, b, c, (), (), Fraction(rng.randint(-5, 5))))
            if rng.random() < 0.6:
                new.append((a, b, "1", (), (), Fraction(rng.randint(-6, 6), 2)))
            if rng.random() < 0.4:
                new.append((a, b, "1", (1,), (1,), Fraction(rng.randint(-3, 3))))
            if rng.random() < 0.4:
                new.append((a, b, "phi", (1,), (1,), Fraction(rng.randint(-3, 3), 3)))
            rows.extend(new)
            if symmetric and a != b:
                rows.extend((b, a, c, mu, mubar, v) for (_, _, c, mu, mubar, v) in new)
    mixing = {
        ("1", l): Fraction(rng.randint(-2, 2)) for l in labels if rng.random() < 0.5
    }
    return FormalTheory(primaries, rows, mixing)


def test_acceptance_4_correction_formula():
    rng = random.Random(41)
    ok = True
    for _ in range(25):
        th = _random_formal_theory(rng, rng.randint(1, 3))
        for a in th.marginals:
            for b in th.marginals:
                # independent structural reconstruction of the correction:
                # log(r) C_{ab}^g <O_g> + sum_{s=sbar!=1} v r^{2(s-1)}/(2(s-1))
                expected = RExpansion()
                for g, val in ref_effective_C(th, a, b).items():
                    expected = expected + RExpansion({(0, 1): FormalVector.corr(g, value=val)})
                for (c, mu, mubar, val) in rows_for(th, a, b):
                    s = th.dims[c][0] + sum(mu)
                    sbar = th.dims[c][1] + sum(mubar)
                    if s != sbar or s == 1:
                        continue
                    value = Fraction(val) / (2 * (s - 1))
                    expected = expected + RExpansion(
                        {(2 * (s - 1), 0): FormalVector.corr(c, mu, mubar, value=value)}
                    )
                got = compute_correction(th, a, b)
                ok = ok and got == expected
            # corrected insertion is good: no r^{p<0} and no log(r) terms,
            # as an exact polynomial identity in the (r, R, log) atoms
            jet = insert_family_deformed(th, b)
            for e in jet.terms.values():
                ok = ok and all(v.is_zero() for v in e.singular_terms().values())
    _report(4, "correction delta-v and goodness of the corrected insertion", ok)


def test_acceptance_5_anomalous_dimension():
    rng = random.Random(53)
    checked = 0
    ok = True
    while checked < 100:
        th = _random_formal_theory(rng, rng.randint(1, 3))
        for b in th.marginals:
            lhs, rhs = anomalous_dilation(th, b)
            ok = ok and lhs == rhs
            checked += 1
    _report(5, f"anomalous dilation identity ({checked} random instances)", ok)


def test_acceptance_6_beta_function():
    start = time.perf_counter()
    rng = random.Random(61)
    ok = True
    for _ in range(5):
        th = _random_formal_theory(rng, 2, symmetric=True)
        # radius dependence: pf(lam R) - pf(R) = log(lam) (1/2) gc gc C I
        pf = double_deform(th)
        diff = radius_scaled(th, pf) - pf
        expect = {}
        for a in th.marginals:
            for b in th.marginals:
                for g, val in ref_effective_C(th, a, b).items():
                    mono = tuple(sorted((f"gc[{a}]", f"gc[{b}]")))
                    vec = FormalVector({("int", g): Fraction(val, 2) * LOG_LAM})
                    expect[mono] = expect.get(mono, FormalVector()) + vec
        ok = ok and diff == Jet(pf.algebra, expect)
        # beta^gamma = (1/2) gc^a gc^b C_{ab}^gamma
        res = beta(th)
        for g in th.marginals:
            for a in th.marginals:
                for b in th.marginals:
                    want = (
                        ref_effective_C(th, a, b).get(g, Fraction(0))
                        + ref_effective_C(th, b, a).get(g, Fraction(0))
                    ) / 2
                    if a == b:
                        want = ref_effective_C(th, a, a).get(g, Fraction(0)) / 2
                    mono = tuple(sorted((f"gc[{a}]", f"gc[{b}]")))
                    got = res.coefficients[g].coefficient(mono)
                    ok = ok and (got or 0) == want
    # single marginal with C = c0: g(lam) = g + (1/2) c0 g^2 log(lam)
    c0 = Fraction(5)
    single = FormalTheory(
        [("1", 0, 0), ("e", 1, 1)], [("e", "e", "e", (), (), c0)]
    )
    run = beta(single).running()["e"]
    ok = ok and run.coefficient(("gc[e]",)) == 1
    ok = ok and run.coefficient(("gc[e]", "gc[e]")) == c0 / 2 * LOG_LAM
    ok = ok and (time.perf_counter() - start) < 1.0
    _report(6, "radius scaling, beta = (1/2) C, running coupling", ok)


def test_acceptance_7_qm_oracle():
    rng = np.random.default_rng(71)
    start = time.perf_counter()
    ok = True
    monos = [(), ("gc[o]",), ("gc[o]", "gc[o]")]
    for trial in range(50):
        dim = int(rng.integers(2, 7))
        H = rng.standard_normal((dim, dim))
        O = rng.standard_normal((dim, dim))
        theory = QmTheory(H)
        T = float(rng.uniform(0.5, 1.5))
        seg = qm_double_deform(theory, {"o": -O}, 0.0, T)
        oracle = taylor_series_oracle(H, O, T, order=2)
        scale = max(max(float(np.max(np.abs(o))) for o in oracle), 1.0)
        for m, o in zip(monos, oracle):
            ok = ok and float(np.max(np.abs(seg.value.coefficient(m) - o))) < 1e-10 * scale
        split = 0.37 * T
        glued = qm_double_deform(theory, {"o": -O}, split, T).glue(
            qm_double_deform(theory, {"o": -O}, 0.0, split)
        )
        for m in monos:
            res = float(np.max(np.abs(glued.value.coefficient(m) - seg.value.coefficient(m))))
            ok = ok and res < 1e-12 * scale
    ok = ok and (time.perf_counter() - start) < 5.0
    _report(7, "qm double deformation vs matrix-exponential oracle (50 instances)", ok)


def test_acceptance_8_property_based_caveat():
    # There are no numerical tables to reproduce; the quantitative content is
    # the exact 1/2 in the beta function plus the structural identities
    # covered by criteria 4-7.  Re-affirm the single closed-form number here.
    th = FormalTheory([("1", 0, 0), ("e", 1, 1)], [("e", "e", "e", (), (), 1)])
    b = beta(th).coefficients["e"].coefficient(("gc[e]", "gc[e]"))
    ok = b == Fraction(1, 2)
    _report(8, "property-based acceptance; exact 1/2 beta coefficient", ok)
