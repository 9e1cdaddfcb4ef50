"""Tests for the one-dimensional (quantum mechanics) backend."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fqft.errors import GeometryError, ValidationError
from fqft.jets import Jet, jet_mul
from fqft.qm import (
    QmTheory,
    _block_row,
    _expm,
    _pade_choice,
    evolve,
    first_order_integral,
    qm_correlator,
    qm_deform,
    qm_double_deform,
    second_order_ordered,
    taylor_series_oracle,
    time_ordered,
    time_ordered_integral,
)


def random_theory(rng, dim):
    return QmTheory(rng.standard_normal((dim, dim)))


def random_obs(rng, dim):
    return rng.standard_normal((dim, dim))


# ----------------------------------------------------------------- evolution


def test_evolve_zero_length_identity():
    th = QmTheory(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(evolve(th, 1.0, 1.0).value, np.eye(2))


def test_evolve_diagonal():
    th = QmTheory(np.diag([0.0, 1.0]))
    seg = evolve(th, 0.0, 1.0)
    assert np.allclose(seg.value, np.diag([1.0, np.exp(-1.0)]))


def test_evolve_semigroup():
    rng = np.random.default_rng(3)
    th = random_theory(rng, 4)
    whole = evolve(th, 0.0, 2.0)
    glued = evolve(th, 0.7, 2.0).glue(evolve(th, 0.0, 0.7))
    assert np.max(np.abs(glued.value - whole.value)) < 1e-12 * np.max(
        np.abs(whole.value)
    )
    assert glued.alpha == 0.0 and glued.beta == 2.0


def test_evolve_validation():
    th = QmTheory(np.eye(2))
    with pytest.raises(GeometryError):
        evolve(th, 1.0, 0.0)
    with pytest.raises(ValidationError):
        QmTheory(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        QmTheory(np.ones((2, 3)))


# --------------------------------------------------------------- correlators


def test_correlator_no_insertions_is_evolution():
    th = QmTheory(np.diag([1.0, 2.0]))
    assert np.allclose(qm_correlator(th, [], 0.0, 1.5), evolve(th, 0.0, 1.5).value)


def test_correlator_identity_insertion():
    th = QmTheory(np.diag([1.0, 2.0]))
    got = qm_correlator(th, [(np.eye(2), 0.5)], 0.0, 1.0)
    assert np.allclose(got, evolve(th, 0.0, 1.0).value)


def test_correlator_trivial_hamiltonian():
    rng = np.random.default_rng(5)
    th = QmTheory(np.zeros((3, 3)))
    A, B = random_obs(rng, 3), random_obs(rng, 3)
    got = qm_correlator(th, [(A, 0.8), (B, 0.3)], 0.0, 1.0)
    assert np.allclose(got, A @ B)


def test_correlator_time_ordering_contract():
    th = QmTheory(np.eye(2))
    with pytest.raises(ValidationError):
        qm_correlator(th, [(np.eye(2), 0.3), (np.eye(2), 0.7)], 0.0, 1.0)
    with pytest.raises(ValidationError):
        qm_correlator(th, [(np.eye(2), 1.5)], 0.0, 1.0)


def test_correlator_continuous_at_coincidence():
    # no short-distance singularity: tau2 -> tau1 is continuous
    rng = np.random.default_rng(7)
    th = random_theory(rng, 3)
    A, B = random_obs(rng, 3), random_obs(rng, 3)
    near = qm_correlator(th, [(A, 0.5 + 1e-9), (B, 0.5)], 0.0, 1.0)
    at = qm_correlator(th, [(A @ B, 0.5)], 0.0, 1.0)
    assert np.max(np.abs(near - at)) < 1e-7


def test_time_ordered_symmetry_and_flag():
    rng = np.random.default_rng(9)
    th = random_theory(rng, 3)
    A, B = random_obs(rng, 3), random_obs(rng, 3)
    v1, flag1 = time_ordered(th, (A, 0.7), (B, 0.2), 0.0, 1.0)
    v2, flag2 = time_ordered(th, (B, 0.2), (A, 0.7), 0.0, 1.0)
    assert not flag1 and not flag2
    assert np.allclose(v1, v2)
    assert np.allclose(v1, qm_correlator(th, [(A, 0.7), (B, 0.2)], 0.0, 1.0))
    sym, flag = time_ordered(th, (A, 0.5), (B, 0.5), 0.0, 1.0)
    assert flag
    assert np.allclose(sym, qm_correlator(th, [((A @ B + B @ A) / 2, 0.5)], 0.0, 1.0))


# ----------------------------------------------------------------- integrals


def test_first_order_integral_against_quadrature():
    rng = np.random.default_rng(11)
    th = random_theory(rng, 4)
    O = random_obs(rng, 4)
    closed = first_order_integral(th, O, 0.0, 1.3)
    taus, w = np.polynomial.legendre.leggauss(64)
    taus, w = (taus + 1) * 0.65, w * 0.65
    quad = sum(
        wt * (expm(-(1.3 - s) * th.H) @ O @ expm(-s * th.H)) for s, wt in zip(taus, w)
    )
    assert np.max(np.abs(closed - quad)) < 1e-10


def test_first_order_integral_degenerate_fallback():
    # defective Hamiltonian: no eigenbasis
    H = np.array([[1.0, 1.0], [0.0, 1.0]])
    th = QmTheory(H)
    O = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = first_order_integral(th, O, 0.0, 1.0)
    oracle = -taylor_series_oracle(H, O, 1.0, order=1)[1]
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_second_order_matches_oracle():
    rng = np.random.default_rng(13)
    th = random_theory(rng, 4)
    O = random_obs(rng, 4)
    got = second_order_ordered(th, O, O, 0.0, 0.9)
    oracle = taylor_series_oracle(th.H, O, 0.9, order=2)[2]
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_time_ordered_integral_symmetric():
    rng = np.random.default_rng(15)
    th = random_theory(rng, 3)
    A, B = random_obs(rng, 3), random_obs(rng, 3)
    assert np.allclose(
        time_ordered_integral(th, A, B, 0.0, 1.0),
        time_ordered_integral(th, B, A, 0.0, 1.0),
    )


# --------------------------------------------------------------- deformation


def test_qm_deform_zero_coupling_is_evolve():
    th = QmTheory(np.diag([1.0, 2.0]))
    seg = qm_deform(th, {}, 0.0, 1.0)
    assert isinstance(seg.value, Jet)
    assert list(seg.value.terms) == [()]
    assert np.allclose(seg.value.coefficient(()), evolve(th, 0.0, 1.0).value)


def test_qm_deform_first_order_cutting():
    rng = np.random.default_rng(17)
    th = random_theory(rng, 4)
    obs = {"o": random_obs(rng, 4)}
    whole = qm_deform(th, obs, 0.0, 2.0)
    glued = qm_deform(th, obs, 0.8, 2.0).glue(qm_deform(th, obs, 0.0, 0.8))
    for mono, c in whole.value.terms.items():
        assert np.max(np.abs(glued.value.coefficient(mono) - c)) < 1e-12 * max(
            1.0, np.max(np.abs(c))
        )


def test_qm_deform_matches_first_order_oracle():
    rng = np.random.default_rng(19)
    th = random_theory(rng, 5)
    O = random_obs(rng, 5)
    seg = qm_deform(th, {"o": -O}, 0.0, 1.1)
    oracle = taylor_series_oracle(th.H, O, 1.1, order=1)
    assert np.max(np.abs(seg.value.coefficient(()) - oracle[0])) < 1e-10
    assert np.max(np.abs(seg.value.coefficient(("g[o]",)) - oracle[1])) < 1e-10


def test_qm_double_deform_matches_oracle():
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4):
        th = random_theory(rng, dim)
        O = random_obs(rng, dim)
        seg = qm_double_deform(th, {"o": -O}, 0.0, 1.0)
        oracle = taylor_series_oracle(th.H, O, 1.0, order=2)
        scale = max(np.max(np.abs(o)) for o in oracle)
        assert np.max(np.abs(seg.value.coefficient(()) - oracle[0])) < 1e-10 * scale
        assert (
            np.max(np.abs(seg.value.coefficient(("gc[o]",)) - oracle[1]))
            < 1e-10 * scale
        )
        assert (
            np.max(np.abs(seg.value.coefficient(("gc[o]", "gc[o]")) - oracle[2]))
            < 1e-10 * scale
        )


def test_qm_double_deform_cutting_every_order():
    rng = np.random.default_rng(23)
    th = random_theory(rng, 4)
    obs = {"a": random_obs(rng, 4), "b": random_obs(rng, 4)}
    whole = qm_double_deform(th, obs, 0.0, 1.5)
    glued = qm_double_deform(th, obs, 0.6, 1.5).glue(qm_double_deform(th, obs, 0.0, 0.6))
    assert set(glued.value.terms) == set(whole.value.terms)
    for mono, c in whole.value.terms.items():
        assert np.max(np.abs(glued.value.coefficient(mono) - c)) < 1e-12 * max(
            1.0, np.max(np.abs(c))
        )


def test_qm_double_deform_second_order_is_time_ordered_integral():
    # three labels: each unordered pair's coefficient is bit-equal to the
    # time-ordered integral, and each diagonal one to half of it
    rng = np.random.default_rng(29)
    th = random_theory(rng, 3)
    obs = {l: random_obs(rng, 3) for l in ("a", "b", "c")}
    seg = qm_double_deform(th, obs, 0.2, 1.3)
    for a in obs:
        for b in obs:
            S = time_ordered_integral(th, obs[a], obs[b], 0.2, 1.3)
            mono = tuple(sorted((f"gc[{a}]", f"gc[{b}]")))
            want = S / 2 if a == b else S
            assert np.array_equal(seg.value.coefficient(mono), want)


def _similarity(rng, dim):
    # random non-orthogonal similarity with condition number 10: a worse one
    # inflates the evolution's own rounding past the tolerances on any method
    Q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return Q1 @ np.diag(np.logspace(0, 1, dim)) @ Q2


def _hostile_hamiltonian(rng, kind, dim, gap):
    if kind == "complex":
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "clustered":
        # one eigenvalue pair split by `gap`
        J = np.diag(rng.standard_normal(dim))
        J[1, 1] = J[0, 0] + gap
    else:
        J = rng.standard_normal() * np.eye(dim) + np.eye(dim, k=1)
        if kind == "jordan":
            return J
    S = _similarity(rng, dim)
    return S @ J @ np.linalg.inv(S)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["clustered", "jordan", "jordan-similar", "complex"]),
    dim=st.integers(2, 16),
    gap=st.sampled_from([10.0**-k for k in range(3, 13)] + [0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_qm_double_deform_hostile_spectra(kind, dim, gap, seed):
    # clustered, defective and complex spectra meet the `fqft qm` tolerances
    rng = np.random.default_rng(seed)
    H = _hostile_hamiltonian(rng, kind, dim, gap)
    O = rng.standard_normal((dim, dim))
    th = QmTheory(H)
    obs = {"o": -O}
    seg = qm_double_deform(th, obs, 0.0, 1.0)
    glued = qm_double_deform(th, obs, 0.4, 1.0).glue(qm_double_deform(th, obs, 0.0, 0.4))
    oracle = taylor_series_oracle(H, O, 1.0, order=2)
    scale = max(max(np.max(np.abs(o)) for o in oracle), 1.0)
    for mono, o in zip([(), ("gc[o]",), ("gc[o]", "gc[o]")], oracle):
        got = seg.value.coefficient(mono)
        assert np.max(np.abs(got - o)) < 1e-10 * scale
        assert np.max(np.abs(glued.value.coefficient(mono) - got)) < 1e-12 * scale


# ------------------------------------------------------- matrix exponential


def _mp_expm(A):
    """exp(A) to 30 digits, rounded to double."""
    with mpmath.workdps(30):
        E = mpmath.expm(mpmath.matrix(A.tolist()))
        out = np.array([[complex(E[i, j]) for j in range(E.cols)] for i in range(E.rows)])
    return out if np.iscomplexobj(A) else out.real


def _van_loan(H, O):
    """The 3n x 3n matrix whose exponential holds a segment's three orders."""
    n = H.shape[0]
    M = np.zeros((3 * n, 3 * n), dtype=np.result_type(H, O))
    for i in range(3):
        M[i * n : (i + 1) * n, i * n : (i + 1) * n] = -H
    M[:n, n : 2 * n] = M[n : 2 * n, 2 * n :] = O
    return M


def _expm_input(rng, kind, dim, norm):
    """A matrix of 1-norm about `norm` whose exponential is in range and well
    conditioned: spectra are shifted to abscissa 0, and a Jordan block's
    eigenvalue is imaginary, so that its nilpotent part does not grow with the
    norm (a nilpotent part of norm 1e3 makes exp(A) a sum of huge cancelling
    terms, beyond any float method)."""
    if kind in ("jordan", "jordan-similar"):
        A = 1j * norm * np.eye(dim) + min(norm, 1.0) * np.eye(dim, k=1)
        if kind == "jordan":
            return A
        S = _similarity(rng, dim)
        return S @ A @ np.linalg.inv(S)
    if kind == "complex":
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    elif kind == "van-loan":
        A = _van_loan(rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim)))
    elif kind == "clustered":
        A = _hostile_hamiltonian(rng, "clustered", dim, 1e-9)
    else:
        A = rng.standard_normal((dim, dim))
    A = A * (norm / np.abs(A).sum(axis=0).max())
    return A - np.max(np.linalg.eigvals(A).real) * np.eye(len(A))


def _check_expm(A, norm):
    # relative to the largest entry; exp's condition number grows with the norm
    got, ref = _expm(A), expm(A)
    assert got.dtype == ref.dtype
    scale, tol = np.max(np.abs(ref)), 1e-14 * max(norm, 1.0)
    if np.max(np.abs(got - ref)) > tol * scale:
        # scipy may be the one that is off: judge both against 30 digits
        exact = _mp_expm(A)
        assert np.max(np.abs(got - exact)) <= tol * scale


def test_expm_zero_matrix_is_identity():
    for dtype in (float, complex):
        for n in (1, 4, 12):
            E = _expm(np.zeros((n, n), dtype=dtype))
            assert E.dtype == dtype and np.array_equal(E, np.eye(n))


def test_expm_every_degree_and_squaring():
    # norms 1e-3 ... 1e3 run each Pade degree and up to 8 squarings
    rng = np.random.default_rng(31)
    choices = set()
    for norm in 10.0 ** np.arange(-3, 3.25, 0.25):
        A = _expm_input(rng, "gaussian", 6, norm)
        A4 = np.linalg.matrix_power(A, 4)
        choices.add(_pade_choice(A, A4, A4 @ A @ A))
        _check_expm(A, norm)
    assert {m for m, _ in choices} == {3, 5, 7, 9, 13}
    assert max(s for _, s in choices) >= 8


def test_expm_real_jordan_block():
    # exp(lam I + N) = e^lam sum_k N^k / k!, a closed form independent of scipy
    for lam in (-3.0, 0.5):
        for n in range(2, 9):
            N = np.eye(n, k=1)
            want = sum(np.linalg.matrix_power(N, k) / math.factorial(k) for k in range(n))
            want = np.exp(lam) * want
            got = _expm(lam * np.eye(n) + N)
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(
        ["gaussian", "clustered", "jordan", "jordan-similar", "complex", "van-loan"]
    ),
    dim=st.integers(2, 8),
    log_norm=st.floats(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
# scipy is off by 4e-8 here and `_expm` by 2e-13, relative to 30 digits
@example(kind="van-loan", dim=4, log_norm=3.0, seed=647)
def test_expm_matches_scipy(kind, dim, log_norm, seed):
    dim = dim // 2 if kind == "van-loan" else dim
    norm = 10.0**log_norm
    _check_expm(_expm_input(np.random.default_rng(seed), kind, dim, norm), norm)


@pytest.mark.parametrize("n", [4, 16, 32])
def test_block_row_is_top_row_of_van_loan_exponential(n):
    # the segment sizes `fqft qm` runs: each block against scipy's exponential
    rng = np.random.default_rng(n)
    for H in (rng.standard_normal((n, n)), _hostile_hamiltonian(rng, "clustered", n, 1e-7)):
        O = rng.standard_normal((n, n))
        th = QmTheory(H)
        for T in (0.4, 1.0):
            ref = expm(T * _van_loan(H, O))
            scale = np.max(np.abs(ref[:n]))
            for i, block in enumerate(_block_row(th, 1.0 - T, 1.0, O, O)):
                assert np.max(np.abs(block - ref[:n, i * n : (i + 1) * n])) < 1e-13 * scale


def test_qm_glue_algebra_mismatch():
    th = QmTheory(np.eye(2))
    a = qm_deform(th, {"x": np.eye(2)}, 0.0, 1.0)
    b = qm_deform(th, {"y": np.eye(2)}, 0.0, 1.0)
    with pytest.raises(ValueError):
        jet_mul(a.value, b.value)


def test_glue_endpoint_mismatch():
    th = QmTheory(np.eye(2))
    with pytest.raises(GeometryError):
        evolve(th, 1.0, 2.0).glue(evolve(th, 0.0, 0.5))


# ------------------------------------------------------------------- oracle


def test_oracle_reduces_to_expm():
    rng = np.random.default_rng(25)
    H = rng.standard_normal((5, 5))
    oracle = taylor_series_oracle(H, np.zeros((5, 5)), 0.7, order=2)
    assert np.max(np.abs(oracle[0] - expm(-0.7 * H))) < 1e-12
    assert np.max(np.abs(oracle[1])) == 0 or np.max(np.abs(oracle[1])) < 1e-14
    assert np.max(np.abs(oracle[2])) == 0 or np.max(np.abs(oracle[2])) < 1e-14


def test_oracle_against_finite_coupling():
    # full expm at small finite g agrees with the truncated series
    rng = np.random.default_rng(27)
    H, O = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    T, g = 0.8, 1e-3
    oracle = taylor_series_oracle(H, O, T, order=2)
    series = oracle[0] + g * oracle[1] + g * g * oracle[2]
    full = expm(-T * (H + g * O))
    assert np.max(np.abs(series - full)) < 5e-9  # O(g^3)
