"""Tests for the one-dimensional (quantum mechanics) backend."""

import gc
import logging
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import oracle_ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jet_ref import jet_mul
from scipy.linalg import expm

from fqft import qm
from fqft.cli import main
from fqft.errors import GeometryError, ValidationError
from fqft.qm import QmTheory, SegmentPF, _Generator, qm_double_deform, taylor_series_oracle


def random_theory(rng, dim):
    return QmTheory(rng.standard_normal((dim, dim)))


def random_obs(rng, dim):
    return rng.standard_normal((dim, dim))


def _expm(A):
    """exp(A) for a plain matrix: the one-block case of the segments'
    exponential."""
    return _Generator(A).exp_row(1.0)


def _orders(th, alpha, beta, O):
    """A segment's orders, the top block row of its Van Loan exponential."""
    return qm_double_deform(th, {"o": O}, alpha, beta).orders


# ----------------------------------------------------------------- evolution


def test_evolve_zero_length_identity():
    # a zero-length segment is the identity, and its deformed orders vanish
    th = QmTheory(np.array([[0.0, 1.0], [0.0, 0.0]]))
    seg = qm_double_deform(th, {"o": np.ones((2, 2))}, 1.0, 1.0)
    assert list(seg.value.terms) == [()]
    assert np.array_equal(seg.value.coefficient(()), np.eye(2))


def test_evolve_diagonal():
    # the constant term of a deformed segment is the evolution exp(-T H)
    th = QmTheory(np.diag([0.0, 1.0]))
    seg = qm_double_deform(th, {"o": np.ones((2, 2))}, 0.0, 1.0)
    assert np.allclose(seg.value.coefficient(()), np.diag([1.0, np.exp(-1.0)]))


def test_evolve_semigroup():
    rng = np.random.default_rng(3)
    H = random_theory(rng, 4).H
    whole = _expm(-2.0 * H)
    glued = _expm(-1.3 * H) @ _expm(-0.7 * H)
    assert np.max(np.abs(glued - whole)) < 1e-12 * np.max(np.abs(whole))


def test_evolve_validation():
    th = QmTheory(np.eye(2))
    O = np.ones((2, 2))
    with pytest.raises(GeometryError):
        _orders(th, 1.0, 0.0, O)
    with pytest.raises(GeometryError):
        _orders(th, 0.0, math.nan, O)
    orders = _orders(th, 0.0, 1.0, O)
    with pytest.raises(GeometryError):
        SegmentPF(th, 1.0, 0.0, "o", O, orders)
    with pytest.raises(GeometryError):
        SegmentPF(th, 0.0, math.inf, "o", O, orders)
    with pytest.raises(ValidationError):
        QmTheory(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        QmTheory(np.ones((2, 3)))
    # entries that are not numbers, which np.isfinite does not take
    for H in ([[Fraction(1)]], [["a"]], None, [[None, 1.0], [0.0, 1.0]]):
        with pytest.raises(ValidationError, match="finite numbers"):
            QmTheory(H)


# ----------------------------------------------------------------- integrals


def test_first_order_integral_against_quadrature():
    rng = np.random.default_rng(11)
    th = random_theory(rng, 4)
    O = random_obs(rng, 4)
    closed = _orders(th, 0.0, 1.3, O)[1]
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
    got = _orders(th, 0.0, 1.0, O)[1]
    oracle = -taylor_series_oracle(H, O, 1.0, order=1)[1]
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_second_order_matches_oracle():
    rng = np.random.default_rng(13)
    th = random_theory(rng, 4)
    O = random_obs(rng, 4)
    got = _orders(th, 0.0, 0.9, O)[2]
    oracle = taylor_series_oracle(th.H, O, 0.9, order=2)[2]
    assert np.max(np.abs(got - oracle)) < 1e-10


# --------------------------------------------------------------- deformation


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
    obs = {"o": random_obs(rng, 4)}
    whole = qm_double_deform(th, obs, 0.0, 1.5)
    glued = qm_double_deform(th, obs, 0.6, 1.5).glue(qm_double_deform(th, obs, 0.0, 0.6))
    assert glued.alpha == 0.0 and glued.beta == 1.5
    monos = {(), ("gc[o]",), ("gc[o]", "gc[o]")}
    assert set(glued.value.terms) == set(whole.value.terms) == monos
    for mono, c in whole.value.terms.items():
        assert np.max(np.abs(glued.value.coefficient(mono) - c)) < 1e-12 * max(
            1.0, np.max(np.abs(c))
        )


@pytest.mark.parametrize(
    "O",
    [
        2.0,
        np.ones((1, 1)),
        np.ones((3, 2)),
        np.ones((1, 3, 3)),
        np.diag([1.0, np.nan, 0.0]),
        [[Fraction(1)] * 3] * 3,
        [["a"] * 3] * 3,
        [[None] * 3] * 3,
        None,
    ],
    ids=["scalar", "1x1", "3x2", "batch", "nan", "fraction", "string", "none-3x3", "none"],
)
def test_qm_double_deform_rejects_observables_that_are_not_finite_square(O):
    # numpy would broadcast a scalar or a 1x1 array into a constant 3x3 block
    th = QmTheory(np.eye(3))
    with pytest.raises(ValidationError, match="'o'"):
        qm_double_deform(th, {"o": O}, 0.0, 1.0)


@pytest.mark.parametrize("obs", [{}, {"a": np.eye(2), "b": np.eye(2)}], ids=["none", "two"])
def test_qm_double_deform_takes_one_observable(obs):
    th = QmTheory(np.eye(2))
    with pytest.raises(ValidationError, match="exactly one observable") as err:
        qm_double_deform(th, obs, 0.0, 1.0)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (0.0, math.nan),
        (math.nan, 1.0),
        (0.0, math.inf),
        (-math.inf, 1.0),
        (-math.inf, math.inf),
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        (-1e308, 1e308),
        (0, 10**400),  # an int length with no float
    ],
)
@pytest.mark.parametrize(
    "obs", [{"o": np.zeros((2, 2))}, {"o": np.ones((2, 2))}], ids=["evolution", "deformed"]
)
def test_qm_double_deform_rejects_non_finite_endpoints(alpha, beta, obs):
    # NaN passes a plain beta < alpha test, and an infinite length reaches
    # the exponential's scaling as an infinite norm; a zero observable
    # leaves the evolution alone
    th = QmTheory(np.eye(2))
    with pytest.raises(GeometryError, match="finite"):
        qm_double_deform(th, obs, alpha, beta)


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
        if dim > 1:
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
    dim=st.integers(1, 16),
    gap=st.sampled_from([10.0**-k for k in range(3, 13)] + [0.0]),
    complex_obs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_qm_double_deform_hostile_spectra(kind, dim, gap, complex_obs, seed):
    # clustered, defective and complex spectra, and real and complex
    # observables, meet the `fqft qm` tolerances, down to dim 1
    rng = np.random.default_rng(seed)
    H = _hostile_hamiltonian(rng, kind, dim, gap)
    O = rng.standard_normal((dim, dim))
    if complex_obs:
        O = O + 1j * rng.standard_normal((dim, dim))
    th = QmTheory(H)
    obs = {"o": -O}
    seg = qm_double_deform(th, obs, 0.0, 1.0)
    glued = qm_double_deform(th, obs, 0.4, 1.0).glue(qm_double_deform(th, obs, 0.0, 0.4))
    oracle = taylor_series_oracle(H, O, 1.0, order=2)
    _assert_oracle_matches_reference(oracle, H, O, 1.0, order=2)
    scale = max(max(np.max(np.abs(o)) for o in oracle), 1.0)
    for mono, o in zip([(), ("gc[o]",), ("gc[o]", "gc[o]")], oracle):
        got = seg.value.coefficient(mono)
        assert np.max(np.abs(got - o)) < 1e-10 * scale
        assert np.max(np.abs(glued.value.coefficient(mono) - got)) < 1e-12 * scale


# ------------------------------------------------ Daleckii-Krein oracle
#
# For a normal H = Q diag(lam) Q^T the orders are entrywise products in the
# eigenbasis (Daleckii-Krein; Higham, "Functions of Matrices", 2008, §3.2):
# the first is (Q^T O Q)_ij T E1(T lam_i, T lam_j), the second
# sum_j (Q^T O Q)_ij (Q^T O Q)_jk T^2 E2(T lam_i, T lam_j, T lam_k), with E1
# and E2 the segment and simplex averages of e^{-x}, the divided differences
# of e^{-x} up to sign.  Neither needs a matrix exponential.


def _e1(x, y):
    """int_0^1 e^{-((1 - t) x + t y)} dt, elementwise, from expm1, so that it
    stays accurate as y -> x; e^{-x} at y = x."""
    low, d = np.minimum(x, y), np.abs(x - y)
    return np.exp(-low) * np.where(d > 0, -np.expm1(-d) / np.where(d > 0, d, 1.0), 1.0)


def _e2(x, y, z, terms=30):
    """The average of e^{-(t0 x + t1 y + t2 z)} over the simplex t0 + t1 + t2
    = 1, times its area 1/2, elementwise.  On sorted points a <= b <= c it is
    (E1(a, b) - E1(b, c)) / (c - a) where c - a > 1, and otherwise the series
    e^{-a} sum_{n >= 2} (-1)^n h_{n-2}(b - a, c - a) / n!, with h_k the
    complete homogeneous symmetric polynomial, which holds at coincident
    points; past n = 31 its terms are below 1e-30."""
    a, b, c = np.sort(np.stack(np.broadcast_arrays(x, y, z)), axis=0)
    spread = c - a
    far = (_e1(a, b) - _e1(b, c)) / np.where(spread > 1, spread, 1.0)
    u, v = b - a, c - a
    h, u_power, series, factorial = np.ones_like(u), np.ones_like(u), 0.5, 2.0
    for n in range(3, terms + 2):
        u_power = u_power * u
        h = v * h + u_power  # h_k(u, v) = v h_{k-1}(u, v) + u^k
        factorial *= n
        series = series + (-1) ** n * h / factorial
    return np.where(spread > 1, far, np.exp(-a) * series)


def _daleckii_krein(lam, Q, O, T):
    """exp(-T H) and its first and second order under O, for H = Q diag(lam) Q^T."""
    x = T * lam
    Ot = Q.T @ O @ Q
    evolution = (Q * np.exp(-x)) @ Q.T
    first = Q @ (Ot * (T * _e1(x[:, None], x[None, :]))) @ Q.T
    E2 = T**2 * _e2(x[:, None, None], x[None, :, None], x[None, None, :])
    second = Q @ np.einsum("ij,jk,ijk->ik", Ot, Ot, E2) @ Q.T
    return evolution, first, second


def test_divided_differences_against_mpmath():
    # the simplex average by 30-digit quadrature, at coincident, clustered
    # and spread points, on both sides of the series' cut-off
    def simplex(x, y, z):
        with mpmath.workdps(30):
            f = lambda s, t: mpmath.exp(-((1 - s - t) * x + s * y + t * z))  # noqa: E731
            return float(mpmath.quad(lambda s: mpmath.quad(lambda t: f(s, t), [0, 1 - s]), [0, 1]))

    for x, y, z in [(0.3, 0.3, 0.3), (0.1, 0.1 + 1e-9, 0.1 + 3e-9), (-1.2, 0.5, 0.9),
                    (-2.0, 2.0, 0.0), (1.0, 1.0, 2.5), (0.0, 0.5, 1.0)]:
        want = simplex(x, y, z)
        assert abs(float(_e2(np.float64(x), np.float64(y), np.float64(z))) - want) < 1e-15 * want
    for x, y in [(0.7, 0.7), (0.7, 0.7 + 1e-12), (-1.5, 2.0)]:
        want = float(mpmath.quad(lambda t: mpmath.exp(-((1 - t) * x + t * y)), [0, 1]))
        assert abs(float(_e1(np.float64(x), np.float64(y))) - want) < 1e-15 * want


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 32),
    gap=st.sampled_from([10.0**-k for k in range(3, 16)] + [0.0]),
    T=st.sampled_from([0.25, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=32, gap=0.0, T=1.0, seed=0)
def test_orders_match_daleckii_krein(dim, gap, T, seed):
    # a cluster of three eigenvalues split by `gap`, down to coincident; the
    # orders meet the `fqft qm` scale rule at 1e-12
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(dim)
    cluster = min(dim, 3)
    lam[:cluster] = lam[0] + gap * np.arange(cluster)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    O = rng.standard_normal((dim, dim))
    seg = qm_double_deform(QmTheory(Q @ np.diag(lam) @ Q.T), {"o": O}, 0.0, T)
    want = _daleckii_krein(lam, Q, O, T)
    scale = max(max(np.max(np.abs(w)) for w in want), 1.0)
    for got, w in zip(seg.orders, want):
        assert np.max(np.abs(got - w)) < 1e-12 * scale


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


def _check_expm(A, norm, blocks=1):
    # relative to the largest entry; exp's condition number grows with the
    # norm.  A block-Toeplitz A also runs as `blocks` blocks, on its top row
    n = len(A) // blocks
    got, ref = _Generator(A[:n]).exp_row(1.0), expm(A)
    assert got.dtype == ref.dtype
    scale, tol = np.max(np.abs(ref)), 1e-14 * max(norm, 1.0)
    if np.max(np.abs(got - ref[:n])) > tol * scale:
        # scipy may be the one that is off: judge both against 30 digits
        exact = _mp_expm(A)
        assert np.max(np.abs(got - exact[:n])) <= tol * scale


def test_expm_zero_matrix_is_identity():
    for dtype in (float, complex):
        for n in (1, 4, 12):
            E = _expm(np.zeros((n, n), dtype=dtype))
            assert E.dtype == dtype and np.array_equal(E, np.eye(n))


def _ell_ref(A, m):
    """Squarings to add at degree m, from a chain of 2m + 1 products with
    abs(A) / ||A||_1 made for this degree alone."""
    norm = float(np.abs(A).sum(axis=0).max())
    if norm == 0:
        return 0
    B = np.abs(A) / norm
    v = np.ones(len(A))
    for _ in range(2 * m + 1):
        v = v @ B
    top = float(v.max())
    if top == 0:
        return 0
    c = math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
    log2_alpha = math.log2(top) + 2 * m * math.log2(norm) + math.log2(c)
    return max(0, math.ceil((log2_alpha + 53) / (2 * m)))


def _squarings_ref(A):
    """Al-Mohy & Higham 2009, Algorithm 5.1 at degree 13: the eta rule, then
    an `_ell_ref` chain on the scaled matrix."""
    A4 = np.linalg.matrix_power(A, 4)
    A6 = A4 @ A @ A
    d4 = float(np.abs(A4).sum(axis=0).max()) ** (1 / 4)
    d6 = float(np.abs(A6).sum(axis=0).max()) ** (1 / 6)
    eta = max(d4, d4**0.4 * d6**0.6)
    s = max(0, math.ceil(math.log2(eta / 4.25))) if eta > 0 else 0
    return s + _ell_ref(A / 2**s, 13)


def _squarings_of(A):
    return _Generator(A).squarings(1.0)


def _pade_inputs():
    # the norm sweep of test_expm_every_degree_and_squaring
    rng = np.random.default_rng(31)
    for norm in 10.0 ** np.arange(-3, 3.25, 0.25):
        yield _expm_input(rng, "gaussian", 6, norm)
    rng = np.random.default_rng(37)
    for kind in ("gaussian", "clustered", "jordan", "jordan-similar", "complex", "van-loan"):
        for dim in (2, 4, 8):
            for norm in 10.0 ** np.arange(-3, 3.25, 0.5):
                yield _expm_input(rng, kind, dim // 2 if kind == "van-loan" else dim, norm)
    for dtype in (float, complex):
        yield np.zeros((4, 4), dtype=dtype)
        for x in (0.0, 1e-3, 0.5, -3.0, 40.0, 2e3):
            yield np.full((1, 1), x, dtype=dtype)


def test_squarings_match_reference():
    # one chain of abs(A) / ||A||_1 powers, in B^2 steps, picks the same
    # squarings as a chain of single steps on the scaled matrix
    for A in _pade_inputs():
        s = _squarings_of(A)
        assert type(s) is int and s == _squarings_ref(A)


def test_squarings_on_top_rows_match_the_full_matrix():
    # a Van Loan matrix's generator reads its norms and its backward-error
    # chain off top rows, and picks the squarings of the full matrix
    rng = np.random.default_rng(37)
    for dim in (1, 2, 4):
        for norm in 10.0 ** np.arange(-3, 3.25, 0.5):
            A = _expm_input(rng, "van-loan", dim, norm)
            assert _Generator(A[:dim]).squarings(1.0) == _squarings_ref(A)


def test_expm_every_degree_and_squaring():
    # norms 1e-3 ... 1e3 run from 0 up to 8 squarings
    rng = np.random.default_rng(31)
    squarings = set()
    for norm in 10.0 ** np.arange(-3, 3.25, 0.25):
        A = _expm_input(rng, "gaussian", 6, norm)
        squarings.add(_squarings_of(A))
        _check_expm(A, norm)
    assert max(squarings) >= 8


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
    log_norm=st.floats(-8, 3),
    seed=st.integers(0, 2**32 - 1),
)
# scipy is off by 4e-8 here and `_expm` by 2e-13, relative to 30 digits
@example(kind="van-loan", dim=4, log_norm=3.0, seed=647)
def test_expm_matches_scipy(kind, dim, log_norm, seed):
    dim = dim // 2 if kind == "van-loan" else dim
    norm = 10.0**log_norm
    A = _expm_input(np.random.default_rng(seed), kind, dim, norm)
    _check_expm(A, norm)
    if kind == "van-loan":
        # the same matrix as the three-block generator a segment runs
        _check_expm(A, norm, blocks=3)


@pytest.mark.parametrize("n", [1, 4, 16, 32])
def test_block_row_is_top_row_of_van_loan_exponential(n):
    # the segment sizes `fqft qm` runs, and its floor: each block against
    # scipy's exponential
    rng = np.random.default_rng(n)
    cases = []
    for H in (rng.standard_normal((n, n)), _hostile_hamiltonian(rng, "clustered", n, 1e-7)):
        cases.append((H, rng.standard_normal((n, n)), (0.4, 1.0)))
    zero = np.zeros((n, n))
    complex_H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    complex_O = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # a symmetric H with spectrum in [0, 2]: exp(-T H) stays in range over
    # a length that needs 8 squarings or more, and its bound grows with the
    # norm, as in `_check_expm`
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    symmetric = Q @ np.diag(np.linspace(2.0, 0.0, n)) @ Q.T
    cases += [
        (cases[0][0], cases[0][1], (0.0,)),
        (complex_H, complex_O, (0.4, 1.0)),
        (cases[0][0], zero, (1.0,)),
        (zero, zero, (0.0, 1.0)),
        (symmetric, rng.standard_normal((n, n)) / n, (300.0,)),
    ]
    for H, O, lengths in cases:
        th = QmTheory(H)
        for T in lengths:
            M = _van_loan(H, O)
            tol = 1e-13
            if T == 300.0:
                assert _Generator(M[:n]).squarings(T) >= 8
                tol = 1e-14 * np.abs(T * M).sum(axis=0).max()
            ref = expm(T * M)
            scale = np.max(np.abs(ref[:n]))
            got = _orders(th, 1.0 - T, 1.0, O)
            assert got.dtype == ref.dtype
            for i, block in enumerate(got):
                assert np.max(np.abs(block - ref[:n, i * n : (i + 1) * n])) < tol * scale
            if T == 0.0 or not M.any():
                assert np.array_equal(got, np.stack([np.eye(n), zero, zero]))


def test_segment_solves_with_its_diagonal_block(monkeypatch):
    # a segment's Pade quotient takes one n x n solve, with the other blocks
    # stacked as right-hand sides, not a 3n x 3n one
    shapes, solve = [], np.linalg.solve

    def recording_solve(a, b):
        shapes.append((a.shape, b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    th = QmTheory(np.random.default_rng(2).standard_normal((8, 8)))
    qm_double_deform(th, {"o": np.eye(8)}, 0.0, 1.0)
    assert shapes == [((8, 8), (8, 40))]


def test_generator_logs_whether_it_was_built_or_reused(caplog, monkeypatch):
    monkeypatch.setattr(qm, "_last", None)
    H, O = np.random.default_rng(6).standard_normal((2, 3, 3))
    th = QmTheory(H)
    with caplog.at_level(logging.DEBUG, logger="fqft"):
        qm_double_deform(th, {"o": O}, 0.0, 1.0)
        qm_double_deform(th, {"o": O}, 0.0, 0.5)
    assert caplog.messages == ["qm generator dim=3 built", "qm generator dim=3 reused"]


def test_generator_slot_retains_a_pinned_size(capsys, monkeypatch):
    # after one `fqft qm --dim 128` the slot holds the Van Loan generator:
    # 3 802 178 bytes (tracemalloc, numpy 2.4), its M and M^6 (3n x 3n
    # float64 each), its top rows and its key's byte copies of H and O.  The
    # bound is 1.25 times that
    monkeypatch.setattr(qm, "_last", None)
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["qm", "--dim", "128", "--seed", "1"]) == 0
        gc.collect()
        with_slot = tracemalloc.get_traced_memory()[0]
        qm._last = None
        gc.collect()
        slot = with_slot - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert slot < 1.25 * 3_802_178, slot


def test_generator_reuse_is_bit_for_bit_a_cold_computation(tmp_path, monkeypatch):
    # segments of one (H, O) share one generator; any other H or O, the same
    # array mutated in place, or equal values in another dtype builds its
    # own, so every segment is byte for byte what an empty slot gives
    built = []

    class Counting(_Generator):
        def __init__(self, row):
            built.append(row.dtype)
            super().__init__(row)

    def cold(th, O, alpha, beta):
        monkeypatch.setattr(qm, "_last", None)
        return qm_double_deform(th, {"o": O}, alpha, beta).orders

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(5)
    H, O1, O2 = rng.standard_normal((3, 4, 4))
    th = QmTheory(H)
    want = {T: cold(th, O1, 0.0, T) for T in (0.4, 1.0)}
    want2 = cold(th, O2, 0.0, 1.0)
    monkeypatch.setattr(qm, "_Generator", Counting)
    # the segments of one `fqft qm` run share one generator
    assert main(["qm", "--dim", "4", "--out", str(tmp_path / "qm.json")]) == 0
    assert len(built) == 1
    built.clear()
    assert same(qm_double_deform(th, {"o": O1}, 0.0, 1.0).orders, want[1.0])
    assert same(qm_double_deform(th, {"o": O1}, 0.6, 1.0).orders, cold(th, O1, 0.6, 1.0))
    assert same(qm_double_deform(th, {"o": O1}, 0.0, 0.4).orders, want[0.4])
    assert len(built) == 2  # the first call, and the one after the cold one
    # a second observable under the same label
    assert same(qm_double_deform(th, {"o": O2}, 0.0, 1.0).orders, want2)
    # the observable mutated in place between calls
    O = O1.copy()
    assert same(qm_double_deform(th, {"o": O}, 0.0, 1.0).orders, want[1.0])
    O[0, 0] += 1.0
    got = qm_double_deform(th, {"o": O}, 0.0, 1.0).orders
    assert not same(got, want[1.0]) and same(got, cold(th, O, 0.0, 1.0))
    # an equal-valued complex observable after a real one
    qm_double_deform(th, {"o": O1}, 0.0, 1.0)
    got = qm_double_deform(th, {"o": O1.astype(complex)}, 0.0, 1.0).orders
    assert got.dtype == complex and same(got, cold(th, O1.astype(complex), 0.0, 1.0))
    # the same bytes read as another dtype are another observable
    qm_double_deform(th, {"o": O1}, 0.0, 1.0)
    got = qm_double_deform(th, {"o": O1.view(np.int64)}, 0.0, 1.0).orders
    assert not same(got, want[1.0]) and same(got, cold(th, O1.view(np.int64), 0.0, 1.0))
    # a new theory with an equal Hamiltonian
    qm_double_deform(th, {"o": O1}, 0.0, 1.0)
    assert same(qm_double_deform(QmTheory(H.copy()), {"o": O1}, 0.0, 1.0).orders, want[1.0])


def test_qm_glue_algebra_mismatch():
    # segments deformed by different observables do not glue, as segments of
    # different theories do not
    th = QmTheory(np.eye(2))
    O = np.ones((2, 2))
    late = qm_double_deform(th, {"x": O}, 0.5, 1.0)
    with pytest.raises(GeometryError, match="different observables"):
        late.glue(qm_double_deform(th, {"y": O}, 0.0, 0.5))
    with pytest.raises(GeometryError, match="different theories"):
        late.glue(qm_double_deform(QmTheory(np.eye(2)), {"x": O}, 0.0, 0.5))


def test_qm_glue_rejects_a_different_matrix_under_one_label():
    # one label does not make one observable: the matrices must match too
    th = QmTheory(np.eye(2))
    late = qm_double_deform(th, {"o": np.ones((2, 2))}, 0.5, 1.0)
    with pytest.raises(GeometryError, match="different observables"):
        late.glue(qm_double_deform(th, {"o": np.zeros((2, 2))}, 0.0, 0.5))
    # equal matrices, passed as different objects, glue
    glued = late.glue(qm_double_deform(th, {"o": np.ones((2, 2))}, 0.0, 0.5))
    whole = qm_double_deform(th, {"o": np.ones((2, 2))}, 0.0, 1.0)
    assert np.max(np.abs(glued.orders - whole.orders)) < 1e-14


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("field", ["real", "complex", "zero-observable"])
def test_qm_glue_is_the_truncated_product(dim, field):
    # the batched product equals the pair-by-pair one bit for bit, and a
    # segment's value, deformed or glued, is a jet of views into its orders
    rng = np.random.default_rng(dim)
    H, O = rng.standard_normal((2, dim, dim))
    if field == "complex":
        H = H + 1j * rng.standard_normal((dim, dim))
        O = O + 1j * rng.standard_normal((dim, dim))
    elif field == "zero-observable":
        O = np.zeros((dim, dim))
    th = QmTheory(H)
    obs = {"o": O}
    late, early = qm_double_deform(th, obs, 0.3, 1.0), qm_double_deform(th, obs, 0.0, 0.3)
    glued = late.glue(early)
    assert glued.orders.shape == (3, dim, dim)
    # the test reference's product of the two value jets, a matrix product
    # per pair of orders summed in its order, omits only zero orders
    want = jet_mul(late.value, early.value, np.matmul, lambda c: not c.any())
    monos = [(), ("gc[o]",), ("gc[o]", "gc[o]")]
    zero = np.zeros((dim, dim))
    assert all(np.array_equal(glued.orders[k], want.terms.get(m, zero)) for k, m in enumerate(monos))
    assert (glued.alpha, glued.beta, glued.label) == (0.0, 1.0, "o") and glued.O is O
    for seg in (late, glued):
        if field == "zero-observable":
            assert list(seg.value.terms) == [()]
        else:
            assert list(seg.value.terms) == monos
        for k, mono in enumerate(monos):
            c = seg.value.coefficient(mono)
            if c is not None:
                assert np.shares_memory(c, seg.orders) and np.array_equal(c, seg.orders[k])


def test_segments_an_infinite_length_apart_are_rejected():
    # -1e308 and 1e308 are finite, but their distance overflows to inf: a
    # segment between them, made directly or by gluing, is refused
    th, O = QmTheory(np.zeros((2, 2))), np.zeros((2, 2))
    obs = {"o": O}
    orders = _orders(th, 0.0, 1.0, O)
    with pytest.raises(GeometryError, match="finite"):
        SegmentPF(th, -1e308, 1e308, "o", O, orders)
    lower, upper = qm_double_deform(th, obs, -1e308, 0.0), qm_double_deform(th, obs, 0.0, 1e308)
    with pytest.raises(GeometryError, match="finite"):
        upper.glue(lower)


@pytest.mark.parametrize("alpha, beta", [(-1e308, 0.0), (0.0, 1e308)])
def test_a_length_that_scales_the_generator_past_the_float_range_is_rejected(alpha, beta):
    # a finite length times the generator's 1-norm overflows: refused before
    # the exponential, whose scaling would read an infinite norm; on a zero
    # generator these lengths still build
    # (test_segments_an_infinite_length_apart_are_rejected)
    with pytest.raises(GeometryError, match="finite"):
        qm_double_deform(QmTheory(np.eye(2)), {"o": np.eye(2)}, alpha, beta)


def test_glue_endpoint_mismatch():
    th = QmTheory(np.eye(2))
    obs = {"o": np.ones((2, 2))}
    with pytest.raises(GeometryError, match="endpoint"):
        qm_double_deform(th, obs, 1.0, 2.0).glue(qm_double_deform(th, obs, 0.0, 0.5))


def test_fqft_qm_glue_does_not_build_the_value(tmp_path, monkeypatch):
    # `fqft qm` reads the orders alone: the glued segment it checks has not
    # built its value jet, and a first read builds it from the orders
    glued, glue = [], SegmentPF.glue

    def recording_glue(late, early):
        glued.append(glue(late, early))
        return glued[-1]

    monkeypatch.setattr(SegmentPF, "glue", recording_glue)
    assert main(["qm", "--dim", "4", "--out", str(tmp_path / "qm.json")]) == 0
    (seg,) = glued
    assert "value" not in vars(seg)
    monos = [(), ("gc[o]",), ("gc[o]", "gc[o]")]
    assert list(seg.value.terms) == monos and "value" in vars(seg)
    assert all(np.array_equal(seg.value.coefficient(m), seg.orders[k]) for k, m in enumerate(monos))


# ------------------------------------------------------------------- oracle


def _assert_oracle_matches_reference(got, H, O, T, order):
    want = oracle_ref.taylor_series_oracle(H, O, T, order=order)
    assert got.shape == (order + 1,) + np.shape(H) and got.dtype == want[0].dtype
    scale = max(np.max(np.abs(w)) for w in want)
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-15 * scale


@pytest.mark.parametrize("T", [0.0, 0.4, 1.0, 3.0])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_oracle_matches_coefficient_list_reference(order, field, T):
    # the stacked orders against the pairwise products of coefficient lists;
    # real inputs run in real arithmetic there, complex in the reference
    rng = np.random.default_rng(41 + order)
    for dim in (1, 3, 8, 16):
        H, O = rng.standard_normal((2, dim, dim))
        if field == "complex":
            H = H + 1j * rng.standard_normal((dim, dim))
        got = taylor_series_oracle(H, O, T, order=order)
        _assert_oracle_matches_reference(got, H, O, T, order)


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


def test_double_deform_by_zero_keeps_only_the_constant():
    # a zero observable gives zero first and second orders, and the jet
    # stores no zero matrix: only the evolution remains
    H = np.array([[1.0, 0.5], [0.0, 2.0]])
    theory = QmTheory(H)
    seg = qm_double_deform(theory, {"o": np.zeros((2, 2))}, 0.0, 1.0)
    assert list(seg.value.terms) == [()]
    want = _expm(-H)
    np.testing.assert_allclose(seg.value.coefficient(()), want, rtol=1e-14)
