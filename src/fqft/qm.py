"""One-dimensional FQFT: quantum mechanics on a segment.

Partition functions on segments are Euclidean evolution operators
exp(-length * H); the cutting axiom is the semigroup law.  Deforming twice
by one observable, a constant endomorphism family O, reproduces
second-order perturbation theory.  A deformed segment is its stacked
orders in the combined coupling g_c, one (3, n, n) array: the top block
row of one Van Loan block exponential, of a block-Toeplitz matrix.  Gluing
two segments is one truncated product of those polynomials in g_c.  Each
segment also carries `value`, the same orders as a jet of views into the
stack, which the benchmark's deform workload reads until its next change.
A Taylor-series oracle, summed on the stacked orders of
exp(-T (H + g O)), checks the orders.  At the sizes the checks run (n up
to a few dozen) the cost is mostly the number of numpy calls, so all of
this keeps its work in few, stacked calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError, QuadratureError, ValidationError
from .jets import Jet, JetAlgebra


class QmTheory:
    """Finite-dimensional theory defined by an arbitrary Hamiltonian."""

    def __init__(self, H):
        H = np.atleast_2d(np.asarray(H))
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
            raise ValidationError("Hamiltonian must be a square matrix")
        if not np.isfinite(H).all():
            raise ValidationError("Hamiltonian entries must be finite")
        self.H = H.astype(np.result_type(H.dtype, np.float64))
        self.dim = H.shape[0]


def _check_endpoints(alpha, beta):
    # NaN fails every comparison, so it fails this one too
    if not -math.inf < alpha <= beta < math.inf:
        raise GeometryError("segment endpoints must be finite and satisfy beta >= alpha")


class SegmentPF:
    """Partition function on [alpha, beta] of a theory deformed by one
    observable O, labelled `label`: its stacked orders in the combined
    coupling g_c, a (3, n, n) array of the evolution, the first and the
    second order.  `value` is the same polynomial as a jet of views into
    `orders`, its zero orders dropped."""

    def __init__(self, theory, alpha, beta, label, O, orders):
        _check_endpoints(alpha, beta)
        self.theory = theory
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.label, self.O, self.orders = label, O, orders
        gc = f"gc[{label}]"
        monos = [(), (gc,), (gc, gc)]
        # the monomials are sorted and allowed already; only zeros are left to drop
        nonzero = orders.any(axis=(1, 2))
        coeffs = {mono: c for mono, c, keep in zip(monos, orders, nonzero) if keep}
        self.value = Jet._of(JetAlgebra.combined_coupling([label]), coeffs)

    def glue(self, inner: "SegmentPF") -> "SegmentPF":
        """Compose with the earlier segment: self on [gamma, beta], inner on
        [alpha, gamma].  The orders multiply as polynomials in g_c truncated
        past g_c^2: order k sums self's order i times inner's order k - i."""
        if self.theory is not inner.theory:
            raise GeometryError("segments belong to different theories")
        if self.label != inner.label or not (
            self.O is inner.O or np.array_equal(self.O, inner.O)
        ):
            raise GeometryError("segments are deformed by different observables")
        if self.alpha != inner.beta:
            raise GeometryError("segments do not share an endpoint")
        # the six products in one batched matmul; each order sums its
        # products left to right, in ascending order of self's index (an
        # np.add.reduceat would add the last two of order 2 first)
        p = self.orders.take(_OUTER, axis=0) @ inner.orders.take(_INNER, axis=0)
        orders = np.stack((p[0], p[1] + p[2], p[3] + p[4] + p[5]))
        return SegmentPF(self.theory, inner.alpha, self.beta, self.label, self.O, orders)


# the index pairs (i, k - i) of the truncated product, grouped by order k
_OUTER = np.array([0, 0, 1, 0, 1, 2])
_INNER = np.array([0, 1, 0, 2, 1, 0])


# ---------------------------------------------------------- segment integrals
#
# Van Loan block exponential (C. F. Van Loan, "Computing integrals involving
# the matrix exponential", IEEE TAC 23(3), 1978): with -H on the three
# diagonal blocks and the observable O on both superdiagonal blocks, M is
# block-Toeplitz, and the top block row of expm(T * M) holds exp(-T H), the
# integral of e^{-(T - s) H} O e^{-s H} over [0, T], and the ordered double
# integral with O inserted at s < s'.  No eigenbasis is needed, so
# clustered, defective and complex spectra take the same path.  The
# exponential itself is numpy-only scaling and squaring with the degree-13
# diagonal Pade approximant (N. J. Higham, "The scaling and squaring method
# for the matrix exponential revisited", SIMAX 26(4), 2005), its squarings
# chosen from ||A^k||_1^(1/k) as in the degree-13 branch of Algorithm 5.1 of
# A. H. Al-Mohy and N. J. Higham, "A new scaling and squaring algorithm for
# the matrix exponential", SIMAX 31(3), 2009.  The even powers are formed
# once, in one stack; one product combines them into the approximant's sums,
# and one chain of vector products with abs(A) bounds its backward error.

# largest ||A||_1 at which the approximant's backward error stays below the
# double-precision unit roundoff (Al-Mohy & Higham 2009, Algorithm 5.1)
_THETA = 4.25
# log2 |c_27|, the leading coefficient of the approximant's error series
_LOG2_C = math.log2(math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27)))
# which Pade numerator coefficient b_j = (26-j)! / (j! (13-j)!) multiplies
# which even power [I, A^2, A^4, A^6], as an index matrix: the inner sums
# that A^6 multiplies (their b_0 is zeroed: they have no identity term),
# then the outer ones
_PADE_INDEX = np.array([[0, 9, 11, 13], [0, 8, 10, 12], [1, 3, 5, 7], [0, 2, 4, 6]])
_PADE_MATRIX = np.array(
    [math.factorial(26 - j) / (math.factorial(j) * math.factorial(13 - j)) for j in range(14)]
)[_PADE_INDEX]
_PADE_MATRIX[:2, 0] = 0.0


def _squarings(A, A46) -> int:
    """Squarings s for exp(A) at degree 13: Al-Mohy & Higham 2009, Algorithm
    5.1, with the exact 1-norms of the formed powers A^4 and A^6 (stacked in
    A46), plus the squarings that keep the backward error, bounded through
    ||abs(A)^27||_1, below unit roundoff (their eq. (5.1)).  Since
    abs(A / 2^s) / ||A / 2^s||_1 = abs(A) / ||A||_1 = B for every s, one
    chain of vectors 1^T B^k, in steps of B^2, serves the scaled matrix."""
    B = np.abs(A)
    colsums = B.sum(axis=0)
    norm = float(colsums.max())
    if norm == 0:
        return 0
    d4, d6 = np.abs(A46).sum(axis=1).max(axis=1) ** [1 / 4, 1 / 6]
    eta = max(d4, d4**0.4 * d6**0.6)
    s = max(0, math.ceil(math.log2(eta / _THETA))) if eta > 0 else 0
    B /= norm  # ||B||_1 = 1, so its powers cannot overflow
    B2 = B @ B
    v = colsums / norm
    for _ in range(13):
        v = v @ B2  # v = 1^T B^27 at the end
    top = float(v.max())  # ||abs(A)^27||_1 / norm^27
    if top == 0:
        return s
    # log2 of c ||abs(A / 2^s)^27||_1 / ||A / 2^s||_1
    log2_alpha = math.log2(top) + 26 * (math.log2(norm) - s) + _LOG2_C
    return s + max(0, math.ceil((log2_alpha + 53) / 26))


def _expm(A):
    """exp(A) for a square numpy array, by scaling and squaring."""
    N = len(A)
    if not A.any():
        # exactly the identity, which the Pade solve of b_0 I is not
        return np.eye(N, dtype=A.dtype)
    # the even powers A^2, A^4, A^6
    P = np.empty((3, N, N), dtype=A.dtype)
    np.matmul(A, A, out=P[0])
    np.matmul(P[0], P[0], out=P[1])
    np.matmul(P[1], P[0], out=P[2])
    s = _squarings(A, P[1:])
    # b_j (A / 2^s)^j is (b_j / 2^(s j)) A^j, exactly, since 2^s is a power
    # of two; the column of b_0 and b_1 goes onto the diagonals, the others
    # combine the powers in one product, and A^6 times the inner sums
    # completes the outer ones
    b = np.ldexp(_PADE_MATRIX, -s * _PADE_INDEX)
    W = b[:, 1:] @ P.reshape(3, -1)
    W[:, :: N + 1] += b[:, :1]
    W = W.reshape(4, N, N)
    W[2:] += P[2] @ W[:2]
    del P  # free the powers before the solve makes its own copies
    U, V = A @ W[2], W[3]
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def _block_row(theory: QmTheory, alpha, beta, O):
    """Top block row of expm((beta - alpha) * M) for the block-Toeplitz Van
    Loan matrix M of one observable, [[-H, O, 0], [0, -H, O], [0, 0, -H]]:
    exp(-(beta - alpha) H), the first-order integral of O and the ordered
    second-order one, stacked in one (3, n, n) array."""
    _check_endpoints(alpha, beta)
    n, T = theory.dim, beta - alpha
    M = np.zeros((3, n, 3, n), dtype=np.result_type(theory.H, O))
    i = np.arange(3)
    M[i, :, i] = -T * theory.H
    M[i[:-1], :, i[1:]] = T * O
    E = _expm(M.reshape(3 * n, 3 * n))
    # one copy of the top row, so that E is not kept alive by its blocks
    return E[:n].reshape(n, 3, n).swapaxes(0, 1).copy()


# ------------------------------------------------------------- deformations


def qm_double_deform(theory: QmTheory, obs, alpha, beta) -> SegmentPF:
    """Deform twice by one observable O, written in its combined coupling:
    pf + g_c int <O> + (1/2) g_c^2 int int T{<O O>}.  `obs` is a one-entry
    mapping from the observable's label to O, an n x n array."""
    if len(obs) != 1:
        raise ValidationError(f"qm_double_deform takes exactly one observable, got {len(obs)}")
    ((label, O),) = obs.items()
    n, O = theory.dim, np.asarray(O)
    if O.shape != (n, n) or not np.isfinite(O).all():
        raise ValidationError(f"observable {label!r} must be a finite {n}x{n} array")
    # one block-Toeplitz exponential: its top block row is the evolution, the
    # first order and the ordered second order, which is half the
    # time-ordered integral
    return SegmentPF(theory, alpha, beta, label, O, _block_row(theory, alpha, beta, O))


# ------------------------------------------------------------------- oracle


# the oracle's series stops at the first term below _ORACLE_TOL in every
# order, and gives up after _ORACLE_MAX_TERMS terms
_ORACLE_TOL = 1e-16
_ORACLE_MAX_TERMS = 200


def taylor_series_oracle(H, O, T, order=2):
    """Taylor coefficients in g of exp(-T (H + g O)), orders 0..order, as one
    (order + 1, n, n) array.

    Scaling-and-squaring on matrix-valued polynomials, held as stacks of
    their coefficients: the series for the scaled exponent is summed term by
    term, then squared back up.  Entirely independent of the Van Loan
    block-exponential integrals.
    """
    # real inputs keep real arithmetic: the series and its squares stay real
    dtype = complex if np.iscomplexobj(H) or np.iscomplexobj(O) else float
    H, O = np.asarray(H, dtype=dtype), np.asarray(O, dtype=dtype)
    norm = max(abs(T) * max(np.abs(H).max(), np.abs(O).max()), 1e-30)
    s = max(0, math.ceil(math.log2(norm)) + 1)
    M0, M1 = -(T / 2**s) * H, -(T / 2**s) * O
    # the k-th term of the series is term_{k-1} (M0 + g M1) / k, truncated
    # past g^order
    term = np.zeros((order + 1,) + H.shape, dtype=dtype)
    term[0] = np.eye(len(H))
    acc = term.copy()
    for k in range(1, _ORACLE_MAX_TERMS):
        nxt = term @ M0
        nxt[1:] += term[:-1] @ M1
        nxt /= k
        term = nxt
        acc += term
        if np.abs(term).max() < _ORACLE_TOL:
            break
    else:  # pragma: no cover
        raise QuadratureError("oracle series did not converge")
    # squaring: order j of acc^2 is the sum over i of acc_i acc_{j-i}
    for _ in range(s):
        sq = acc[0] @ acc
        for i in range(1, order + 1):
            sq[i:] += acc[i] @ acc[: order + 1 - i]
        acc = sq
    return acc
