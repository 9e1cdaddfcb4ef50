"""One-dimensional FQFT: quantum mechanics on a segment.

Partition functions on segments are Euclidean evolution operators
exp(-length * H); the cutting axiom is the semigroup law.  Deforming twice
by one observable, a constant endomorphism family O, reproduces
second-order perturbation theory.  A deformed segment is its stacked
orders in the combined coupling g_c, one (3, n, n) array: the top block
row of one Van Loan block exponential, of a block-Toeplitz matrix.  Gluing
two segments is one truncated product of those polynomials in g_c.  Each
segment also offers `value`, the same orders as a jet of views into the
stack, built on first read, which the benchmark's deform workload reads
until its next change.
A Taylor-series oracle, summed on the stacked orders of
exp(-T (H + g O)), checks the orders.  Segments of one Hamiltonian and
observable share what their exponentials read of the Van Loan matrix
alone, and each segment's own work runs on n x 3n top block rows.  At the
sizes the checks run (n up to a few dozen) the cost is mostly the number of
numpy calls, so all of this keeps its work in few, stacked calls.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _logger
from .errors import GeometryError, QuadratureError, ValidationError
from .jets import Jet, JetAlgebra


class QmTheory:
    """Finite-dimensional theory defined by an arbitrary Hamiltonian."""

    def __init__(self, H):
        H = np.atleast_2d(np.asarray(H))
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
            raise ValidationError("Hamiltonian must be a square matrix")
        if not _finite_numbers(H):
            raise ValidationError("Hamiltonian entries must be finite numbers")
        self.H = H.astype(np.result_type(H.dtype, np.float64))
        self.dim = H.shape[0]


def _finite_numbers(a) -> bool:
    # bool, integer, float or complex entries, all finite; isfinite raises a
    # TypeError on object and string arrays
    return a.dtype.kind in "biufc" and bool(np.isfinite(a).all())


def _check_endpoints(alpha, beta):
    # NaN fails every comparison; finite endpoints can lie an infinite length
    # apart, and an int beyond the float range compares finite with inf but
    # overflows float(), as in geometry._float
    try:
        finite = all(abs(float(x)) < math.inf for x in (alpha, beta, beta - alpha))
    except OverflowError:
        finite = False
    if not (finite and alpha <= beta):
        raise GeometryError("segment endpoints and length must be finite, with beta >= alpha")


class SegmentPF:
    """Partition function on [alpha, beta] of a theory deformed by one
    observable O, labelled `label`: its stacked orders in the combined
    coupling g_c, a (3, n, n) array of the evolution, the first and the
    second order.  `value` is the same polynomial as a jet of views into
    `orders`, its zero orders dropped, built on first read: glue and
    `fqft qm` read `orders` alone."""

    def __init__(self, theory, alpha, beta, label, O, orders):
        _check_endpoints(alpha, beta)
        self.theory = theory
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.label, self.O, self.orders = label, O, orders

    @cached_property
    def value(self) -> Jet:
        """The orders as a jet in g_c, built on first read."""
        gc = f"gc[{self.label}]"
        monos = [(), (gc,), (gc, gc)]
        # the monomials are sorted and allowed already; only zeros are left to drop
        nonzero = self.orders.any(axis=(1, 2))
        coeffs = {mono: c for mono, c, keep in zip(monos, self.orders, nonzero) if keep}
        return Jet._of(JetAlgebra.combined_coupling([self.label]), coeffs)

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
# the matrix exponential", SIMAX 31(3), 2009.
#
# Every matrix that evaluation forms is a polynomial in M, so it is
# block-Toeplitz too and fixed by its top block row, an n x 3n array; the
# top row of a product F G is F's top row times G.  Nothing that depends on
# M alone depends on T, since (T M)^k = T^k M^k: `_Generator` forms the even
# powers, their norms and the backward-error bound once per (H, O), and
# each segment scales the Pade coefficients by T^j, sums, solves and squares
# on top rows alone.  The solve needs one LU, of the n x n diagonal block.
# A plain n x n matrix is the one-block case of the same code.

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


def _toeplitz(row):
    """The block upper-triangular Toeplitz matrix whose top block row is
    `row` (n x k n): block (i, j) is block j - i of the row, zero below the
    diagonal.  One block is the row itself."""
    n, kn = row.shape
    if kn == n:
        return row
    full = np.zeros((kn, kn), dtype=row.dtype)
    for i in range(0, kn, n):
        full[i : i + n, i:] = row[:, : kn - i]
    return full


def _norm1(row):
    """||toeplitz(row)||_1: its last block column holds every block."""
    n = len(row)
    return float(np.abs(row).sum(axis=0).reshape(-1, n).sum(axis=0).max())


class _Generator:
    """exp(T M) for any length T, by degree-13 Pade scaling and squaring, of
    the block-Toeplitz M given by its top block row (n x k n).  Everything
    that depends on M alone is formed here once: M and M^6 in full, the top
    rows of M^2, M^4 and M^6, and what the squarings read of their norms."""

    def __init__(self, row):
        n, kn = row.shape
        self.n = n
        self.M = _toeplitz(row)
        # the top rows of the even powers M^2, M^4, M^6
        P = np.empty((3, n, kn), dtype=row.dtype)
        np.matmul(row, self.M, out=P[0])
        M2 = _toeplitz(P[0])
        np.matmul(P[0], M2, out=P[1])
        np.matmul(P[1], M2, out=P[2])
        del M2
        self.M6 = _toeplitz(P[2])
        self.powers = P.reshape(3, -1)
        # Al-Mohy & Higham 2009, Algorithm 5.1, with the exact 1-norms of
        # the formed powers: eta of T M is T times eta of M
        self.norm = _norm1(row)
        d4, d6 = _norm1(P[1]) ** (1 / 4), _norm1(P[2]) ** (1 / 6)
        self.eta = max(d4, d4**0.4 * d6**0.6)
        # ||abs(M)^27||_1 / ||M||_1^27, the same for T M at every T: one
        # chain of vectors 1^T B^k, in steps of B^2, with B = abs(M) / ||M||_1
        # (||B||_1 = 1, so its powers cannot overflow)
        self.top = 0.0
        if self.norm > 0:
            B = np.abs(self.M) / self.norm
            B2 = _toeplitz(B[:n] @ B)
            v = B.sum(axis=0)
            for _ in range(13):
                v = v @ B2  # v = 1^T B^27 at the end
            self.top = float(v.max())

    def squarings(self, T) -> int:
        """Squarings s for exp(T M) at degree 13: the eta rule of Algorithm
        5.1, plus the squarings that keep the backward error, bounded
        through ||abs(T M)^27||_1, below unit roundoff (their eq. (5.1))."""
        norm, eta = T * self.norm, T * self.eta
        if norm == 0:
            return 0
        s = max(0, math.ceil(math.log2(eta / _THETA))) if eta > 0 else 0
        if self.top == 0:
            return s
        # log2 of c ||abs(T M / 2^s)^27||_1 / ||T M / 2^s||_1
        log2_alpha = math.log2(self.top) + 26 * (math.log2(norm) - s) + _LOG2_C
        return s + max(0, math.ceil((log2_alpha + 53) / 26))

    def exp_row(self, T):
        """Top block row of exp(T M), an n x k n array."""
        n, kn = self.n, self.M.shape[1]
        if T == 0 or self.norm == 0:
            # exactly the identity, which the Pade solve of b_0 I is not
            X = np.zeros((n, kn), dtype=self.M.dtype)
            X[:, :n] = np.eye(n)
            return X
        s = self.squarings(T)
        # b_j (T M / 2^s)^j is b_j t^j M^j with t = T / 2^s, scaled exactly;
        # one product combines the powers' rows into the approximant's sums,
        # the column of b_0 and b_1 goes onto the identity block after them
        # (summed first, inside the product, it costs accuracy on
        # ill-conditioned inputs), and times M^6 the inner sums complete the
        # outer ones
        b = _PADE_MATRIX * math.ldexp(T, -s) ** _PADE_INDEX
        W = b[:, 1:] @ self.powers
        W[:, :: kn + 1] += b[:, :1]
        W = W.reshape(4 * n, kn)
        W[2 * n :] += W[: 2 * n] @ self.M6
        U, V = W[2 * n : 3 * n] @ self.M, W[3 * n :]
        # the Pade quotient X of D = V - U and N = V + U solves D X = N; on
        # top rows block j reads D_0 X_j + sum_{i>0} D_i X_{j-i} = N_j, so
        # one solve with D_0 gives N's and D's blocks over D_0, and block
        # back-substitution the rest
        D, N = V - U, V + U
        Y = np.linalg.solve(D[:, :n], np.concatenate((N, D[:, n:]), axis=1))
        k = kn // n
        blocks = Y.reshape(n, 2 * k - 1, n).swapaxes(0, 1)
        X, E = blocks[:k], blocks[k - 1 :]  # E[i] = D_0^-1 D_i for i > 0
        for j in range(1, k):
            for i in range(1, j + 1):
                X[j] -= E[i] @ X[j - i]
        X = Y[:, :kn]
        for _ in range(s):
            X = X @ _toeplitz(X)
        return X


# the generator of the last (H, O) pair: the segments of one `fqft qm` run or
# of one deform op share it.  One slot, not one per theory or observable,
# so that what it holds stays bounded in a process that makes many theories
_last = None


def _generator(H, O) -> _Generator:
    """The generator of the Van Loan matrix [[-H, O, 0], [0, -H, O], [0, 0,
    -H]], reused when H and O are, byte for byte and in dtype, those of the
    last call."""
    global _last
    key = (H.dtype, H.shape, H.tobytes(), O.dtype, O.shape, O.tobytes())
    last, n = _last, len(H)
    reused = last is not None and last[0] == key
    log = _logger(10)
    if log:
        log.debug("qm generator dim=%d %s", n, "reused" if reused else "built")
    if reused:
        return last[1]
    row = np.zeros((n, 3 * n), dtype=np.result_type(H, O))
    row[:, :n] = -H
    row[:, n : 2 * n] = O
    gen = _Generator(row)
    _last = (key, gen)
    return gen


# ------------------------------------------------------------- deformations


def qm_double_deform(theory: QmTheory, obs, alpha, beta) -> SegmentPF:
    """Deform twice by one observable O, written in its combined coupling:
    pf + g_c int <O> + (1/2) g_c^2 int int T{<O O>}.  `obs` is a one-entry
    mapping from the observable's label to O, an n x n array."""
    if len(obs) != 1:
        raise ValidationError(f"qm_double_deform takes exactly one observable, got {len(obs)}")
    ((label, O),) = obs.items()
    n, O = theory.dim, np.asarray(O)
    if O.shape != (n, n) or not _finite_numbers(O):
        raise ValidationError(f"observable {label!r} must be a finite {n}x{n} array")
    _check_endpoints(alpha, beta)
    gen = _generator(theory.H, O)
    # a finite length can still scale a nonzero generator past the float range
    if not (beta - alpha) * gen.norm < math.inf:
        raise GeometryError("segment length times the generator's 1-norm must be finite")
    # the top block row of one block-Toeplitz exponential: the evolution, the
    # first order and the ordered second order, which is half the
    # time-ordered integral
    row = gen.exp_row(beta - alpha)
    orders = row.reshape(n, 3, n).swapaxes(0, 1).copy()
    return SegmentPF(theory, alpha, beta, label, O, orders)


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
