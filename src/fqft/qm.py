"""One-dimensional FQFT: quantum mechanics on a segment.

Partition functions on segments are Euclidean evolution operators
exp(-length * H); the cutting axiom is the semigroup law.  Constant
endomorphism families are good and give the usual time-ordered correlators,
and the double deformation reproduces second-order perturbation theory,
which we check against a matrix-exponential oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError, QuadratureError, ValidationError
from .jets import Jet, JetAlgebra, jet_mul, recombine


class QmTheory:
    """Finite-dimensional theory defined by an arbitrary Hamiltonian."""

    def __init__(self, H):
        H = np.atleast_2d(np.asarray(H))
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
            raise ValidationError("Hamiltonian must be a square matrix")
        if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
            raise ValidationError("Hamiltonian entries must be finite")
        self.H = H.astype(np.result_type(H.dtype, np.float64))
        self.dim = H.shape[0]


class SegmentPF:
    """Partition function on [alpha, beta]; value is a matrix, or a jet of
    matrices for deformed theories."""

    def __init__(self, theory, alpha, beta, value):
        if not beta >= alpha:
            raise GeometryError("segment endpoints must satisfy beta >= alpha")
        self.theory = theory
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.value = value

    @property
    def length(self):
        return self.beta - self.alpha

    def glue(self, inner: "SegmentPF") -> "SegmentPF":
        """Compose with the earlier segment: self on [gamma, beta], inner on
        [alpha, gamma]."""
        if self.theory is not inner.theory:
            raise GeometryError("segments belong to different theories")
        if self.alpha != inner.beta:
            raise GeometryError("segments do not share an endpoint")
        if isinstance(self.value, Jet):
            value = jet_mul(self.value, inner.value)
        else:
            value = self.value @ inner.value
        return SegmentPF(self.theory, inner.alpha, self.beta, value)


def evolve(theory: QmTheory, alpha, beta) -> SegmentPF:
    """exp(-(beta - alpha) H), the Euclidean evolution operator."""
    (value,) = _block_row(theory, alpha, beta)
    return SegmentPF(theory, alpha, beta, value)


def qm_correlator(theory: QmTheory, insertions, alpha, beta):
    """<O_1(tau_1) ... O_k(tau_k)> with tau_1 > ... > tau_k: the alternating
    product of evolutions and observables.  insertions: [(O, tau), ...]."""
    taus = [tau for _, tau in insertions]
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValidationError("insertion times must be strictly decreasing")
    if taus and not (alpha < taus[-1] and taus[0] < beta):
        raise ValidationError("insertion times must lie inside the segment")
    out = None
    prev = beta
    for O, tau in insertions:
        seg = evolve(theory, tau, prev).value
        out = seg if out is None else out @ seg
        out = out @ np.asarray(O)
        prev = tau
    seg = evolve(theory, alpha, prev).value
    return seg if out is None else out @ seg


def time_ordered(theory: QmTheory, a, b, alpha, beta):
    """Time-ordered two-point correlator.

    a, b are (matrix, time) pairs.  Returns (matrix, coincident): coincident
    times resolve to the symmetrized product (O_a O_b + O_b O_a)/2, flagged
    in the second component.
    """
    (Oa, tau), (Ob, taut) = a, b
    if tau > taut:
        return qm_correlator(theory, [(Oa, tau), (Ob, taut)], alpha, beta), False
    if tau < taut:
        return qm_correlator(theory, [(Ob, taut), (Oa, tau)], alpha, beta), False
    Oa, Ob = np.asarray(Oa), np.asarray(Ob)
    sym = (Oa @ Ob + Ob @ Oa) / 2
    return qm_correlator(theory, [(sym, tau)], alpha, beta), True


# ---------------------------------------------------------- segment integrals
#
# Van Loan block exponential (C. F. Van Loan, "Computing integrals involving
# the matrix exponential", IEEE TAC 23(3), 1978): with -H on the block
# diagonal and X, Y, ... on the superdiagonal, the top block row of
# expm(T * M) holds exp(-T H) and then the ordered simplex integrals of the
# alternating products e^{-s H} X e^{-s' H} ..., one insertion more per block.
# No eigenbasis is needed, so clustered, defective and complex spectra take
# the same path.  The exponential itself is numpy-only scaling and squaring
# with a diagonal Pade approximant (N. J. Higham, "The scaling and squaring
# method for the matrix exponential revisited", SIMAX 26(4), 2005), of degree
# and scaling chosen from ||A^k||_1^(1/k) as in A. H. Al-Mohy and
# N. J. Higham, "A new scaling and squaring algorithm for the matrix
# exponential", SIMAX 31(3), 2009.

# largest ||A||_1 at which the degree-m approximant's backward error stays
# below the double-precision unit roundoff (Al-Mohy & Higham 2009, Table 3.1;
# 4.25 for degree 13 as in their Algorithm 5.1)
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 4.25,
}
# Pade numerator coefficients b_j = (2m-j)! / (j! (m-j)!), scaled so b_m = 1
_PADE = {
    m: [
        math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)
    ]
    for m in _THETA
}


def _onenorm(A):
    return float(np.abs(A).sum(axis=0).max())


def _ell(A, m):
    """Squarings to add so that the degree-m backward error of A, bounded
    through ||abs(A)^(2m+1)||_1, stays below unit roundoff (Al-Mohy & Higham
    2009, eq. (5.1) and Algorithm 5.1)."""
    norm = _onenorm(A)
    if norm == 0:
        return 0
    B = np.abs(A) / norm  # ||B||_1 = 1, so its powers cannot overflow
    v = np.ones(len(A))
    for _ in range(2 * m + 1):
        v = v @ B
    top = float(v.max())  # ||abs(A)^(2m+1)||_1 / norm^(2m+1)
    if top == 0:
        return 0
    # |c_{2m+1}|, the leading coefficient of the approximant's error series
    c = math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
    log2_alpha = math.log2(top) + 2 * m * math.log2(norm) + math.log2(c)
    return max(0, math.ceil((log2_alpha + 53) / (2 * m)))


def _pade_choice(A, A4, A6):
    """(degree, squarings) for exp(A): Al-Mohy & Higham 2009, Algorithm 5.1,
    with the exact 1-norms of the formed powers A^4 and A^6, and the bounds
    ||A^8|| <= ||A^4||^2 and ||A^10|| <= ||A^4|| ||A^6|| for those not formed."""
    d4, d6 = _onenorm(A4) ** (1 / 4), _onenorm(A6) ** (1 / 6)
    eta = max(d4, d6)
    for m in (3, 5, 7, 9):
        if eta < _THETA[m] and _ell(A, m) == 0:
            return m, 0
    eta = max(d4, d4**0.4 * d6**0.6)
    s = max(0, math.ceil(math.log2(eta / _THETA[13]))) if eta > 0 else 0
    return 13, s + _ell(A / 2**s, 13)


def _expm(A):
    """exp(A) for a square numpy array, by scaling and squaring."""
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    m, s = _pade_choice(A, A4, A6)
    # the scaling A -> A / 2^s goes into the coefficients: b_j (A / 2^s)^j
    # is (b_j / 2^(s j)) A^j, exactly, since 2^s is a power of two
    b = [math.ldexp(bj, -s * j) for j, bj in enumerate(_PADE[m])]
    if m < 13:
        powers = [A2, A4, A6, A4 @ A4] if m == 9 else [A2, A4, A6][: m // 2]
        U = sum(b[2 * k + 3] * P for k, P in enumerate(powers))
        V = sum(b[2 * k + 2] * P for k, P in enumerate(powers))
    else:
        U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
    U.flat[:: len(A) + 1] += b[1]
    U = A @ U
    V.flat[:: len(A) + 1] += b[0]
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def _block_row(theory: QmTheory, alpha, beta, *blocks):
    """Top block row of expm((beta - alpha) * M) for the Van Loan block
    matrix M: exp(-(beta - alpha) H), then one integral per inserted block."""
    if beta < alpha:
        raise GeometryError("segment endpoints must satisfy beta >= alpha")
    blocks = [np.asarray(B) for B in blocks]
    n, k, T = theory.dim, len(blocks) + 1, beta - alpha
    M = np.zeros((k * n, k * n), dtype=np.result_type(theory.H, *blocks))
    diagonal = -T * theory.H
    for i in range(k):
        M[i * n : (i + 1) * n, i * n : (i + 1) * n] = diagonal
    for i, B in enumerate(blocks):
        M[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = T * B
    E = _expm(M)
    return [E[:n, i * n : (i + 1) * n].copy() for i in range(k)]


def first_order_integral(theory: QmTheory, O, alpha, beta):
    """int_alpha^beta e^{-(beta-tau)H} O e^{-(tau-alpha)H} dtau."""
    return _block_row(theory, alpha, beta, O)[1]


def second_order_ordered(theory: QmTheory, X, Y, alpha, beta):
    """int over alpha < tau2 < tau1 < beta of
    e^{-(beta-tau1)H} X e^{-(tau1-tau2)H} Y e^{-(tau2-alpha)H}."""
    return _block_row(theory, alpha, beta, X, Y)[2]


def time_ordered_integral(theory: QmTheory, Oa, Ob, alpha, beta):
    """Double integral of the time-ordered two-point correlator over the
    square [alpha, beta]^2; symmetric in (Oa, Ob)."""
    return second_order_ordered(theory, Oa, Ob, alpha, beta) + second_order_ordered(
        theory, Ob, Oa, alpha, beta
    )


# ------------------------------------------------------------- deformations


def qm_deform(theory: QmTheory, obs, alpha, beta) -> SegmentPF:
    """First-order deformation by the constant families in `obs`:
    pf + g^a * int <O_a(tau)> dtau, with first-order nilpotent couplings."""
    labels = sorted(obs)
    alg = JetAlgebra({"g": ([f"g[{l}]" for l in labels], 1)}, truncation=2)
    # one 2n x 2n exponential per label: (1,1) is the evolution, (1,2) the integral
    rows = {l: _block_row(theory, alpha, beta, obs[l]) for l in labels}
    coeffs = {(): rows[labels[0]][0] if labels else evolve(theory, alpha, beta).value}
    for l in labels:
        coeffs[(f"g[{l}]",)] = rows[l][1]
    return SegmentPF(theory, alpha, beta, Jet(alg, coeffs))


def qm_double_deform(theory: QmTheory, obs, alpha, beta) -> SegmentPF:
    """Deform twice by the same family and rewrite in the combined coupling:
    pf + g_c^a int <O_a> + (1/2) g_c^a g_c^b int int T{<O_a O_b>}."""
    labels = sorted(obs)
    alg = JetAlgebra.double_coupling(labels)
    # one 3n x 3n exponential per label: its top block row is the evolution,
    # the first order and the ordered second order of that label
    rows = {l: _block_row(theory, alpha, beta, obs[l], obs[l]) for l in labels}
    coeffs = {(): rows[labels[0]][0] if labels else evolve(theory, alpha, beta).value}
    for l in labels:
        coeffs[(f"g[{l}]",)] = rows[l][1]
        coeffs[(f"gt[{l}]",)] = rows[l][1]
    # the time-ordered integral is symmetric, so each unordered pair is
    # computed once and stored under both of its monomials
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if a == b:
                S = 2 * rows[a][2]
            else:
                S = time_ordered_integral(theory, obs[a], obs[b], alpha, beta)
            coeffs[tuple(sorted((f"gt[{a}]", f"g[{b}]")))] = S
            coeffs[tuple(sorted((f"gt[{b}]", f"g[{a}]")))] = S
    raw = Jet(alg, coeffs)
    return SegmentPF(theory, alpha, beta, recombine(raw, labels))


# ------------------------------------------------------------------- oracle


def _poly_mat_mul(A, B, order):
    """Product of matrix-valued polynomials in g, truncated past g^order."""
    out = [None] * (order + 1)
    for i, a in enumerate(A):
        if a is None:
            continue
        for j, b in enumerate(B):
            if b is None or i + j > order:
                continue
            term = a @ b
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return out


def taylor_series_oracle(H, O, T, order=2, tol=1e-16, max_terms=200):
    """Taylor coefficients in g of exp(-T (H + g O)), orders 0..order.

    Scaling-and-squaring on matrix-valued polynomials: the series for the
    scaled exponent is summed term by term, then squared back up.  Entirely
    independent of the Van Loan block-exponential integrals.
    """
    real_inputs = not (np.iscomplexobj(H) or np.iscomplexobj(O))
    H, O = np.asarray(H, dtype=complex), np.asarray(O, dtype=complex)
    n = H.shape[0]
    norm = max(float(np.max(np.abs(T * H))), float(np.max(np.abs(T * O))), 1e-30)
    s = max(0, int(np.ceil(np.log2(norm))) + 1)
    scale = T / 2**s
    M = [-scale * H, -scale * O] + [None] * (order - 1)
    eye = np.eye(n, dtype=complex)
    acc = [eye] + [None] * order
    term = [eye] + [None] * order
    for k in range(1, max_terms):
        term = [t / k if t is not None else None for t in _poly_mat_mul(term, M, order)]
        for i, t in enumerate(term):
            if t is not None:
                acc[i] = t if acc[i] is None else acc[i] + t
        if all(t is None or np.max(np.abs(t)) < tol for t in term):
            break
    else:  # pragma: no cover
        raise QuadratureError("oracle series did not converge")
    acc = [a if a is not None else np.zeros((n, n), dtype=complex) for a in acc]
    for _ in range(s):
        acc = _poly_mat_mul(acc, acc, order)
        acc = [a if a is not None else np.zeros((n, n), dtype=complex) for a in acc]
    if real_inputs:
        acc = [a.real for a in acc]
    return acc
