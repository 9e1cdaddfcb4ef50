"""One-dimensional FQFT: quantum mechanics on a segment.

Partition functions on segments are Euclidean evolution operators
exp(-length * H); the cutting axiom is the semigroup law.  Constant
endomorphism families are good and give the usual time-ordered correlators,
and the double deformation reproduces second-order perturbation theory,
which we check against a matrix-exponential oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

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
    if beta < alpha:
        raise GeometryError("segment endpoints must satisfy beta >= alpha")
    if beta == alpha:
        value = np.eye(theory.dim, dtype=theory.H.dtype)
    else:
        value = expm(-(beta - alpha) * theory.H)
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
# Van Loan block exponential (C. F. Van Loan, IEEE TAC 23(3), 1978): the
# top-right block of expm(T * M), with -H on the block diagonal and X, Y, ...
# on the superdiagonal, is the ordered simplex integral of the alternating
# product e^{-s H} X e^{-s' H} Y ...  No eigenbasis is needed, so clustered,
# defective and complex spectra take the same path.


def _block_exp(theory: QmTheory, T, *blocks):
    """Top-right block of expm(T * M) for the Van Loan block matrix M."""
    n, k = theory.dim, len(blocks) + 1
    M = np.zeros((k * n, k * n), dtype=np.result_type(theory.H, *blocks))
    for i in range(k):
        M[i * n : (i + 1) * n, i * n : (i + 1) * n] = -theory.H
    for i, B in enumerate(blocks):
        M[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = B
    return expm(T * M)[:n, -n:].copy()


def first_order_integral(theory: QmTheory, O, alpha, beta):
    """int_alpha^beta e^{-(beta-tau)H} O e^{-(tau-alpha)H} dtau."""
    return _block_exp(theory, beta - alpha, np.asarray(O))


def second_order_ordered(theory: QmTheory, X, Y, alpha, beta):
    """int over alpha < tau2 < tau1 < beta of
    e^{-(beta-tau1)H} X e^{-(tau1-tau2)H} Y e^{-(tau2-alpha)H}."""
    return _block_exp(theory, beta - alpha, np.asarray(X), np.asarray(Y))


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
    coeffs = {(): evolve(theory, alpha, beta).value}
    for l in labels:
        coeffs[(f"g[{l}]",)] = first_order_integral(theory, obs[l], alpha, beta)
    return SegmentPF(theory, alpha, beta, Jet(alg, coeffs))


def qm_double_deform(theory: QmTheory, obs, alpha, beta) -> SegmentPF:
    """Deform twice by the same family and rewrite in the combined coupling:
    pf + g_c^a int <O_a> + (1/2) g_c^a g_c^b int int T{<O_a O_b>}."""
    labels = sorted(obs)
    alg = JetAlgebra.double_coupling(labels)
    first = {l: first_order_integral(theory, obs[l], alpha, beta) for l in labels}
    coeffs = {(): evolve(theory, alpha, beta).value}
    for l in labels:
        coeffs[(f"g[{l}]",)] = first[l]
        coeffs[(f"gt[{l}]",)] = first[l]
    # the time-ordered integral is symmetric, so each unordered pair is
    # computed once and stored under both of its monomials
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if a == b:
                S = 2 * second_order_ordered(theory, obs[a], obs[a], alpha, beta)
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
