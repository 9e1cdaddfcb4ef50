"""A test-side reference for the QM Taylor oracle: the same Taylor
approximant, stop rule and scaling as `fqft.qm.taylor_series_oracle`, but
with its matrix polynomials held as lists of coefficients (None for an order
not reached yet), multiplied pair by pair by `_poly_mat_mul`, and summed in
complex arithmetic."""

import numpy as np

from fqft.errors import QuadratureError

# the series stops at the first term below _TOL in every order, and gives up
# after _MAX_TERMS terms
_TOL = 1e-16
_MAX_TERMS = 200


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


def taylor_series_oracle(H, O, T, order=2):
    """Taylor coefficients in g of exp(-T (H + g O)), orders 0..order, as a
    list of matrices: real for real H and O, complex otherwise."""
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
    for k in range(1, _MAX_TERMS):
        term = [t / k if t is not None else None for t in _poly_mat_mul(term, M, order)]
        for i, t in enumerate(term):
            if t is not None:
                acc[i] = t if acc[i] is None else acc[i] + t
        if all(t is None or np.max(np.abs(t)) < _TOL for t in term):
            break
    else:
        raise QuadratureError("oracle series did not converge")
    acc = [a if a is not None else np.zeros((n, n), dtype=complex) for a in acc]
    for _ in range(s):
        acc = _poly_mat_mul(acc, acc, order)
        acc = [a if a is not None else np.zeros((n, n), dtype=complex) for a in acc]
    if real_inputs:
        acc = [a.real for a in acc]
    return acc
