"""Dense linear algebra of the interior-point method (see sdp).

Orthonormal rows for the independent equality rows; Cholesky factors with
escalating diagonal regularization, of one matrix or batched over a stack;
blocked triangular substitution with the factor; and the solver of the
saddle-point (KKT) system of each Newton step, through the Cholesky factor
of the Schur matrix M, or by one dense LU solve when the system is small.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["chol_regularized", "chol_solver", "chol_stack", "kkt_solver", "orthonormal_rows"]


def orthonormal_rows(E: np.ndarray, e: np.ndarray):
    """Orthonormal rows V for the independent rows of E u = e (m, N), with
    V u = e_kept the same system: (V^T as contiguous columns, e_kept, the
    route), "gram" where _gram_rows can show the thin SVD's rank, "svd"
    where the thin SVD decides."""
    kept = _gram_rows(E, e)
    return (*kept, "gram") if kept is not None else (*_svd_rows(E, e), "svd")


def _gram_rows(E: np.ndarray, e: np.ndarray):
    """V = diag(lam)^{-1/2} U^T E from E E^T = U diag(lam) U^T, over the
    eigenvalues above the Gram matrix's rounding tol lam_1, tol = max(m, N)
    eps.  The Gram matrix loses half the digits of the small singular
    values, so None unless the route keeps the SVD's rule sigma > tol
    sigma_1: the kept eigenvalues must stand clear of the rounding (none
    below sqrt(tol) lam_1), and ||E - E V^T V||_F, which bounds every
    dropped singular value, must be within tol sigma_1."""
    tol = max(E.shape) * np.finfo(float).eps
    lam, U = np.linalg.eigh(E @ E.T)  # ascending
    top = max(float(lam[-1]), 0.0)
    rank = int(np.sum(lam > tol * top))
    if rank and lam[-rank] < math.sqrt(tol) * top:
        return None
    W = U[:, len(lam) - rank:] / np.sqrt(lam[len(lam) - rank:])
    del U
    Vt = E.T @ W
    residual = (E @ Vt) @ Vt.T
    residual -= E
    if np.linalg.norm(residual) > tol * math.sqrt(top):
        return None
    return Vt, W.T @ e


def _svd_rows(E: np.ndarray, e: np.ndarray):
    """The rows of _gram_rows from one thin SVD of E, whose rank rule
    keeps the singular values above max(m, N) eps sigma_1."""
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    rank = int(np.sum(sv > max(E.shape) * np.finfo(float).eps * sv[0]))
    return np.ascontiguousarray(Vt[:rank].T), U[:, :rank].T @ e / sv[:rank]


def _chol(mat: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def chol_regularized(mat: np.ndarray):
    """Cholesky with escalating diagonal regularization; None when hopeless."""
    L = _chol(mat)
    if L is not None:
        return L
    scale = max(np.trace(mat) / mat.shape[0], 1.0)
    for boost in (1e-14, 1e-11, 1e-8):
        L = _chol(mat + boost * scale * np.eye(mat.shape[0]))
        if L is not None:
            return L
    return None


def chol_stack(mats: np.ndarray):
    """Cholesky factors of a matrix or a stack of them, in one batched call;
    if any block is not numerically positive definite, block by block with
    chol_regularized.  None when some block stays hopeless."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        side = mats.shape[-1]
        factors = [chol_regularized(m) for m in mats.reshape(-1, side, side)]
        if any(L is None for L in factors):
            return None
        return np.reshape(factors, mats.shape)


_SUBST_BLOCK = 32


def _triangular(L: np.ndarray):
    """Solvers for  L x = rhs  (forward) and  L^T x = rhs  (backward) by
    blocked substitution; forward takes a vector or a matrix of columns.

    The inverses of L's small diagonal blocks are formed once, in one batched
    call; each solve is then O(N^2) matrix-vector (or matrix) work.  forward
    halves the blocks recursively, so that with a matrix of columns most of
    its work is a few large products rather than many thin ones."""
    N = L.shape[0]
    spans = [(a, min(a + _SUBST_BLOCK, N)) for a in range(0, N, _SUBST_BLOCK)]
    diag = np.tile(np.eye(_SUBST_BLOCK), (len(spans), 1, 1))
    for k, (a, b) in enumerate(spans):
        diag[k, : b - a, : b - a] = L[a:b, a:b]
    # identity padding of the last block leaves its inverse exact
    inv = [blk[: b - a, : b - a] for blk, (a, b) in zip(np.linalg.inv(diag), spans)]

    def forward(rhs: np.ndarray) -> np.ndarray:
        w = np.array(rhs, dtype=float)
        _forward_blocks(L, spans, inv, w, 0, len(spans))
        return w

    def backward(rhs: np.ndarray) -> np.ndarray:
        x = np.empty(N)
        for (a, b), Ki in zip(reversed(spans), reversed(inv)):
            x[a:b] = (rhs[a:b] - x[b:] @ L[b:, a:b]) @ Ki
        return x

    return forward, backward


def _forward_blocks(L: np.ndarray, spans: list, inv: list, w: np.ndarray, i: int, j: int) -> None:
    """Blocks i..j-1 of w <- L^{-1} w in place, halving the range: the
    update between the halves is one product."""
    if j - i == 1:
        a, b = spans[i]
        w[a:b] = inv[i] @ w[a:b]
        return
    h = (i + j) // 2
    a, m, b = spans[i][0], spans[h][0], spans[j - 1][1]
    _forward_blocks(L, spans, inv, w, i, h)
    w[m:b] -= L[m:b, a:m] @ w[a:m]
    _forward_blocks(L, spans, inv, w, h, j)


def chol_solver(L: np.ndarray):
    """Solver for  L L^T x = rhs."""
    forward, backward = _triangular(L)
    return lambda rhs: backward(forward(rhs))


# up to this many unknowns N + m, one LU solve of the whole system per right-hand
# side is cheaper than the Cholesky route's set-up and solves; measured, one BLAS
# thread: 80-150 us against 300-370 us per iteration at 40-64, dearer from 82 on
_DENSE_KKT = 64


def _dense_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """K^{-1} rhs, or the minimum-norm least-squares solution when K is
    exactly singular."""
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(K, rhs, rcond=None)[0]


def kkt_solver(M: np.ndarray, E: np.ndarray):
    """Solver of the saddle-point system

        [ M  -E^T ] [ du   ]   [ b ]
        [ E   0   ] [ dlam ] = [ q ],

    through M = L L^T, W = L^{-1} E^T and the Cholesky factor of
    K = W^T W = E M^{-1} E^T: dlam = K^{-1} (q - W^T L^{-1} b) and
    du = L^{-T} (L^{-1} b + W dlam).  Small systems take one LU solve of
    the whole matrix instead, unless a moment is missing from M (which the
    Cholesky route regularizes).  Returns the solver and whether it reuses
    one factorization (the Cholesky route), where the LU route factors at
    every solve; None when M or K cannot be factored."""
    N, m = M.shape[0], E.shape[0]
    if N + m <= _DENSE_KKT and np.all(np.diagonal(M) > 0.0):
        K = np.zeros((N + m, N + m))
        K[:N, :N] = M
        K[:N, N:] = -E.T
        K[N:, :N] = E

        def dense(b: np.ndarray, q: np.ndarray):
            x = _dense_solve(K, np.concatenate((b, q)))
            return x[:N], x[N:]

        return dense, False
    LM = chol_regularized(M)
    if LM is None:
        return None
    forward, backward = _triangular(LM)
    if not m:
        return (lambda b, q: (backward(forward(b)), np.zeros(0))), True
    W = forward(E.T)
    LK = chol_regularized(W.T @ W)
    if LK is None:
        return None
    k_solve = chol_solver(LK)

    def solve(b: np.ndarray, q: np.ndarray):
        z = forward(b)
        dlam = k_solve(q - W.T @ z)
        return backward(z + W @ dlam), dlam

    return solve, True
