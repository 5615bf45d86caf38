"""Dense linear algebra of the interior-point method (see sdp).

Orthonormal rows for the independent equality rows, and a pivoted basis
of their kernel (null_basis), whose pivots Gaussian elimination with
partial pivoting chooses; Cholesky factors with escalating diagonal
regularization, of one matrix or batched over a stack; blocked triangular
substitution with the factor; and the solver of the saddle-point (KKT)
system of each Newton step, through the Cholesky factor of the Schur
matrix M reduced to that kernel, or by one dense LU solve when the system
is small.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["DENSE_KKT", "NullBasis", "chol_regularized", "chol_solver", "chol_stack", "kkt_solver",
           "null_basis", "orthonormal_rows"]


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


def chol_solver(L: np.ndarray):
    """Solver for  L L^T x = rhs, a vector, by blocked substitution.

    The inverses of L's small diagonal blocks are formed once, in one batched
    call; each solve is then O(N^2) matrix-vector work."""
    N = L.shape[0]
    spans = [(a, min(a + _SUBST_BLOCK, N)) for a in range(0, N, _SUBST_BLOCK)]
    diag = np.tile(np.eye(_SUBST_BLOCK), (len(spans), 1, 1))
    for k, (a, b) in enumerate(spans):
        diag[k, : b - a, : b - a] = L[a:b, a:b]
    # identity padding of the last block leaves its inverse exact
    inv = [blk[: b - a, : b - a] for blk, (a, b) in zip(np.linalg.inv(diag), spans)]

    def solve(rhs: np.ndarray) -> np.ndarray:
        w = np.empty(N)  # L w = rhs
        for (a, b), Ki in zip(spans, inv):
            w[a:b] = Ki @ (rhs[a:b] - L[a:b, :a] @ w[:a])
        x = np.empty(N)  # L^T x = w
        for (a, b), Ki in zip(reversed(spans), reversed(inv)):
            x[a:b] = (w[a:b] - x[b:] @ L[b:, a:b]) @ Ki
        return x

    return solve


# rows that _eliminate takes one at a time
_LEAF = 16


def _pivots(B: np.ndarray) -> list:
    """The pivot columns of B (r, N), rank r, in the order in which
    Gaussian elimination with partial pivoting on B^T takes them as its
    pivot rows.  B is overwritten."""
    pivots: list = []
    _eliminate(B, 0, B.shape[0], pivots)
    return pivots


def _eliminate(B: np.ndarray, k: int, n: int, pivots: list) -> None:
    """Rows k..k+n-1 of B, each eliminated by the rows above it, appending
    their pivots: row j takes its largest entry as its pivot and is scaled
    to 1 there, and the rows below it are cleared in that column.  Nothing
    is swapped: a cleared column stays exactly 0 in every later row, so
    argmax cannot take it twice.  Recursive on the rows (Toledo, SIAM J.
    Matrix Anal. Appl. 18, 1997): the upper half, then one triangular
    solve and one product that clear its pivot columns in the lower half,
    then the lower half."""
    if n <= _LEAF:
        for j in range(k, k + n):
            p = int(np.abs(B[j]).argmax())
            pivots.append(p)
            B[j] /= B[j, p]
            B[j + 1:k + n] -= B[j + 1:k + n, p, None] * B[j]
            B[j + 1:k + n, p] = 0.0
        return
    h = n // 2
    _eliminate(B, k, h, pivots)
    cols = pivots[-h:]
    # the upper half on its pivots is unit upper triangular, U; the lower
    # half R loses R[:, cols] U^{-1} times the upper half
    U = np.triu(B[k:k + h, cols])
    R = B[k + h:k + n]
    R -= np.linalg.solve(U.T, R[:, cols].T).T @ B[k:k + h]
    R[:, cols] = 0.0
    _eliminate(B, k + h, n - h, pivots)


class NullBasis(NamedTuple):
    """The kernel of the rows E (r, N), rank r, as Z = Pi^T [-C; I]: the pivot
    moments P (r), the free moments F (f = N - r) and C = E_P^{-1} E_F
    (r, f).  E Z = E_P (-C) + E_F = 0."""
    P: np.ndarray
    F: np.ndarray
    C: np.ndarray

    @property
    def growth(self) -> float:
        """max |C|, by which the basis amplifies rounding: at most 1 for the
        pivots of largest volume, and small for those of partial pivoting
        unless the elimination's growth is."""
        return float(np.max(np.abs(self.C), initial=0.0))


def null_basis(E: np.ndarray) -> NullBasis:
    """The pivoted kernel basis of E (r, N), with its pivot moments chosen
    by Gaussian elimination with partial pivoting on E^T.  The elimination
    leaves G E for some invertible G, with U = G E_P unit upper triangular
    in the order of the pivots, so C = E_P^{-1} E_F = U^{-1} (G E)_F."""
    GE = np.array(E, order="C")
    P = np.array(_pivots(GE))
    free = np.ones(E.shape[1], bool)
    free[P] = False
    F = np.flatnonzero(free)
    return NullBasis(P, F, _unit_upper_solve(GE[:, P], GE[:, F]))


def _unit_upper_solve(U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """U^{-1} Y for U unit upper triangular, by blocks of rows from the
    last: one small solve and one product per block."""
    r = U.shape[0]
    X = np.empty(Y.shape)
    for a in reversed(range(0, r, _SUBST_BLOCK)):
        b = min(a + _SUBST_BLOCK, r)
        X[a:b] = np.linalg.solve(U[a:b, a:b], Y[a:b] - U[a:b, b:] @ X[b:])
    return X


# up to this many unknowns N + m, one LU solve of the whole system per right-hand
# side is cheaper than the Cholesky route's set-up and solves; measured, one BLAS
# thread: 80-150 us against 300-370 us per iteration at 40-64, dearer from 82 on
DENSE_KKT = 64


def _dense_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """K^{-1} rhs, or the minimum-norm least-squares solution when K is
    exactly singular."""
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(K, rhs, rcond=None)[0]


def kkt_solver(M: np.ndarray, E: np.ndarray, basis: NullBasis | None = None):
    """Solver of the saddle-point system

        [ M  -E^T ] [ du   ]   [ b ]
        [ E   0   ] [ dlam ] = [ q ],

    in the kernel of E, whose rows are orthonormal: with the pivoted basis
    Z of null_basis (basis, or built here when None), du = E^T q + Z w, the
    reduced matrix

        M_r = Z^T M Z = M_FF + C^T T + T^T C,   T = M_PP C / 2 - M_PF,

    is factored M_r = L L^T and w = M_r^{-1} Z^T b, with Z^T v = v_F - C^T v_P;
    then one refinement w' = M_r^{-1} Z^T (b - M du) against M itself, and
    the least-squares dlam = E (M du - b).  The refinement takes E^T q's
    part of the residual, which is rounding in the interior-point method
    (its iterates meet E u = e), and the rounding of M_r: M_r mixes M's
    entries through C, which amplifies it, and the refinement brings the
    residual M du - E^T dlam - b back to about that of a Cholesky solve of
    M, which the dual residual needs near the optimum.  E du = q holds to
    rounding whatever the conditioning of M.  The solver reads M, which
    must not change while it is in use.  Without rows M_r is M itself and
    there is no refinement.  Small systems take one LU solve of the whole
    matrix instead, unless a moment is missing from M (which the Cholesky
    route regularizes).  Returns the solver and whether it reuses one
    factorization (the Cholesky route), where the LU route factors at
    every solve; None when M_r cannot be factored."""
    N, m = M.shape[0], E.shape[0]
    if N + m <= DENSE_KKT and np.all(np.diagonal(M) > 0.0):
        K = np.zeros((N + m, N + m))
        K[:N, :N] = M
        K[:N, N:] = -E.T
        K[N:, :N] = E

        def dense(b: np.ndarray, q: np.ndarray):
            x = _dense_solve(K, np.concatenate((b, q)))
            return x[:N], x[N:]

        return dense, False
    if not m:
        LM = chol_regularized(M)
        if LM is None:
            return None
        solve_m = chol_solver(LM)
        return (lambda b, q: (solve_m(b), np.zeros(0))), True
    P, F, C = basis if basis is not None else null_basis(E)
    MP = M[P][:, np.concatenate((P, F))]  # M_PP, then M_PF
    T = MP[:, :m] @ C
    T *= 0.5
    T -= MP[:, m:]
    del MP
    CT = C.T @ T
    del T
    Mr = M[np.ix_(F, F)]
    Mr += CT
    Mr += CT.T
    del CT
    LM = chol_regularized(Mr)
    del Mr
    if LM is None:
        return None
    solve_r = chol_solver(LM)

    def solve(b: np.ndarray, q: np.ndarray):
        du, v = E.T @ q, b
        for _ in range(2):  # the step, then its refinement
            w = solve_r(v[F] - C.T @ v[P])
            du[F] += w
            du[P] -= C @ w
            v = b - M @ du
        return du, E @ -v

    return solve, True
