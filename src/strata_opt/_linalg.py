"""Dense linear algebra of the interior-point method (see sdp).

The equality rows in reduced row echelon form (echelon_rows), from one
Gaussian elimination with partial pivoting that drops the dependent rows
and picks the pivot moments, whose form Pi [I C] also gives the pivoted
basis of their kernel; Cholesky factors with escalating diagonal
regularization, of one matrix or batched over a stack; blocked triangular
substitution with the factor; and the solver of the saddle-point (KKT)
system of each Newton step, through the Cholesky factor of the Schur
matrix M reduced to that kernel, or by one dense LU solve when the system
is small.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["DENSE_KKT", "EchelonRows", "chol_regularized", "chol_solver", "chol_stack", "echelon_rows",
           "kkt_solver"]


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


class EchelonRows(NamedTuple):
    """The independent equality rows E u = e in reduced row echelon form,
    E = Pi [I C]: row i reads u[P[i]] + C[i] u[F] = e[i], for the pivot
    moments P (r), the free moments F (f = N - r) and C = E_P^{-1} E_F
    (r, f) of the rows as given.  Their kernel is Z = Pi^T [-C; I]."""
    P: np.ndarray
    F: np.ndarray
    C: np.ndarray
    e: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        """E u = u_P + C u_F."""
        return u[self.P] + self.C @ u[self.F]

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        """E^T lam: lam at P and C^T lam at F."""
        out = np.empty(len(self.P) + len(self.F))
        out[self.P] = lam
        out[self.F] = lam @ self.C
        return out

    def particular(self, q: np.ndarray) -> np.ndarray:
        """Pi [q; 0], which meets E u = q."""
        out = np.zeros(len(self.P) + len(self.F))
        out[self.P] = q
        return out

    @property
    def growth(self) -> float:
        """max |C|, by which the basis Z amplifies rounding: at most 1 for
        the pivots of largest volume, and small for those of partial
        pivoting unless the elimination's growth is."""
        return float(np.max(np.abs(self.C), initial=0.0))


def echelon_rows(R: np.ndarray):
    """The rows R (m, L) of  R[:, 1:] u + R[:, 0] = 0  in reduced row echelon
    form, from one Gaussian elimination with partial pivoting, in place on
    R (_eliminate): the independent rows as EchelonRows, and the largest
    |constant| left in a dropped row, the raw row's residual at every u
    that meets the kept rows (0 when every row is kept).

    The rank rule tracks magnitudes: row j is dropped when its largest
    remaining |entry| is at most max(m, N) eps ref_j, where ref_j is
    max |E_j| plus the |multipliers| of the rows subtracted from it, which
    bound the rounding the elimination left in it.  The elimination leaves
    U = R_P, the kept rows on their pivots, unit upper triangular, so that
    C = U^{-1} R_F and e = -U^{-1} R_0, by blocks of rows from the last."""
    m, L = R.shape
    pivots = np.full(m, -1)
    ref = np.max(np.abs(R[:, 1:]), axis=1, initial=0.0)
    if L > 1:
        _eliminate(R, 0, m, pivots, ref, max(m, L - 1) * np.finfo(float).eps)
    kept = pivots >= 0
    residual = float(np.max(np.abs(R[~kept, 0]), initial=0.0))
    rows, P = np.flatnonzero(kept), pivots[kept]
    F = np.delete(np.arange(L), np.append(P, 0))  # not setdiff1d, which imports numpy.ma
    U = R[np.ix_(rows, P)]
    X = R[np.ix_(rows, np.append(F, 0))]  # [R_F, R_0], then U^{-1} [R_F, R_0]
    for a in reversed(range(0, len(rows), _SUBST_BLOCK)):
        b = min(a + _SUBST_BLOCK, len(rows))
        X[a:b] -= U[a:b, b:] @ X[b:]
        X[a:b] = np.linalg.solve(U[a:b, a:b], X[a:b])
    return EchelonRows(P - 1, F - 1, X[:, :-1], -X[:, -1]), residual


# rows that _eliminate takes one at a time
_LEAF = 16


def _eliminate(B: np.ndarray, k: int, n: int, pivots: np.ndarray, ref: np.ndarray,
               tol: float) -> None:
    """Rows k..k+n-1 of B, each eliminated by the kept rows above it: row j
    is dropped (pivots[j] stays -1) when its largest |entry| past column 0
    is at most tol ref[j]; otherwise that entry is its pivot, the row is
    scaled to 1 there and the rows below it are cleared in that column,
    each adding its |multiplier| to its ref.  Nothing is swapped: a cleared
    column stays exactly 0 in every later row, so argmax cannot take it
    twice.  Recursive on the rows (Toledo, SIAM J. Matrix Anal. Appl. 18,
    1997): the upper half, then one triangular solve and one product that
    clear its pivot columns in the lower half, then the lower half."""
    if n <= _LEAF:
        for j in range(k, k + n):
            p = int(np.abs(B[j, 1:]).argmax()) + 1
            if abs(B[j, p]) <= tol * ref[j]:
                continue
            pivots[j] = p
            B[j] /= B[j, p]
            mult = B[j + 1:k + n, p].copy()
            ref[j + 1:k + n] += np.abs(mult)
            B[j + 1:k + n] -= mult[:, None] * B[j]
            B[j + 1:k + n, p] = 0.0
        return
    h = n // 2
    _eliminate(B, k, h, pivots, ref, tol)
    # the kept rows of the upper half on their pivots are unit upper
    # triangular, U (its zeros below the diagonal are exact); the lower half
    # R loses its multipliers X = R[:, cols] U^{-1} times them
    top = k + np.flatnonzero(pivots[k:k + h] >= 0)
    cols = pivots[top]
    R = B[k + h:k + n]
    X = np.linalg.solve(B[np.ix_(top, cols)].T, R[:, cols].T).T
    ref[k + h:k + n] += np.abs(X).sum(1)
    R -= X @ B[top]
    R[:, cols] = 0.0
    del X
    _eliminate(B, k + h, n - h, pivots, ref, tol)


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


def kkt_solver(M: np.ndarray, E: EchelonRows):
    """Solver of the saddle-point system

        [ M  -E^T ] [ du   ]   [ b ]
        [ E   0   ] [ dlam ] = [ q ],

    for the rows E = Pi [I C] (echelon_rows), in their kernel: with the
    pivoted basis Z = Pi^T [-C; I] and du = Pi [q; 0] + Z w, the reduced
    matrix

        M_r = Z^T M Z = M_FF + C^T T + T^T C,   T = M_PP C / 2 - M_PF,

    is factored M_r = L L^T and w = M_r^{-1} Z^T b, with Z^T v = v_F - C^T v_P;
    then one refinement w' = M_r^{-1} Z^T (b - M du) against M itself, and
    dlam = (M du - b)_P, the rows P of M du - E^T dlam = b.  The refinement
    takes Pi [q; 0]'s part of the residual, which is rounding in the
    interior-point method (its iterates meet E u = e), and the rounding of
    M_r: M_r mixes M's entries through C, which amplifies it, and the
    refinement brings the residual M du - E^T dlam - b back to about that
    of a Cholesky solve of M, which the dual residual needs near the
    optimum.  E du = q holds to rounding whatever the conditioning of M.
    The solver reads M, which must not change while it is in use.  Without
    rows M_r is M itself and there is no refinement.  Small systems take
    one LU solve of the whole matrix instead, unless a moment is missing
    from M (which the Cholesky route regularizes).  Returns the solver and
    whether it reuses one factorization (the Cholesky route), where the LU
    route factors at every solve; None when M_r cannot be factored."""
    P, F, C, _ = E
    N, m = M.shape[0], len(P)
    if N + m <= DENSE_KKT and np.all(np.diagonal(M) > 0.0):
        K = np.zeros((N + m, N + m))
        K[:N, :N] = M
        K[N + np.arange(m), P] = 1.0
        K[N:, F] = C
        K[:N, N:] = -K[N:, :N].T

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
        du, v = E.particular(q), b
        for _ in range(2):  # the step, then its refinement
            w = solve_r(v[F] - C.T @ v[P])
            du[F] += w
            du[P] -= C @ w
            v = b - M @ du
        return du, -v[P]

    return solve, True
