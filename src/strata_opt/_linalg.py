"""Dense linear algebra of the interior-point method (see sdp).

The equality rows in reduced row echelon form (echelon_rows), from the
rows in coordinates: they split into blocks that share no moment, and one
Gaussian elimination with partial pivoting per block drops the dependent
rows and picks the pivot moments; the form Pi [I C], C block diagonal,
also gives the pivoted basis of their kernel.  Cholesky factors with
escalating diagonal regularization, of one matrix or batched over a
stack; blocked triangular substitution with the factor; and the solver of
the saddle-point (KKT) system of each Newton step, through the Cholesky
factor of the Schur matrix M reduced to that kernel one block of C at a
time, or by one dense LU solve of the whole system when it is small
(dense_route).  Rows move that crossover: the Cholesky route then pays a
reduction per iteration and a refinement pass per solve, while the LU
route, which factors at every solve, takes no extra correctors; but with
more than N / 2 rows the reduced matrix is so much smaller than the whole
system that the Cholesky route wins again.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["DENSE_KKT", "DENSE_KKT_ROWS", "EchelonRows", "chol_regularized", "chol_solver", "chol_stack",
           "dense_route", "echelon_rows", "kkt_solver"]


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
    (r, f) of the rows as given.  Their kernel is Z = Pi^T [-C; I].

    The rows fall into blocks, no two of which name the same moment, so C
    is block diagonal: P and F list the moments block by block, and blocks
    holds (rows, cols, C_k), the slices of P and F that a block covers and
    its part C_k of C, in the order of each block's smallest moment.  The
    free moments that no row names come last in F, where C has no column."""
    P: np.ndarray
    F: np.ndarray
    blocks: tuple
    e: np.ndarray

    @property
    def sizes(self) -> tuple:
        """(kept rows, free moments) of each block: the shapes of its C_k."""
        return tuple(C.shape for _, _, C in self.blocks)

    def c_dot(self, x: np.ndarray) -> np.ndarray:
        """C x, for x over F."""
        out = np.empty(len(self.P))
        for rows, cols, C in self.blocks:
            np.matmul(x[cols], C.T, out=out[rows])
        return out

    def ct_dot(self, lam: np.ndarray) -> np.ndarray:
        """C^T lam, over F."""
        out = np.zeros(len(self.F))
        for rows, cols, C in self.blocks:
            np.matmul(lam[rows], C, out=out[cols])
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """E u = u_P + C u_F."""
        return u[self.P] + self.c_dot(u[self.F])

    def adjoint(self, lam: np.ndarray) -> np.ndarray:
        """E^T lam: lam at P and C^T lam at F."""
        out = np.empty(len(self.P) + len(self.F))
        out[self.P] = lam
        out[self.F] = self.ct_dot(lam)
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
        return max((float(np.max(np.abs(C), initial=0.0)) for _, _, C in self.blocks), default=0.0)


def _row_blocks(rows: np.ndarray, cols: np.ndarray, m: int, L: int):
    """The block of each of m rows given in coordinates (rows[j], cols[j])
    over L columns, and the number of blocks: two rows share a block when a
    chain of rows, each naming a moment (a column past 0) that the next one
    names, joins them.  Each pass takes every row's label to the least
    label among the rows that share a moment with it, and follows the
    labels to their ends, until the rows that name a moment all carry the
    label of the first row that names it.  The blocks are numbered in the
    order of their smallest moment, whatever the order of the rows: the
    free moments, and so the reduced Newton matrix that kkt_solver
    factors, then run as near the graded moment order as blocks allow."""
    named = cols > 0
    rows, cols = rows[named], cols[named]
    label = np.arange(m)
    first = np.empty(L, dtype=np.int64)
    while True:
        first.fill(m)
        np.minimum.at(first, cols, label[rows])
        np.minimum.at(label, rows, first[cols])
        while not (label[label] == label).all():
            label = label[label]
        if (label[rows] == label[first[cols]]).all():
            # each block's key: its smallest moment, after them the rows
            # that name none
            key = L + np.arange(m)
            blocks = label[first[first < m]]  # the block of each named moment, ascending
            np.minimum.at(key, blocks, np.arange(len(blocks)))
            roots = (label == np.arange(m)).nonzero()[0]
            number = np.empty(m, dtype=np.int64)
            number[roots[key[roots].argsort(kind="stable")]] = np.arange(len(roots))
            return number[label], len(roots)


def echelon_rows(R, L: int):
    """The rows of  E u + e0 = 0  in reduced row echelon form, block by
    block.  R holds the rows in coordinates over L columns
    (_schur.ShiftRows: R.count rows, term j adds R.vals[j] at (R.rows[j],
    R.cols[j]), column 0 the constants).  Returns the independent rows as
    EchelonRows, and the largest |constant| left in a dropped row, the raw
    row's residual at every u that meets the kept rows (0 when every row is
    kept).

    The rows split into blocks that share no moment (_row_blocks).  Each
    block's rows are made dense over its own moments alone, all blocks side
    by side in one flat buffer, and eliminated on their own by Gaussian
    elimination with partial pivoting in place (_eliminate).  The rank rule
    is that of the rows as a whole and tracks magnitudes: row j is dropped
    when its largest remaining |entry| is at most max(m, N) eps ref_j,
    where ref_j is max |E_j| plus the |multipliers| of the rows subtracted
    from it, which bound the rounding the elimination left in it.  The
    elimination leaves U = R_P, a block's kept rows on their pivots, unit
    upper triangular, so that C_k = U^{-1} R_F and e = -U^{-1} R_0
    (_unit_upper_solve)."""
    m, rows, cols, vals = R.count, R.rows, R.cols, R.vals
    if not m:
        return EchelonRows(np.zeros(0, np.int64), np.arange(L - 1), (), np.zeros(0)), 0.0
    block, K = _row_blocks(rows, cols, m, L)
    # the blocks side by side: block k's rows, and its moments in ascending
    # order after a column for the constants, make a (heights[k], widths[k])
    # matrix at offsets[k] of one flat buffer
    order = block.argsort(kind="stable")
    ordered = block[order]
    heights = np.bincount(block, minlength=K)
    place = np.empty(m, dtype=np.int64)  # of a row in its block
    place[order] = np.arange(m) - (heights.cumsum() - heights)[ordered]
    owner = np.full(L, -1)
    owner[cols] = block[rows]
    owner[0] = -1
    named = (owner >= 0).nonzero()[0]
    moments = named[owner[named].argsort(kind="stable")]
    widths = np.bincount(owner[named], minlength=K) + 1
    first = widths.cumsum() - widths  # of a block's columns, side by side
    is_moment = np.ones(widths.sum(), dtype=bool)
    is_moment[first] = False
    column = np.zeros(L, dtype=np.int64)  # of a moment in its block
    column[moments] = is_moment.nonzero()[0] - first[owner[moments]]
    cells = heights * widths
    offsets = cells.cumsum() - cells
    at = block[rows]
    flat = np.bincount(offsets[at] + place[rows] * widths[at] + column[cols], vals,
                       minlength=cells.sum())
    pivots = np.full(m, -1)  # of the rows in block order
    tol = max(m, L - 1) * np.finfo(float).eps
    dense, a = [], 0
    for o, h, w in zip(offsets.tolist(), heights.tolist(), widths.tolist()):
        Rk = flat[o:o + h * w].reshape(h, w)
        if w > 1:
            _eliminate(Rk, 0, h, pivots[a:a + h], np.abs(Rk[:, 1:]).max(axis=1), tol)
        dense.append(Rk)
        a += h
    kept = pivots >= 0
    owners = ordered[kept]
    taken = first[owners] + pivots[kept]
    moment = np.zeros(len(is_moment), dtype=np.int64)
    moment[is_moment] = moments - 1
    keep_cols = np.ones(len(is_moment), dtype=bool)  # the constants and the free moments
    keep_cols[taken] = False
    P = moment[taken]
    F = np.concatenate((moment[keep_cols & is_moment], (owner[1:] < 0).nonzero()[0]))
    residual = 0.0
    if len(P) < m:  # the constants of the dropped rows
        dropped = ordered[~kept]
        residual = float(np.abs(flat[offsets[dropped] + place[order][~kept] * widths[dropped]]).max())
    e = np.empty(len(P))
    blocks, a, p0, f0 = [], 0, 0, 0
    for Rk, r, c in zip(dense, np.bincount(owners, minlength=K).tolist(), first.tolist()):
        h, w = Rk.shape
        piv = pivots[a:a + h]
        if r < h:
            ok = piv >= 0
            Rk, piv = Rk[ok], piv[ok]
        X = Rk[:, keep_cols[c:c + w]]
        if r > 1:
            _unit_upper_solve(Rk[:, piv], X)
        e[p0:p0 + r] = X[:, 0]
        f = w - 1 - r
        blocks.append((slice(p0, p0 + r), slice(f0, f0 + f), X[:, 1:]))
        a, p0, f0 = a + h, p0 + r, f0 + f
    return EchelonRows(P, F, tuple(blocks), np.negative(e, out=e)), residual


def _unit_upper_solve(U: np.ndarray, X: np.ndarray) -> None:
    """X <- U^{-1} X in place, for U unit upper triangular: by blocks of
    rows from the last, the rows of a diagonal block one at a time."""
    r = len(U)
    for a in reversed(range(0, r, _SUBST_BLOCK)):
        b = min(a + _SUBST_BLOCK, r)
        if b < r:
            X[a:b] -= U[a:b, b:] @ X[b:]
        for i in range(b - 1, a, -1):
            X[a:i] -= U[a:i, i, None] * X[i]


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
            if j + 1 < k + n:
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


# The bounds of the LU route, from solve_sdp's time per solve on both routes:
# median of 9 interleaved solves, one BLAS thread, OpenBLAS 0.3.31, 2 shared
# vCPU.  a0 and E0 are the tensors' relaxations at d0; the others minimize
# perfbench's pop quartic in n variables at order d, on the unit sphere
# (sphere), on the sphere and k - 1 random quadrics through a point of it
# (k), or, without rows, on the box and the ball:
#
#   shape            N    m  N+m    LU ms (iters)   Cholesky ms (iters)   LU wins
#   E0 d=1          54    5   59      9.1 (9)        13.8 (7)             9/9
#   sphere n=4 d=2  69   15   84      7.7 (10)       11.9 (8)             9/9
#   k=2 n=4 d=2     69   29   98      8.1 (10)        9.3 (8)             9/9
#   sphere n=3 d=3  83   35  118     12.4 (12)       12.1 (8)             3/9
#   a0 d=2         125    7  132     15.5 (9)        20.9 (9)             7/9
#   sphere n=5 d=2 125   21  146     12.6 (9)        16.3 (7)             9/9
#   k=2 n=5 d=2    125   41  166     16.2 (11)       13.6 (8)             0/9
#   k=3 n=5 d=2    125   60  185     16.4 (10)       11.8 (7)             0/9
#   sphere n=6 d=2 209   28  237     27.3 (10)       30.6 (8)             9/9
#   sphere n=7 d=2 329   36  365     67.6 (12)       50.3 (8)             0/9
#   k=3 n=4 d=2     69   42  111      9.1 (9)         8.1 (7)             0/9
#   k=4 n=4 d=2     69   54  123      9.4 (9)         8.0 (7)             0/9
#   k=2 n=3 d=3     83   60  143     12.6 (10)        9.9 (8)             0/9
#   sphere n=2 d=6  90   66  156     12.9 (8)        11.4 (7)             0/9
#   sphere n=2 d=7 119   91  210     20.0 (8)        14.8 (7)             0/9
#   n=3 d=2         34    0   34      8.5 (12)        9.7 (9)             9/9
#   n=2 d=5         65    0   65     19.3 (12)       20.4 (9)             7/9
#   n=4 d=2         69    0   69     12.2 (12)       13.3 (9)             7/9
#   n=3 d=3         83    0   83     17.1 (12)       17.5 (9)             7/9
#   n=2 d=6         90    0   90     30.8 (12)       30.7 (9)             3/9
#   n=2 d=7        119    0  119     96.4 (23)       47.4 (9)             0/9
#   n=5 d=2        125    0  125     19.6 (12)       19.5 (10)            4/9
#   n=6 d=2        209    0  209     36.2 (13)       32.1 (10)            0/9
#
# The LU route, which takes no extra correctors, needs two or three more
# iterations.  Without rows it wins up to N = 83 and ties at 90 and 125; at
# 119 it ends in numerical_failure.  With rows the Cholesky route pays a
# reduction per iteration and a refinement pass per solve, which moves the
# crossover up: with m <= N / 2 the LU route wins or ties up to N + m = 146.
# With m > N / 2 it loses at every size, because the Cholesky route factors
# a matrix of side N - m once per iteration against the LU's N + m at every
# solve.  DENSE_KKT_ROWS = 160 also keeps the six-variable O2 relaxation
# (N + m = 216) on the Cholesky route, where its tests pin its bound.
DENSE_KKT = 96
DENSE_KKT_ROWS = 160


def dense_route(N: int, m: int) -> bool:
    """Whether kkt_solver solves the system of N moments and m kept rows by
    one dense LU per solve (given a positive diagonal of M): N <= DENSE_KKT
    without rows, N + m <= DENSE_KKT_ROWS and 2 m <= N with rows."""
    if not m:
        return N <= DENSE_KKT
    return N + m <= DENSE_KKT_ROWS and 2 * m <= N


def _dense_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """K^{-1} rhs, or the minimum-norm least-squares solution when K is
    exactly singular."""
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(K, rhs, rcond=None)[0]


def kkt_solver(E: EchelonRows, N: int):
    """Factorization of the saddle-point systems

        [ M  -E^T ] [ du   ]   [ b ]
        [ E   0   ] [ dlam ] = [ q ]

    over N moments, for the rows E = Pi [I C] (echelon_rows): a function
    that takes M and returns the solver of its system.  The step is taken in
    the rows' kernel: with the pivoted basis Z = Pi^T [-C; I] and
    du = Pi [q; 0] + Z w, the reduced matrix

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

    C is block diagonal (EchelonRows), so T and C^T T are built one block
    C_k of C at a time: the columns F_k of T read the rows P_k and F_k of M
    on the columns P, and C^T T is added into M_r a panel C_k^T T_{P_k} at
    a time, (r + f) sum_k r_k f_k flops in all.  M_r orders F as E.F does,
    block by block.

    The solver reads M, which must not change while it is in use.  Without
    rows M_r is M itself and there is no refinement.  Small systems
    (dense_route: N <= DENSE_KKT without rows, N + m <= DENSE_KKT_ROWS and
    m <= N / 2 with rows, where the reduction and the refinement would cost
    more than factoring the whole system at every solve) take one LU solve
    of the whole matrix instead, unless a moment is missing from M (which
    the Cholesky route regularizes): the matrix's rows E and
    columns -E^T are written once, and each factorization copies them with
    M into a matrix of its own.  The function returns the solver and
    whether it reuses one factorization (the Cholesky route), where the LU
    route factors at every solve; None when M_r cannot be factored."""
    P, F = E.P, E.F
    m = len(P)
    K0 = None  # [0 -E^T; E 0], K of the LU route without M

    def factor(M: np.ndarray):
        nonlocal K0
        if dense_route(N, m) and np.all(np.diagonal(M) > 0.0):
            if K0 is None:
                K0 = np.zeros((N + m, N + m))
                K0[N + np.arange(m), P] = 1.0
                for rows, cols, C in E.blocks:
                    K0[np.ix_(N + np.arange(m)[rows], F[cols])] = C
                K0[:N, N:] = -K0[N:, :N].T
            K = K0.copy()
            K[:N, :N] = M

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
        Tt = np.empty((len(F), m))  # T^T
        for rows, cols, C in E.blocks:
            G = M[np.ix_(np.concatenate((P[rows], F[cols])), P)]  # M_{P_k P}, then M_{F_k P}
            np.matmul(C.T, G[:len(C)], out=Tt[cols])
            Tt[cols] *= 0.5
            Tt[cols] -= G[len(C):]
        named = E.blocks[-1][1].stop
        Tt[named:] = M[np.ix_(F[named:], P)]  # moments that no row names
        np.negative(Tt[named:], out=Tt[named:])
        Mr = M[np.ix_(F, F)]
        for rows, cols, C in E.blocks:
            if C.size:
                panel = Tt[:, rows] @ C  # the columns F_k of T^T C
                Mr[:, cols] += panel
                Mr[cols] += panel.T
        del Tt
        LM = chol_regularized(Mr)
        del Mr
        if LM is None:
            return None
        solve_r = chol_solver(LM)

        def solve(b: np.ndarray, q: np.ndarray):
            du, v = E.particular(q), b
            for _ in range(2):  # the step, then its refinement
                w = solve_r(v[F] - E.ct_dot(v[P]))
                du[F] += w
                du[P] -= E.c_dot(w)
                v = b - M @ du
            return du, -v[P]

        return solve, True

    return factor
