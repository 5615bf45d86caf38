"""Dense primal-dual interior-point solver for block-LMI semidefinite programs.

Solves

    minimize  c_0 + <c, u>   s.t.   A_i(u) := A_i[0] + sum_k u_k A_i[k] >= 0

for every block i, which is the shape every moment relaxation assembles to
(the u_k are the moments y_alpha with alpha != 0; y_0 is pinned to 1 and
never solved for).

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  Per iteration the scaling point W_i of
each block is factored as W_i = G_i G_i^T, the constraint stack is congruence
transformed by G_i^{-1}, and the Schur complement

    M[k, j] = sum_i <G_i^{-1} A_i[k] G_i^{-T}, G_i^{-1} A_i[j] G_i^{-T}>
            = sum_i svec(G_i^{-1} A_i[k] G_i^{-T})^T svec(G_i^{-1} A_i[j] G_i^{-T})

is formed densely and factored by Cholesky.  svec(X) lists the entries of
the upper triangle of a symmetric X, off-diagonal ones times sqrt(2), so that
<X, Y> = svec(X)^T svec(Y) and each off-diagonal product is computed once,
not twice (_PackedSchur).  The right-hand side for a complementarity target E_i is
-r + sum_i [svec(G_i^{-1} A_i[k] G_i^{-T})^T svec(E_i - G_i^{-1} R_i G_i^{-T})]_k,
R_i the primal residual and r the dual one.  Step lengths are taken in the
scaled space, where both iterates are diag(dvec).  Blocks of equal side are
stacked, so each of these per-block steps is one batched call per side.
Everything is deterministic: no randomization is used anywhere in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .moment import MomentVector, RelaxationProblem

__all__ = ["SolverOptions", "SdpSolution", "solve_sdp"]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"
UNBOUNDED_SUSPECTED = "unbounded_suspected"


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    step_frac: float = 0.98
    objective_floor: float = -1e12  # scaled-objective divergence guard
    # Equality constraints arrive as paired blocks (+M, -M), which leaves the
    # primal without interior; eliminating them onto the affine subspace they
    # define restores strict feasibility.  Results agree either way, the pure
    # LMI path is kept for cross-checking.
    eliminate_equalities: bool = True


@dataclass
class SdpSolution:
    y: MomentVector
    objective: float
    duality_gap: float           # absolute, in problem units
    iterations: int
    status: str
    trace: list = field(default_factory=list)  # per-iteration diagnostics
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    relative_gap: float = float("nan")  # the quantity gap_tol bounds
    schur_dim: int = 0  # free moments after equality elimination; 0 when the IPM did not run


def _chol(mat: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _chol_regularized(mat: np.ndarray):
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


def _chol_stack(mats: np.ndarray):
    """Cholesky factors of a matrix or a stack of them, in one batched call;
    if any block is not numerically positive definite, block by block with
    _chol_regularized.  None when some block stays hopeless."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        side = mats.shape[-1]
        factors = [_chol_regularized(m) for m in mats.reshape(-1, side, side)]
        if any(L is None for L in factors):
            return None
        return np.reshape(factors, mats.shape)


def _max_step(dv: np.ndarray, delta_hat: np.ndarray) -> np.ndarray:
    """Largest t with  diag(dv) + t*delta_hat >= 0  (dv > 0), for one block
    or, batched, for each block of a stack.

    In Nesterov-Todd scaled coordinates, where both iterates are diag(dv),
    this is the step bound of  X + t*Delta >= 0  for either iterate."""
    root = np.sqrt(dv)
    sym = 0.5 * (delta_hat + np.swapaxes(delta_hat, -1, -2))
    lam = np.linalg.eigvalsh(sym / (root[..., :, None] * root[..., None, :]))[..., 0]
    with np.errstate(divide="ignore"):
        return np.where(lam >= 0.0, np.inf, -1.0 / lam)


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling W = G G^T with G^{-1} S G^{-T} = G^T Z G = diag(dv),
    for one block or, batched, for every block of a stack.

    Returns (G^{-1}, dv), or None when S or Z cannot be factored."""
    factors = _chol_stack(np.stack((S, Z)))
    if factors is None:
        return None
    ls, lz = factors
    lzT = np.swapaxes(lz, -1, -2)
    U, dv, _ = np.linalg.svd(lzT @ ls)
    dv = np.maximum(dv, 1e-150)
    return np.swapaxes(U / np.sqrt(dv)[..., None, :], -1, -2) @ lzT, dv


_SUBST_BLOCK = 32


def _chol_solver(L: np.ndarray):
    """Solver for  L L^T x = rhs  by blocked forward and back substitution.

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
        w = np.empty(N)
        for (a, b), Ki in zip(spans, inv):
            w[a:b] = Ki @ (rhs[a:b] - L[a:b, :a] @ w[:a])
        x = np.empty(N)
        for (a, b), Ki in zip(reversed(spans), reversed(inv)):
            x[a:b] = (w[a:b] - x[b:] @ L[b:, a:b]) @ Ki
        return x

    return solve


def _find_negation_pairs(blocks) -> tuple[list[int], list[tuple[int, int]]]:
    """Partition block indices into LMI survivors and (i, j) pairs with
    A_j = -A_i (the compiled form of equality constraints)."""
    consumed = [False] * len(blocks)
    pairs = []
    for i in range(len(blocks)):
        if consumed[i]:
            continue
        for j in range(i + 1, len(blocks)):
            if consumed[j] or blocks[j].side != blocks[i].side:
                continue
            if np.array_equal(blocks[j].A, -blocks[i].A):
                pairs.append((i, j))
                consumed[i] = consumed[j] = True
                break
    survivors = [i for i in range(len(blocks)) if not consumed[i]]
    return survivors, pairs


def _equality_rows(blocks, pairs, N: int):
    """Stack the paired blocks into linear equations E u = e0 on the moments."""
    rows, rhs = [], []
    for i, _j in pairs:
        A = blocks[i].A
        s = blocks[i].side
        for a in range(s):
            for b in range(a, s):
                row = A[1:, a, b]
                if not np.any(row) and A[0, a, b] == 0.0:
                    continue
                rows.append(row)
                rhs.append(-A[0, a, b])
    if not rows:
        return np.zeros((0, N)), np.zeros(0)
    return np.array(rows), np.array(rhs)


def solve_sdp(problem: RelaxationProblem, options: SolverOptions | None = None) -> SdpSolution:
    opts = options or SolverOptions()
    L = problem.num_moments
    N = L - 1
    c_raw = problem.objective[1:].copy()
    c0 = float(problem.objective[0])

    def finish(u, status, iters, trace, gap_unscaled, pres, dres, rel_gap=float("nan"),
               schur_dim=0):
        values = np.concatenate(([1.0], u))
        y = MomentVector(n=problem.n, d=problem.d, values=values)
        return SdpSolution(
            y=y,
            objective=c0 + float(c_raw @ u),
            duality_gap=abs(float(gap_unscaled)),
            iterations=iters,
            status=status,
            trace=trace,
            primal_residual=pres,
            dual_residual=dres,
            relative_gap=rel_gap,
            schur_dim=schur_dim,
        )

    if N == 0:
        # no free moments: feasibility is a property of the constants alone
        ok = all(np.linalg.eigvalsh(b.A[0])[0] >= -opts.feas_tol for b in problem.blocks)
        return finish(np.zeros(0), OPTIMAL if ok else NUMERICAL_FAILURE, 0, [], 0.0, 0.0, 0.0, 0.0)

    # identically-zero blocks (vacuous constraints like 0 >= 0) would starve
    # the scaling; drop them up front (the moment block is never zero)
    blocks = [b for b in problem.blocks if np.any(b.A)]

    if opts.eliminate_equalities:
        survivors, pairs = _find_negation_pairs(blocks)
    else:
        survivors, pairs = list(range(len(blocks))), []

    if pairs:
        E, e0 = _equality_rows(blocks, pairs, N)
        row_scale = np.maximum(np.max(np.abs(E), axis=1), np.abs(e0))
        keep = row_scale > 0
        E, e0 = E[keep] / row_scale[keep, None], e0[keep] / row_scale[keep]
        # one SVD gives the least-squares particular solution and an
        # orthonormal basis of ker E, both with the same rank cut
        U, sv, Vt = np.linalg.svd(E, full_matrices=True)
        rank = int(np.sum(sv > max(E.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)))
        u_part = Vt[:rank].T @ (U[:, :rank].T @ e0 / sv[:rank])
        if np.max(np.abs(E @ u_part - e0), initial=0.0) > 1e-8:
            return finish(u_part, NUMERICAL_FAILURE, 0, [], np.inf, np.inf, np.inf)
        B = Vt[rank:].T  # (N, N - rank)
        lmi_blocks = [blocks[i] for i in survivors]
        red_c = B.T @ c_raw
        red_A0 = [blk.A[0] + np.tensordot(u_part, blk.A[1:], axes=1) for blk in lmi_blocks]
        if B.shape[1] == 0:
            ok = all(np.linalg.eigvalsh(A)[0] >= -opts.feas_tol for A in red_A0)
            return finish(u_part, OPTIMAL if ok else NUMERICAL_FAILURE, 0, [], 0.0, 0.0, 0.0, 0.0)
        # reduced coefficient arrays are made one at a time as the solver stacks them
        red_Avar = (np.tensordot(B.T, blk.A[1:], axes=([1], [0])) for blk in lmi_blocks)
        core = _ipm_lmi(red_c, red_A0, red_Avar, opts)
        u_full = u_part + B @ core.u
        return finish(u_full, core.status, core.iterations, core.trace,
                      core.gap, core.pres, core.dres, core.rel_gap, B.shape[1])

    core = _ipm_lmi(c_raw, [b.A[0] for b in blocks],
                    [b.A[1:] for b in blocks], opts)
    return finish(core.u, core.status, core.iterations, core.trace,
                  core.gap, core.pres, core.dres, core.rel_gap, N)


@dataclass
class _CoreResult:
    u: np.ndarray
    status: str
    iterations: int
    trace: list
    gap: float
    pres: float
    dres: float
    rel_gap: float = float("nan")


_CHUNK = 32  # moments per congruence product in the Schur build
_RSQRT2 = 0.5**0.5


@lru_cache(maxsize=64)
def _packing(s: int):
    """Flat indices of the entries pack() keeps of an s x s matrix, diagonal
    first, and the weights that turn those entries of a symmetric X into
    2 pack(X).  Read-only, since every caller shares them."""
    flat = np.arange(s * s)
    i, j = np.divmod(flat, s)
    order = np.concatenate((flat[i == j], flat[i < j]))
    weight = np.full(order.size, 2.0)
    weight[:s] = np.sqrt(2.0)
    order.flags.writeable = weight.flags.writeable = False
    return order, weight


class _PackedSchur:
    """Schur complement and right-hand sides of the scaled LMI stacks, built
    from packed rows.

    pack(X) = svec(X)/sqrt(2) lists a symmetric X's diagonal times 1/sqrt(2),
    then its strict upper triangle row by row, so <X, Y> = 2 <pack(X), pack(Y)>.
    Diagonal first, the 1/sqrt(2) is one column slice per side.  For each side
    g, row k of Ahat[g] holds pack(G^{-1} A[k] G^{-T}) of every block of the
    stack, an (N, k*s(s+1)/2) matrix: the Schur matrix takes one symmetric
    product per side over half the columns of the full entries.  The rows are
    built _CHUNK moments at a time in a small work array and packed straight
    out of it; they, the work array and the Schur matrix are reused by every
    iteration."""

    def __init__(self, Avar: list):
        self.Avar = Avar
        N = Avar[0].shape[1]
        self.order, self.weight = zip(*(_packing(A.shape[-1]) for A in Avar))
        self.Ahat = [np.empty((N, A.shape[0] * o.size)) for A, o in zip(Avar, self.order)]
        self.work = np.empty(2 * _CHUNK * max(A[:, 0].size for A in Avar))
        self.M = np.empty((N, N))
        self.product = np.empty((N, N)) if len(Avar) > 1 else None

    def matrix(self, Ginv: list, GinvT: list) -> np.ndarray:
        """M = 2 sum_g Ahat[g] Ahat[g]^T for the scalings G^{-1} = Ginv[g].

        numpy runs each product as a BLAS syrk, whose result is exactly
        symmetric, and so is their sum.  M is a buffer that the next call
        overwrites, as are the products of the second and later sides."""
        for g, (A, Gi, GiT, order, P) in enumerate(
                zip(self.Avar, Ginv, GinvT, self.order, self.Ahat)):
            k, N, s, _ = A.shape
            rows = P.reshape(N, k, order.size)
            out = rows.transpose(1, 0, 2)
            for a in range(0, N, _CHUNK):
                b = min(a + _CHUNK, N)
                size = k * (b - a) * s * s
                right = self.work[:size].reshape(k, (b - a) * s, s)
                congruence = self.work[size : 2 * size].reshape(k, b - a, s * s)
                np.matmul(A[:, a:b].reshape(k, (b - a) * s, s), GiT, out=right)
                np.matmul(Gi[:, None], right.reshape(k, b - a, s, s),
                          out=congruence.reshape(k, b - a, s, s))
                congruence.take(order, axis=-1, out=out[:, a:b], mode="clip")
            rows[:, :, :s] *= _RSQRT2
            np.matmul(P, P.T, out=self.product if g else self.M)
            if g:
                self.M += self.product
        self.M *= 2.0
        return self.M

    def rhs(self, X: list) -> np.ndarray:
        """[sum_g <G^{-1} A[k] G^{-T}, X[g]>]_k for the symmetric stacks X[g],
        at the scalings of the last matrix() call."""
        total = 0.0
        for x, order, weight, P in zip(X, self.order, self.weight, self.Ahat):
            k, s, _ = x.shape
            packed = x.reshape(k, s * s)[:, order]
            packed *= weight
            total = total + P @ packed.ravel()
        return total


def _stack_blocks(N: int, A0_raw: list, Avar_raw):
    """Stack the blocks by side, sides in order of first appearance, each
    block scaled by its largest absolute coefficient, once, into its stack.

    Avar_raw is read one array at a time, so an array that only the iterable
    holds is freed as soon as it is stacked.  Returns the constant stacks
    (k, s, s) and the coefficient stacks (k, N, s, s), one of each per side."""
    counts: dict[int, int] = {}
    slots = []
    for A0_i in A0_raw:
        s = A0_i.shape[0]
        slots.append((s, counts.get(s, 0)))
        counts[s] = counts.get(s, 0) + 1
    A0 = {s: np.empty((k, s, s)) for s, k in counts.items()}
    Avar = {s: np.empty((k, N, s, s)) for s, k in counts.items()}
    for (s, j), A0_i, Avar_i in zip(slots, A0_raw, Avar_raw):
        s_blk = max(float(np.max(np.abs(A0_i))), float(np.max(np.abs(Avar_i)))) or 1.0
        np.divide(A0_i, s_blk, out=A0[s][j])
        np.divide(Avar_i, s_blk, out=Avar[s][j])
    return list(A0.values()), list(Avar.values())


def _ipm_lmi(c_raw: np.ndarray, A0_raw: list, Avar_raw, opts: SolverOptions) -> _CoreResult:
    """Path-following core on  min <c,u>  s.t.  A0_i + sum_k u_k Avar_i[k] >= 0.

    Blocks of equal side form one stack, so that every per-block factorization,
    decomposition and product is one batched call per side."""
    N = c_raw.shape[0]

    # per-problem rescaling: largest absolute coefficient becomes 1
    s_obj = float(np.max(np.abs(c_raw))) if np.any(c_raw) else 1.0
    c = c_raw / s_obj
    A0, Avar = _stack_blocks(N, A0_raw, Avar_raw)
    sides = range(len(A0))
    Aflat = [A.reshape(A.shape[0], N, -1) for A in Avar]  # (k, N, s*s) views
    eyes = [np.eye(A.shape[-1]) for A in A0]
    n_total = float(sum(A.shape[0] * A.shape[1] for A in A0))
    c_norm = float(np.max(np.abs(c))) if np.any(c) else 1.0
    a0_norms = [np.array([np.linalg.norm(a) for a in A]) for A in A0]

    # strictly interior start: u = 0, slack and dual multiplier proportional to I
    tau = 1.0 + max(float(np.max(x)) for x in a0_norms)
    u = np.zeros(N)
    S = [tau * np.broadcast_to(I, A.shape) for I, A in zip(eyes, A0)]
    Z = [np.broadcast_to(I, A.shape).copy() for I, A in zip(eyes, A0)]
    schur = _PackedSchur(Avar)

    trace: list[tuple] = []
    status = MAX_ITERATIONS
    iters = 0
    pobj = dobj = 0.0
    pres = dres = np.inf
    rel_gap = float("inf")
    best = None  # (merit, u, gap, pres, dres, rel_gap) of the best iterate seen
    stalled = 0

    for it in range(opts.max_iter):
        iters = it
        R = [A0[g] + (u @ Aflat[g]).reshape(A0[g].shape) - S[g] for g in sides]
        r = c.copy()
        for g in sides:
            r -= np.matmul(Aflat[g], Z[g].reshape(len(Z[g]), -1, 1)).sum(axis=0)[:, 0]

        pobj = float(c @ u)
        dobj = -sum(float(np.vdot(A0[g], Z[g])) for g in sides)
        mu = sum(float(np.vdot(S[g], Z[g])) for g in sides) / n_total
        gap = pobj - dobj
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        pres = max(float(np.max(np.linalg.norm(R[g].reshape(len(R[g]), -1), axis=1)
                                / (1.0 + a0_norms[g]))) for g in sides)
        dres = float(np.max(np.abs(r))) / (1.0 + c_norm)
        trace.append((it, mu, pres, dres, pobj, dobj))

        if not np.isfinite(mu) or (mu <= 0.0 and it > 0):
            # S or Z lost positive definiteness to rounding: corrupted
            status = NUMERICAL_FAILURE
            break

        merit = max(rel_gap, pres, dres)
        if best is None or merit < 0.999 * best[0]:
            best = (merit, u.copy(), gap, pres, dres, rel_gap)
            stalled = 0
        else:
            stalled += 1
            if stalled >= 30:  # no progress in 30 iterations: give up cleanly
                status = NUMERICAL_FAILURE
                break

        if rel_gap <= opts.gap_tol and pres <= opts.feas_tol and dres <= opts.feas_tol:
            status = OPTIMAL
            break
        if pobj < opts.objective_floor and pres <= opts.feas_tol:
            status = UNBOUNDED_SUSPECTED
            break

        # Nesterov-Todd scaling per block: W = G G^T with G^{-1} S G^{-T} = G^T Z G = diag(dvec)
        scalings = [_nt_scaling(S[g], Z[g]) for g in sides]
        if any(sc is None for sc in scalings):
            status = NUMERICAL_FAILURE
            break
        Ginv, dvecs = zip(*scalings)
        GinvT = [np.ascontiguousarray(np.swapaxes(G, 1, 2)) for G in Ginv]

        M = schur.matrix(Ginv, GinvT)
        Rhat = [Ginv[g] @ R[g] @ GinvT[g] for g in sides]
        LM = _chol_regularized(M)
        if LM is None:
            status = NUMERICAL_FAILURE
            break
        schur_solve = _chol_solver(LM)

        def direction(E):
            """Search direction for complementarity target E (scaled space)."""
            du = schur_solve(schur.rhs([E[g] - Rhat[g] for g in sides]) - r)
            dS, dZ, dShat, dZhat = [], [], [], []
            for g in sides:
                ds = (du @ Aflat[g]).reshape(E[g].shape) + R[g]
                dsh = Ginv[g] @ ds @ GinvT[g]
                dzh = E[g] - dsh
                dz = GinvT[g] @ dzh @ Ginv[g]
                dS.append(ds)
                dZ.append(0.5 * (dz + np.swapaxes(dz, 1, 2)))
                dShat.append(dsh)
                dZhat.append(dzh)
            return du, dS, dZ, dShat, dZhat

        def step_lengths(dShat, dZhat):
            ap = ad = 1.0
            for g in sides:
                dv = dvecs[g]
                steps = _max_step(np.concatenate((dv, dv)), np.concatenate((dShat[g], dZhat[g])))
                ap = min(ap, opts.step_frac * float(steps[: len(dv)].min()))
                ad = min(ad, opts.step_frac * float(steps[len(dv) :].min()))
            return ap, ad

        # predictor (affine scaling: drive S Z -> 0)
        E_aff = [-(dvecs[g][:, :, None] * eyes[g]) for g in sides]
        du_a, dS_a, dZ_a, dSh_a, dZh_a = direction(E_aff)
        ap_a, ad_a = step_lengths(dSh_a, dZh_a)
        mu_aff = sum(
            float(np.vdot(S[g] + ap_a * dS_a[g], Z[g] + ad_a * dZ_a[g])) for g in sides
        ) / n_total
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term
        E_cor = []
        for g in sides:
            dv = dvecs[g]
            cross = dSh_a[g] @ dZh_a[g]
            rhs_sym = (sigma * mu * eyes[g] - (dv**2)[:, :, None] * eyes[g]
                       - 0.5 * (cross + np.swapaxes(cross, 1, 2)))
            E_cor.append(2.0 * rhs_sym / (dv[:, :, None] + dv[:, None, :]))
        du, dS, dZ, dSh, dZh = direction(E_cor)
        ap, ad = step_lengths(dSh, dZh)
        if ap <= 1e-14 and ad <= 1e-14:
            status = NUMERICAL_FAILURE
            break

        u = u + ap * du
        for g in sides:
            S[g] = S[g] + ap * dS[g]
            Z[g] = Z[g] + ad * dZ[g]
        iters = it + 1

    if status == OPTIMAL or best is None:
        return _CoreResult(u, status, iters, trace, (pobj - dobj) * s_obj, pres, dres, rel_gap)
    # on failure report the best iterate seen, not the diverged last one
    _, u_b, gap_b, pres_b, dres_b, rg_b = best
    return _CoreResult(u_b, status, iters, trace, gap_b * s_obj, pres_b, dres_b, rg_b)
