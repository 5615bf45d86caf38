"""Primal-dual interior-point solver for moment relaxations, in moment
coordinates.

Solves

    minimize  c_0 + <c, u>   s.t.   A_i(u) := C_i + sum_k u_k A_i[k] >= 0  (blocks i of side > 1),
                                    a_j . u + b_j >= 0                     (blocks j of side 1),
                                    E u = e,

the shape every moment relaxation assembles to: the u_k are the moments
y_alpha with alpha != 0 (y_0 is pinned to 1 and never solved for), each
block is M_k(g . y), the rows of g . y read through the base table of M_k
(moment.LMIBlock), and the rows E u = e are those of the equalities'
blocks, which vanish.  A constraint g >= 0 with ceil(deg g / 2) = d gives
the 1 x 1 block M_0(g . y), the linear inequality (g . y)_0 >= 0: such
blocks are the rows A u + b >= 0, with slack s and dual z as vectors.
Every row, of E, of A or of a block's G^T, is made by one builder
(_schur.ShiftRows), scaled by its block's largest coefficient (scaled).
Equality rows that depend on others are dropped once, at set-up, by a
thin SVD, which leaves E with orthonormal rows; the start u = E^T e
satisfies them.  Where an equality h has 2v <= d, every feasible y has
M_d(y) (h x^gamma) = 0 for |gamma| <= d - 2v: the moment block has no
interior along those vectors, so it is solved in the basis F of their
complement, as F^T M_d(y) F (_moment_face).  Without that, the
scaling of the block blows up exactly along the directions the rows fix,
and the Cholesky factorization of M breaks down near the optimum.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  Per iteration the scaling point of each
block is factored as W_i = G_i G_i^T, and V_i = W_i^{-1} = G_i^{-T} G_i^{-1}.
The Newton step solves the KKT system

    [ M  -E^T ] [ du   ]   [ rhs - r ]
    [ E   0   ] [ dlam ] = [ q       ],    M[alpha, beta] = sum_i <A_i[alpha], V_i A_i[beta] V_i>,

with r = c - A^*(Z) - A^T z - E^T lam the dual residual, q = e - E u the
equality residual and rhs[alpha] = sum_i <A_i[alpha], G_i^{-T} (T_i - R_i^) G_i^{-1}>
for a complementarity target T_i and the scaled primal residual R_i^.  M is
positive definite, because the moment block contains every moment.  It is
factored M = L L^T (_linalg.kkt_solver); then W = L^{-1} E^T,
K = W^T W = E M^{-1} E^T and

    dlam = K^{-1} (q - W^T L^{-1} p),   du = L^{-T} (L^{-1} p + W dlam),   p = rhs - r.

The dual objective is -sum_i <C_i, Z_i> - b^T z + e^T lam.  Memory peaks
in the set-up's thin SVD of E or in an iteration's KKT factorization
(solve_bytes): the SVD's outputs are released before the IPM starts, and
each iteration's factors before the next M is built.

The rows take the 1 x 1 case of every formula, elementwise.  Their
scaling is dv = sqrt(s z) and w = sqrt(z / s), their V; they add
A^T diag(w^2) A to M and A^T (w (t - w r_s)) to rhs, for a target t and the
primal residual r_s = A u + b - s; after the solve ds = A du + r_s,
ds^ = w ds, dz^ = t - ds^ and dz = w dz^.  Their step bound is a ratio
test: the least dv / (-ds^) over the entries with ds^ < 0, and the same
for dz^.  Without rows none of this runs.

M is built by the sparse-data formula of Fujisawa, Kojima and Nakata
("Exploiting sparsity in primal-dual interior-point methods for
semidefinite programming", Math. Program. 79, 1997).  A block is
M_k(g . y) = (g . y)[B], the rows of the shifted sequence read through the
base table B of M_k (moment.LMIBlock), so A_beta = sum_gamma G[beta, gamma]
H_gamma with H_gamma = [B == gamma] and G[shift[gamma, t], gamma] = g_t:

    Q[c, a, gamma'] = sum_{d: B[c, d] = gamma'} V[a, d]                      (scatter)
    Y[b, a, gamma'] = sum_c V[b, c] Q[c, a, gamma'] = (V H_gamma' V)[b, a]   (gemm, b >= a)
    MH[gamma, gamma'] = sum_{a <= b: B[a, b] = gamma} (2 - [a = b]) Y[b, a, gamma']

(row adds), and M += G MH G^T (_schur).  A block solved on a face enters
with V = F V' F^T, V' its scaling in the face.  The blocks at y are
(G^T y)[B], and the adjoint <A_i[alpha], X_i> is (G_i h_i)[alpha] with
h_i[gamma] the sum of X_i over B == gamma: bincounts over the rows g . y,
the same data as the equality rows.  Step lengths are taken in the scaled
space, where both iterates are diag(dvec).  Blocks of equal side and base
table are stacked, so each per-block step is one batched call per stack.
Everything is deterministic: no randomization is used anywhere in this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chol_stack, kkt_solver
from ._schur import CHUNK_DOUBLES, ShiftRows, TableSchur, scaled, stack_blocks
from .moment import MomentVector, RelaxationProblem

__all__ = ["SolverOptions", "SdpSolution", "solve_bytes", "solve_sdp"]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"
UNBOUNDED_SUSPECTED = "unbounded_suspected"
# share of the step to the boundary of the cone that an iteration takes
STEP_FRAC = 0.98


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    objective_floor: float = -1e12  # scaled-objective divergence guard


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
    schur_dim: int = 0      # moments in the Newton system; 0 when the IPM did not run
    equality_rows: int = 0  # independent equality rows kept
    linear_rows: int = 0    # side-1 blocks solved as linear rows; 0 when the IPM did not run


def _max_step(dv: np.ndarray, delta_hat: np.ndarray) -> np.ndarray:
    """Largest t with  diag(dv) + t*delta_hat >= 0  (dv > 0), for one block
    or, batched, for each block of a stack.

    In Nesterov-Todd scaled coordinates, where both iterates are diag(dv),
    this is the step bound of  X + t*Delta >= 0  for either iterate."""
    root = np.sqrt(dv)
    sym = 0.5 * (delta_hat + delta_hat.swapaxes(-1, -2))
    lam = np.linalg.eigvalsh(sym / (root[..., :, None] * root[..., None, :]))[..., 0]
    with np.errstate(divide="ignore"):
        return np.where(lam >= 0.0, np.inf, -1.0 / lam)


def _ratio_step(dv: np.ndarray, delta_hat: np.ndarray) -> float:
    """_max_step for k blocks of side 1 at once: the largest t with
    dv + t*delta_hat >= 0 entrywise (dv > 0), a ratio test."""
    lam = float(np.min(delta_hat / dv))
    return np.inf if lam >= 0.0 else -1.0 / lam


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling W = G G^T with G^{-1} S G^{-T} = G^T Z G = diag(dv),
    for one block or, batched, for every block of a stack.

    Returns (G^{-1}, dv), or None when S or Z cannot be factored."""
    factors = chol_stack(np.stack((S, Z)))
    if factors is None:
        return None
    ls, lz = factors
    lzT = lz.swapaxes(-1, -2)
    U, dv, _ = np.linalg.svd(lzT @ ls)
    dv = np.maximum(dv, 1e-150)
    return (U / np.sqrt(dv)[..., None, :]).swapaxes(-1, -2) @ lzT, dv


def solve_bytes(num_moments: int, blocks, equality_rows: int) -> int:
    """Bytes solve_sdp needs at its peak, from the table sizes alone: blocks
    lists (terms, base entries) of each localizing block (the moment block
    is counted with M), equality_rows counts the rows before dependent ones
    are dropped.  With L moments, m rows and r = min(m, L), the peak is the
    larger of the set-up, the thin SVD of E (m, L): E, the outputs U and Vt,
    and numpy's copies of E, U and Vt with gesdd's work (at most 4 r^2 + 8 r);
    and an iteration: every array of one KKT factorization as if alive
    together (M, its factor and the Cholesky's copy of M, W = L^{-1} E^T with
    its update, K with its copy and factor), the rows kept, the Q and Y
    chunk buffers, and per localizing block its MH, G^T, MH G^T, and G^T in
    coordinates with its term buffer.  A block of side 1 is a linear row:
    the row and its scaled copy fit in its 2 L doubles.  Not counted: a
    regularized retry of the Cholesky (two more L x L) and the moment
    block's index plan (_schur._plan)."""
    L, m = num_moments, equality_rows
    r = min(m, L)
    setup = 2 * m * L + 2 * r * (m + L) + 4 * r * r + 8 * r
    iteration = 3 * L * L + 5 * L * r // 2 + 3 * r * r + 2 * CHUNK_DOUBLES
    iteration += sum(nb * nb + 2 * nb * L + 4 * nb * t for t, nb in blocks)
    return 8 * max(setup, iteration)


def solve_sdp(problem: RelaxationProblem, options: SolverOptions | None = None) -> SdpSolution:
    opts = options or SolverOptions()
    L = problem.num_moments
    N = L - 1
    c_raw = problem.objective[1:].copy()
    c0 = float(problem.objective[0])

    def finish(u, status, iters, trace, gap_unscaled, pres, dres, rel_gap=float("nan"),
               schur_dim=0, rank=0, linear=0):
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
            equality_rows=rank,
            linear_rows=linear,
        )

    # identically-zero blocks (vacuous constraints like 0 >= 0 or 0 = 0) would
    # starve the scaling; drop them up front (the moment block is never zero)
    blocks = [b for b in problem.blocks if np.any(b.coeffs)]
    equalities = [h for h in problem.equalities if np.any(h.coeffs)]

    R = ShiftRows(scaled(equalities)).dense(L)
    E, e = R[:, 1:], -R[:, 0]
    del R  # E is a view: the rows die when E is rebound after the SVD
    rank = 0
    u = np.zeros(N)
    if not N and np.any(e):
        # a row 0 = e with e != 0: no moment can meet it
        return finish(u, NUMERICAL_FAILURE, 0, [], np.inf, np.inf, np.inf)
    if E.shape[0] and N:
        # one thin SVD gives orthonormal rows for the independent equalities
        # and the least-squares start u = E^T e
        U, sv, Vt = np.linalg.svd(E, full_matrices=False)
        rank = int(np.sum(sv > max(E.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)))
        e_kept = U[:, :rank].T @ e / sv[:rank]
        u = Vt[:rank].T @ e_kept
        if np.max(np.abs(E @ u - e), initial=0.0) > 1e-8:
            return finish(u, NUMERICAL_FAILURE, 0, [], np.inf, np.inf, np.inf, rank=rank)
        # stored as the transpose of contiguous columns, which W = L^{-1} E^T reads
        E, e = np.ascontiguousarray(Vt[:rank].T).T, e_kept
        del U, sv, Vt  # not to add to the IPM's peak

    if rank == N:
        # no free moments: feasibility is a property of the fixed values alone
        y = np.concatenate(([1.0], u))
        ok = all(np.linalg.eigvalsh(b.evaluate(y))[0] >= -opts.feas_tol for b in blocks)
        return finish(u, OPTIMAL if ok else NUMERICAL_FAILURE, 0, [], 0.0, 0.0, 0.0, 0.0, rank=rank)
    if not blocks:  # on {E u = e}, c is bounded below iff it lies in the row space of E
        dres = float(np.max(np.abs(c_raw - E.T @ (E @ c_raw)), initial=0.0)
                     / (1.0 + np.max(np.abs(c_raw), initial=0.0)))
        status = OPTIMAL if dres <= opts.feas_tol else UNBOUNDED_SUSPECTED
        return finish(u, status, 0, [], 0.0, 0.0, dres, 0.0, rank=rank)

    face = _moment_face(problem.n, problem.d, equalities) if rank else None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # overflow fails the solve
        core = _ipm(c_raw, blocks, E, e, u, opts, face)
    return finish(core.u, core.status, core.iterations, core.trace,
                  core.gap, core.pres, core.dres, core.rel_gap, N, rank,
                  sum(b.side == 1 for b in blocks))


def _moment_face(n: int, d: int, equalities) -> np.ndarray | None:
    """Orthonormal basis (s, s') of the face of the moment block M_d(y) that
    the equalities' blocks (d - v >= v) leave: for h = 0 of half degree v
    and |gamma| <= d - 2v, the coefficients of h x^gamma over Lambda(d)
    satisfy M_d(y) (h x^gamma) = ((h . y)_{alpha + gamma})_alpha = 0 at every
    y that meets the rows.  On that kernel the block has no interior, and
    the scaling V blows up along exactly the directions the rows fix;
    solving the block in the complement keeps them out of the Schur matrix.
    Lambda is graded, so h x^gamma is row gamma of the block, among its
    first |Lambda(d - 2v)| rows, and lies within Lambda(d).  None when there
    is no such kernel."""
    side = math.comb(n + d, n)
    kernel = [(h.shift[: math.comb(n + d - 2 * h.v, n)], h.coeffs)
              for h in equalities if d >= 2 * h.v]
    if not kernel:
        return None
    _, sv, Vt = np.linalg.svd(ShiftRows(kernel).dense(side))
    rank = int(np.sum(sv > max(side, len(sv)) * np.finfo(float).eps * sv[0]))
    return np.ascontiguousarray(Vt[rank:].T) if rank else None


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


def _ipm(c_raw: np.ndarray, blocks: list, E: np.ndarray, e: np.ndarray,
         u: np.ndarray, opts: SolverOptions, face: np.ndarray | None = None) -> _CoreResult:
    """Path-following core on  min <c,u>  s.t.  A_i(u) >= 0,  E u = e,
    from u (which satisfies E u = e); the moment block is solved in the
    basis `face` (see _moment_face) when one is given.

    Blocks of side 1 are the k linear rows A u + b >= 0, their one row each
    (ShiftRows) with the constants b in column 0 (y_0 = 1), and with slack
    s and dual z as vectors: each 1 x 1 formula of a stack is
    then elementwise, and with k = 0 none of it runs.  The other blocks
    of equal side and base table form one stack, so that every per-block
    factorization, decomposition and product is one batched call per
    stack."""
    N = c_raw.shape[0]

    # per-problem rescaling: largest absolute coefficient becomes 1
    s_obj = float(np.max(np.abs(c_raw))) if np.any(c_raw) else 1.0
    c = c_raw / s_obj
    stacks = stack_blocks([blk for blk in blocks if blk.side > 1], N + 1, face)
    rows = ShiftRows(scaled(blk for blk in blocks if blk.side == 1)).dense(N + 1)
    A, b = rows[:, 1:], rows[:, 0]
    k = len(b)
    schur = TableSchur(stacks, N + 1)
    sides = range(len(stacks))
    one = np.zeros(N + 1)
    one[0] = 1.0
    A0 = [st.evaluate(one) for st in stacks]  # constant parts C_i
    eyes = [np.eye(x.shape[-1]) for x in A0]
    n_total = float(sum(x.shape[0] * x.shape[-1] for x in A0) + k)
    c_norm = float(np.max(np.abs(c))) if np.any(c) else 1.0
    e_norm = float(np.max(np.abs(e), initial=0.0))

    def at(v, const):
        """The blocks at y = (const, v)."""
        y = np.concatenate(([const], v))
        return [st.evaluate(y) for st in stacks]

    start = at(u, 1.0)
    a0_norms = [np.linalg.norm(x.reshape(len(x), -1), axis=1) for x in start]
    peaks = [float(np.max(x)) for x in a0_norms]
    if k:
        row_norms = np.abs(A @ u + b)
        peaks.append(float(np.max(row_norms)))

    # strictly interior start: slack and dual multiplier proportional to I
    tau = 1.0 + max(peaks)
    S = [tau * np.broadcast_to(I, x.shape) for I, x in zip(eyes, start)]
    Z = [np.broadcast_to(I, x.shape).copy() for I, x in zip(eyes, start)]
    s, z = np.full(k, tau), np.ones(k)
    lam = np.zeros(E.shape[0])

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
        Au = at(u, 1.0)
        R = [Au[g] - S[g] for g in sides]
        r = c - schur.adjoint(Z) - E.T @ lam
        q = e - E @ u

        pobj = float(c @ u)
        dobj = -sum(float(np.vdot(A0[g], Z[g])) for g in sides) + float(e @ lam)
        sz = sum(float(np.vdot(S[g], Z[g])) for g in sides)
        res = [float(np.max(np.linalg.norm(R[g].reshape(len(R[g]), -1), axis=1)
                            / (1.0 + a0_norms[g]))) for g in sides]
        if k:
            r_lin = A @ u + b - s
            r -= A.T @ z
            dobj -= float(b @ z)
            sz += float(s @ z)
            res.append(float(np.max(np.abs(r_lin) / (1.0 + row_norms))))
        mu = sz / n_total
        gap = pobj - dobj
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        pres = max(max(res), float(np.max(np.abs(q), initial=0.0)) / (1.0 + e_norm))
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
        Ginv = [sc[0] for sc in scalings]
        dvecs = [sc[1] for sc in scalings]
        GinvT = [np.ascontiguousarray(G.swapaxes(1, 2)) for G in Ginv]
        V = [GT @ G for G, GT in zip(Ginv, GinvT)]

        rows_w = None
        if k:
            # a row's NT scaling: dv = sqrt(s z) and V = w = sqrt(z / s);
            # its part of M is (w a)(w a)^T
            dv_lin, w = np.sqrt(s * z), np.sqrt(z / s)
            rows_w = rows * w[:, None]
            Aw = rows_w[:, 1:]
            r_hat = w * r_lin
        kkt = None  # release the last factors before M is built and factored
        kkt = kkt_solver(schur.matrix(V, rows_w), E)
        if kkt is None:
            status = NUMERICAL_FAILURE
            break
        Rhat = [Ginv[g] @ R[g] @ GinvT[g] for g in sides]

        def direction(T, t):
            """Search direction for complementarity targets T of the stacks
            and t of the rows, in the scaled space.  The rows' part is
            (ds, dz, ds_hat, dz_hat), None without rows."""
            rhs = schur.adjoint([GinvT[g] @ (T[g] - Rhat[g]) @ Ginv[g] for g in sides]) - r
            if k:
                rhs += Aw.T @ (t - r_hat)
            du, dlam = kkt(rhs, q)
            dS = [x + R[g] for g, x in zip(sides, at(du, 0.0))]
            dShat = [Ginv[g] @ dS[g] @ GinvT[g] for g in sides]
            dZhat = [T[g] - dShat[g] for g in sides]
            dZ = [GinvT[g] @ dZhat[g] @ Ginv[g] for g in sides]
            dZ = [0.5 * (x + x.swapaxes(1, 2)) for x in dZ]
            lin = None
            if k:
                ds = A @ du + r_lin
                ds_hat = ds * w
                dz_hat = t - ds_hat
                lin = ds, dz_hat * w, ds_hat, dz_hat
            return du, dlam, dS, dZ, dShat, dZhat, lin

        def step_lengths(dShat, dZhat, lin):
            # (0, 0), which ends the solve, for a direction that is not finite:
            # it shows in the moment block, which reads every moment
            ap = ad = 1.0
            for g in sides:
                dv = dvecs[g]
                delta = np.concatenate((dShat[g], dZhat[g]))
                if not np.isfinite(delta).all():
                    return 0.0, 0.0
                steps = _max_step(np.concatenate((dv, dv)), delta)
                ap = min(ap, STEP_FRAC * float(steps[: len(dv)].min()))
                ad = min(ad, STEP_FRAC * float(steps[len(dv) :].min()))
            if k:
                ap = min(ap, STEP_FRAC * _ratio_step(dv_lin, lin[2]))
                ad = min(ad, STEP_FRAC * _ratio_step(dv_lin, lin[3]))
            return ap, ad

        # predictor (affine scaling: drive S Z -> 0)
        T_aff = [-(dvecs[g][:, :, None] * eyes[g]) for g in sides]
        _, _, dS_a, dZ_a, dSh_a, dZh_a, lin_a = direction(T_aff, -dv_lin if k else None)
        ap_a, ad_a = step_lengths(dSh_a, dZh_a, lin_a)
        sz_aff = sum(float(np.vdot(S[g] + ap_a * dS_a[g], Z[g] + ad_a * dZ_a[g])) for g in sides)
        if k:
            sz_aff += float((s + ap_a * lin_a[0]) @ (z + ad_a * lin_a[1]))
        mu_aff = sz_aff / n_total
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term
        T_cor = []
        for g in sides:
            dv = dvecs[g]
            cross = dSh_a[g] @ dZh_a[g]
            rhs_sym = (sigma * mu * eyes[g] - (dv**2)[:, :, None] * eyes[g]
                       - 0.5 * (cross + cross.swapaxes(1, 2)))
            T_cor.append(2.0 * rhs_sym / (dv[:, :, None] + dv[:, None, :]))
        t_cor = (sigma * mu - dv_lin**2 - lin_a[2] * lin_a[3]) / dv_lin if k else None
        du, dlam, dS, dZ, dSh, dZh, lin = direction(T_cor, t_cor)
        ap, ad = step_lengths(dSh, dZh, lin)
        if ap <= 1e-14 and ad <= 1e-14:
            status = NUMERICAL_FAILURE
            break

        u = u + ap * du
        lam = lam + ad * dlam
        for g in sides:
            S[g] = S[g] + ap * dS[g]
            Z[g] = Z[g] + ad * dZ[g]
        if k:
            s = s + ap * lin[0]
            z = z + ad * lin[1]
        iters = it + 1

    if status == OPTIMAL or best is None:
        return _CoreResult(u, status, iters, trace, (pobj - dobj) * s_obj, pres, dres, rel_gap)
    # on failure report the best iterate seen, not the diverged last one
    _, u_b, gap_b, pres_b, dres_b, rg_b = best
    return _CoreResult(u_b, status, iters, trace, gap_b * s_obj, pres_b, dres_b, rg_b)
