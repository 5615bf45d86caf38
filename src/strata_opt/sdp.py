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
At set-up the equality rows, in coordinates, split into blocks that name
no moment in common, and one Gaussian elimination with partial pivoting
per block, in place on that block's rows made dense over its own moments
(_linalg.echelon_rows), drops the dependent rows, picks r pivot moments P,
leaves the other f = N - r moments F free and brings the rows to reduced
row echelon form E = Pi [I C], C = E_P^{-1} E_F block diagonal, with
constants e: the start u = Pi [e; 0] meets them, and Z = Pi^T [-C; I] is
a basis of their kernel.  After set-up the solver reads the rows only
through (P, F, C, e), C block by block.  Where an equality h has
2v <= d, every feasible y has
M_d(y) (h x^gamma) = 0 for |gamma| <= d - 2v: the moment block has no
interior along those vectors, so it is solved in the basis F of their
complement, as F^T M_d(y) F (_moment_face).  Without that, the
scaling of the block blows up exactly along the directions the rows fix,
and the Cholesky factorization of M breaks down near the optimum.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  The start is the u that meets the rows,
with S = tau I and Z = I / tau in every block (s = tau and z = 1 / tau for
the rows), tau = 1 + the largest norm of a block at u: S Z = I, so the
start is centred at mu = 1 whatever the problem's scale.  (Z = I, at
mu = tau, took about a tenth more iterations on the order-(d0 + 1)
relaxations of the strata.)  Where the Newton system's factors
serve every solve (the Cholesky route of _linalg.kkt_solver, not the small
systems' LU), up to EXTRA_CORRECTORS more correctors follow, each with the
last direction's own dS^ dZ^ as its second-order term (Carpenter, Lustig,
Mulvey and Shanno, SIAM J. Optim. 3, 1993; Gondzio, Comput. Optim. Appl. 6,
1996), and each kept only if it lengthens the shorter of the primal and
dual steps.  Per iteration the scaling point of each block is factored
as W_i = G_i G_i^T, and V_i = W_i^{-1} = G_i^{-T} G_i^{-1}.  The Newton
step solves the KKT system

    [ M  -E^T ] [ du   ]   [ rhs - r ]
    [ E   0   ] [ dlam ] = [ q       ],    M[alpha, beta] = sum_i <A_i[alpha], V_i A_i[beta] V_i>,

with r = c - A^*(Z) - A^T z - E^T lam the dual residual, q = e - E u the
equality residual and rhs[alpha] = sum_i <A_i[alpha], G_i^{-T} (T_i - R_i^) G_i^{-1}>
for a complementarity target T_i and the scaled primal residual R_i^.  M is
positive definite, because the moment block contains every moment.  The
step is taken in the kernel of E (_linalg.kkt_solver): the reduced matrix

    M_r = Z^T M Z = M_FF + C^T T + T^T C,   T = M_PP C / 2 - M_PF,

built one block C_k of C at a time in (r + f) sum_k r_k f_k flops, is
factored M_r = L L^T once per iteration, and with
p = rhs - r

    w = M_r^{-1} Z^T p,   du = Pi [q; 0] + Z w,

then one refinement w' = M_r^{-1} Z^T (p - M du) of du against M itself,
and dlam = (M du - p)_P.  M_r mixes M's entries through C, which amplifies
its rounding near the optimum; the refinement brings the dual residual back
to about that of a Cholesky solve of M, and takes Pi [q; 0]'s part, which
is rounding: the iterates meet E u = e.  E du = q holds to rounding however
ill-conditioned M is.  Without rows M_r is M, with no refinement.  The
dual objective is -sum_i <C_i, Z_i> - b^T z + e^T lam.  Memory peaks in
the set-up's elimination or in an iteration's KKT factorization
(solve_bytes): the set-up's arrays but (P, F, C, e) are released before
the IPM starts, and each iteration's factors before the next M is built.

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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chol_stack, echelon_rows, kkt_solver
from ._schur import ShiftRows, TableSchur, scaled, stack_blocks, stack_doubles
from .moment import MomentVector, RelaxationProblem

__all__ = ["SolverOptions", "SdpSolution", "solve_bytes", "solve_sdp"]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"
UNBOUNDED_SUSPECTED = "unbounded_suspected"
# share of the step to the boundary of the cone that an iteration takes
STEP_FRAC = 0.98
# correctors tried after Mehrotra's in an iteration, from the same factors
EXTRA_CORRECTORS = 2
# doubles that solve_bytes adds for the solver's small arrays and objects
# (up to 116 KiB beyond its other terms on the embedded tensors' relaxations)
_SMALL = 1 << 15


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    objective_floor: float = -1e12  # scaled-objective divergence guard

    def __post_init__(self):
        for name in ("gap_tol", "feas_tol"):
            tol = getattr(self, name)
            if not np.isfinite(tol) or tol <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {tol}")


@dataclass
class SdpSolution:
    y: MomentVector
    objective: float
    duality_gap: float           # absolute, in problem units
    iterations: int
    status: str
    # per iteration (it, mu, pres, dres, pobj, dobj, shorter): shorter lists
    # min(primal step, dual step) of Mehrotra's corrector and of each extra
    # corrector kept, () where no step was taken
    trace: list = field(default_factory=list)
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    relative_gap: float = float("nan")  # the quantity gap_tol bounds
    schur_dim: int = 0      # moments in the Newton system; 0 when the IPM did not run
    equality_rows: int = 0  # independent equality rows kept
    linear_rows: int = 0    # side-1 blocks solved as linear rows; 0 when the IPM did not run
    correctors: int = 0     # extra correctors kept, summed over the iterations
    basis_growth: float | None = None  # max |C| of the rows' echelon form; None without rows
    # (kept rows, free moments) of each independent block of equality rows; None without rows
    row_blocks: list | None = None


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


def solve_bytes(num_moments: int, side: int, blocks, equality_rows: int,
                equality_terms: int) -> int:
    """Bytes solve_sdp needs at its peak, from the table sizes alone: side is
    the moment block's, blocks lists (terms, base entries, side) of each
    localizing block (the moment block is counted with M), equality_rows
    counts the rows before dependent ones are dropped and equality_terms
    their terms.  With L moments, m rows and r = min(m, L), the peak is the
    larger of the set-up and an iteration.  The set-up holds the rows in
    coordinates (_schur.ShiftRows, 3 words a term) and, at their largest,
    the index arrays that find their blocks or place their terms
    (_linalg.echelon_rows, 5 more words a term).  The table sizes do not
    tell how the rows split into blocks, so the rest of the set-up is
    bounded as if one block held every row and moment: the blocks' dense
    rows side by side (m L), one block's elimination at a time, in place,
    whose top step holds the triangular solve's operands, their copies and
    the multipliers (at most 5 m^2 / 4), then the multipliers, the upper
    half's copy and the product (m^2 / 4 + m L); or its back substitution,
    with the kept rows' copy, U = R_P and [R_0, R_F] (m L + r^2 + r L); and
    the parts of C made so far (r L).  An iteration holds C (at most rank
    L), M, and the Newton system's arrays at the largest of its stages
    (_linalg.kkt_solver: T^T with one block's rows of M on the columns P,
    2 rank L; or T^T with the reduced matrix M_r of side f = L - rank and
    one block's panel of T^T C, rank L + 2 f^2; or M_r with its factor and
    the Cholesky's copy, 3 f^2; without rows M, its factor and the copy),
    each convex in the rank, so that the worse end of [0, r] bounds it;
    then the Q and Y chunk buffers (_schur.stack_doubles), and per
    localizing block its MH, G^T, MH G^T, and G^T in coordinates with its
    term buffer.  A block of side 1 is a linear row: the row and its scaled
    copy fit in its 2 L doubles.  The stacks' index plans (_schur._plan)
    stay alive throughout, and _SMALL bounds the rest.  Not counted: a
    regularized retry of the Cholesky (two more f x f)."""
    L, m = num_moments, equality_rows
    r = min(m, L)
    setup = (8 * equality_terms + m * L
             + max(5 * m * m // 4, m * m // 4 + m * L, m * L + r * r + r * L) + r * L)

    def newton(rank):
        f = L - rank
        return rank * L + L * L + max(2 * rank * L, rank * L + 2 * f * f, 3 * f * f)

    stacks = Counter((nb, s) for _, nb, s in blocks if s > 1)
    q, y, plans = zip(stack_doubles(1, side, L),
                      *(stack_doubles(k, s, nb) for (nb, s), k in stacks.items()))
    iteration = max(newton(0), newton(r)) if m else 3 * L * L
    iteration += max(q) + max(y) + sum(plans)
    iteration += sum(nb * nb + 2 * nb * L + 4 * nb * t for t, nb, _ in blocks)
    return 8 * (max(setup, iteration) + _SMALL)


def solve_sdp(problem: RelaxationProblem, options: SolverOptions | None = None) -> SdpSolution:
    opts = options or SolverOptions()
    L = problem.num_moments
    N = L - 1
    c_raw = problem.objective[1:].copy()
    c0 = float(problem.objective[0])

    def finish(u, status, duality_gap, primal_residual, dual_residual, **fields):
        """The SdpSolution at u; fields names the outcome's other fields
        (_ipm's record, or none where the IPM did not run)."""
        return SdpSolution(
            y=MomentVector(n=problem.n, d=problem.d, values=np.concatenate(([1.0], u))),
            objective=c0 + float(c_raw @ u),
            duality_gap=abs(float(duality_gap)),
            status=status,
            primal_residual=primal_residual,
            dual_residual=dual_residual,
            equality_rows=rank,
            basis_growth=E.growth if rank else None,
            row_blocks=list(E.sizes) if rank else None,
            **fields,
        )

    # identically-zero blocks (vacuous constraints like 0 >= 0 or 0 = 0) would
    # starve the scaling; drop them up front (the moment block is never zero)
    blocks = [b for b in problem.blocks if np.any(b.coeffs)]
    equalities = [h for h in problem.equalities if np.any(h.coeffs)]

    # the independent rows in echelon form, and the start u = Pi [e; 0]
    E, residual = echelon_rows(ShiftRows(scaled(equalities)), L)
    rank = len(E.P)
    u = E.particular(E.e)
    if residual > 1e-8:  # a dropped row that the kept ones contradict
        return finish(u, NUMERICAL_FAILURE, np.inf, np.inf, np.inf, iterations=0)

    if rank == N:
        # no free moments: feasibility is a property of the fixed values alone
        y = np.concatenate(([1.0], u))
        ok = all(np.linalg.eigvalsh(b.evaluate(y))[0] >= -opts.feas_tol for b in blocks)
        return finish(u, OPTIMAL if ok else NUMERICAL_FAILURE, 0.0, 0.0, 0.0,
                      iterations=0, relative_gap=0.0)
    if not blocks:  # on {E u = e}, c is bounded below iff its reduced cost vanishes
        dres = float(np.max(np.abs(c_raw[E.F] - E.ct_dot(c_raw[E.P])), initial=0.0)
                     / (1.0 + np.max(np.abs(c_raw), initial=0.0)))
        status = OPTIMAL if dres <= opts.feas_tol else UNBOUNDED_SUSPECTED
        return finish(u, status, 0.0, 0.0, dres, iterations=0, relative_gap=0.0)

    face = _moment_face(problem.n, problem.d, equalities) if rank else None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # overflow fails the solve
        outcome = _ipm(c_raw, blocks, E, u, opts, face)
    return finish(**outcome, schur_dim=N, linear_rows=sum(b.side == 1 for b in blocks))


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


def _ipm(c_raw: np.ndarray, blocks: list, E, u: np.ndarray, opts: SolverOptions,
         face: np.ndarray | None = None) -> dict:
    """Path-following core on  min <c,u>  s.t.  A_i(u) >= 0,  E u = e,
    from u (which satisfies E u = e), with the rows E u = e in echelon form
    (_linalg.EchelonRows), whose kernel basis the Newton steps take; the
    moment block is solved in the basis `face` (see _moment_face) when one
    is given.

    Blocks of side 1 are the k linear rows A u + b >= 0, their one row each
    (ShiftRows) with the constants b in column 0 (y_0 = 1), and with slack
    s and dual z as vectors: each 1 x 1 formula of a stack is
    then elementwise, and with k = 0 none of it runs.  The other blocks
    of equal side and base table form one stack, so that every per-block
    factorization, decomposition and product is one batched call per
    stack.  Returns the SdpSolution fields the solve decides, by name: at
    a failure those of the best iterate seen."""
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
    e = E.e
    newton = kkt_solver(E, N)
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

    # strictly interior start on the central path's mu = 1: S = tau I, Z = I / tau
    tau = 1.0 + max(peaks)
    S = [tau * np.broadcast_to(I, x.shape) for I, x in zip(eyes, start)]
    Z = [np.broadcast_to(I / tau, x.shape).copy() for I, x in zip(eyes, start)]
    s, z = np.full(k, tau), np.full(k, 1.0 / tau)
    lam = np.zeros(len(e))

    trace: list[tuple] = []
    status = MAX_ITERATIONS
    iters = 0
    pobj = dobj = 0.0
    pres = dres = np.inf
    rel_gap = float("inf")
    best = None  # (merit, u, gap, pres, dres, rel_gap) of the best iterate seen
    stalled = 0
    correctors = 0

    for it in range(opts.max_iter):
        iters = it
        Au = at(u, 1.0)
        R = [Au[g] - S[g] for g in sides]
        r = c - schur.adjoint(Z) - E.adjoint(lam)
        q = e - E.apply(u)

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
        trace.append((it, mu, pres, dres, pobj, dobj, ()))

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
        # release the last factors and directions before M is built and factored
        kkt = step = trial = dS = dZ = lin = None
        dS_a = dZ_a = dSh_a = dZh_a = lin_a = None
        kkt = newton(schur.matrix(V, rows_w))
        if kkt is None:
            status = NUMERICAL_FAILURE
            break
        kkt, factored = kkt
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

        def corrector(dSh, dZh, lin):
            """The corrector whose second-order term is the product of the
            scaled steps dSh, dZh (and lin's) of an earlier direction, with
            its step lengths."""
            T = []
            for g in sides:
                dv = dvecs[g]
                cross = dSh[g] @ dZh[g]
                rhs_sym = (sigma * mu * eyes[g] - (dv**2)[:, :, None] * eyes[g]
                           - 0.5 * (cross + cross.swapaxes(1, 2)))
                T.append(2.0 * rhs_sym / (dv[:, :, None] + dv[:, None, :]))
            t = (sigma * mu - dv_lin**2 - lin[2] * lin[3]) / dv_lin if k else None
            step = direction(T, t)
            return step, step_lengths(*step[4:])

        # Mehrotra's corrector, from the predictor; then, while the factors
        # serve every solve, up to EXTRA_CORRECTORS more, each from the last
        # one's own term, kept only if it lengthens the shorter step
        step, (ap, ad) = corrector(dSh_a, dZh_a, lin_a)
        shorter = [min(ap, ad)]
        for _ in range(EXTRA_CORRECTORS if factored else 0):
            trial, (tp, td) = corrector(*step[4:])
            if min(tp, td) <= shorter[-1]:
                break
            step, ap, ad = trial, tp, td
            shorter.append(min(ap, ad))
        correctors += len(shorter) - 1
        trace[-1] = trace[-1][:6] + (tuple(shorter),)
        du, dlam, dS, dZ, _, _, lin = step
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

    gap = pobj - dobj
    if status != OPTIMAL and best is not None:
        # on failure report the best iterate seen, not the diverged last one
        _, u, gap, pres, dres, rel_gap = best
    return dict(u=u, status=status, iterations=iters, trace=trace,
                duality_gap=gap * s_obj, primal_residual=pres, dual_residual=dres,
                relative_gap=rel_gap, correctors=correctors)
