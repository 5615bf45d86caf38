"""Relaxation-order loop with rank certification and minimizer extraction.

The driver iterates relaxation orders d = d0, ..., d_max.  Each solved order
yields a lower bound rho_d; when the flatness condition

    rank M_{d-v}(y) = rank M_d(y),        v = max_i ceil(deg(g_i)/2),

holds for the optimal moment vector y, the bound is certified, the measure
behind y is atomic, and its atoms (the global minimizers) are extracted from
the moment matrix.  Each atom is projected onto the equalities {h = 0} and,
where no inequality is active, polished by Newton steps on the KKT system
of min f over {h = 0}, before it is validated against f and the
constraints.  The overall status mirrors the classic three-valued
convention: -1 no order solved, 0 solved but not certified, +1 certified.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .moment import (
    EQ,
    GE,
    MomentVector,
    assemble_relaxation,
    constraint_half_degree,
    minimal_order,
    moment_matrix,
)
from .poly import Polynomial, derivative_arrays, grlex_position, lambda_set, monomials
from .sdp import OPTIMAL, SdpSolution, SolverOptions, solve_bytes, solve_sdp

__all__ = [
    "HierarchyOptions",
    "HierarchyResult",
    "OrderDiagnostics",
    "ExtractionFailure",
    "RelaxationTooLarge",
    "add_ball_constraint",
    "numerical_rank",
    "check_rank_condition",
    "extract_minimizers",
    "run_hierarchy",
]


class ExtractionFailure(RuntimeError):
    """Atom extraction could not complete (degenerate pivot or moment mismatch)."""


# share of the available memory one relaxation may take
MEMORY_FRACTION = 0.5
# pivot threshold of the atom extraction and the relative constraint
# violation up to which an extracted atom counts as feasible
EXTRACTION_TOL = 1e-6
FEAS_REPORT_TOL = 1e-6
# relative singular-value cutoff of the Newton steps' least-squares solves.  On
# a stratum the equalities are dependent (cubic-piezo: 5 equations, a rank-3
# Jacobian on the variety), and near it the extra singular values are
# rounding noise, 1e-15 of the largest, just above lstsq's default cutoff
# eps * max(m, n): dividing by them moved an atom along its orbit by 0.64 at
# |x| ~ 300 and changed f by up to 4 times the acceptance tolerance
PROJECTION_RCOND = float(np.sqrt(np.finfo(float).eps))


class RelaxationTooLarge(MemoryError):
    """The estimated memory of a relaxation order exceeds the budget."""

    def __init__(self, d: int, needed: int, budget: int):
        super().__init__(d, needed, budget)
        self.d, self.needed, self.budget = d, needed, budget

    def __str__(self) -> str:
        return (f"relaxation order d={self.d} needs an estimated {self.needed / 2**20:.6g} MB, "
                f"over the budget of {self.budget / 2**20:.6g} MB "
                f"({MEMORY_FRACTION:g} of the available memory)")


@dataclass(frozen=True)
class HierarchyOptions:
    d_max: int = 4
    rank_eps: float = 1e-6          # relative singular-value threshold
    solver: SolverOptions = field(default_factory=SolverOptions)
    # Exact change of coordinates x = r * x~ applied before assembly: bounds
    # are unchanged, moment-matrix ranks are preserved (positive diagonal
    # congruence), and minimizers are mapped back by r.  Balancing the
    # optimizer magnitude to O(1) keeps the Newton systems well conditioned
    # regardless of the input units.
    coordinate_scale: float = 1.0

    def __post_init__(self):
        r = float(self.coordinate_scale)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError(f"coordinate_scale must be positive, got {r}")
        if not 0.0 < self.rank_eps < 1.0:
            raise ValueError(f"rank_eps must lie in (0, 1), got {self.rank_eps}")


@dataclass
class OrderDiagnostics:
    d: int
    solver_status: str
    objective: float
    duality_gap: float
    iterations: int
    num_moments: int = 0    # moments of the relaxation, whether or not the IPM ran
    block_sides: list = field(default_factory=list)  # sides of the assembled PSD blocks
    schur_dim: int = 0      # moments in the Newton system (SdpSolution.schur_dim)
    equality_rows: int = 0  # independent equality rows kept (SdpSolution.equality_rows)
    linear_rows: int = 0    # side-1 blocks solved as linear inequalities (SdpSolution.linear_rows)
    correctors: int = 0     # extra correctors kept (SdpSolution.correctors)
    basis_growth: float | None = None  # max |C| of the rows' echelon form (SdpSolution.basis_growth)
    row_blocks: list | None = None  # (kept rows, free moments) per block of rows (SdpSolution.row_blocks)
    rank_low: int = -1
    rank_high: int = -1
    rank_satisfied: bool = False
    extraction_status: str = "not_attempted"
    atom_count: int = 0
    max_constraint_violation: float = float("nan")       # after the Newton steps
    max_violation_before_projection: float = float("nan")
    max_objective_mismatch: float = float("nan")
    # wall seconds per phase: assemble, solve, rank, extract
    seconds: dict = field(default_factory=dict)


@dataclass
class HierarchyResult:
    status_xi: int                  # -1, 0 or 1
    bound: float                    # rho, -inf when status_xi == -1
    order_reached: int
    minimizers: list = field(default_factory=list)
    rank_s: int = 0
    diagnostics: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status_xi == 1


def order_limit(d_max: int | None, d0: int) -> int:
    """The highest order a run tries: d0 + 1 unless given, and never below d0."""
    return d0 + 1 if d_max is None else max(d_max, d0)


def add_ball_constraint(f: Polynomial, constraints, c: float, x_ref=None):
    """Append the coercivity trick inequality c - f >= 0.

    Leaves the optimum unchanged for coercive f while making the constraint
    module Archimedean.  When a feasible reference point is supplied the
    hypothesis c > f(x_ref) is enforced.
    """
    if not np.isfinite(c) or c <= 0:
        raise ValueError(f"ball constant must be finite and positive, got c={c}")
    if x_ref is not None and f.evaluate(x_ref) >= c:
        raise ValueError(
            f"ball constant c={c} does not dominate f(x_ref)={f.evaluate(x_ref)}"
        )
    return list(constraints) + [(Polynomial.constant(f.n, c) - f, GE)]


def numerical_rank(M: np.ndarray, rank_eps: float) -> int:
    """Number of singular values above rank_eps * sigma_max; 0 for the zero matrix."""
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_eps * sv[0]))


def check_rank_condition(y: MomentVector, d: int, v: int, rank_eps: float):
    """Flatness test rank M_{d-v}(y) == rank M_d(y); returns (satisfied, s, low)."""
    if d - v < 0:
        raise ValueError(f"d - v = {d - v} negative")
    low = numerical_rank(moment_matrix(y, d - v), rank_eps)
    high = numerical_rank(moment_matrix(y, d), rank_eps)
    return low == high, high, low


def _echelon_basis(V: np.ndarray, tol: float):
    """Greedy row selection of V (rows in graded-lex order) by modified
    Gram-Schmidt; returns the pivot row indices."""
    rows, s = V.shape
    scale = float(np.max(np.linalg.norm(V, axis=1), initial=0.0))
    if scale == 0.0:
        raise ExtractionFailure("zero moment-matrix factor")
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    for ridx in range(rows):
        vec = V[ridx].copy()
        for b in basis:
            vec -= (vec @ b) * b
        nrm = np.linalg.norm(vec)
        if nrm > tol * scale:
            basis.append(vec / nrm)
            pivots.append(ridx)
            if len(pivots) == s:
                return pivots
    raise ExtractionFailure(
        f"only {len(pivots)} independent rows found for target rank {s}"
    )


def _generic_weights(n: int) -> np.ndarray:
    """The square roots of the first n primes, summing to 1.  They are
    linearly independent over the rationals, so no two atoms whose
    difference has rational coordinates (a grid, shared coordinates) collide."""
    primes = [2]
    while len(primes) < n:
        primes.append(next(k for k in itertools.count(primes[-1] + 1) if all(k % p for p in primes)))
    w = np.sqrt(primes[:n])
    return w / w.sum()


# rng is ignored: the benchmark's lift op, written when the combination was
# drawn at random, still passes one
def extract_minimizers(y: MomentVector, d: int, s: int, tol: float = 1e-6, rng=None):
    """Recover the s atoms of the measure behind a flat moment vector.

    Steps: rank-s eigenfactor of M_d(y); column-echelon pivot search for a
    monomial basis; per-variable multiplication matrices; simultaneous
    diagonalization through the real Schur form of one fixed generic convex
    combination (_generic_weights); weights from the Vandermonde system
    against y.  Returns (points, weights); raises ExtractionFailure when any
    step degenerates, or when the combination does not separate two atoms.
    """
    if s < 1:
        raise ExtractionFailure(f"target rank {s} below 1")
    n = y.n
    M = moment_matrix(y, d)
    lam, vecs = np.linalg.eigh(M)
    order = np.argsort(lam)[::-1][:s]
    lam_top = lam[order]
    if lam_top[-1] <= 0:
        raise ExtractionFailure("moment matrix is not numerically PSD at target rank")
    V = vecs[:, order] * np.sqrt(lam_top)

    pivots = _echelon_basis(V, tol)
    basis = lambda_set(n, d)[pivots]
    if np.any(basis.sum(axis=1) >= d):
        raise ExtractionFailure("pivot monomial of top degree; cannot shift basis")

    # U expresses every monomial row in terms of the basis rows on the variety
    U = np.linalg.solve(V[pivots, :].T, V.T).T
    # mult[k][i] is the row of x_k times the i-th basis monomial
    mult = U[grlex_position(basis + np.eye(n, dtype=np.int64)[:, None, :])]

    Nmix = np.tensordot(_generic_weights(n), mult, axes=1)
    # each eigenvalue is the combination's value at one atom: real, and
    # distinct unless two atoms share it, a cluster that rounding may also
    # split into a complex conjugate pair
    w, V = np.linalg.eig(Nmix)
    if np.iscomplexobj(w):
        k = int(np.argmax(np.abs(w.imag)))
        raise ExtractionFailure(f"complex conjugate cluster at {w[k]:.6g} in the combination")
    w_sorted = np.sort(w)
    gaps = np.diff(w_sorted)
    if gaps.size and gaps.min() <= 1e-7 * (1.0 + np.max(np.abs(w))):
        k = int(np.argmin(gaps))
        raise ExtractionFailure(f"eigenvalue cluster at {w_sorted[k]:.6g} and {w_sorted[k + 1]:.6g}: "
                                "the combination does not separate two atoms")
    # orthonormal Schur basis: QR of the eigenvectors triangularizes Nmix
    Q, _ = np.linalg.qr(V)

    points = [np.array([q @ (Nk @ q) for Nk in mult]) for q in Q[:, :s].T]

    # weights from the Vandermonde system over Lambda(2d)
    A = np.column_stack([MomentVector.from_dirac(x, y.d).values for x in points])
    w, *_ = np.linalg.lstsq(A, y.values, rcond=None)
    resid = float(np.max(np.abs(A @ w - y.values)))
    if resid > 100.0 * tol * max(1.0, float(np.max(np.abs(y.values)))):
        raise ExtractionFailure(f"atomic moments mismatch the input (residual {resid:.3e})")

    keep = [(x, float(wj)) for x, wj in zip(points, w) if wj >= tol]
    if not keep:
        raise ExtractionFailure("all recovered weights below tolerance")
    return [x for x, _ in keep], [wj for _, wj in keep]


def _available_bytes() -> float:
    """Memory this process may still take: MemAvailable of the system,
    capped by what its memory cgroup leaves; infinite when unknown."""
    system = float("inf")
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    system = float(line.split()[1]) * 1024.0
                    break
    except OSError:
        pass
    if system == float("inf"):
        try:
            system = float(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
        except (ValueError, OSError, AttributeError):
            pass
    return min(system, _cgroup_free_bytes(system))


def _cgroup_free_bytes(below: float = float("inf"), proc: str = "/proc/self/cgroup",
                       mount: str = "/sys/fs/cgroup") -> float:
    """Bytes left under the memory limit of the process's cgroup: the limit
    minus the usage, with the inactive page cache (which the kernel
    reclaims first) counted as free.  Reads cgroup v2 (memory.max,
    memory.current) and v1 (memory.limit_in_bytes, memory.usage_in_bytes);
    infinite when no limit is set or the files cannot be read.  A group
    whose limit minus usage is at least `below` cannot lower the caller's
    minimum, so its memory.stat (which takes the kernel ~0.1 ms to write)
    is not read and it counts as infinite."""
    free = float("inf")
    try:
        with open(proc) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return free
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        if not controllers:
            files = (f"{mount}{path}", "memory.max", "memory.current", "inactive_file")
        elif "memory" in controllers.split(","):
            files = (f"{mount}/memory{path}", "memory.limit_in_bytes", "memory.usage_in_bytes",
                     "total_inactive_file")
        else:
            continue
        folder, limit_file, usage_file, cache_key = files
        try:
            with open(os.path.join(folder, limit_file)) as fh:
                limit = fh.read().strip()
            if limit == "max":
                continue
            with open(os.path.join(folder, usage_file)) as fh:
                headroom = float(limit) - float(fh.read())
            if headroom >= below:
                continue
            cache = 0.0
            with open(os.path.join(folder, "memory.stat")) as fh:
                for line in fh:
                    key, _, value = line.partition(" ")
                    if key == cache_key:
                        cache = float(value)
            free = min(free, max(headroom + cache, 0.0))
        except (OSError, ValueError):
            continue
    return free


def relaxation_bytes(n: int, d: int, constraints) -> int:
    """Estimated bytes of the order-d relaxation's solve, from the sizes of
    its tables, without building them."""
    blocks, rows, terms = [], 0, 0
    for g, kind in constraints:
        k = d - constraint_half_degree(g)
        if kind == EQ:
            rows += math.comb(n + 2 * k, n)
            terms += math.comb(n + 2 * k, n) * len(g.coeffs)
        else:
            blocks.append((len(g.coeffs), math.comb(n + 2 * k, n), math.comb(n + k, n)))
    return solve_bytes(math.comb(n + 2 * d, n), math.comb(n + d, n), blocks, rows, terms)


def _check_memory(n: int, d: int, constraints, budget: float) -> None:
    needed = relaxation_bytes(n, d, constraints)
    if needed > budget:
        raise RelaxationTooLarge(d, needed, int(budget))


def _violations(C0: np.ndarray, mono: np.ndarray, m: int) -> np.ndarray:
    """The constraints' violations at a point, relative to their terms'
    magnitudes 1 + sum |c_alpha x^alpha|: |h| for the m equalities, then
    max(0, -g) for the inequalities.  C0 holds the order-0 rows of [f] + the
    equalities + the inequalities, and mono the monomials at the point."""
    value = C0[1:] @ mono
    raw = np.concatenate((np.abs(value[:m]), np.maximum(0.0, -value[m:])))
    return raw / (1.0 + np.abs(C0[1:]) @ np.abs(mono))


def _newton(x: np.ndarray, X: np.ndarray, C, m: int, steps: int = 3) -> np.ndarray:
    """At most `steps` Newton steps on the KKT system of min f over {h = 0}
    from x: each solves

        [ H_f + sum_j lam_j H_hj   J^T ] [ dx ]     [ grad f + J^T lam ]
        [ J                        0   ] [ dl ] = - [ h                ]

    with lam the least-squares multipliers of grad f + J^T lam = 0, by lstsq
    with PROJECTION_RCOND (on a stratum J is rank deficient).  With f = 0
    the multipliers vanish and the step is the minimum-norm step J^+ h onto
    {h = 0}.  A step is kept only if it lowers the KKT residual
    |(grad f + J^T lam, h)| and leaves no inequality violated beyond
    FEAS_REPORT_TOL: a step across an active face is refused.  A kept step
    below PROJECTION_RCOND |x| ends the steps: the next one, about its
    square, would be rounding.  X and C are the derivative_arrays of orders
    0, 1 and 2 of [f] + the m equalities + the inequalities, so that one
    monomial evaluation serves a point."""
    n = len(x)
    K = np.zeros((n + m, n + m))
    G, D2 = C[1][:(m + 1) * n], C[2][:(m + 1) * n * n]

    def kkt(x):
        """The KKT residual's norm and vector at x, the KKT matrix's blocks
        J and the Hessian of the Lagrangian, and whether x satisfies the
        inequalities."""
        mono = monomials(X, x[None])[0]
        grad = G @ mono
        J = grad[n:].reshape(m, n)
        lam = np.linalg.lstsq(J.T, -grad[:n], rcond=PROJECTION_RCOND)[0] if m else grad[:0]
        r = np.concatenate((grad[:n] + J.T @ lam, C[0][1:m + 1] @ mono))
        hess = (D2 @ mono).reshape(m + 1, n * n)
        feasible = bool(np.all(_violations(C[0], mono, m)[m:] <= FEAS_REPORT_TOL))
        return math.hypot(*r), r, J, (hess[0] + lam @ hess[1:]).reshape(n, n), feasible

    best, r, J, H, _ = kkt(x)
    for _ in range(steps):
        K[:n, :n], K[:n, n:], K[n:, :n] = H, J.T, J
        dx = np.linalg.lstsq(K, r, rcond=PROJECTION_RCOND)[0][:n]
        at_trial = kkt(x - dx)
        if not (at_trial[0] < best and at_trial[4]):
            break
        x, (best, r, J, H, _) = x - dx, at_trial
        if dx @ dx <= PROJECTION_RCOND**2 * (x @ x):
            break
    return x


def run_hierarchy(f: Polynomial, constraints, options: HierarchyOptions | None = None) -> HierarchyResult:
    """Run the relaxation loop; see module docstring for the status contract."""
    opts = options or HierarchyOptions()
    constraints = list(constraints)
    d0 = minimal_order(f, constraints)
    if opts.d_max < d0:
        raise ValueError(f"d_max={opts.d_max} below minimal order d0={d0}")
    r = float(opts.coordinate_scale)
    if r != 1.0:
        f_solve = f.dilate(r)
        cons_solve = [(g.dilate(r), kind) for g, kind in constraints]
    else:
        f_solve, cons_solve = f, constraints

    xi = -1
    rho = -np.inf
    minimizers: list[np.ndarray] = []
    rank_s = 0
    diags: list[OrderDiagnostics] = []
    order_reached = d0

    budget = MEMORY_FRACTION * _available_bytes()
    for d in range(d0, opts.d_max + 1):
        order_reached = d
        _check_memory(f.n, d, cons_solve, budget)
        t0 = time.perf_counter()
        problem = assemble_relaxation(f_solve, cons_solve, d)
        t1 = time.perf_counter()
        sol: SdpSolution = solve_sdp(problem, opts.solver)
        t2 = time.perf_counter()
        rec = OrderDiagnostics(
            d=d,
            solver_status=sol.status,
            objective=sol.objective,
            duality_gap=sol.duality_gap,
            iterations=sol.iterations,
            num_moments=problem.num_moments,
            block_sides=[b.side for b in problem.blocks],
            schur_dim=sol.schur_dim,
            equality_rows=sol.equality_rows,
            linear_rows=sol.linear_rows,
            correctors=sol.correctors,
            basis_growth=sol.basis_growth,
            row_blocks=sol.row_blocks,
            seconds={"assemble": t1 - t0, "solve": t2 - t1},
        )
        diags.append(rec)
        if sol.status != OPTIMAL:
            continue

        xi = 0
        rho = sol.objective
        satisfied, s_high, s_low = check_rank_condition(
            sol.y, d, problem.v_max, opts.rank_eps
        )
        t3 = time.perf_counter()
        rec.seconds["rank"] = t3 - t2
        rec.rank_low, rec.rank_high, rec.rank_satisfied = s_low, s_high, satisfied
        if not satisfied:
            continue

        atoms, accepted = _attempt_extraction(f, constraints, sol, d, s_high, rec, r)
        rec.seconds["extract"] = time.perf_counter() - t3
        if accepted:
            xi = 1
            minimizers = atoms
            rank_s = len(atoms)
            break

    return HierarchyResult(
        status_xi=xi,
        bound=rho,
        order_reached=order_reached,
        minimizers=minimizers,
        rank_s=rank_s,
        diagnostics=diags,
    )


def _attempt_extraction(f, constraints, sol, d, s, rec, r=1.0):
    """One atom extraction plus a-posteriori atom validation.

    Atoms live in the (possibly dilated) solver coordinates; they are mapped
    back by r and take Newton steps (_newton) twice: with f = 0, which
    projects them onto the equalities {h = 0}, then with f, which polishes
    them on the KKT system of min f over {h = 0}, so that their accuracy no
    longer rides on the gap the solver stopped at.  Every atom is validated
    against the original objective and constraints; a rejection names each
    failed check with its worst value and its tolerance.
    """
    n = f.n
    equalities = [g for g, kind in constraints if kind == EQ]
    m = len(equalities)
    X, C = derivative_arrays([f] + equalities + [g for g, kind in constraints if kind != EQ],
                             n, (0, 1, 2))
    # the same arrays with f = 0: its rows are the first n^k of order k
    C_h = [np.vstack((np.zeros((n**k, len(X))), Ck[n**k:])) for k, Ck in enumerate(C)]

    def violation(x):
        """The largest violation of a constraint at x, relative to its terms."""
        return float(np.max(_violations(C[0], monomials(X, x[None])[0], m), initial=0.0))
    try:
        points, _weights = extract_minimizers(sol.y, d, s, tol=EXTRACTION_TOL)
    except ExtractionFailure as exc:
        rec.extraction_status = f"failed: {exc}"
        return [], False

    raw = [r * x for x in points]
    points = [_newton(_newton(x, X, C_h, m), X, C, m) for x in raw]
    rec.max_violation_before_projection = max(violation(x) for x in raw)
    f_tol = max(1e-4 * (1.0 + abs(sol.objective)), 10.0 * sol.duality_gap)
    worst_v = max(violation(x) for x in points)
    worst_g = max(abs(f.evaluate(x) - sol.objective) for x in points)
    rec.max_constraint_violation, rec.max_objective_mismatch = worst_v, worst_g
    faults = [f"objective mismatch {worst_g:.1e} > f_tol {f_tol:.1e}"] if worst_g > f_tol else []
    if worst_v > FEAS_REPORT_TOL:
        faults.append(f"constraint violation {worst_v:.1e} > {FEAS_REPORT_TOL:.0e}")
    if faults:
        rec.extraction_status = "rejected: " + ", ".join(faults)
        return [], False
    rec.extraction_status = "ok"
    rec.atom_count = len(points)
    return points, True
