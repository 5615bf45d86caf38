import numpy as np
import pytest

from strata_opt.moment import EQ, GE, LMIBlock, RelaxationProblem, assemble_relaxation
from strata_opt.poly import Polynomial
from strata_opt.sdp import (
    SolverOptions,
    _PackedSchur,
    _chol_regularized,
    _chol_solver,
    _chol_stack,
    _max_step,
    _nt_scaling,
    solve_sdp,
)


def _lmi_problem(objective, blocks):
    """Hand-built LMI problem over Lambda(1, 2) = {1, y1, y2}."""
    built = tuple(
        LMIBlock(label=f"b{i}", g=Polynomial.constant(1, 1.0), v=0, side=A.shape[1], A=A)
        for i, A in enumerate(blocks)
    )
    return RelaxationProblem(n=1, d=1, d0=1, objective=np.asarray(objective, float), blocks=built)


def _correlation_problem():
    # minimize y1 s.t. [[1, y1], [y1, 1]] >= 0  ->  y1 = -1
    A = np.zeros((3, 2, 2))
    A[0] = np.eye(2)
    A[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
    return _lmi_problem([0.0, 1.0, 0.0], [A])


def _interval_problem():
    # minimize y1 s.t. y1 >= 0 and 3 - y1 >= 0  ->  0
    A1 = np.zeros((3, 1, 1))
    A1[1] = 1.0
    A2 = np.zeros((3, 1, 1))
    A2[0] = 3.0
    A2[1] = -1.0
    return _lmi_problem([0.0, 1.0, 0.0], [A1, A2])


class TestAnalyticInstances:
    def test_correlation_matrix_corner(self):
        sol = solve_sdp(_correlation_problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-7)

    def test_scalar_interval(self):
        sol = solve_sdp(_interval_problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    def test_feasibility_at_optimum(self):
        prob = _correlation_problem()
        sol = solve_sdp(prob)
        for blk in prob.blocks:
            assert np.linalg.eigvalsh(blk.evaluate(sol.y.values))[0] >= -1e-8

    def test_y0_pinned_exactly(self):
        sol = solve_sdp(_correlation_problem())
        assert sol.y.values[0] == 1.0

    def test_relative_gap_within_tolerance_at_optimal(self):
        opts = SolverOptions()
        for prob in (_correlation_problem(), _interval_problem()):
            sol = solve_sdp(prob, opts)
            assert sol.status == "optimal"
            assert sol.relative_gap <= opts.gap_tol


class TestContracts:
    def test_determinism_bitwise(self):
        prob = _correlation_problem()
        s1 = solve_sdp(prob)
        s2 = solve_sdp(prob)
        assert s1.trace == s2.trace
        np.testing.assert_array_equal(s1.y.values, s2.y.values)
        assert s1.objective == s2.objective

    def test_weak_duality_audit(self):
        for prob in (_correlation_problem(), _interval_problem()):
            sol = solve_sdp(prob)
            _, _, _, _, pobj, dobj = sol.trace[-1]
            assert dobj <= pobj + 10.0 * SolverOptions().gap_tol * (1 + abs(pobj) + abs(dobj))

    def test_objective_scaling_covariance(self):
        prob = _correlation_problem()
        ref = solve_sdp(prob)
        scaled = RelaxationProblem(
            n=prob.n, d=prob.d, d0=prob.d0,
            objective=7.5 * prob.objective, blocks=prob.blocks,
        )
        sol = solve_sdp(scaled)
        assert sol.objective == pytest.approx(7.5 * ref.objective, rel=1e-9, abs=1e-8)
        assert np.max(np.abs(sol.y.values - ref.y.values)) <= 10.0 * SolverOptions().gap_tol

    def test_unbounded_suspected(self):
        # minimize y1 with only y2 constrained: objective is unbounded below
        A = np.zeros((3, 1, 1))
        A[2] = 1.0
        sol = solve_sdp(_lmi_problem([0.0, 1.0, 0.0], [A]),
                        SolverOptions(objective_floor=-1e6, max_iter=600))
        assert sol.status in ("unbounded_suspected", "max_iterations")

    def test_max_iterations_status(self):
        sol = solve_sdp(_correlation_problem(), SolverOptions(max_iter=2))
        assert sol.status == "max_iterations"
        assert sol.iterations <= 2


class TestEqualityElimination:
    def _problem(self):
        x = Polynomial.variable(0, 1)
        f = x
        constraints = [(x * x - 1.0, EQ), (4.0 - x * x, GE)]
        return assemble_relaxation(f, constraints, 1)

    def test_routes_agree(self):
        prob = self._problem()
        a = solve_sdp(prob, SolverOptions(eliminate_equalities=True))
        b = solve_sdp(prob, SolverOptions(eliminate_equalities=False))
        assert a.status == "optimal" and b.status == "optimal"
        assert a.objective == pytest.approx(-1.0, abs=1e-6)
        assert b.objective == pytest.approx(a.objective, abs=1e-5)

    def test_schur_dim_counts_free_moments(self):
        prob = self._problem()  # y1, y2 free; y2 = 1 is eliminated
        assert solve_sdp(prob).schur_dim == 1
        assert solve_sdp(prob, SolverOptions(eliminate_equalities=False)).schur_dim == 2
        assert solve_sdp(_box_ball_problem(range(7))).schur_dim == 209

    def test_equalities_hold_exactly(self):
        prob = self._problem()
        sol = solve_sdp(prob)
        y = sol.y.values
        # paired blocks stay in the problem statement and must evaluate to ~0
        for blk in prob.blocks[1:3]:
            assert abs(blk.evaluate(y)[0, 0]) < 1e-9

    def test_paper_elasticity_relaxation_value(self, E0):
        from strata_opt.hierarchy import add_ball_constraint
        from strata_opt.mech import build_distance_problem_ela

        prob = build_distance_problem_ela(E0)
        cons = add_ball_constraint(prob.objective, prob.constraints, 58000.0)
        rel = assemble_relaxation(prob.objective, cons, 1)
        sol = solve_sdp(rel)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2530.474727, abs=0.5)
        # weak duality audit on a real problem: the internally computed dual
        # value never exceeds the primal by more than 10 * gap_tol (scaled)
        _, _, _, _, pobj, dobj = sol.trace[-1]
        assert dobj <= pobj + 10.0 * SolverOptions().gap_tol * (1 + abs(pobj) + abs(dobj))
        assert sol.relative_gap <= SolverOptions().gap_tol


def _random_pd(rng, s):
    X = rng.normal(size=(s, s))
    return X @ X.T + 0.1 * np.eye(s)


def _random_sym(rng, s):
    X = rng.normal(size=(s, s))
    return X + X.T


def _brute_max_step(X, dX):
    """Largest t with X + t dX >= 0, from the congruence L^-1 dX L^-T."""
    L = np.linalg.cholesky(X)
    K = np.linalg.solve(L, np.linalg.solve(L, dX).T)
    lam = np.linalg.eigvalsh(0.5 * (K + K.T))[0]
    return np.inf if lam >= 0.0 else -1.0 / lam


class TestScaledStepLength:
    def test_matches_brute_force_on_nt_scaled_pairs(self):
        rng = np.random.default_rng(20240521)
        for _ in range(40):
            s = int(rng.integers(1, 9))
            S, Z = _random_pd(rng, s), _random_pd(rng, s)
            Ginv, dv = _nt_scaling(S, Z)
            G = np.linalg.inv(Ginv)
            np.testing.assert_allclose(Ginv @ S @ Ginv.T, np.diag(dv), atol=1e-10 * dv.max())
            np.testing.assert_allclose(G.T @ Z @ G, np.diag(dv), atol=1e-10 * dv.max())
            dS, dZ = _random_sym(rng, s), _random_sym(rng, s)
            for X, dX, dX_hat in ((S, dS, Ginv @ dS @ Ginv.T), (Z, dZ, G.T @ dZ @ G)):
                want = _brute_max_step(X, dX)
                got = _max_step(dv, dX_hat)
                if np.isinf(want):
                    assert np.isinf(got)
                    continue
                assert got == pytest.approx(want, rel=1e-10)
                # the step lands on the boundary of the cone
                edge = np.linalg.eigvalsh(X + want * dX)[0]
                assert abs(edge) <= 1e-8 * np.linalg.norm(X + want * dX)

    def test_psd_direction_is_unbounded(self):
        rng = np.random.default_rng(3)
        for s in (1, 4, 7):
            Ginv, dv = _nt_scaling(_random_pd(rng, s), _random_pd(rng, s))
            for dS in (np.zeros((s, s)), _random_pd(rng, s)):
                assert _max_step(dv, Ginv @ dS @ Ginv.T) == np.inf


class TestCholeskySolve:
    def test_matches_dense_solve_across_blocks(self):
        rng = np.random.default_rng(11)
        for N in (1, 5, 32, 33, 150):
            M = _random_pd(rng, N)
            rhs = rng.normal(size=N)
            x = _chol_solver(np.linalg.cholesky(M))(rhs)
            np.testing.assert_allclose(M @ x, rhs, atol=1e-9 * np.linalg.norm(rhs))


def _box_ball_problem(order):
    """n = 6: a dense convex quartic over the box |x_i| <= 1 and the ball
    |x|^2 <= 4.5, constraints taken in the given order.  At d = 2 the
    relaxation has the moment block (side 28) and seven blocks of side 7."""
    n = 6
    rng = np.random.default_rng(7)
    xs = Polynomial.variables(n)
    f = Polynomial.zero(n)
    for _ in range(n):
        form = sum((float(w) * x for w, x in zip(rng.normal(size=n) / np.sqrt(n), xs)),
                   Polynomial.constant(n, float(rng.normal())))
        f = f + form**4
    for x, a in zip(xs, rng.uniform(-1.5, 1.5, n)):
        f = f + (x - float(a)) ** 2
    box = [(1.0 - x * x, GE) for x in xs]
    ball = (4.5 - sum((x * x for x in xs), Polynomial.zero(n)), GE)
    constraints = box + [ball]
    return assemble_relaxation(f, [constraints[i] for i in order], 2)


class TestSameSideStacks:
    def test_constraint_order_does_not_change_the_solve(self):
        ref = solve_sdp(_box_ball_problem(range(7)))
        assert ref.status == "optimal"
        assert [b.side for b in _box_ball_problem(range(7)).blocks] == [28] + [7] * 7
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(7)
            sol = solve_sdp(_box_ball_problem(order))
            assert sol.status == ref.status
            assert sol.iterations == ref.iterations
            assert sol.objective == pytest.approx(ref.objective, rel=1e-10)

    def test_caller_blocks_are_not_changed(self):
        prob = _box_ball_problem(range(7))
        before = [b.A.copy() for b in prob.blocks]
        solve_sdp(prob)
        for b, A in zip(prob.blocks, before):
            assert b.A.tobytes() == A.tobytes()

    def test_one_failing_block_is_regularized_alone(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=6)
        singular = np.outer(v, v) + np.outer(v[::-1], v[::-1])  # PSD of rank 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        good = [_random_pd(rng, 6) for _ in range(3)]
        stack = np.array(good[:2] + [singular] + good[2:])
        L = _chol_stack(stack)
        assert L.shape == stack.shape
        for i, m in enumerate(good[:2] + [singular] + good[2:]):
            np.testing.assert_array_equal(L[i], _chol_regularized(m))
        np.testing.assert_allclose(L[2] @ L[2].T, singular, atol=1e-8 * np.abs(singular).max())
        assert _nt_scaling(stack, np.array([_random_pd(rng, 6) for _ in range(4)])) is not None

    def test_hopeless_block_fails_the_stack(self):
        rng = np.random.default_rng(6)
        stack = np.array([_random_pd(rng, 4), -_random_pd(rng, 4)])
        assert _chol_stack(stack) is None
        assert _nt_scaling(stack, np.array([_random_pd(rng, 4)] * 2)) is None


@pytest.mark.parametrize("N", [33, 70])  # 2 and 3 congruence chunks, the last one short
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sides", [(1,), (5,), (28,), (1, 5, 28)])
def test_packed_schur_matches_full_entries(sides, k, N):
    """The packed Schur matrix and right-hand side against products over all
    s*s entries of every G^{-1} A G^{-T}."""
    rng = np.random.default_rng([N, k, *sides])
    Avar, Ginv, X = [], [], []
    for s in sides:
        A = rng.normal(size=(k, N, s, s))
        Avar.append(A + np.swapaxes(A, -1, -2))
        Ginv.append(np.array([np.linalg.inv(np.linalg.cholesky(_random_pd(rng, s))) for _ in range(k)]))
        X.append(np.array([_random_sym(rng, s) for _ in range(k)]))
    GinvT = [np.ascontiguousarray(np.swapaxes(G, 1, 2)) for G in Ginv]
    schur = _PackedSchur(Avar)
    M = schur.matrix(Ginv, GinvT)
    rhs = schur.rhs(X)

    full = [(G[:, None] @ A @ GT[:, None]).transpose(1, 0, 2, 3).reshape(N, -1)
            for A, G, GT in zip(Avar, Ginv, GinvT)]
    M_ref = sum(F @ F.T for F in full)
    rhs_ref = np.array([sum(np.vdot(F[n], x) for F, x in zip(full, X)) for n in range(N)])
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
    assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))
    assert [P.shape for P in schur.Ahat] == [(N, k * s * (s + 1) // 2) for s in sides]
