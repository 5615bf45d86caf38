from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strata_opt._schur as schur_module
from strata_opt._schur import ShiftRows, TableSchur, scaled, stack_blocks
from strata_opt.moment import EQ, GE, LMIBlock, RelaxationProblem, assemble_relaxation
from strata_opt.poly import Polynomial
from conftest import term_dict
from strata_opt._linalg import (DENSE_KKT, DENSE_KKT_ROWS, chol_regularized, chol_solver, chol_stack,
                                dense_route, echelon_rows, kkt_solver)
from strata_opt.sdp import SolverOptions, _max_step, _nt_scaling, solve_sdp


def _lmi_problem(objective, blocks):
    """Hand-built LMI problem over Lambda(1, 2) = {1, y1, y2}: blocks lists
    (base, shift, coeffs) of each block, whose entry (a, b) is
    sum_t coeffs[t] y[shift[base[a, b], t]]."""
    built = tuple(LMIBlock(0, np.array(B), np.array(shift), np.array(coeffs, dtype=float))
                  for B, shift, coeffs in blocks)
    return RelaxationProblem(n=1, d=1, objective=np.asarray(objective, float), blocks=built)


def _dense(block, L):
    """The coefficient stack A (L, s, s) of a block: A[alpha] sums the
    coefficients of the terms that read y_alpha."""
    P = block.shift[block.base]
    a, b, t = np.indices(P.shape)
    A = np.zeros((L,) + P.shape[:2])
    np.add.at(A, (P, a, b), block.coeffs[t])
    return A


def _correlation_problem():
    # minimize y1 s.t. [[1, y1], [y1, 1]] >= 0  ->  y1 = -1
    return _lmi_problem([0.0, 1.0, 0.0], [([[0, 1], [1, 0]], [[0], [1]], [1.0])])


def _mixed_problem(c):
    # minimize y1 s.t. [[1, y1], [y1, 1]] >= 0 and y1 + c >= 0  ->  max(-1, -c)
    return _lmi_problem([0.0, 1.0, 0.0], [([[0, 1], [1, 0]], [[0], [1]], [1.0]),
                                          ([[0]], [[0, 1]], [c, 1.0])])


def _interval_problem():
    # minimize y1 s.t. y1 >= 0 and 3 - y1 >= 0  ->  0
    return _lmi_problem([0.0, 1.0, 0.0], [([[0]], [[1]], [1.0]), ([[0]], [[0, 1]], [3.0, -1.0])])


class TestAnalyticInstances:
    def test_correlation_matrix_corner(self):
        sol = solve_sdp(_correlation_problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-7)

    def test_scalar_interval(self):
        sol = solve_sdp(_interval_problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("c, optimum, dual", [(0.5, -0.5, 1.0), (2.0, -1.0, 0.0)])
    def test_psd_block_and_linear_row(self, c, optimum, dual):
        """The row y1 + c >= 0, scaled to (y1 + c) / max(1, c), is active at
        c = 1/2 with dual 1 (the objective's y1 coefficient) and inactive at
        c = 2 with dual 0 and slack 1/2.  The slack is the row at the optimum
        and the dual minus the slope of the optimum in c (the envelope
        theorem), times the row's scale: the optimum max(-1, -c) is linear
        in c on [c - 1/4, c + 1/4]."""
        prob = _mixed_problem(c)
        sol = solve_sdp(prob)
        assert sol.status == "optimal" and sol.linear_rows == 1
        assert sol.objective == pytest.approx(optimum, abs=1e-7)
        scale = max(1.0, c)
        slack = float(prob.blocks[1].evaluate(sol.y.values)[0, 0]) / scale
        below, above = (solve_sdp(_mixed_problem(c + h)) for h in (-0.25, 0.25))
        assert below.status == above.status == "optimal"
        row_dual = -(above.objective - below.objective) / 0.5 * scale
        assert slack >= -1e-8 and row_dual >= -1e-6
        assert row_dual == pytest.approx(dual, abs=1e-6)
        assert slack == pytest.approx((optimum + c) / scale, abs=1e-6)
        assert slack * row_dual <= SolverOptions().gap_tol  # complementary at the optimum

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
            pobj, dobj = sol.trace[-1][4:6]
            assert dobj <= pobj + 10.0 * SolverOptions().gap_tol * (1 + abs(pobj) + abs(dobj))

    def test_objective_scaling_covariance(self):
        prob = _correlation_problem()
        ref = solve_sdp(prob)
        scaled = RelaxationProblem(
            n=prob.n, d=prob.d,
            objective=7.5 * prob.objective, blocks=prob.blocks,
        )
        sol = solve_sdp(scaled)
        assert sol.objective == pytest.approx(7.5 * ref.objective, rel=1e-9, abs=1e-8)
        assert np.max(np.abs(sol.y.values - ref.y.values)) <= 10.0 * SolverOptions().gap_tol

    def test_unbounded_suspected(self):
        # minimize y1 with only y2 constrained: objective is unbounded below
        sol = solve_sdp(_lmi_problem([0.0, 1.0, 0.0], [([[0]], [[2]], [1.0])]),
                        SolverOptions(objective_floor=-1e6, max_iter=600))
        assert sol.status in ("unbounded_suspected", "max_iterations")

    def test_max_iterations_status(self):
        sol = solve_sdp(_correlation_problem(), SolverOptions(max_iter=2))
        assert sol.status == "max_iterations"
        assert sol.iterations <= 2

    @pytest.mark.parametrize("name", ["gap_tol", "feas_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_not_finite_and_positive_refused(self, name, value):
        # refused at construction: solve_sdp would run 16 iterations with
        # gap_tol = nan and return numerical_failure
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SolverOptions(**{name: value})


class TestEqualityElimination:
    """Equalities are rows E u = e of the Newton system, not block pairs."""

    def _problem(self):
        x = Polynomial.variable(0, 1)
        f = x
        constraints = [(x * x - 1.0, EQ), (4.0 - x * x, GE)]
        return assemble_relaxation(f, constraints, 1)

    def test_routes_agree(self):
        # the known optimum: min x on x^2 = 1, |x| <= 2 is -1, at the moments (1, -1, 1)
        sol = solve_sdp(self._problem())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)
        np.testing.assert_allclose(sol.y.values, [1.0, -1.0, 1.0], atol=1e-5)
        assert sol.relative_gap <= SolverOptions().gap_tol

    def test_schur_dim_counts_free_moments(self):
        # y1, y2 in the Newton system, one equality row y2 = 1 and 4 - x^2 >= 0
        # the linear row 4 - y2 >= 0; at d = 2 it is a 2 x 2 block
        sol = solve_sdp(self._problem())
        assert (sol.schur_dim, sol.equality_rows, sol.linear_rows) == (2, 1, 1)
        x = Polynomial.variable(0, 1)
        lifted = solve_sdp(assemble_relaxation(x, [(x * x - 1.0, EQ), (4.0 - x * x, GE)], 2))
        assert (lifted.schur_dim, lifted.equality_rows, lifted.linear_rows) == (4, 3, 0)
        box = solve_sdp(_box_ball_problem(range(7)))
        assert (box.schur_dim, box.equality_rows, box.linear_rows) == (209, 0, 0)

    def test_equalities_hold_exactly(self):
        prob = self._problem()
        sol = solve_sdp(prob)
        y = sol.y.values
        # the equality rows stay in the problem statement and must evaluate to ~0
        assert len(prob.equalities) == 1
        assert np.max(np.abs(prob.equalities[0].evaluate(y))) < 1e-9

    def test_duplicated_equality_keeps_rank_and_solution(self):
        x = Polynomial.variable(0, 1)
        cons = [(x * x - 1.0, EQ), (4.0 - x * x, GE)]
        once = solve_sdp(assemble_relaxation(x, cons, 2))
        twice = solve_sdp(assemble_relaxation(x, [cons[0], (2.0 * x * x - 2.0, EQ)] + cons, 2))
        assert once.status == twice.status == "optimal"
        assert twice.equality_rows == once.equality_rows == 3
        assert twice.objective == pytest.approx(once.objective, abs=1e-9)
        np.testing.assert_allclose(twice.y.values, once.y.values, atol=1e-7)

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
        pobj, dobj = sol.trace[-1][4:6]
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
            x = chol_solver(np.linalg.cholesky(M))(rhs)
            np.testing.assert_allclose(M @ x, rhs, atol=1e-9 * np.linalg.norm(rhs))


def _box_ball(n):
    """A dense convex quartic in n variables over the box |x_i| <= 1 and the
    ball |x|^2 <= 4.5: f and the constraints, box first."""
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
    return f, box + [ball]


def _box_ball_problem(order):
    """n = 6, constraints taken in the given order.  At d = 2 the relaxation
    has the moment block (side 28) and seven blocks of side 7."""
    f, constraints = _box_ball(6)
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
        before = [(b.base.copy(), b.shift.copy(), b.coeffs.copy()) for b in prob.blocks]
        solve_sdp(prob)
        for b, (B, shift, w) in zip(prob.blocks, before):
            assert b.base.tobytes() == B.tobytes()
            assert b.shift.tobytes() == shift.tobytes()
            assert b.coeffs.tobytes() == w.tobytes()

    def test_one_failing_block_is_regularized_alone(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=6)
        singular = np.outer(v, v) + np.outer(v[::-1], v[::-1])  # PSD of rank 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        good = [_random_pd(rng, 6) for _ in range(3)]
        stack = np.array(good[:2] + [singular] + good[2:])
        L = chol_stack(stack)
        assert L.shape == stack.shape
        for i, m in enumerate(good[:2] + [singular] + good[2:]):
            np.testing.assert_array_equal(L[i], chol_regularized(m))
        np.testing.assert_allclose(L[2] @ L[2].T, singular, atol=1e-8 * np.abs(singular).max())
        assert _nt_scaling(stack, np.array([_random_pd(rng, 6) for _ in range(4)])) is not None

    def test_hopeless_block_fails_the_stack(self):
        rng = np.random.default_rng(6)
        stack = np.array([_random_pd(rng, 4), -_random_pd(rng, 4)])
        assert chol_stack(stack) is None
        assert _nt_scaling(stack, np.array([_random_pd(rng, 4)] * 2)) is None


def _stacked(stacks, blocks, L):
    """The blocks of each stack, in the stack's order: each matrix of a
    stack at a random y is one block's LMIBlock.evaluate, scaled by the
    block's largest coefficient, and every block is used once."""
    y = np.random.default_rng(L).normal(size=L)
    free = [(b, b.evaluate(y) / np.max(np.abs(b.coeffs))) for b in blocks]
    members = []
    for st in stacks:
        members.append([])
        for X in st.evaluate(y):
            match = [j for j, (_, Xb) in enumerate(free)
                     if Xb.shape == X.shape and np.max(np.abs(X - Xb)) <= 1e-13 * np.max(np.abs(Xb))]
            assert match, "a stack's matrix is none of its blocks"
            members[-1].append(free.pop(match[0])[0])
    assert not free
    return members


def _reference_schur(members, V, X, L):
    """Schur matrix and adjoint from the dense coefficient stacks of the
    blocks, scaled as the stacks scale them:
    M[alpha, beta] = sum_i tr(A_i[alpha] V_i A_i[beta] V_i), rhs = sum_i <A_i[alpha], X_i>."""
    M = np.zeros((L, L))
    rhs = np.zeros(L)
    for blocks, Vg, Xg in zip(members, V, X):
        for b, Vi, Xi in zip(blocks, Vg, Xg):
            A = _dense(b, L) / np.max(np.abs(b.coeffs))
            M += np.einsum("aij,bji->ab", A, Vi @ A @ Vi)
            rhs += np.einsum("aij,ij->a", A, Xi)
    return M[1:, 1:], rhs[1:]


def _check_schur(blocks, L, seed):
    rng = np.random.default_rng(seed)
    stacks = stack_blocks(blocks, L)
    schur = TableSchur(stacks, L)
    V = [np.array([_random_pd(rng, st.shape[1]) for _ in range(st.shape[0])]) for st in stacks]
    X = [np.array([_random_sym(rng, st.shape[1]) for _ in range(st.shape[0])]) for st in stacks]
    M_ref, rhs_ref = _reference_schur(_stacked(stacks, blocks, L), V, X, L)
    M = schur.matrix(V)
    rhs = schur.adjoint(X)
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
    assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))
    # a second build over the reused buffers gives the same matrix
    assert np.array_equal(schur.matrix(V), M)
    return stacks


def _hand_built_blocks(sides, k, N):
    """k blocks per side on one random base table per side, in which base
    entries repeat, and three terms per row, with moments drawn from
    y_0..y_N so that they collide within a base entry, across entries and
    across blocks; y_0 is always among them."""
    rng = np.random.default_rng([N, k, *sides])
    L = N + 1
    blocks = []
    for s in sides:
        a, b = np.triu_indices(s)
        Nb = max(1, len(a) * 2 // 3)
        B = np.empty((s, s), dtype=np.int64)
        B[a, b] = B[b, a] = rng.permutation(np.concatenate(
            (np.arange(Nb), rng.integers(0, Nb, size=len(a) - Nb))))
        for _ in range(k):
            shift = rng.integers(0, L, size=(Nb, 3))
            shift[rng.integers(Nb), 0] = 0  # y_0 among the moments
            r = rng.integers(Nb)
            shift[r, 2] = shift[r, 1]  # one moment twice in a base entry
            blocks.append(LMIBlock(0, B, shift, rng.normal(size=3)))
    return blocks


@pytest.mark.parametrize("N", [33, 70])  # 2 and 3 column chunks and more, the last one short
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sides", [(1,), (5,), (28,), (1, 5, 28)])
def test_packed_schur_matches_full_entries(sides, k, N, monkeypatch):
    """The table Schur matrix and right-hand side against the dense formula,
    for hand-built tables of three terms per entry whose moments collide
    (within an entry, across entries and across the k blocks of a stack),
    with the constant y_0 among them, over column chunks of 16 moments."""
    monkeypatch.setattr(schur_module, "CHUNK_DOUBLES", 16 * 3 * 28 * 28)
    blocks = _hand_built_blocks(sides, k, N)
    stacks = _check_schur(blocks, N + 1, [N, k, 1])
    assert sum(st.shape[0] for st in stacks) == len(blocks)


@pytest.mark.parametrize("N", [33, 70])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sides", [(1,), (5,), (1, 5)])
def test_table_formula_on_small_stacks(sides, k, N, monkeypatch):
    """The same hand-built cases for sides below the gemm panel (8 rows),
    with side-5 stacks cut into several column chunks."""
    monkeypatch.setattr(schur_module, "CHUNK_DOUBLES", 4 * (15 + 8 * 5))  # 4 columns for side 5
    stacks = _check_schur(_hand_built_blocks(sides, k, N), N + 1, [N, k, 2])
    assert all(len(st.chunks) > 1 for st in stacks if st.shape[1] == 5)


def test_wide_blocks_take_chunks_of_at_least_64_columns():
    """A block of side above 64 is cut into chunks of at least 64 columns,
    though fewer fit CHUNK_DOUBLES, and still gives the dense formula's
    matrix; a side of at most 64 keeps the budget's width.  stack_doubles
    bounds the buffers that TableSchur allocates and the index plan."""
    stacks = _check_schur(_hand_built_blocks((70,), 1, 70), 71, 5)
    (st,) = stacks
    assert schur_module.CHUNK_DOUBLES // (70 * 70) < 64
    assert [j1 - j0 for j0, j1, *_ in st.chunks[:-1]] == [64] * (len(st.chunks) - 1)
    assert schur_module._width(1, 56, 1540, schur_module.CHUNK_DOUBLES) == 83  # 2^18 // 56^2
    q, y, plan = schur_module.stack_doubles(1, 70, st.Nb)
    schur = TableSchur(stacks, 71)
    assert schur.Q.size <= q and schur.Y.size <= y
    arrays = [a for chunk in st.chunks for a in _arrays(chunk)]
    assert sum(a.nbytes for a in arrays) + 2 * 8 * 70 * 70 <= 8 * plan


def _arrays(obj):
    """The numpy arrays in nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in _arrays(x)]
    return []


def test_table_schur_of_relaxations_matches_dense(monkeypatch):
    """Assembled relaxations: the moment block (written straight into M),
    one stack of six box blocks of two terms and the ball, and a ball of
    many terms, over several chunks."""
    monkeypatch.setattr(schur_module, "CHUNK_DOUBLES", 20 * 28 * 28)
    prob = _box_ball_problem(range(7))
    stacks = _check_schur(prob.blocks, prob.num_moments, 3)
    assert [st.shape for st in stacks] == [(7, 7, 7), (1, 28, 28)]  # box and ball share B
    assert stacks[-1].direct and len(stacks[-1].chunks) > 2
    x = Polynomial.variables(3)
    f = sum((float(i + 1) * xi * xj for i, (xi, xj) in enumerate(zip(x, x[1:] + x[:1]))),
            Polynomial.zero(3))
    rel = assemble_relaxation(f, [(9.0 - (x[0] + x[1] + x[2] + 1.0) ** 2, GE), (x[0] ** 3, GE)], 3)
    _check_schur(rel.blocks, rel.num_moments, 4)


def test_schur_matrix_adds_the_rows_gram_matrix():
    """TableSchur.matrix with linear rows is the stacks' matrix plus
    rows^T rows, for the moment stack (written straight into M), for a
    localizing stack, and without stacks (a pure linear program)."""
    rng = np.random.default_rng(14)
    prob = _box_ball_problem(range(7))
    L = prob.num_moments
    for blocks in (prob.blocks[:1], prob.blocks, ()):
        stacks = stack_blocks(list(blocks), L)
        schur = TableSchur(stacks, L)
        V = [np.array([_random_pd(rng, st.shape[1]) for _ in range(st.shape[0])]) for st in stacks]
        rows = rng.normal(size=(3, L))
        want = schur.matrix(V).copy() + (rows.T @ rows)[1:, 1:]
        got = schur.matrix(V, rows)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert not np.any(TableSchur([], L).matrix([]))
    assert not np.any(TableSchur([], L).adjoint([]))


def test_stacks_evaluate_like_their_blocks_with_adjoint_transpose(E0):
    """Assembled relaxations (box and ball, a ball of many terms, E0 at
    orders 1 and 2 with its ball): every matrix of every stack is one of its
    blocks' LMIBlock.evaluate, and the adjoint is the transpose of
    evaluation, <A(y), X> = <y, A^*(X)> within 1e-12, also on the moment
    block's face."""
    from strata_opt.hierarchy import add_ball_constraint
    from strata_opt.mech import build_distance_problem_ela
    from strata_opt.sdp import _moment_face

    ela = build_distance_problem_ela(E0)
    cons = add_ball_constraint(ela.objective, ela.constraints, 58000.0)
    x = Polynomial.variables(3)
    f = x[0] * x[1] + 2.0 * x[1] * x[2]
    rels = [_box_ball_problem(range(7)),
            assemble_relaxation(f, [(9.0 - (x[0] + x[1] + x[2] + 1.0) ** 2, GE), (x[0] ** 3, GE)], 3),
            assemble_relaxation(ela.objective, cons, 1), assemble_relaxation(ela.objective, cons, 2)]
    rng = np.random.default_rng(12)
    faces = 0
    for rel in rels:
        L = rel.num_moments
        y = rng.normal(size=L)
        face = _moment_face(rel.n, rel.d, rel.equalities)
        for F in (None, face) if face is not None else (None,):
            stacks = stack_blocks(list(rel.blocks), L, F)
            if F is None:
                _stacked(stacks, rel.blocks, L)
            X = [np.array([_random_sym(rng, x.shape[-1]) for x in st.evaluate(y)]) for st in stacks]
            lhs = sum(float(np.vdot(st.evaluate(y), Xg)) for st, Xg in zip(stacks, X))
            rhs = float(y @ sum(st.adjoint(Xg) for st, Xg in zip(stacks, X)))
            bound = sum(np.linalg.norm(st.evaluate(y)) * np.linalg.norm(Xg) for st, Xg in zip(stacks, X))
            assert abs(lhs - rhs) <= 1e-12 * bound
            faces += F is not None
    assert faces == 1  # E0 at order 2: its quadratic equalities leave the moment block a face


def test_memory_estimate_bounds_the_solve():
    """relaxation_bytes bounds solve_sdp's tracemalloc peak on the n = 5,
    d = 3 box-and-ball relaxation.  The estimate counts MH, Nb^2 doubles per
    localizing block; without it it read 15.95 MiB against a 16.39 MiB peak."""
    import tracemalloc

    from strata_opt.hierarchy import relaxation_bytes

    f, constraints = _box_ball(5)
    rel = assemble_relaxation(f, constraints, 3)
    tracemalloc.start()
    try:
        sol = solve_sdp(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= relaxation_bytes(5, 3, constraints)


def test_memory_estimate_bounds_the_solve_with_linear_rows():
    """The same at order 1, where the five box constraints and the ball of
    _box_ball(5) are six linear rows (the objective is f's part of degree
    at most 2, so that order 1 is admissible)."""
    import tracemalloc

    from strata_opt.hierarchy import relaxation_bytes

    f, constraints = _box_ball(5)
    quadratic = Polynomial(5, {a: c for a, c in term_dict(f).items() if sum(a) <= 2})
    rel = assemble_relaxation(quadratic, constraints, 1)
    assert [b.side for b in rel.blocks] == [6] + [1] * 6
    tracemalloc.start()
    try:
        sol = solve_sdp(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.linear_rows == 6
    assert peak <= relaxation_bytes(5, 1, constraints)


def test_memory_estimate_bounds_the_solve_on_the_lu_route():
    """relaxation_bytes bounds solve_sdp's tracemalloc peak plus the copy of
    K that LAPACK's LU makes outside tracemalloc, on the largest system of
    the LU route, N + m = DENSE_KKT_ROWS: |x - c|^2 in 14 variables at
    order 1 (N = 119) with 41 random quadrics through one point, one kept
    row each.  Without the LU route's 3 (N + m)^2 doubles of K0, K and that
    copy the estimate read 1.19 MB against 1.25 MB."""
    import tracemalloc

    from strata_opt.hierarchy import relaxation_bytes

    n, m = 14, DENSE_KKT_ROWS - 119
    rng = np.random.default_rng(5)
    xs = Polynomial.variables(n)
    x0 = rng.normal(size=n)
    f = sum((x - float(c)) * (x - float(c)) for x, c in zip(xs, rng.normal(size=n)))
    constraints = []
    for _ in range(m):
        Q, l = rng.normal(size=(n, n)), rng.normal(size=n)
        h = sum(float(Q[i, j]) * xs[i] * xs[j] for i in range(n) for j in range(n))
        h = h + sum(float(l[i]) * xs[i] for i in range(n)) - float(x0 @ Q @ x0 + l @ x0)
        constraints.append((h, EQ))
    rel = assemble_relaxation(f, constraints, 1)
    tracemalloc.start()
    try:
        sol = solve_sdp(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and (sol.schur_dim, sol.equality_rows) == (119, m)
    assert dense_route(119, m) and not dense_route(119, m + 1)
    assert peak + 8 * DENSE_KKT_ROWS ** 2 <= relaxation_bytes(n, 1, constraints)


def test_linear_rows_evaluate_like_their_blocks_with_adjoint_transpose(E0):
    """The rows A u + b of the side-1 blocks of assembled relaxations (E0 at
    order 1 with its ball, the six rows of _box_ball(5) at order 1) are the
    blocks' LMIBlock.evaluate scaled by their largest coefficient, and
    <A u, x> = <u, A^T x> within 1e-12."""
    from strata_opt.hierarchy import add_ball_constraint
    from strata_opt.mech import build_distance_problem_ela

    ela = build_distance_problem_ela(E0)
    f, box_ball = _box_ball(5)
    rels = [assemble_relaxation(ela.objective,
                                add_ball_constraint(ela.objective, ela.constraints, 58000.0), 1),
            assemble_relaxation(Polynomial(5, {a: c for a, c in term_dict(f).items() if sum(a) <= 2}),
                                box_ball, 1)]
    rng = np.random.default_rng(13)
    for rel, k in zip(rels, (1, 6)):
        rows = [b for b in rel.blocks if b.side == 1]
        L = rel.num_moments
        full = ShiftRows(scaled(rows)).dense(L)
        assert full.shape == (k, L)
        A, b = full[:, 1:], full[:, 0]
        y = rng.normal(size=L)
        want = np.array([blk.evaluate(y)[0, 0] / np.max(np.abs(blk.coeffs)) for blk in rows])
        got = A @ y[1:] + y[0] * b
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        x = rng.normal(size=k)
        lhs, rhs = float((A @ y[1:]) @ x), float(y[1:] @ (A.T @ x))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(y) * np.linalg.norm(x)


def _dense_c(rows):
    """C (r, f) of rows in echelon form, its blocks made one dense matrix."""
    C = np.zeros((len(rows.P), len(rows.F)))
    for r, f, block in rows.blocks:
        C[r, f] = block
    return C


def _dense_echelon(R):
    """echelon_rows of the dense rows R = [e0 E], given in coordinates."""
    rows, cols = np.nonzero(R)
    return echelon_rows(SimpleNamespace(count=len(R), rows=rows, cols=cols, vals=R[rows, cols]),
                        R.shape[1])


def _echelon(E, e=None):
    """The rows E u = e (e = 0 by default) in echelon form, and their dense
    matrix Pi [I C]."""
    rows, _ = _dense_echelon(np.column_stack((-(np.zeros(len(E)) if e is None else e), E)))
    dense = np.zeros((len(rows.P), E.shape[1]))
    dense[np.arange(len(rows.P)), rows.P] = 1.0
    dense[:, rows.F] = _dense_c(rows)
    return rows, dense


def test_saddle_point_direction_matches_dense_solve():
    rng = np.random.default_rng(17)
    # each route on either side of its bounds: without rows up to N = DENSE_KKT,
    # with rows up to N + m = DENSE_KKT_ROWS while 2 m <= N; then Cholesky
    # without rows, and in the kernel of 20, 46 and 89 rows
    shapes = ((1, 0), (40, 0), (40, 7), (DENSE_KKT, 0), (90, 35), (90, 45), (DENSE_KKT_ROWS - 20, 20),
              (DENSE_KKT + 1, 0), (DENSE_KKT_ROWS - 19, 20), (90, 46), (90, 89))
    routes = []
    for N, m in shapes:
        M = _random_pd(rng, N)
        rows, E = _echelon(rng.normal(size=(m, N)))
        b, q = rng.normal(size=N), rng.normal(size=m)
        solve, factored = kkt_solver(rows, N)(M)
        assert factored == (not dense_route(N, m))  # the route it reports
        routes.append(factored)
        du, dlam = solve(b, q)
        K = np.block([[M, -E.T], [E, np.zeros((m, m))]])
        want = np.linalg.solve(K, np.concatenate((b, q)))
        got = np.concatenate((du, dlam))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert routes == [False] * 7 + [True] * 4


def test_dense_route_solvers_keep_their_own_matrix():
    """Two factorizations of the small system's route: the first solver
    still solves its own M after the second one is made."""
    rng = np.random.default_rng(19)
    N, m = 30, 5
    rows, E = _echelon(rng.normal(size=(m, N)))
    factor = kkt_solver(rows, N)
    M1, M2 = _random_pd(rng, N), _random_pd(rng, N)
    (first, factored), _ = factor(M1), factor(M2)
    assert not factored
    b, q = rng.normal(size=N), rng.normal(size=m)
    K = np.block([[M1, -E.T], [E, np.zeros((m, m))]])
    want = np.linalg.solve(K, np.concatenate((b, q)))
    assert np.max(np.abs(np.concatenate(first(b, q)) - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [35, 89])
def test_kernel_step_meets_the_rows_when_m_is_ill_conditioned(m):
    """With M's eigenvalues from 1e-12 to 1 the step still meets E du = q
    to rounding: du0 = Pi [q; 0] meets the rows through E_P = I alone and
    the kernel part Z w adds nothing to E du, whatever the error in w.  The
    exact solution is (x, lam) of unit size."""
    rng = np.random.default_rng(23)
    N = 90
    Q = np.linalg.qr(rng.normal(size=(N, N)))[0]
    M = (Q * np.logspace(-12, 0, N)) @ Q.T
    rows, E = _echelon(np.linalg.svd(rng.normal(size=(m, N)), full_matrices=False)[2])
    x, lam = rng.normal(size=N), rng.normal(size=m)
    b, q = M @ x - E.T @ lam, E @ x
    assert rows.growth < 10.0
    du, dlam = kkt_solver(rows, N)(M)[0](b, q)
    assert np.max(np.abs(E @ du - q)) <= 1e-12 * (1.0 + np.max(np.abs(q)))


def test_kernel_basis_spans_the_kernel_of_the_rows():
    """Z = Pi^T [-C; I] satisfies E Z = 0 to rounding for the rows E as
    given, and its pivots are r distinct moments."""
    rng = np.random.default_rng(29)
    for N, m in ((10, 1), (50, 20), (120, 119)):
        E = np.linalg.svd(rng.normal(size=(m, N)), full_matrices=False)[2]
        rows = _echelon(E)[0]
        P, F, C = rows.P, rows.F, _dense_c(rows)
        assert sorted([*P, *F]) == list(range(N)) and C.shape == (m, N - m)
        assert np.max(np.abs(E[:, F] - E[:, P] @ C)) <= 1e-13 * (1.0 + rows.growth)


def test_missing_moment_fixed_by_a_row_takes_the_kernel_route():
    """A small system whose M misses a moment is not sent to the dense LU;
    where a row fixes that moment, the reduced matrix is positive definite
    and the step matches the dense solve."""
    rng = np.random.default_rng(31)
    N, m = 20, 3
    M = _random_pd(rng, N)
    M[4, :] = M[:, 4] = 0.0
    X = rng.normal(size=(N, m))
    X[:, 0] = 0.0
    X[4] = [1.0, 0.0, 0.0]
    # the first row names the moment 4 alone: a block of its own, which comes
    # after the block of the other two rows, whose smallest moment is 0
    rows, E = _echelon(np.linalg.qr(X)[0].T)
    assert rows.P[-1] == 4 and rows.sizes == ((2, 17), (1, 0))
    b, q = rng.normal(size=N), rng.normal(size=m)
    solve, factored = kkt_solver(rows, N)(M)
    assert factored
    du, dlam = solve(b, q)
    K = np.block([[M, -E.T], [E, np.zeros((m, m))]])
    want = np.linalg.solve(K, np.concatenate((b, q)))
    assert np.max(np.abs(np.concatenate((du, dlam)) - want)) <= 1e-10 * np.max(np.abs(want))


def _lift_relaxation(tensor, d):
    """The order-d relaxation of a tensor's distance problem as the lift
    benchmark builds it (ball 1.5 f(0), coordinates dilated by the natural
    scale), with n and the dilated constraints."""
    from strata_opt.hierarchy import add_ball_constraint
    from strata_opt.mech import (ElasticityTensor, PiezoTensor, build_distance_problem_ela,
                                 build_distance_problem_piezo, build_distance_problem_sym2)

    build = (build_distance_problem_ela if isinstance(tensor, ElasticityTensor)
             else build_distance_problem_piezo if isinstance(tensor, PiezoTensor)
             else build_distance_problem_sym2)
    prob = build(tensor)
    f, zero, r = prob.objective, np.zeros(prob.n), prob.natural_scale
    cons = [(g.dilate(r), kind) for g, kind in
            add_ball_constraint(f, prob.constraints, 1.5 * f.evaluate(zero), zero)]
    return assemble_relaxation(f.dilate(r), cons, d), prob.n, cons


def test_a0_order_three_solve_peak_memory(a0):
    """solve_sdp on the a0/O2 order-3 relaxation stays below 70 MB of
    Python-tracked allocations (the dense coefficient stacks took 142 MB)."""
    import tracemalloc

    rel = _lift_relaxation(a0, 3)[0]
    tracemalloc.start()
    try:
        sol = solve_sdp(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < 70 * 2**20


def test_moment_face_is_the_kernel_the_rows_force():
    """For h = 0 with d >= 2v, M_d(y) annihilates h x^gamma (|gamma| <= d - 2v)
    at every y that meets the rows; the face basis spans the rest."""
    from strata_opt.moment import MomentVector, moment_matrix
    from strata_opt.sdp import _moment_face

    x, y = Polynomial.variables(2)
    h = x * x + y * y - 1.0
    rel = assemble_relaxation(x * y, [(h, EQ)], 2)
    Q = _moment_face(rel.n, rel.d, rel.equalities)
    assert Q.shape == (6, 5)  # one kernel vector, h itself, over Lambda(2)
    np.testing.assert_allclose(Q.T @ Q, np.eye(5), atol=1e-14)
    atoms = MomentVector.from_atoms([[0.6, 0.8], [-1.0, 0.0]], [0.3, 0.7], 2)
    M = moment_matrix(atoms, 2)
    h_vec = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 1.0])  # 1, x, y, x^2, xy, y^2
    np.testing.assert_allclose(M @ h_vec, 0.0, atol=1e-14)
    np.testing.assert_allclose(Q.T @ h_vec, 0.0, atol=1e-14)
    assert _moment_face(2, 1, assemble_relaxation(x * y, [(h, EQ)], 1).equalities) is None  # d < 2v


def test_rotated_elasticity_order_two_stays_optimal():
    """E0 rotated and scaled (one lift input): the moment block has no
    interior along the equalities, and solved on the full block M's
    Cholesky broke near the optimum (numerical_failure)."""
    from strata_opt.hierarchy import add_ball_constraint
    from strata_opt.mech import ElasticityTensor, build_distance_problem_ela

    voigt = [[345.13956684957344, 75.88400663453359, 80.12581171670473, -28.136573733315295, 19.396761737638222, -10.161673774341324],
             [75.88400663453359, 324.1342645964119, 136.62414791856628, -15.05841877829863, 24.556640532077417, -20.62821896814276],
             [80.12581171670473, 136.62414791856628, 276.45823601440605, 44.73931020412273, -29.844286450335638, 26.918246224629335],
             [-28.136573733315295, -15.05841877829863, 44.73931020412273, 108.19127152337481, 39.232347124609404, 16.24350590586569],
             [19.396761737638222, 24.556640532077417, -29.844286450335638, 39.232347124609404, 103.62272124466732, -27.068230591996986],
             [-10.161673774341324, -20.62821896814276, 26.918246224629335, 16.24350590586569, -27.068230591996986, 54.819973501762476]]
    prob = build_distance_problem_ela(ElasticityTensor.from_voigt(np.array(voigt), tol=1e-9))
    f = prob.objective
    zero = np.zeros(prob.n)
    cons = add_ball_constraint(f, prob.constraints, 1.5 * f.evaluate(zero), zero)
    r = prob.natural_scale
    sol = solve_sdp(assemble_relaxation(f.dilate(r), [(g.dilate(r), k) for g, k in cons], 2))
    assert sol.status == "optimal"
    # E0's pinned distance 74.131148, to the benchmark's 2e-5 relative
    assert prob.total_distance(sol.objective) == pytest.approx(74.131148, rel=2e-5)


def test_one_factorization_and_no_set_up_array_alive_in_the_loop(a0, monkeypatch):
    """On the a0 order-3 solve the Newton system is factored once per
    iteration, on the (f, f) reduced matrix (f = N - m), with no earlier
    factor of it alive; the extra correctors reuse it; the set-up makes no
    dense (m, L) matrix of the rows, only each block's rows over its own
    moments; and when the IPM starts, all that is left of the set-up is the
    rows' echelon form (P, F, C, e): each block's [e_k C_k] (or a merged
    block's C), and the index and start vectors."""
    import tracemalloc
    import weakref

    import strata_opt._linalg as linalg
    import strata_opt.sdp as sdp

    factors, alive_at_factorization = {}, []
    real_chol = linalg.chol_regularized

    def chol(mat):
        alive_at_factorization.append(
            (mat.shape, sum(ref() is not None for ref in factors.get(mat.shape, []))))
        L = real_chol(mat)
        factors.setdefault(mat.shape, []).append(weakref.ref(L))
        return L

    dense_rows, setups, at_ipm = [], [], []
    real_dense, real_echelon, real_ipm = schur_module.ShiftRows.dense, sdp.echelon_rows, sdp._ipm

    def dense(self, L):
        if not at_ipm:  # made at set-up
            dense_rows.append((self.count, L))
        return real_dense(self, L)

    def echelon(R, L):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_echelon(R, L)
        setups.append((R.count, L, tracemalloc.get_traced_memory()[1] - start))
        return out

    def ipm(*args, **kwargs):
        rows = args[2]
        assert isinstance(rows, linalg.EchelonRows)
        buffers = {id(C.base if C.base is not None else C): C.base if C.base is not None else C
                   for _, _, C in rows.blocks}
        kept = (sum(x.nbytes for x in buffers.values())
                + sum(x.nbytes for x in (rows.P, rows.F, rows.e, args[3])))
        assert kept < 8 * len(rows.P) * (len(rows.F) + 1)  # below a dense C
        at_ipm.append(tracemalloc.get_traced_memory()[0] - before - kept)
        return real_ipm(*args, **kwargs)

    rel = _lift_relaxation(a0, 3)[0]
    monkeypatch.setattr(linalg, "chol_regularized", chol)
    monkeypatch.setattr(schur_module.ShiftRows, "dense", dense)
    monkeypatch.setattr(sdp, "echelon_rows", echelon)
    monkeypatch.setattr(sdp, "_ipm", ipm)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_sdp(rel)
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.equality_rows > 0
    (m, L, setup_peak), = setups
    assert L == rel.num_moments and m > sol.equality_rows
    # a0's quartic rows leave the order-3 moment block no face to find; the
    # set-up's peak (the rows' blocks and their index arrays, about 140 KB)
    # stays below a quarter of the dense rows' 8 m L (776 KB), and the rest
    # alive at the IPM's start
    # (about 8 KB) is small objects, below half of U's 8 r^2 bytes (68 KB)
    assert dense_rows == [] and setup_peak < 2 * m * L
    assert at_ipm[0] < 4 * sol.equality_rows ** 2
    assert sol.correctors > 0
    N, r = sol.schur_dim, sol.equality_rows
    assert [shape for shape, _ in alive_at_factorization] == [(N - r, N - r)] * sol.iterations
    assert [alive for _, alive in alive_at_factorization] == [0] * sol.iterations


def _builtin_relaxations(orders):
    """The lift-style relaxations of the embedded tensors (aln, the Cr
    sweep, E0 and a0) at d0 + j for j in orders."""
    from strata_opt.cli import _tensor
    from strata_opt.datasets import CR_SWEEP, DATASETS

    for ds_id in CR_SWEEP + ("E0", "a0"):
        ds = DATASETS[ds_id]
        tensor = _tensor(ds.kind, ds.voigt)
        d0 = 2 if ds.kind == "sym2" else 1  # O2's equations are quartic, the others quadratic
        for j in orders:
            yield f"{ds_id} d={d0 + j}", _lift_relaxation(tensor, d0 + j)[0]


def _equality_system(rel):
    """E and e of a relaxation's rows, as solve_sdp forms them."""
    R = ShiftRows(scaled(h for h in rel.equalities if np.any(h.coeffs))).dense(rel.num_moments)
    return R[:, 1:], -R[:, 0]


def test_echelon_rows_keep_the_svd_rank_on_every_builtin_relaxation():
    """The elimination keeps as many rows as the thin SVD's rank rule
    (sigma > max(m, N) eps sigma_1) on every embedded tensor's relaxation at
    d0 and d0 + 1, and its start u = Pi [e; 0] meets the raw rows."""
    seen = 0
    for name, rel in _builtin_relaxations((0, 1)):
        E, e = _equality_system(rel)
        sv = np.linalg.svd(E, compute_uv=False)
        rank = int(np.sum(sv > max(E.shape) * np.finfo(float).eps * sv[0]))
        rows, residual = _dense_echelon(np.column_stack((-e, E)))
        assert len(rows.P) == rank and residual <= 1e-8, name
        assert np.max(np.abs(E @ rows.particular(rows.e) - e)) <= 1e-12, name
        seen += 1
    assert seen == 22


@st.composite
def planted_blocks(draw):
    """Rows E u = e that fall into independent blocks, each the product of
    two small integer matrices (so that its rank is exact), over moments of
    their own, with 64 or DENSE_KKT_ROWS more moments that no row names (a
    Newton system on the LU route, or on the Cholesky route); rows and
    moments shuffled.  e = E x for an integer x, so that the rows are
    consistent."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        s = draw(st.integers(1, min(m, n)))
        entries = st.lists(st.integers(-2, 2), min_size=s * (m + n), max_size=s * (m + n))
        AB = np.array(draw(entries), dtype=float)
        blocks.append(AB[:m * s].reshape(m, s) @ AB[m * s:].reshape(s, n))
    rows, cols = sum(len(B) for B in blocks), sum(B.shape[1] for B in blocks)
    free = draw(st.sampled_from((64, DENSE_KKT_ROWS)))
    E = np.zeros((rows, cols + free))
    r = c = 0
    for B in blocks:
        E[r:r + len(B), c:c + B.shape[1]] = B
        r, c = r + len(B), c + B.shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = E[rng.permutation(rows)][:, rng.permutation(cols + free)]
    return E, E @ rng.integers(-3, 4, size=E.shape[1])


@given(planted_blocks())
@settings(max_examples=60, deadline=None)
def test_planted_blocks_keep_the_svd_rank_and_take_the_kernel_step(case):
    """On rows in independent blocks, shuffled, the elimination block by
    block keeps as many rows as the thin SVD's rank rule, its start meets
    the raw rows, and the Newton step on either route (at most 24 named
    moments and 20 rows: with 64 free moments the LU route, with
    DENSE_KKT_ROWS of them the kernel step of the Cholesky route) matches a
    dense solve of the saddle-point system on those rows."""
    E, e = case
    N = E.shape[1]
    sv = np.linalg.svd(E, compute_uv=False)
    rank = int(np.sum(sv > max(E.shape) * np.finfo(float).eps * sv[0]))
    rows, residual = _dense_echelon(np.column_stack((-e, E)))
    assert len(rows.P) == rank and residual <= 1e-12
    assert sum(r for r, _ in rows.sizes) == rank
    assert sorted([*rows.P, *rows.F]) == list(range(N))
    assert np.max(np.abs(E @ rows.particular(rows.e) - e)) <= 1e-12
    dense = np.zeros((rank, N))
    dense[np.arange(rank), rows.P] = 1.0
    dense[:, rows.F] = _dense_c(rows)
    rng = np.random.default_rng(rank)
    M = _random_pd(rng, N)
    b, q = rng.normal(size=N), rng.normal(size=rank)
    solve, factored = kkt_solver(rows, N)(M)
    assert factored == (N > DENSE_KKT_ROWS) == (not dense_route(N, rank))
    K = np.block([[M, -dense.T], [dense, np.zeros((rank, rank))]])
    want = np.linalg.solve(K, np.concatenate((b, q)))
    got = np.concatenate(solve(b, q))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_single_row_blocks_and_moments_no_row_names():
    """Three rows over disjoint moments, one moment named by none: three
    blocks of one row each; the unnamed moment comes last among the free
    ones, and each row in echelon form is itself divided by its pivot."""
    E = np.array([[1.0, -4.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 3.0]])
    e = np.array([2.0, 4.0, 6.0])
    rows, residual = _dense_echelon(np.column_stack((-e, E)))
    assert residual == 0.0 and rows.sizes == ((1, 1), (1, 0), (1, 0))
    np.testing.assert_array_equal(rows.P, [1, 2, 4])
    np.testing.assert_array_equal(rows.F, [0, 3])
    np.testing.assert_array_equal(_dense_c(rows), [[-0.25, 0.0], [0.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(rows.e, [-0.5, 2.0, 2.0])
    assert rows.growth == 0.25


def test_block_of_dependent_rows_keeps_one():
    """A block whose three rows are multiples of one row keeps one of them,
    beside a block of one row; the kept rows' start meets all five."""
    E = np.array([[0.0, 1.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0, 1.0],
                  [0.0, -2.0, -4.0, 0.0, 0.0],
                  [0.0, 0.5, 1.0, 0.0, 0.0]])
    e = np.array([1.0, 3.0, -2.0, 0.5])
    rows, residual = _dense_echelon(np.column_stack((-e, E)))
    assert residual <= 1e-15 and rows.sizes == ((1, 1), (1, 1))
    assert np.max(np.abs(E @ rows.particular(rows.e) - e)) <= 1e-15


def test_contradicting_block_fails_before_the_ipm():
    """x + y = 1 and 2x + 2y = 3 contradict each other, beside the block
    z = w that is fine: the solve ends in numerical_failure after 0
    iterations."""
    x, y, z, w = Polynomial.variables(4)
    cons = [(x + y - 1.0, EQ), (z - w, EQ), (2.0 * x + 2.0 * y - 3.0, EQ),
            (4.0 - x * x - y * y - z * z - w * w, GE)]
    sol = solve_sdp(assemble_relaxation(x * y + z, cons, 1))
    assert (sol.status, sol.iterations) == ("numerical_failure", 0)


def test_row_blocks_of_a_relaxation():
    """x + y = 1 and z = w at order 1 name disjoint moments: two blocks of
    one kept row and one free moment each; the moments x^2, ... that no row
    names are the rest of the free ones."""
    x, y, z, w = Polynomial.variables(4)
    cons = [(x + y - 1.0, EQ), (z - w, EQ), (4.0 - x * x - y * y - z * z - w * w, GE)]
    f = (x - 1.0) * (x - 1.0) + (y - 2.0) * (y - 2.0) + (z - 1.0) * (z - 1.0) + w * w
    sol = solve_sdp(assemble_relaxation(f, cons, 1))
    assert sol.status == "optimal" and sol.row_blocks == [(1, 1), (1, 1)]
    assert solve_sdp(assemble_relaxation(f, cons[2:], 1)).row_blocks is None


@pytest.mark.parametrize("ratio", [1e-10, 1e-5])
def test_near_dependent_rows_keep_the_svd_rank(ratio):
    """Rows whose smallest kept singular value is 1e-10 (or 1e-5) of the
    largest stand far above the elimination's rounding: it keeps them, with
    the thin SVD's rank."""
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    V = np.linalg.qr(rng.normal(size=(20, 8)))[0]
    sv = np.array([1.0, 0.7, 0.5, 0.3, 0.2, ratio, 0.0, 0.0])
    E = (U * sv) @ V.T
    e = E @ rng.normal(size=20)
    rows, _ = _dense_echelon(np.column_stack((-e, E)))
    assert len(rows.P) == 6
    assert np.max(np.abs(E @ rows.particular(rows.e) - e)) <= 1e-12
    # a relaxation with such rows: y1 = 1 and y1 + 2 ratio y2 = 1 + 2 ratio
    x = Polynomial.variable(0, 1)
    cons = [(x - 1.0, EQ), (x + 2.0 * ratio * x * x - 1.0 - 2.0 * ratio, EQ), (4.0 - x * x, GE)]
    sol = solve_sdp(assemble_relaxation(x, cons, 1))
    assert (sol.status, sol.equality_rows) == ("optimal", 2)
    # y2 is read through the small row: its rounding is amplified by 1 / ratio
    np.testing.assert_allclose(sol.y.values, [1.0, 1.0, 1.0], atol=1e-15 / ratio)


@pytest.mark.parametrize("delta, status, iterations", [
    (1.0, "numerical_failure", 0), (1e-6, "numerical_failure", 0), (1e-12, "optimal", None)])
def test_contradicting_rows_fail_and_rounding_passes(delta, status, iterations):
    """x + y = 1 and 2x + 2y = 2 + delta on the disc of radius 2: the second
    row depends on the first, and its residual delta / 2 past 1e-8 ends the
    solve before the IPM; at rounding size it is dropped and the solve goes
    on with one row."""
    x, y = Polynomial.variables(2)
    cons = [(x + y - 1.0, EQ), (2.0 * x + 2.0 * y - 2.0 - delta, EQ), (4.0 - x * x - y * y, GE)]
    sol = solve_sdp(assemble_relaxation(x * y, cons, 1))
    assert sol.status == status
    if iterations is not None:
        assert sol.iterations == iterations
    else:
        assert sol.equality_rows == 1


def test_extra_correctors_lengthen_the_shorter_step_and_keep_the_bound(E0, monkeypatch):
    """On E0 at order 2 every kept corrector lengthened the shorter of the
    two step lengths of the direction before it, and the solve without
    extra correctors reaches the same status and bound, within the
    reported duality gaps."""
    import strata_opt.sdp as sdp

    rel = _lift_relaxation(E0, 2)[0]
    sol = solve_sdp(rel)
    assert sol.status == "optimal" and sol.correctors > 0
    steps = [entry[6] for entry in sol.trace]
    assert all(b > a for shorter in steps for a, b in zip(shorter, shorter[1:]))
    assert sum(max(len(shorter) - 1, 0) for shorter in steps) == sol.correctors
    monkeypatch.setattr(sdp, "EXTRA_CORRECTORS", 0)
    plain = solve_sdp(rel)
    assert plain.status == sol.status and plain.correctors == 0
    assert all(len(entry[6]) <= 1 for entry in plain.trace)
    assert abs(plain.objective - sol.objective) <= plain.duality_gap + sol.duality_gap


def test_kernel_steps_reach_a_tight_dual_tolerance(E0):
    """E0 at order 2 solved to gap_tol = feas_tol = 1e-10, as the range-space
    steps M = L L^T, W = L^{-1} E^T solved it: the reduced matrix Z^T M Z
    amplifies the rounding of M near the optimum, and without the step's
    refinement against M the dual residual stalls above 1e-10
    (numerical_failure after 15 iterations)."""
    rel = _lift_relaxation(E0, 2)[0]
    sol = solve_sdp(rel, SolverOptions(gap_tol=1e-10, feas_tol=1e-10))
    assert sol.status == "optimal" and sol.basis_growth is not None
    assert sol.dual_residual <= 1e-10 and sol.primal_residual <= 1e-10


def test_dense_lu_relaxations_take_no_extra_corrector():
    """The order-d0 relaxations of the piezo tensors and of E0 (the certify
    sizes) are solved by the dense LU, which factors at every solve: no
    extra corrector."""
    for name, rel in _builtin_relaxations((0,)):
        if name.startswith("a0"):
            continue
        sol = solve_sdp(rel)
        assert (sol.status, sol.correctors) == ("optimal", 0), name


@pytest.mark.parametrize("fixture, d", [("e0_aln", 2), ("E0", 2), ("a0", 3)])
def test_memory_estimate_bounds_the_peak_with_equality_rows(fixture, d, request):
    """relaxation_bytes bounds solve_sdp's tracemalloc peak plus the copy of
    the Schur matrix that numpy's Cholesky makes outside tracemalloc, on the
    lift relaxations, which have equality rows."""
    import tracemalloc

    from strata_opt.hierarchy import relaxation_bytes

    rel, n, cons = _lift_relaxation(request.getfixturevalue(fixture), d)
    tracemalloc.start()
    try:
        sol = solve_sdp(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.equality_rows > 0
    assert relaxation_bytes(n, d, cons) >= peak + 8 * sol.schur_dim ** 2


def test_start_is_on_the_central_path_at_mu_one():
    """S = tau I and Z = I / tau in every stack and every linear row, so the
    first iterate has mu = 1, whatever tau the start's blocks give."""
    x, y = Polynomial.variables(2)
    cons = [(x * x + y * y - 1.0, EQ), (4.0 - x * x - y * y, GE),
            (10.0 - x**4 - y**4, GE)]
    problem = assemble_relaxation(x + 2.0 * y, cons, 2)
    assert sorted(b.side for b in problem.blocks) == [1, 3, 6]
    sol = solve_sdp(problem)
    assert sol.status == "optimal"
    assert sol.linear_rows == 1 and sol.equality_rows > 0
    assert sol.trace[0][1] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("objective, status, value", [
    ([2.0, 0.0, 0.0], "optimal", 2.0), ([0.0, 1.0, 0.0], "unbounded_suspected", None)])
def test_relaxation_without_a_block(objective, status, value):
    """A problem whose only block is 0 >= 0 has no block left once vacuous
    blocks are dropped: optimal when the objective is constant, else
    unbounded."""
    sol = solve_sdp(_lmi_problem(objective, [([[0]], [[1]], [0.0])]))
    assert sol.status == status and sol.iterations == 0
    if value is not None:
        assert sol.objective == value


def _on_row(objective, shift, coeffs):
    """The problem whose only block is 0 >= 0, with the one equality row
    sum_t coeffs[t] y[shift[t]] = 0."""
    rel = _lmi_problem(objective, [([[0]], [[1]], [0.0])])
    row = LMIBlock(0, np.array([[0]]), np.array([shift]), np.array(coeffs, dtype=float))
    return RelaxationProblem(n=1, d=1, objective=rel.objective, blocks=rel.blocks,
                             equalities=(row,))


@pytest.mark.parametrize("objective, status", [([0.0, 1.0, 0.0], "optimal"),
                                               ([0.0, 0.0, 1.0], "unbounded_suspected")])
def test_relaxation_without_a_block_on_equality_rows(objective, status):
    """With the row y1 = 1/2 the feasible set is a line: y1 is constant on
    it (optimal, 1/2) and y2 is not."""
    sol = solve_sdp(_on_row(objective, [0, 1], [-0.5, 1.0]))
    assert sol.status == status and sol.equality_rows == 1
    np.testing.assert_allclose(sol.y.values[:2], [1.0, 0.5], atol=1e-15)
    if status == "optimal":
        assert sol.objective == pytest.approx(0.5, abs=1e-15)


def test_equality_row_naming_a_moment_twice_adds_its_terms():
    """-0.5 y0 + 0.25 y1 + 0.75 y1 = 0 is the row y1 = 1/2: the terms that
    name the same moment add up."""
    sol = solve_sdp(_on_row([0.0, 1.0, 0.0], [0, 1, 1], [-0.5, 0.25, 0.75]))
    assert sol.status == "optimal" and sol.equality_rows == 1
    np.testing.assert_allclose(sol.y.values[:2], [1.0, 0.5], atol=1e-15)
    assert sol.objective == pytest.approx(0.5, abs=1e-15)
