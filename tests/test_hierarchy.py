import numpy as np
import pytest

from strata_opt.hierarchy import (
    FEAS_REPORT_TOL,
    ExtractionFailure,
    HierarchyOptions,
    add_ball_constraint,
    check_rank_condition,
    extract_minimizers,
    numerical_rank,
    run_hierarchy,
)
from strata_opt.moment import GE, MomentVector, moment_matrix
from strata_opt.poly import Polynomial
from strata_opt.sdp import SolverOptions


def _sum_sq(n, center):
    f = Polynomial.zero(n)
    for i, ci in enumerate(center):
        d = Polynomial.variable(i, n) - float(ci)
        f = f + d * d
    return f


class TestBallConstraint:
    def test_appends_single_inequality(self):
        f = _sum_sq(2, [0.0, 0.0])
        out = add_ball_constraint(f, [], 5.0)
        assert len(out) == 1
        g, kind = out[0]
        assert kind == GE
        assert g == Polynomial.constant(2, 5.0) - f

    def test_rejects_c_not_dominating(self):
        f = _sum_sq(1, [0.0])
        with pytest.raises(ValueError):
            add_ball_constraint(f, [], 4.0, x_ref=[2.0])  # f(2) = 4 = c, needs strict
        with pytest.raises(ValueError):
            add_ball_constraint(f, [], -1.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_c(self, c):
        import warnings

        f = _sum_sq(1, [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ball constant must be finite and positive"):
                add_ball_constraint(f, [], c)

    def test_accepts_strictly_feasible_reference(self):
        f = _sum_sq(1, [0.0])
        out = add_ball_constraint(f, [], 4.1, x_ref=[2.0])
        assert len(out) == 1


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5), 1e-6) == 5

    def test_rank_one_plus_noise(self, rng):
        m = rng.normal(size=4)
        M = np.outer(m, m) + 1e-12 * rng.normal(size=(4, 4))
        assert numerical_rank(0.5 * (M + M.T), 1e-6) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0

    def test_two_atom_moment_matrix(self):
        y = MomentVector.from_atoms([[0.5, 1.0], [-1.0, 0.3]], [0.4, 0.6], 2)
        assert numerical_rank(moment_matrix(y, 2), 1e-6) == 2


class TestRankCondition:
    def test_dirac_always_flat(self, rng):
        x = rng.normal(size=2)
        for d, v in [(1, 1), (2, 1), (2, 2)]:
            y = MomentVector.from_dirac(x, d)
            ok, s, _low = check_rank_condition(y, d, v, 1e-6)
            assert ok and s == 1

    def test_two_atoms_flat_at_higher_order(self):
        y = MomentVector.from_atoms([[1.0], [-1.0]], [0.5, 0.5], 2)
        ok, s, low = check_rank_condition(y, 2, 1, 1e-6)
        assert ok and s == 2 and low == 2

    def test_continuous_measure_not_flat(self, rng):
        # Gaussian moments in 1D up to order 4: Hankel ranks keep growing
        moments = [1.0, 0.0, 1.0, 0.0, 3.0]  # E[x^k] of N(0,1)
        y = MomentVector(n=1, d=2, values=np.array(moments))
        ok, s, low = check_rank_condition(y, 2, 1, 1e-6)
        assert not ok and s == 3 and low == 2

    def test_negative_order_rejected(self):
        y = MomentVector.from_dirac(np.array([0.0]), 1)
        with pytest.raises(ValueError):
            check_rank_condition(y, 1, 2, 1e-6)


class TestExtraction:
    def test_single_dirac(self, rng):
        x = np.array([0.25, -1.5, 2.0])
        y = MomentVector.from_dirac(x, 2)
        pts, w = extract_minimizers(y, 2, 1, tol=1e-8)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0], x, atol=1e-8)
        assert w[0] == pytest.approx(1.0, abs=1e-8)

    def test_two_atoms_sign_pair(self):
        y = MomentVector.from_atoms([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5], 2)
        pts, w = extract_minimizers(y, 2, 2, tol=1e-8)
        got = sorted(p[0] for p in pts)
        np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose([p[1] for p in pts], [0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(sorted(w), [0.5, 0.5], atol=1e-8)

    def test_three_atoms(self):
        pts_in = [[0.0, 0.5], [1.0, -0.5], [-1.2, 0.1]]
        y = MomentVector.from_atoms(pts_in, [0.2, 0.5, 0.3], 2)
        pts, w = extract_minimizers(y, 2, 3, tol=1e-8)
        got = sorted((tuple(np.round(p, 6)) for p in pts))
        want = sorted(tuple(np.round(np.array(p), 6)) for p in pts_in)
        assert got == want

    # every coordinate value repeats across atoms, so each multiplication
    # matrix alone has repeated eigenvalues; the fixed combination must still
    # separate them all
    SHARED_COORDINATES = (
        ([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]], [0.1, 0.2, 0.3, 0.4], 3),
        ([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)], [1.0 / 9] * 9, 5),
        ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
         [0.25, 0.25, 0.25, 0.25], 3),
        ([[2.0, 0.5], [2.0, -0.5], [2.0, 1.5]], [0.5, 0.3, 0.2], 3),
    )

    @pytest.mark.parametrize("layout", range(len(SHARED_COORDINATES)))
    def test_atoms_sharing_coordinates(self, layout):
        pts_in, w_in, d = self.SHARED_COORDINATES[layout]
        y = MomentVector.from_atoms(pts_in, w_in, d)
        pts, w = extract_minimizers(y, d, len(pts_in), tol=1e-8)
        assert len(pts) == len(pts_in)
        for q, wq in zip(pts_in, w_in):
            j = int(np.argmin([np.max(np.abs(p - q)) for p in pts]))
            np.testing.assert_allclose(pts[j], q, atol=1e-8)
            assert w[j] == pytest.approx(wq, abs=1e-8)

    @pytest.mark.parametrize("t", [2.0, 1.0, 0.1, 1e-3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_atoms_colliding_in_the_combination_fail(self, t, d):
        # x + t * (sqrt 3, -sqrt 2) gives the combination sqrt 2 x1 + sqrt 3 x2
        # the same value as x: the two atoms cannot be separated, and the
        # extraction must say so rather than return a wrong atom
        x = np.array([0.3, -0.7])
        y = MomentVector.from_atoms([x, x + t * np.array([np.sqrt(3.0), -np.sqrt(2.0)])],
                                    [0.4, 0.6], d)
        with pytest.raises(ExtractionFailure, match="cluster"):
            extract_minimizers(y, d, 2, tol=1e-8)

    def test_overstated_rank_recovers_or_fails(self):
        # asking for more atoms than the measure has: spurious atoms must be
        # weight-rejected (or the degenerate factorization must error out)
        y = MomentVector.from_dirac(np.array([1.0, 2.0]), 2)
        try:
            pts, w = extract_minimizers(y, 2, 3, tol=1e-8)
        except ExtractionFailure:
            return
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0], [1.0, 2.0], atol=1e-7)
        assert w[0] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("s", [0, -1])
    def test_target_rank_below_one_fails(self, s):
        # the rank test counts no singular value when rank_eps >= 1
        y = MomentVector.from_dirac(np.array([1.0, 2.0]), 2)
        with pytest.raises(ExtractionFailure, match="target rank"):
            extract_minimizers(y, 2, s)


class TestRunHierarchy:
    def test_dirac_closure_at_first_order(self):
        # pure quadratic distance with only the coercivity ball: atom at x_hat
        x_hat = np.array([0.3, -1.2, 0.7])
        f = _sum_sq(3, x_hat)
        cons = add_ball_constraint(f, [], 10.0, np.zeros(3))
        opts = HierarchyOptions(d_max=1, solver=SolverOptions(gap_tol=1e-10, feas_tol=1e-10))
        res = run_hierarchy(f, cons, opts)
        assert res.status_xi == 1 and res.order_reached == 1
        np.testing.assert_allclose(res.minimizers[0], x_hat, atol=1e-6)

    def test_two_symmetric_minimizers(self):
        x = Polynomial.variable(0, 1)
        f = (x * x - 1.0) ** 2
        cons = add_ball_constraint(f, [], 3.0, np.array([0.5]))
        res = run_hierarchy(f, cons, HierarchyOptions(d_max=4))
        assert res.status_xi == 1
        assert res.rank_s == len(res.minimizers) == 2
        got = sorted(float(p[0]) for p in res.minimizers)
        np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-5)
        assert res.bound == pytest.approx(0.0, abs=1e-6)
        # recorded bounds are nondecreasing across solved orders
        solved = [r.objective for r in res.diagnostics if r.solver_status == "optimal"]
        gtol = 10 * SolverOptions().gap_tol
        for lo, hi in zip(solved, solved[1:]):
            assert lo <= hi + gtol

    def test_monotone_bounds_and_lower_bound_property(self, rng):
        from strata_opt.moment import assemble_relaxation, minimal_order
        from strata_opt.sdp import solve_sdp

        x1, x2 = Polynomial.variables(2)
        f = (x1 * x1 * x1 * x1) - x1 * x2 + 0.5 * (x2 * x2) - 0.3 * x1
        constraints = [(Polynomial.constant(2, 4.0) - x1 * x1 - x2 * x2, GE)]
        d0 = minimal_order(f, constraints)
        bounds = []
        for d in (d0, d0 + 1):  # solve each order unconditionally
            sol = solve_sdp(assemble_relaxation(f, constraints, d))
            assert sol.status == "optimal"
            bounds.append(sol.objective)
        gtol = 10 * SolverOptions().gap_tol
        assert bounds[0] <= bounds[1] + gtol * (1 + abs(bounds[1]))
        # brute-force feasible samples dominate every certified bound
        pts = rng.uniform(-2, 2, size=(20000, 2))
        pts = pts[np.sum(pts**2, axis=1) <= 4.0]
        best = float(np.min(f.evaluate(pts)))
        for b in bounds:
            assert b <= best + 1e-6 * (1 + abs(best))

    def test_status_zero_when_not_certified(self):
        # minimize x over [0, inf) cut by a weak ball: certification at d=1
        # may fail if d_max stops before flatness; force a tiny d_max on a
        # quartic so rank condition cannot trigger at the first order.
        x = Polynomial.variable(0, 1)
        f = (x * x - 1.0) ** 2
        cons = add_ball_constraint(f, [], 3.0, np.array([0.5]))
        res = run_hierarchy(f, cons, HierarchyOptions(d_max=2))
        assert res.status_xi in (0, 1)  # two atoms may already be flat at d=2
        if res.status_xi == 0:
            assert res.minimizers == []

    def test_d_max_below_d0_rejected(self):
        x = Polynomial.variable(0, 1)
        with pytest.raises(ValueError):
            run_hierarchy((x * x) ** 2, [], HierarchyOptions(d_max=1))

    def test_minimizers_reproducible(self):
        # the extraction's combination is fixed: two runs agree bit for bit on
        # the four minimizers (+-1, +-1)
        x, y = Polynomial.variables(2)
        f = (x * x - 1.0) ** 2 + (y * y - 1.0) ** 2
        cons = add_ball_constraint(f, [], 3.0, np.array([0.5, 0.5]))
        r1 = run_hierarchy(f, cons, HierarchyOptions(d_max=4))
        r2 = run_hierarchy(f, cons, HierarchyOptions(d_max=4))
        assert len(r1.minimizers) == len(r2.minimizers) == 4
        for a, b in zip(r1.minimizers, r2.minimizers):
            np.testing.assert_array_equal(a, b)

    def test_coordinate_scale_preserves_bound_and_minimizer(self):
        x_hat = np.array([0.3, -1.2, 0.7])
        f = _sum_sq(3, x_hat)
        cons = add_ball_constraint(f, [], 10.0, np.zeros(3))
        solver = SolverOptions(gap_tol=1e-9)
        plain = run_hierarchy(f, cons, HierarchyOptions(d_max=1, solver=solver))
        scaled = run_hierarchy(
            f, cons, HierarchyOptions(d_max=1, solver=solver, coordinate_scale=2.5)
        )
        assert scaled.status_xi == plain.status_xi == 1
        assert scaled.bound == pytest.approx(plain.bound, abs=1e-7)
        np.testing.assert_allclose(scaled.minimizers[0], x_hat, atol=1e-5)

    def test_coordinate_scale_handles_extreme_magnitudes(self):
        # a point mass at magnitude 1e6 with a matching dilation: the run
        # certifies and recovers the point at the same relative accuracy
        x_hat = 1e6 * np.array([0.3, -1.2, 0.7])
        f = _sum_sq(3, x_hat)
        cons = add_ball_constraint(f, [], 1e13, np.zeros(3))
        opts = HierarchyOptions(d_max=1, coordinate_scale=1e6)
        res = run_hierarchy(f, cons, opts)
        assert res.status_xi == 1
        np.testing.assert_allclose(res.minimizers[0] / 1e6, x_hat / 1e6, atol=1e-4)

    def test_invalid_coordinate_scale_rejected(self):
        f = _sum_sq(1, [0.0])
        cons = add_ball_constraint(f, [], 4.0)
        with pytest.raises(ValueError):
            run_hierarchy(f, cons, HierarchyOptions(d_max=1, coordinate_scale=0.0))

    @pytest.mark.parametrize("options, name", [
        ({"rank_eps": 0.0}, "rank_eps"), ({"rank_eps": 1.0}, "rank_eps"),
        ({"rank_eps": 2.0}, "rank_eps"), ({"rank_eps": float("nan")}, "rank_eps"),
        ({"solver": {"gap_tol": 0.0}}, "gap_tol"),
        ({"solver": {"gap_tol": float("inf")}}, "gap_tol"),
        ({"solver": {"feas_tol": -1e-8}}, "feas_tol"),
        ({"solver": {"feas_tol": float("nan")}}, "feas_tol"),
    ])
    def test_invalid_tolerances_rejected(self, options, name):
        # the solver's tolerances are refused by SolverOptions itself
        f = _sum_sq(1, [0.0])
        cons = add_ball_constraint(f, [], 4.0)
        with pytest.raises(ValueError, match=name):
            options = {k: SolverOptions(**v) if k == "solver" else v for k, v in options.items()}
            run_hierarchy(f, cons, HierarchyOptions(d_max=1, **options))


def test_projected_atom_certifies_rotated_scaled_input():
    """cr0.225 scaled by 159.675 in one rotation: its extracted atom missed
    the equalities by more than FEAS_REPORT_TOL (status 0) until atoms were
    projected onto {h = 0} before validation."""
    from strata_opt.mech import PiezoTensor, build_distance_problem_piezo
    from strata_opt.moment import minimal_order

    scale = 159.6753207553933
    voigt = [[10.145589638188731, 35.65356318461708, 23.122852906038702,
              55.03495219363454, 1.3918010336011557, 1.6220665153933047],
             [33.750220495338645, -151.12607833741066, -48.35084425161503,
              -162.17016362525501, 32.24632691364063, 54.39774851820027],
             [79.74501575149755, -117.42123625398793, -8.909010868762406,
              -110.16654431937175, 38.999854760291264, 49.29662688812577]]
    problem = build_distance_problem_piezo(PiezoTensor(voigt=np.array(voigt)))
    f = problem.objective
    zero = np.zeros(problem.n)
    constraints = add_ball_constraint(f, problem.constraints, 1.5 * f.evaluate(zero), zero)
    d0 = minimal_order(f, constraints)
    res = run_hierarchy(f, constraints, HierarchyOptions(d_max=d0 + 1,
                                                         coordinate_scale=problem.natural_scale))
    assert res.status_xi == 1
    last = res.diagnostics[-1]
    assert last.max_constraint_violation <= FEAS_REPORT_TOL
    assert last.max_violation_before_projection >= last.max_constraint_violation
    # the pinned sweep distance, scaled: 1.868767 within the sweep tolerance 5e-5
    assert problem.total_distance(res.bound) == pytest.approx(1.868767 * scale, abs=5e-5 * scale)


def test_projection_step_ignores_rounding_noise():
    """cr0.10 in one rotation, at order 1: near the stratum the Jacobian of
    its 5 equalities has rank 3, and its other singular values are rounding
    noise.  A least-squares step that divided by them moved the atom along
    its orbit, and f then missed the bound by 3.8 times the acceptance
    tolerance (status 0)."""
    from conftest import random_rotation
    from test_invariance_e2e import _rotate_piezo

    from strata_opt.datasets import DATASETS
    from strata_opt.mech import PiezoTensor, build_distance_problem_piezo

    tensor = PiezoTensor(voigt=np.array(DATASETS["cr0.10"].voigt))
    problem = build_distance_problem_piezo(
        _rotate_piezo(tensor, random_rotation(np.random.default_rng(25))))
    f = problem.objective
    zero = np.zeros(problem.n)
    constraints = add_ball_constraint(f, problem.constraints, 1.5 * f.evaluate(zero), zero)
    res = run_hierarchy(f, constraints, HierarchyOptions(d_max=1,
                                                         coordinate_scale=problem.natural_scale))
    assert res.status_xi == 1
    last = res.diagnostics[-1]
    f_tol = max(1e-4 * (1.0 + abs(last.objective)), 10.0 * last.duality_gap)
    assert last.max_objective_mismatch <= 0.05 * f_tol


def test_unconstrained_problem_extracts_without_projection():
    x = Polynomial.variable(0, 1)
    res = run_hierarchy((x - 0.5) ** 2, [], HierarchyOptions(d_max=2))
    assert res.status_xi == 1
    np.testing.assert_allclose(res.minimizers[0], [0.5], atol=1e-6)
    assert res.diagnostics[-1].max_violation_before_projection == 0.0


def test_overflowing_solve_ends_in_numerical_failure():
    """min x^2 + 1 over x^2 + 1 <= 1e-300 is infeasible, and the IPM's
    iterates overflow.  Each order ends with numerical_failure (status -1),
    not with a LinAlgError from a non-finite step nor a RuntimeWarning,
    which the test settings turn into an error."""
    x = Polynomial.variable(0, 1)
    f = x * x + 1.0
    res = run_hierarchy(f, add_ball_constraint(f, [], 1e-300), HierarchyOptions(d_max=2))
    assert res.status_xi == -1
    assert [d.solver_status for d in res.diagnostics] == ["numerical_failure"] * 2


class TestMemoryBudget:
    @staticmethod
    def _cgroup(tmp_path, line, folder, files):
        (tmp_path / "cgroup").write_text(line + "\n")
        group = tmp_path / "fs" / folder
        group.mkdir(parents=True)
        for name, text in files.items():
            (group / name).write_text(text)
        return str(tmp_path / "cgroup"), str(tmp_path / "fs")

    def test_cgroup_v2_limit_minus_usage_plus_inactive_cache(self, tmp_path):
        from strata_opt.hierarchy import _cgroup_free_bytes

        proc, mount = self._cgroup(tmp_path, "0::/job", "job", {
            "memory.max": "1000000\n", "memory.current": "700000\n",
            "memory.stat": "anon 600000\nfile 100000\ninactive_file 40000\n"})
        assert _cgroup_free_bytes(proc=proc, mount=mount) == 340000.0

    def test_cgroup_v1_limit(self, tmp_path):
        from strata_opt.hierarchy import _cgroup_free_bytes

        proc, mount = self._cgroup(tmp_path, "4:memory:/box", "memory/box", {
            "memory.limit_in_bytes": "5000\n", "memory.usage_in_bytes": "4000\n",
            "memory.stat": "inactive_file 10\ntotal_inactive_file 500\n"})
        assert _cgroup_free_bytes(proc=proc, mount=mount) == 1500.0
        # a group whose limit minus usage reaches `below` cannot lower the minimum
        assert _cgroup_free_bytes(1000.0, proc=proc, mount=mount) == float("inf")
        assert _cgroup_free_bytes(1001.0, proc=proc, mount=mount) == 1500.0

    def test_no_limit_or_no_cgroup_is_unbounded(self, tmp_path):
        from strata_opt.hierarchy import _cgroup_free_bytes

        proc, mount = self._cgroup(tmp_path, "0::/", "", {
            "memory.max": "max\n", "memory.current": "5\n", "memory.stat": ""})
        assert _cgroup_free_bytes(proc=proc, mount=mount) == float("inf")
        assert _cgroup_free_bytes(proc=str(tmp_path / "missing"), mount=mount) == float("inf")

    def test_available_bytes_takes_the_cgroup_cap(self, monkeypatch):
        import strata_opt.hierarchy as hierarchy

        monkeypatch.setattr(hierarchy, "_cgroup_free_bytes", lambda below: min(below, 12345.0))
        assert hierarchy._available_bytes() == 12345.0

    def test_refusal_over_the_budget_before_assembly(self, monkeypatch):
        import strata_opt.hierarchy as hierarchy

        def no_assembly(*args):
            raise AssertionError("assembled a relaxation that the memory estimate refuses")

        f = _sum_sq(3, [0.1, 0.2, 0.3])
        cons = add_ball_constraint(f, [], 2.0)
        needed = hierarchy.relaxation_bytes(3, 1, cons)
        monkeypatch.setattr(hierarchy, "assemble_relaxation", no_assembly)
        monkeypatch.setattr(hierarchy, "_available_bytes", lambda: 1.9 * needed)  # budget 0.95x
        with pytest.raises(hierarchy.RelaxationTooLarge) as info:
            run_hierarchy(f, cons, HierarchyOptions(d_max=2))
        assert (info.value.d, info.value.needed) == (1, needed)
        assert "0.5 of the available memory" in str(info.value)


def _extract_from_dirac(f, constraints, point, d=2):
    """_attempt_extraction on the moments of the Dirac measure at point, as a
    solve that stopped there would give them: (atoms, accepted)."""
    from strata_opt.hierarchy import OrderDiagnostics, _attempt_extraction
    from strata_opt.sdp import SdpSolution

    y = MomentVector.from_dirac(np.asarray(point, dtype=float), d)
    value = f.evaluate(point)
    sol = SdpSolution(y=y, objective=value, duality_gap=0.0, iterations=0, status="optimal")
    rec = OrderDiagnostics(d=d, solver_status="optimal", objective=value, duality_gap=0.0,
                           iterations=0)
    return _attempt_extraction(f, constraints, sol, d, 1, rec)


class TestPolish:
    def test_two_symmetric_minimizers_to_rounding(self):
        """The atoms of (x^2 - 1)^2 take the error of the moments the solver
        stopped at, 1.5e-6 before the polish; Newton steps on f' = 0 leave
        rounding."""
        x = Polynomial.variable(0, 1)
        f = (x * x - 1.0) ** 2
        cons = add_ball_constraint(f, [], 3.0, np.array([0.5]))
        res = run_hierarchy(f, cons, HierarchyOptions(d_max=4))
        assert res.status_xi == 1
        got = sorted(float(p[0]) for p in res.minimizers)
        np.testing.assert_allclose(got, [-1.0, 1.0], rtol=0.0, atol=1e-10)

    def test_atom_off_the_minimizer_along_the_equality(self):
        """min x + y on x^2 + y^2 = 1 from an atom on the circle 1e-5 off
        the minimizer: the projection onto the circle leaves it where it is,
        and the KKT steps move it along the circle to -(1, 1)/sqrt(2)."""
        from strata_opt.moment import EQ

        x, y = Polynomial.variables(2)
        theta = 1.25 * np.pi + 1e-5
        atoms, accepted = _extract_from_dirac(x + y, [(x * x + y * y - 1.0, EQ)],
                                              [np.cos(theta), np.sin(theta)])
        assert accepted and len(atoms) == 1
        np.testing.assert_allclose(atoms[0], -np.sqrt(0.5) * np.ones(2), rtol=0.0, atol=1e-10)

    def test_atom_at_an_active_inequality_is_not_polished(self):
        """min x + y on x^2 + y^2 = 1 and x >= 0.6 has its minimizer at
        (0.6, -0.8), where x >= 0.6 is active.  Steps on the KKT system of
        the equality alone would leave the feasible set; the atom stays."""
        from strata_opt.moment import EQ

        x, y = Polynomial.variables(2)
        cons = [(x * x + y * y - 1.0, EQ), (x - 0.6, GE)]
        atoms, accepted = _extract_from_dirac(x + y, cons, [0.6, -0.8])
        assert accepted and len(atoms) == 1
        np.testing.assert_allclose(atoms[0], [0.6, -0.8], rtol=0.0, atol=1e-12)
