import json

import numpy as np

from strata_opt._linalg import DENSE_KKT
from strata_opt.hierarchy import HierarchyOptions, run_hierarchy
from strata_opt.moment import EQ, GE
from strata_opt.poly import Polynomial
from strata_opt.reports import (THREAD_VARS, Report, diagnostics_to_plain, environment,
                                write_reports)


def _sample_report():
    return Report(
        problem={"command": "distance", "input": "E0", "stratum": "cubic-ela",
                 "c": 58000.0, "voigt": np.eye(2)},
        diagnostics=[{"d": 1, "solver_status": "optimal", "objective": np.float64(2530.47),
                      "num_moments": 55, "block_sides": [10, 1],
                      "schur_dim": 54, "equality_rows": 5, "linear_rows": 1,
                      "correctors": 3, "basis_growth": 1.5, "row_blocks": [[2, 13], [1, 8]],
                      "seconds": {"assemble": 0.001, "solve": np.float64(0.02), "rank": 1e-4,
                                  "extract": 0.003}}],
        status_xi=1,
        bound=2530.474727,
        distance=74.131148,
        relative_distance=0.103910,
        minimizers_voigt=[np.arange(4.0).reshape(2, 2)],
        residuals={"max_constraint_violation": 1e-9},
        seconds=0.93,
        environment={"python": "3.11.7", "numpy": "2.4.6",
                     "blas": {"name": "scipy-openblas", "version": "0.3.31"},
                     "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                 "MKL_NUM_THREADS": "1"}},
    )


class TestJsonRoundTrip:
    def test_parse_print_identity(self):
        rep = _sample_report()
        again = Report.from_json(rep.to_json())
        assert again == rep

    def test_numpy_values_become_plain(self):
        rep = _sample_report()
        assert isinstance(rep.problem["voigt"], list)
        assert isinstance(rep.diagnostics[0]["objective"], float)
        assert isinstance(rep.minimizers_voigt[0], list)

    def test_non_finite_values_dropped_to_null(self):
        rep = Report(problem={}, status_xi=-1, bound=float("-inf"))
        again = Report.from_json(rep.to_json())
        assert again.bound is None

    def test_run_diagnostics_round_trip(self):
        # min x on x^2 = 1, |x| <= 2: at d = 1 the Newton system has the moments
        # y1, y2 and the one row y2 = 1, and 4 - x^2 >= 0 is the linear row 4 - y2 >= 0
        x = Polynomial.variable(0, 1)
        res = run_hierarchy(x, [(x * x - 1.0, EQ), (4.0 - x * x, GE)], HierarchyOptions(d_max=2))
        rep = Report(problem={}, diagnostics=diagnostics_to_plain(res.diagnostics))
        again = Report.from_json(rep.to_json())
        assert again == rep
        first = again.diagnostics[0]
        assert (first["schur_dim"], first["equality_rows"], first["linear_rows"]) == (2, 1, 1)
        # the moments 1, y1, y2; the 2x2 moment block and the 1x1 ball
        assert (first["num_moments"], first["block_sides"]) == (3, [2, 1])
        # a system this small is solved by LU, which takes no extra
        # corrector; the row y2 = 1 in echelon form has C = 0
        assert (first["correctors"], first["basis_growth"]) == (0, 0.0)
        # that row is one block of one kept row and no free moment
        assert first["row_blocks"] == [[1, 0]]
        for plain, rec in zip(again.diagnostics, res.diagnostics):
            assert plain["row_blocks"] == [list(b) for b in rec.row_blocks]
            assert ((plain["schur_dim"], plain["equality_rows"], plain["linear_rows"])
                    == (rec.schur_dim, rec.equality_rows, rec.linear_rows))
            assert ((plain["correctors"], plain["basis_growth"])
                    == (rec.correctors, rec.basis_growth))
            assert (plain["num_moments"], plain["block_sides"]) == (rec.num_moments,
                                                                    rec.block_sides)
            assert plain["seconds"] == rec.seconds
        # the certified order went through every phase
        assert set(again.diagnostics[-1]["seconds"]) == {"assemble", "solve", "rank", "extract"}
        assert all(v >= 0.0 for v in again.diagnostics[-1]["seconds"].values())
        assert again.diagnostics[-1]["max_violation_before_projection"] >= 0.0

    def test_sizes_recorded_when_the_ipm_does_not_run(self):
        # x = 1 and x^2 = 1 fix both moments of order 1: no free moment is
        # left, so the IPM does not run, yet the sizes are reported
        x = Polynomial.variable(0, 1)
        res = run_hierarchy(x, [(x - 1.0, EQ), (x * x - 1.0, EQ)], HierarchyOptions(d_max=1))
        rep = Report(problem={}, diagnostics=diagnostics_to_plain(res.diagnostics))
        first = Report.from_json(rep.to_json()).diagnostics[0]
        assert first["schur_dim"] == 0 and first["iterations"] == 0
        assert (first["num_moments"], first["block_sides"]) == (3, [2])
        # the rows leave no free moment: C is empty, with growth 0
        assert (first["correctors"], first["basis_growth"]) == (0, 0.0)

    def test_corrector_count_and_no_rows_round_trip(self):
        # min x1 x2 x3 + x4 on the unit ball from d = 2, in 4 and 5 variables:
        # 69 and 125 free moments, no equality row, a Newton system on either
        # side of DENSE_KKT; only the Cholesky route takes extra correctors
        for n, N in ((4, 69), (5, 125)):
            xs = [Polynomial.variable(i, n) for i in range(n)]
            f = xs[0] * xs[1] * xs[2] + xs[3]
            ball = 1.0 - sum(x * x for x in xs)
            res = run_hierarchy(f, [(ball, GE)], HierarchyOptions(d_max=2))
            rep = Report(problem={}, diagnostics=diagnostics_to_plain(res.diagnostics))
            again = Report.from_json(rep.to_json())
            assert again == rep
            plain = [(p["correctors"], p["basis_growth"], p["row_blocks"]) for p in again.diagnostics]
            assert plain == [(rec.correctors, None, None) for rec in res.diagnostics]
            first = again.diagnostics[0]
            assert first["schur_dim"] == N and (first["correctors"] > 0) == (N > DENSE_KKT), n

    def test_basis_growth_round_trip(self):
        # min x1 x2 x3 + x4 on the unit sphere from d = 2: 69 free moments and
        # the 15 rows of the sphere's multiples, a Newton system in the kernel
        # of the rows
        xs = [Polynomial.variable(i, 4) for i in range(4)]
        f = xs[0] * xs[1] * xs[2] + xs[3]
        sphere = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3] - 1.0
        res = run_hierarchy(f, [(sphere, EQ)], HierarchyOptions(d_max=2))
        rep = Report(problem={}, diagnostics=diagnostics_to_plain(res.diagnostics))
        again = Report.from_json(rep.to_json())
        assert again == rep
        first, rec = again.diagnostics[0], res.diagnostics[0]
        assert (first["schur_dim"], first["equality_rows"]) == (69, 15)
        assert isinstance(first["basis_growth"], float) and first["basis_growth"] > 0.0
        assert [p["basis_growth"] for p in again.diagnostics] == [r.basis_growth for r in res.diagnostics]

    def test_row_blocks_round_trip(self):
        # x + y = 1 and z = w name disjoint moments at d = 1: two blocks of
        # rows, each with one kept row and one free moment
        x, y, z, w = (Polynomial.variable(i, 4) for i in range(4))
        f = (x - 1.0) * (x - 1.0) + (y - 2.0) * (y - 2.0) + (z - 1.0) * (z - 1.0) + w * w
        cons = [(x + y - 1.0, EQ), (z - w, EQ), (10.0 - x * x - y * y - z * z - w * w, GE)]
        res = run_hierarchy(f, cons, HierarchyOptions(d_max=2))
        rep = Report(problem={}, diagnostics=diagnostics_to_plain(res.diagnostics))
        again = Report.from_json(rep.to_json())
        assert again == rep and res.status_xi == 1
        assert again.diagnostics[0]["row_blocks"] == [[1, 1], [1, 1]]
        assert [p["row_blocks"] for p in again.diagnostics] == [
            [list(b) for b in rec.row_blocks] for rec in res.diagnostics]

    def test_environment_round_trip(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = environment()
        rep = Report(problem={}, environment=env)
        again = Report.from_json(rep.to_json())
        assert again == rep and again.environment == env
        assert env["numpy"] == np.__version__
        assert env["python"].count(".") == 2
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
        assert set(env["threads"]) == set(THREAD_VARS)
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert env["threads"]["MKL_NUM_THREADS"] is None

    def test_write_and_read(self, tmp_path):
        rep = _sample_report()
        path = tmp_path / "report.json"
        write_reports(path, rep)
        assert Report.from_json(path.read_text()) == rep
        write_reports(path, [rep, rep])
        assert [Report(**r) for r in json.loads(path.read_text())] == [rep, rep]
