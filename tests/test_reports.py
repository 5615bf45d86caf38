import numpy as np

from strata_opt.hierarchy import HierarchyOptions, run_hierarchy
from strata_opt.moment import EQ, GE
from strata_opt.poly import Polynomial
from strata_opt.reports import THREAD_VARS, Report, diagnostics_to_plain, environment


def _sample_report():
    return Report(
        problem={"command": "distance", "input": "E0", "stratum": "cubic-ela",
                 "c": 58000.0, "voigt": np.eye(2)},
        diagnostics=[{"d": 1, "solver_status": "optimal", "objective": np.float64(2530.47),
                      "schur_dim": 54, "equality_rows": 5, "linear_rows": 1,
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
        for plain, rec in zip(again.diagnostics, res.diagnostics):
            assert ((plain["schur_dim"], plain["equality_rows"], plain["linear_rows"])
                    == (rec.schur_dim, rec.equality_rows, rec.linear_rows))
            assert plain["seconds"] == rec.seconds
        # the certified order went through every phase
        assert set(again.diagnostics[-1]["seconds"]) == {"assemble", "solve", "rank", "extract"}
        assert all(v >= 0.0 for v in again.diagnostics[-1]["seconds"].values())
        assert again.diagnostics[-1]["max_violation_before_projection"] >= 0.0

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
        rep.write(path)
        assert Report.from_json(path.read_text()) == rep
