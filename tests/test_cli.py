import json

import numpy as np
import pytest

from strata_opt.cli import main
from strata_opt.reports import Report


class TestDatasetsCommand:
    def test_listing_has_all_entries(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("a0", "b", "E0", "aln", "cr0.10", "cr0.255"):
            assert name in out
        assert len([l for l in out.splitlines() if l and not l.startswith("id")]) == 12

    def test_show_prints_matrix(self, capsys):
        assert main(["datasets", "show", "cr0.10"]) == 0
        out = capsys.readouterr().out
        assert "1.771500" in out and "-0.591800" in out

    def test_show_e0(self, capsys):
        assert main(["datasets", "show", "E0"]) == 0
        out = capsys.readouterr().out
        assert "243.000000" in out and "GPa" in out

    def test_show_unknown_errors(self, capsys):
        assert main(["datasets", "show", "bogus"]) == 1


class TestDecomposeClassify:
    def test_decompose_e0(self, capsys):
        assert main(["decompose", "--dataset", "E0"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 1531.000000" in out
        assert "beta = 1479.000000" in out

    def test_decompose_aln(self, capsys):
        assert main(["decompose", "--dataset", "aln"]) == 0
        out = capsys.readouterr().out
        assert "|h|^2 = 2.736708" in out

    def test_decompose_isotropic_input(self, tmp_path, capsys):
        from strata_opt.mech import Sym2Tensor, tensor_prod_4

        E = tensor_prod_4(Sym2Tensor(mat=np.eye(3)), Sym2Tensor(mat=np.eye(3)))
        path = tmp_path / "iso.json"
        path.write_text(json.dumps({"kind": "elasticity", "units": "GPa",
                                    "voigt": E.voigt.tolist()}))
        assert main(["decompose", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        # zero deviatoric parts for a purely isotropic tensor
        d_block = out.split("d' =")[1].split("v' =")[0]
        assert set(d_block.split()) <= {"0.000000", "-0.000000"}

    def test_classify_a0(self, capsys):
        assert main(["classify", "--dataset", "a0"]) == 0
        assert "orthotropic" in capsys.readouterr().out

    def test_classify_b(self, capsys):
        assert main(["classify", "--dataset", "b"]) == 0
        assert "transversely_isotropic" in capsys.readouterr().out

    def test_classify_recomposed_cubic(self, tmp_path, capsys):
        from strata_opt.mech import (ElaHarmonic, H4Params, Sym2Tensor,
                                     harmonic_decompose_ela, recompose_ela)
        from strata_opt.datasets import get_dataset
        from strata_opt.mech import ElasticityTensor

        E0 = ElasticityTensor.from_voigt(get_dataset("E0").voigt)
        h0 = harmonic_decompose_ela(E0)
        zero = Sym2Tensor(mat=np.zeros((3, 3)))
        xstar = [-36.401489, -20.227012, -38.908985, -6.396664, 27.780748,
                 -2.277546, 44.251364, -4.557344, 21.161507]
        Estar = recompose_ela(ElaHarmonic(alpha=h0.alpha, beta=h0.beta, dprime=zero,
                                          vprime=zero, h4=H4Params.from_array(xstar)))
        path = tmp_path / "estar.json"
        path.write_text(json.dumps({"kind": "elasticity", "units": "GPa",
                                    "voigt": Estar.voigt.tolist()}))
        assert main(["classify", "--input", str(path), "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "at-least-cubic" in out
        assert "|d2'| / |H|^2" in out


class TestInputFiles:
    def test_asymmetric_elasticity_rejected(self, tmp_path, capsys):
        V = np.eye(6)
        V[0, 1] = 5.0  # asymmetric on purpose
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "elasticity", "units": "GPa", "voigt": V.tolist()}))
        assert main(["decompose", "--input", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_kind_stratum_mismatch(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "sym2", "units": "1",
                                    "voigt": np.eye(3).tolist()}))
        assert main(["distance", "--input", str(path), "--stratum", "cubic-ela"]) == 1

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "weird", "voigt": [[1]]}))
        assert main(["decompose", "--input", str(path)]) == 1

    def test_dataset_stratum_mismatch(self, capsys):
        assert main(["distance", "--dataset", "a0", "--stratum", "cubic-ela"]) == 1

    def test_zero_tensor_has_no_relative_distance(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "piezo", "voigt": np.zeros((3, 6)).tolist()}))
        report = tmp_path / "rep.json"
        argv = ["distance", "--input", str(path), "--stratum", "cubic-piezo", "--json", str(report)]
        assert main(argv) == 0
        assert "relative distance: n/a" in capsys.readouterr().out
        assert Report.from_json(report.read_text()).relative_distance is None

    SUBCOMMANDS = [["distance", "--stratum", "cubic-piezo"], ["classify"], ["decompose"]]

    @pytest.mark.parametrize("argv", SUBCOMMANDS)
    @pytest.mark.parametrize("text, message", [
        ("[1, 2, 3]", "expected a JSON object"),
        ('{"kind": "piezo", "voigt": {"a": 1}}', "voigt must be a matrix of numbers"),
    ])
    def test_malformed_file_rejected(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(argv + ["--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", SUBCOMMANDS)
    @pytest.mark.parametrize("value, text", [(float("nan"), "nan"), (float("-inf"), "-inf")])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, argv, value, text):
        voigt = np.arange(18.0).reshape(3, 6).tolist()
        voigt[1][2] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "piezo", "voigt": voigt}))
        assert main(argv + ["--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: tensor entries must be finite, got {text} at (1, 2)\n"


class TestPopSolve:
    def test_interval_problem(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin x^2\nge x\nge 1 - x\n")
        code = main(["pop-solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound     : 0.000000" in out
        assert "minimizer : (0.000" in out

    def test_two_minimizers(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin (x^2 - 1)^2\nball 3\n")
        code = main(["pop-solve", str(path), "--dmax", "4", "--json",
                     str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("minimizer : (") == 2
        rep = Report.from_json((tmp_path / "rep.json").read_text())
        assert rep.status_xi == 1
        assert rep.environment["numpy"] == np.__version__
        got = sorted(v[0] for v in rep.minimizers_voigt)
        assert got[0] == pytest.approx(-1.0, abs=1e-5)
        assert got[1] == pytest.approx(1.0, abs=1e-5)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("min x\n")
        assert main(["pop-solve", str(path)]) == 1

    @pytest.mark.parametrize("text", ["var x\nmin 1e999*x^2 + x\nball 10\n",
                                      "var x\nmin x^2\nge 1e400 - x^2\n",
                                      "var x\nmin x^2\nge 1e200*1e200*x\n"])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, text):
        import warnings

        path = tmp_path / "p.pop"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from an inf coefficient
            assert main(["pop-solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "overflows a double" in err
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        assert main(["pop-solve", "/nonexistent.pop"]) == 1

    @pytest.mark.parametrize("text", ["var x\nmin x^2 + 1\nball 1e-300\n",
                                      "var x\nmin x^2 + 5\nball 1\n",
                                      "var x\nmin x^2\nge -1\n"])
    def test_infeasible_problem_fails_without_warnings(self, tmp_path, capsys, text):
        """The IPM's iterates overflow on these infeasible problems: every
        order ends in numerical_failure, exit 3, with no warning or error."""
        import warnings

        path = tmp_path / "p.pop"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pop-solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert "Warning" not in err and "error:" not in err

    @pytest.mark.parametrize("text, message", [
        ("var x\nmin x^2\nball 3\nball 5\n", "line 4: duplicate ball statement"),
        ("var x\nmin (x\n", "line 2: expected ')', got end of line"),
    ])
    def test_input_check_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "p.pop"
        path.write_text(text)
        assert main(["pop-solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_archimedean_warning_without_ball(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin x^2\nge x\nge 1 - x\n")
        main(["pop-solve", str(path)])
        assert "Archimedean" in capsys.readouterr().err

    def test_tolerance_flags_accepted(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin x^2\nge x\nge 1 - x\n")
        code = main(["pop-solve", str(path), "--gap-tol", "1e-9",
                     "--feas-tol", "1e-9", "--rank-eps", "1e-5"])
        assert code == 0

    @pytest.mark.parametrize("flag, value, name", [("--rank-eps", "inf", "rank_eps"),
                                                   ("--feas-tol", "0", "feas_tol")])
    def test_invalid_tolerance_rejected(self, tmp_path, capsys, flag, value, name):
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin x^2\nge x\nge 1 - x\nball 2\n")
        assert main(["pop-solve", str(path), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and "Traceback" not in err

    def test_huge_order_refused_before_assembly(self, tmp_path, capsys, monkeypatch):
        import strata_opt.hierarchy as hierarchy

        def no_assembly(*args):
            raise AssertionError("assembled a relaxation that the memory estimate refuses")

        monkeypatch.setattr(hierarchy, "assemble_relaxation", no_assembly)
        monkeypatch.setattr(hierarchy, "_available_bytes", lambda: 64.0 * 2**30)
        path = tmp_path / "p.pop"
        names = " ".join(f"x{i}" for i in range(10))
        path.write_text(f"var {names}\nmin x1^60 + x2^2\nball 10\n")  # d0 = 30
        assert main(["pop-solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "d=30 needs an estimated" in err and "MB" in err

    def test_uncertified_exit_code_two(self, tmp_path, capsys):
        # flatness cannot hold at the first order of the double well when the
        # ball forces v = 2; stopping there leaves status 0 -> exit code 2
        path = tmp_path / "p.pop"
        path.write_text("var x\nmin (x^2 - 1)^2\nball 3\n")
        assert main(["pop-solve", str(path), "--dmax", "2"]) == 2

    def test_generated_reference_problem(self, tmp_path, capsys):
        # the transverse-isotropy distance problem written out as a file
        from strata_opt.datasets import get_dataset
        from strata_opt.mech import Sym2Tensor, build_distance_problem_sym2
        from strata_opt.popfile import PopProblem, format_pop

        a0 = Sym2Tensor.from_matrix(get_dataset("a0").voigt)
        dp = build_distance_problem_sym2(a0)
        pop = PopProblem(var_names=dp.var_names, objective=dp.objective,
                         constraints=list(dp.constraints), ball=300.0)
        path = tmp_path / "ti.pop"
        path.write_text(format_pop(pop))
        code = main(["pop-solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound     : 18.0000" in out


class TestDistanceCommand:
    def test_e0_run_with_report(self, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        code = main(["distance", "--dataset", "E0", "--stratum", "cubic-ela",
                     "--c", "58000", "--json", str(rep_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status xi        : +1" in out
        rep = Report.from_json(rep_path.read_text())
        assert rep.status_xi == 1
        assert rep.bound == pytest.approx(2530.474727, abs=0.5)
        assert rep.distance == pytest.approx(74.131148, abs=0.05)
        assert rep.relative_distance == pytest.approx(0.103910, abs=1e-4)
        # report invariant: distance recomputed from offset + bound, and
        # cross-checked against the direct norm |T0 - T*|
        assert rep.distance == pytest.approx(
            np.sqrt(max(0.0, rep.problem["offset"] + rep.bound)), abs=1e-9
        )
        norm_ref = np.sqrt(rep.distance**2 / rep.relative_distance**2)
        assert rep.residuals["distance_consistency"] <= 1e-4 * (1 + norm_ref)
        assert rep.environment["numpy"] == np.__version__

    def test_a0_transverse_isotropy_run(self, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        code = main(["distance", "--dataset", "a0", "--stratum", "O2",
                     "--c", "300", "--json", str(rep_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status xi        : +1" in out
        rep = Report.from_json(rep_path.read_text())
        assert rep.bound == pytest.approx(18.0, abs=1e-3)  # squared distance
        assert rep.distance == pytest.approx(np.sqrt(18.0), abs=1e-4)

    @pytest.mark.parametrize("scale", [1e-2, 1e2])
    def test_o2_auto_ball_constant(self, tmp_path, capsys, scale):
        # a rotated and scaled a0 under --c auto: the reference point is the
        # merged-eigenvalue tensor in deviator coordinates
        from strata_opt.datasets import get_dataset

        from conftest import random_rotation

        g = random_rotation(np.random.default_rng(11))
        a = scale * g @ get_dataset("a0").voigt @ g.T
        a = 0.5 * (a + a.T)
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "sym2", "voigt": a.tolist()}))
        rep_path = tmp_path / "rep.json"
        code = main(["distance", "--input", str(path), "--stratum", "O2",
                     "--json", str(rep_path)])
        assert code == 0
        rep = Report.from_json(rep_path.read_text())
        assert rep.bound == pytest.approx(18.0 * scale**2, abs=1e-3 * scale**2)
        closest = np.array(rep.minimizers_voigt[0])
        assert closest.shape == (3, 3)
        assert np.trace(closest) == pytest.approx(np.trace(a), abs=1e-9 * scale)
        first = rep.diagnostics[0]
        assert (first["d"], first["num_moments"], first["block_sides"]) == (2, 126, [21, 6])

    def test_auto_ball_constant(self, capsys):
        code = main(["distance", "--dataset", "aln", "--stratum", "cubic-piezo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status xi        : +1" in out

    def test_batch_with_jobs(self, tmp_path, capsys):
        rep_path = tmp_path / "batch.json"
        code = main(["distance", "--dataset", "aln,cr0.10", "--stratum",
                     "cubic-piezo", "--jobs", "2", "--json", str(rep_path)])
        assert code == 0
        reports = json.loads(rep_path.read_text())
        assert isinstance(reports, list) and len(reports) == 2
        assert [r["problem"]["input"] for r in reports] == ["aln", "cr0.10"]
        assert all(r["status_xi"] == 1 for r in reports)

    def test_seed_env_override_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STRATA_OPT_SEED", "17")
        rep_path = tmp_path / "rep.json"
        code = main(["distance", "--dataset", "aln", "--stratum", "cubic-piezo",
                     "--c", "3", "--json", str(rep_path)])
        assert code == 0
        rep = Report.from_json(rep_path.read_text())
        assert rep.problem["seed"] == 17
        assert rep.diagnostics[-1]["extraction_seeds"][0] == 17

    def test_usage_error_exit_code(self, capsys):
        assert main(["distance", "--stratum", "cubic-ela"]) == 1
        assert main(["distance", "--dataset", "E0"]) == 1

    def test_ball_constant_below_reference_rejected(self, capsys):
        code = main(["distance", "--dataset", "E0", "--stratum", "cubic-ela",
                     "--c", "1"])
        assert code == 1
        assert "does not dominate" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_ball_constant_rejected(self, capsys, c):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from the row scaling
            code = main(["distance", "--dataset", "aln", "--stratum", "cubic-piezo", "--c", c])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ball constant must be finite and positive, got c={c}\n"

    @pytest.mark.parametrize("flag, value, name", [("--rank-eps", "2", "rank_eps"),
                                                   ("--gap-tol", "nan", "gap_tol")])
    def test_invalid_tolerance_rejected(self, capsys, flag, value, name):
        code = main(["distance", "--dataset", "aln", "--stratum", "cubic-piezo", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and "Traceback" not in err

    def test_pa_scale_input_certifies(self, tmp_path, capsys):
        # stiffness given in Pa instead of GPa: coordinate normalization
        # keeps the solve well conditioned
        from strata_opt.datasets import get_dataset

        V = (1e9 * get_dataset("E0").voigt).tolist()
        path = tmp_path / "pa.json"
        path.write_text(json.dumps({"kind": "elasticity", "units": "Pa", "voigt": V}))
        rep_path = tmp_path / "rep.json"
        code = main(["distance", "--input", str(path), "--stratum", "cubic-ela",
                     "--json", str(rep_path)])
        assert code == 0
        rep = Report.from_json(rep_path.read_text())
        assert rep.distance == pytest.approx(74.131148e9, rel=1e-4)
        assert rep.relative_distance == pytest.approx(0.103910, abs=1e-4)


class TestHugeTensors:
    """Entries near the largest double: classify reads the class off the
    tensor scaled to unit size, and distance refuses a squared distance that
    overflows, with no warning on the way."""

    SYM2 = {"kind": "sym2", "voigt": (1e300 * np.diag([1.0, 1.0, -2.0])).tolist()}
    ELA = {"kind": "elasticity", "voigt": (1e200 * np.eye(6)).tolist()}

    def _run(self, tmp_path, capsys, data, argv):
        import warnings

        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--input", str(path)])
        out, err = capsys.readouterr()
        assert "Warning" not in err and "Traceback" not in err
        return code, out, err

    def test_classify_transversely_isotropic(self, tmp_path, capsys):
        code, out, _ = self._run(tmp_path, capsys, self.SYM2, ["classify"])
        assert code == 0
        assert "class: transversely_isotropic" in out and "nan" not in out

    def test_classify_cubic_elasticity(self, tmp_path, capsys):
        code, out, _ = self._run(tmp_path, capsys, self.ELA, ["classify"])
        assert code == 0
        assert "class: at-least-cubic" in out and "nan" not in out

    @pytest.mark.parametrize("data, stratum", [(SYM2, "O2"), (ELA, "cubic-ela")])
    def test_distance_refuses_overflow(self, tmp_path, capsys, data, stratum):
        code, _, err = self._run(tmp_path, capsys, data, ["distance", "--stratum", stratum])
        assert code == 1
        assert err == "error: the squared distance overflows a double\n"

    def test_classify_zero_elasticity_tensor(self, tmp_path, capsys):
        data = {"kind": "elasticity", "voigt": np.zeros((6, 6)).tolist()}
        code, out, _ = self._run(tmp_path, capsys, data, ["classify"])
        assert code == 0 and "class: at-least-cubic" in out
