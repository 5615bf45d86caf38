"""The library's entry points, against the command line."""

import re

import numpy as np
import pytest

import strata_opt
from strata_opt.cli import _tensor, main
from strata_opt.datasets import get_dataset
from strata_opt.mech import ElasticityTensor, PiezoTensor, Sym2Tensor, Sym3Tensor
from strata_opt.reports import Report


def _dataset_tensor(ds_id):
    ds = get_dataset(ds_id)
    return _tensor(ds.kind, ds.voigt)


def _without_times(report: Report) -> dict:
    plain = vars(Report.from_json(report.to_json()))
    plain.pop("seconds")
    for rec in plain["diagnostics"]:
        rec.pop("seconds")
    return plain


@pytest.mark.parametrize("ds_id, stratum", [("E0", "cubic-ela"), ("a0", "O2"),
                                            ("aln", "cubic-piezo")])
def test_cli_report_is_the_library_report(tmp_path, capsys, ds_id, stratum):
    path = tmp_path / "rep.json"
    assert main(["distance", "--dataset", ds_id, "--stratum", stratum, "--json", str(path)]) == 0
    cli = Report.from_json(path.read_text())
    lib = strata_opt.distance(_dataset_tensor(ds_id))
    assert lib.problem["input"] is None and cli.problem["input"] == ds_id
    lib.problem["input"] = ds_id
    assert _without_times(cli) == _without_times(lib)
    # --c auto: 1.5 f(x_ref) at the normal-form point, the same in both
    assert cli.problem["c"] == lib.problem["c"] > 0.0


def test_stratum_follows_the_tensor_type():
    report = strata_opt.distance(Sym2Tensor.from_matrix(get_dataset("a0").voigt))
    assert (report.problem["stratum"], report.problem["kind"]) == ("O2", "sym2")
    with pytest.raises(TypeError, match="no stratum for a Sym3Tensor"):
        strata_opt.distance(Sym3Tensor(full=np.zeros((3, 3, 3))))


def test_order_rule():
    aln = _dataset_tensor("aln")
    assert strata_opt.distance(aln).problem["d_max"] == 2    # d0 + 1
    assert strata_opt.distance(aln, d_max=0).problem["d_max"] == 1  # raised to d0
    assert strata_opt.distance(aln, d_max=3).problem["d_max"] == 3


def test_given_ball_constant_is_kept_and_checked():
    E0 = _dataset_tensor("E0")
    report = strata_opt.distance(E0, c=58000)
    assert report.problem["c"] == 58000.0 and report.status_xi == 1
    assert report.distance == pytest.approx(74.131148, abs=5e-5)
    with pytest.raises(ValueError, match="does not dominate"):
        strata_opt.distance(E0, c=1.0)


@pytest.mark.parametrize("ds_id", ["a0", "E0", "aln"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entry_refused_with_its_index(ds_id, value):
    """The library refuses a tensor entry that is not finite as the command
    line does, naming the entry, before its distance problem is built."""
    tensor = _dataset_tensor(ds_id)
    field = "mat" if isinstance(tensor, Sym2Tensor) else "voigt"
    array = np.array(getattr(tensor, field))
    array[1, 2] = value
    with pytest.raises(ValueError, match=rf"^tensor entries must be finite, got {value} at \(1, 2\)"):
        strata_opt.distance(type(tensor)(**{field: array}))


# the CLI's kind of each tensor type, and the name of its matrix field
TYPES = {"sym2": ("a0", "mat"), "elasticity": ("E0", "voigt"), "piezo": ("aln", "voigt")}


def _cli_error(tmp_path, capsys, kind, voigt) -> str:
    """What decompose prints on stderr for a tensor file of this kind and matrix."""
    import json

    path = tmp_path / "t.json"
    path.write_text(json.dumps({"kind": kind, "voigt": np.asarray(voigt).tolist()}))
    assert main(["decompose", "--input", str(path)]) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("kind, scale, raise_by", [("sym2", 1.0, 50.0), ("elasticity", 1.0, 50.0),
                                                   ("elasticity", 1e-12, 1e-10)])
def test_asymmetric_tensor_refused_as_by_the_command_line(tmp_path, capsys, kind, scale, raise_by):
    """The constructor refuses an asymmetry above 1e-9 of the largest |entry|
    with the CLI's message, and so does from_voigt / from_matrix: E0 scaled by
    1e-12 with V[0, 1] raised by 1e-10 (100 times the tensor) is refused too."""
    ds_id, field = TYPES[kind]
    voigt = scale * np.array(get_dataset(ds_id).voigt)
    voigt[0, 1] += raise_by
    cls = type(_dataset_tensor(ds_id))
    with pytest.raises(ValueError) as refused:
        cls(**{field: voigt})
    assert _cli_error(tmp_path, capsys, kind, voigt) == f"error: {refused.value}\n"
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        (cls.from_matrix if kind == "sym2" else cls.from_voigt)(voigt)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        strata_opt.distance(cls(**{field: voigt}))


@pytest.mark.parametrize("kind", sorted(TYPES))
@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (-np.inf, "-inf")])
def test_non_finite_entry_refused_by_each_constructor(tmp_path, capsys, kind, value, text):
    """NaN and -inf are refused before any arithmetic on the entries, so no
    RuntimeWarning is raised on the way, with the CLI's message."""
    import warnings

    ds_id, field = TYPES[kind]
    voigt = np.array(get_dataset(ds_id).voigt)
    voigt[1, 2] = value
    message = f"tensor entries must be finite, got {text} at (1, 2)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            type(_dataset_tensor(ds_id))(**{field: voigt})
    assert _cli_error(tmp_path, capsys, kind, voigt) == f"error: {message}\n"


def _isotropic_elasticity(lam, mu):
    voigt = np.diag([2 * mu] * 3 + [mu] * 3)
    voigt[:3, :3] += lam
    return voigt


@pytest.mark.parametrize("tensor", [Sym2Tensor(mat=2.0 * np.eye(3)),
                                    ElasticityTensor(voigt=_isotropic_elasticity(3.0, 1.5)),
                                    PiezoTensor(voigt=np.zeros((3, 6)))],
                         ids=["2I", "isotropic-elasticity", "zero-piezo"])
def test_input_on_its_stratum_is_certified_exactly(tensor):
    """f(x_ref) <= 0 under c = "auto": x_ref is feasible and f >= 0, so the
    distance is certified at exactly 0 with no relaxation, and the closest
    tensor is the input."""
    report = strata_opt.distance(tensor)
    assert report.status_xi == 1
    assert report.bound == 0.0 and report.distance == 0.0
    assert report.problem["c"] is None and report.diagnostics == []
    field = "mat" if isinstance(tensor, Sym2Tensor) else "voigt"
    np.testing.assert_allclose(report.minimizers_voigt[0], getattr(tensor, field), atol=1e-14)
    assert report.residuals["distance_consistency"] <= 1e-15
    with pytest.raises(ValueError, match="rank_eps must lie in"):  # no solve, same checks
        strata_opt.distance(tensor, rank_eps=2.0)


POP_FILES = {  # the problem files that the command-line CI step solves with --json
    "two-minimizers": (["var x", "min (x^2 - 1)^2", "ball 3"], ["--dmax", "4"]),
    "dependent-rows": (["var x y", "min (x - 1)^2 + (y - 2)^2", "eq x + y - 1",
                        "eq 2*x + 2*y - 2", "ball 10"], []),
    "kernel-route": (["var x y z w", "min x^4 + y^4 + z^4 + w^4 + (x - 1)^2 + (y + 1)^2 + z^2 + w^2",
                      "eq x + y + z + w - 1", "ball 10"], []),
    "two-row-blocks": (["var x y z w", "min (x - 1)^2 + (y + 1)^2 + (z - 2)^2 + w^2",
                        "eq x + y - 1", "eq z - w", "ball 10"], []),
}


@pytest.mark.parametrize("name", sorted(POP_FILES))
def test_pop_solve_report_is_the_command_line_report(tmp_path, capsys, name):
    from strata_opt.popfile import parse_pop

    lines, flags = POP_FILES[name]
    path, rep = tmp_path / "p.pop", tmp_path / "rep.json"
    path.write_text("\n".join(lines) + "\n")
    assert main(["pop-solve", str(path), *flags, "--json", str(rep)]) == 0
    cli = Report.from_json(rep.read_text())
    d_max = int(flags[1]) if flags else None
    lib = strata_opt.pop_solve(parse_pop(path.read_text()), d_max=d_max)
    assert lib.status_xi == 1
    assert lib.problem["file"] is None and cli.problem["file"] == str(path)
    lib.problem["file"] = str(path)
    assert _without_times(cli) == _without_times(lib)
