"""The library entry point of a distance run, against the command line."""

import numpy as np
import pytest

import strata_opt
from strata_opt.cli import _tensor, main
from strata_opt.datasets import get_dataset
from strata_opt.mech import Sym2Tensor, Sym3Tensor
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
