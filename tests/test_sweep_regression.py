"""Pinned stratum distances for the wurtzite concentration sweep.

The expected values were frozen from certified hierarchy runs.  Acceptance
criterion 4 (`tests/test_acceptance.py`) confirms them by two routes that do
not go through the bound: the extracted minimizer is a cubic tensor at that
distance, and a Nelder-Mead search over the cubic orbit t R*h_c, which shares
no code with the moment machinery, reaches each value within 5e-7.  So any
future drift here is a real regression.
"""

import numpy as np
import pytest

from strata_opt import distance
from strata_opt.datasets import CR_SWEEP, get_dataset
from strata_opt.mech import PiezoTensor

VERIFIED = {
    "aln": (1.214679, 0.684254),
    "cr0.035": (1.267516, 0.704808),
    "cr0.07": (1.356271, 0.724450),
    "cr0.10": (1.535066, 0.782210),
    "cr0.13": (1.534077, 0.754200),
    "cr0.16": (1.658717, 0.789942),
    "cr0.19": (1.846029, 0.810875),
    "cr0.225": (1.868767, 0.777511),
    "cr0.255": (1.934046, 0.748621),
}


@pytest.mark.parametrize("ds_id", CR_SWEEP)
def test_certified_sweep_distance(ds_id):
    e0 = PiezoTensor(voigt=np.array(get_dataset(ds_id).voigt))
    report = distance(e0, d_max=2)
    assert report.status_xi == 1
    d_exp, r_exp = VERIFIED[ds_id]
    assert report.distance == pytest.approx(d_exp, abs=5e-5)
    assert report.distance / e0.norm() == pytest.approx(r_exp, abs=5e-5)
