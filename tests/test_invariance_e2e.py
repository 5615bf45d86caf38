"""End-to-end invariance of the certified distances.

The stratum distance is invariant under rotating the input tensor and
scales linearly with it; both facts exercise every layer at once
(decomposition, covariant constraints, assembly, solver, certification).
"""

import numpy as np
import pytest

from strata_opt import distance
from strata_opt.mech import ElasticityTensor, PiezoTensor
from strata_opt.mech._tensalg import voigt_from_full3, voigt_from_full4

from conftest import random_rotation


def _run(tensor):
    report = distance(tensor, d_max=2)
    assert report.status_xi == 1
    return report.distance


def _rotate_ela(E: ElasticityTensor, g: np.ndarray) -> ElasticityTensor:
    T = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, E.full())
    return ElasticityTensor.from_voigt(np.array(voigt_from_full4(T)), tol=1e-9)


def _rotate_piezo(e: PiezoTensor, g: np.ndarray) -> PiezoTensor:
    T = np.einsum("ia,jb,kc,abc->ijk", g, g, g, e.full())
    return PiezoTensor(voigt=np.array(voigt_from_full3(T)))


class TestRotationInvariance:
    def test_elasticity_distance(self, E0, rng):
        base = _run(E0)
        for _ in range(3):
            g = random_rotation(rng)
            rotated = _run(_rotate_ela(E0, g))
            assert rotated == pytest.approx(base, abs=5e-5)

    def test_piezo_distance(self, e0_aln, rng):
        base = _run(e0_aln)
        for _ in range(3):
            g = random_rotation(rng)
            rotated = _run(_rotate_piezo(e0_aln, g))
            assert rotated == pytest.approx(base, abs=5e-5)


class TestScaleCovariance:
    # with coordinate normalization the solve is unit-agnostic: stiffness in
    # Pa (1e9 larger than GPa) certifies as cleanly as the reference units

    def test_elasticity_distance_scales_linearly(self, E0):
        base = _run(E0)
        for s in (1e-3, 1e3, 1e9):
            scaled = ElasticityTensor(voigt=s * E0.voigt)
            d = _run(scaled)
            assert d == pytest.approx(s * base, rel=2e-5)

    def test_piezo_distance_scales_linearly(self, e0_aln):
        base = _run(e0_aln)
        for s in (0.01, 100.0, 1e6):
            scaled = PiezoTensor(voigt=s * e0_aln.voigt)
            d = _run(scaled)
            assert d == pytest.approx(s * base, rel=2e-5)
