"""The one distance form of the three strata: the Gram matrix Q against the
symbolic expansion of the tensor norm, the objective against the directly
formed distance, and the normal-form point x_ref against the stratum's own
membership test."""

import numpy as np
import pytest

from strata_opt.datasets import DATASETS
from strata_opt.mech import (
    ElasticityTensor,
    PiezoTensor,
    Sym2Tensor,
    build_distance_problem_ela,
    build_distance_problem_piezo,
    build_distance_problem_sym2,
    classify_sym2,
    is_cubic_ela,
    is_cubic_piezo,
)
from strata_opt.mech import _tensalg as ta
from strata_opt.mech.sym2 import DEVIATORIC_BASIS
from strata_opt.poly import Polynomial

from conftest import random_rotation


def _rotated(kind, voigt, g):
    """The dataset tensor rotated by g."""
    if kind == "sym2":
        return Sym2Tensor(mat=g @ voigt @ g.T)
    if kind == "elasticity":
        T = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, ElasticityTensor(voigt=voigt).full())
        return ElasticityTensor(voigt=ta.as_array(ta.voigt_from_full4(T)))
    T = np.einsum("ia,jb,kc,abc->ijk", g, g, g, PiezoTensor(voigt=voigt).full())
    return PiezoTensor(voigt=ta.as_array(ta.voigt_from_full3(T)))


def _sym2_norm2(x):
    A = [[sum(xk * float(b) for xk, b in zip(x, DEVIATORIC_BASIS[:, i, j])) for j in range(3)]
         for i in range(3)]
    return sum(A[i][j] * A[i][j] for i in range(3) for j in range(3))


# per stratum: builder, squared tensor norm of the reduced coordinates' tensor
# (the expansion the builders made before the objective came from Q), and
# the stratum's membership test on a Voigt matrix
STRATA = {
    "sym2": (build_distance_problem_sym2, _sym2_norm2,
             lambda V: classify_sym2(Sym2Tensor(mat=V)).label != "orthotropic"),
    "elasticity": (build_distance_problem_ela, lambda x: ta.norm2_voigt4(ta.h4_voigt(x)),
                   lambda V: is_cubic_ela(ElasticityTensor(voigt=V))),
    "piezo": (build_distance_problem_piezo,
              lambda x: ta.norm2_voigt3(ta.voigt_from_full3(ta.h3_full(x))),
              lambda V: is_cubic_piezo(PiezoTensor(voigt=V))),
}
FIRST = {"sym2": "a0", "elasticity": "E0", "piezo": "aln"}


def _problem(ds_id, rng):
    ds = DATASETS[ds_id]
    return STRATA[ds.kind][0](_rotated(ds.kind, ds.voigt, random_rotation(rng)))


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_gram_matrix_is_half_the_hessian_of_the_norm(kind, rng):
    prob = _problem(FIRST[kind], rng)
    n = prob.n
    p = STRATA[kind][1](Polynomial.variables(n))
    unit = np.eye(n, dtype=int)
    half_hessian = np.array([[p.coefficient(unit[k] + unit[l]) * (1.0 if k == l else 0.5)
                              for l in range(n)] for k in range(n)])
    scale = np.max(np.abs(half_hessian))
    np.testing.assert_allclose(prob.Q, half_hessian, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_objective_is_the_squared_tensor_distance(kind, rng):
    prob = _problem(FIRST[kind], rng)
    x0, Q = prob.x0, prob.Q
    for _ in range(20):
        x = x0 + rng.normal(size=prob.n) * np.max(np.abs(x0)) * 10.0 ** rng.uniform(-3, 1)
        direct = prob.tensor_distance(x) ** 2
        tol = 1e-12 * (1.0 + x @ Q @ x + x0 @ Q @ x0)
        assert abs(prob.offset + prob.objective.evaluate(x) - direct) <= tol


@pytest.mark.parametrize("ds_id", sorted(DATASETS))
def test_normal_form_point_lies_on_the_stratum(ds_id, rng):
    kind = DATASETS[ds_id].kind
    for _ in range(3):
        prob = _problem(ds_id, rng)
        x = prob.x_ref
        for g, _ in prob.constraints:
            terms = sum(abs(c) * np.prod(np.abs(x) ** np.array(a)) for a, c in g.terms.items())
            assert abs(g.evaluate(x)) <= 1e-12 * terms
        f = prob.objective
        assert f.evaluate(x) <= f.evaluate(np.zeros(prob.n))
        assert STRATA[kind][2](prob.minimizer_voigt(x))


def test_sym2_builds_share_their_equations():
    p1 = build_distance_problem_sym2(Sym2Tensor(mat=np.diag([1.0, 2.0, 4.0])))
    p2 = build_distance_problem_sym2(Sym2Tensor(mat=np.eye(3)))
    assert len(p1.constraints) == 10
    assert all(g1 is g2 for (g1, _), (g2, _) in zip(p1.constraints, p2.constraints))


@pytest.mark.parametrize("build, tensor", [
    (build_distance_problem_sym2, Sym2Tensor(mat=1e300 * np.diag([1.0, 1.0, -2.0]))),
    (build_distance_problem_ela, ElasticityTensor(voigt=1e200 * np.eye(6))),
])
def test_overflowing_squared_distance_is_refused(build, tensor):
    with pytest.raises(ValueError, match="squared distance overflows a double"):
        build(tensor)
