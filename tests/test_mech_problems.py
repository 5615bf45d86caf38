"""The one distance form of the three strata: the projection's x0, fixed part
and offset against the harmonic splits, the Gram matrix Q against the
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
    cross_gen,
    d2prime_ela,
    d2prime_piezo,
    deviatoric_coordinates,
    h3_coordinates,
    h4_coordinates,
    harmonic_decompose_ela,
    is_cubic_ela,
    is_cubic_piezo,
    piezo_harmonic_part,
)
from strata_opt.mech import _tensalg as ta
from strata_opt.mech.elasticity import _h4_basis, _isotropic_voigt
from strata_opt.mech.piezo import _h3_basis
from strata_opt.mech.sym2 import DEVIATORIC_BASIS
from strata_opt.poly import Polynomial

from conftest import random_rotation


def _rotated(kind, voigt, g):
    """The dataset tensor rotated by g."""
    if kind == "sym2":
        return Sym2Tensor(mat=g @ voigt @ g.T)
    if kind == "elasticity":
        T = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, ElasticityTensor(voigt=voigt).full())
        return ElasticityTensor(voigt=ta.voigt_from_full4(T))
    T = np.einsum("ia,jb,kc,abc->ijk", g, g, g, PiezoTensor(voigt=voigt).full())
    return PiezoTensor(voigt=ta.voigt_from_full3(T))


def _norm2_over_symbols(basis, full):
    """|sum_k x_k basis[k]|^2 expanded over Polynomial symbols, summed over
    every entry of the full tensor: the expansion the builders made before
    the objective came from Q."""
    x = Polynomial.variables(len(basis))
    T = full(sum(b * xk for xk, b in zip(x, basis)))  # an object array of Polynomials
    return sum(t * t for t in T.ravel())


# per stratum: builder, squared tensor norm of the reduced coordinates' tensor,
# and the stratum's membership test on a Voigt matrix
STRATA = {
    "sym2": (build_distance_problem_sym2, lambda: _norm2_over_symbols(DEVIATORIC_BASIS, np.asarray),
             lambda V: classify_sym2(Sym2Tensor(mat=V)).label != "orthotropic"),
    "elasticity": (build_distance_problem_ela,
                   lambda: _norm2_over_symbols(_h4_basis(), ta.full4_from_voigt),
                   lambda V: is_cubic_ela(ElasticityTensor(voigt=V))),
    "piezo": (build_distance_problem_piezo,
              lambda: _norm2_over_symbols(_h3_basis(), ta.full3_from_voigt),
              lambda V: is_cubic_piezo(PiezoTensor(voigt=V))),
}
FIRST = {"sym2": "a0", "elasticity": "E0", "piezo": "aln"}


def _problem(ds_id, rng):
    ds = DATASETS[ds_id]
    return STRATA[ds.kind][0](_rotated(ds.kind, ds.voigt, random_rotation(rng)))


def _ela_split(E):
    h = harmonic_decompose_ela(E)
    dp, vp = h.dprime.mat, h.vprime.mat
    offset = 2.0 / 21.0 * np.sum((dp + 2 * vp) ** 2) + 4.0 / 3.0 * np.sum((dp - vp) ** 2)
    return h4_coordinates(h.h4.voigt), _isotropic_voigt(h.alpha, h.beta), offset


def _piezo_split(e):
    split = piezo_harmonic_part(e)
    return h3_coordinates(split.h.full()), np.zeros((3, 6)), split.g.norm2()


# per stratum: x0, the fixed part and the offset from the harmonic split that
# decompose and classify use (the builders' own formulas before the projection)
SPLITS = {
    "sym2": lambda a: (deviatoric_coordinates(a), a.trace() / 3.0 * np.eye(3), 0.0),
    "elasticity": _ela_split,
    "piezo": _piezo_split,
}


@pytest.mark.parametrize("ds_id", sorted(DATASETS))
def test_projection_agrees_with_the_harmonic_split(ds_id, rng):
    kind = DATASETS[ds_id].kind
    for _ in range(5):
        T = _rotated(kind, DATASETS[ds_id].voigt, random_rotation(rng))
        prob = STRATA[kind][0](T)
        x0, fixed, offset = SPLITS[kind](T)
        nrm = T.norm()
        assert np.max(np.abs(prob.x0 - x0)) <= 1e-15 * nrm
        assert np.max(np.abs(prob.fixed - fixed)) <= 1e-15 * nrm
        assert abs(prob.offset - offset) <= 1e-15 * nrm**2
    if kind == "sym2":
        assert prob.offset == 0.0  # nothing is dropped: the complement is empty


# per stratum: a tensor on the free part from two random coefficients
ON_FREE = {
    "sym2": lambda alpha, beta: Sym2Tensor(mat=alpha * np.eye(3)),
    "elasticity": lambda alpha, beta: ElasticityTensor(voigt=_isotropic_voigt(alpha, beta)),
    "piezo": lambda alpha, beta: PiezoTensor(voigt=np.zeros((3, 6))),  # nothing is free
}


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_input_on_the_free_part_has_zero_coordinates(kind, rng):
    """x0 is exactly zero, not rounding noise, so natural_scale is 1."""
    for _ in range(5):
        prob = STRATA[kind][0](ON_FREE[kind](*rng.normal(size=2) * 100.0))
        assert not prob.x0.any() and prob.natural_scale == 1.0


@pytest.mark.parametrize("kind", sorted(STRATA))
@pytest.mark.parametrize("j", [-100, 0, 100, 600])
def test_input_on_the_free_part_has_offset_zero(kind, j, rng):
    """The complement's rounding reads zero too, so the offset is exactly 0
    at every scale: at 2^600 its noise squared used to overflow."""
    for _ in range(5):
        T = ON_FREE[kind](*rng.normal(size=2) * 100.0)
        voigt = T.mat if kind == "sym2" else T.voigt
        prob = STRATA[kind][0](type(T)(np.ldexp(voigt, j)))
        assert prob.offset == 0.0 and not prob.x0.any()


def test_huge_tensor_on_the_free_part_is_not_refused():
    """Its squared distance is 0, and the underflow test does not overflow."""
    prob = build_distance_problem_sym2(Sym2Tensor(mat=1e300 * np.eye(3)))
    assert prob.offset == 0.0 and not prob.x0.any()


@pytest.mark.parametrize("kind", sorted(STRATA))
@pytest.mark.parametrize("j", [-300, -40, 40, 300])
def test_scaling_by_a_power_of_two_is_exact(kind, j, rng):
    """Both inputs project the same tensor scaled to unit size, so x0 and
    the fixed part scale by exactly 2^j and the offset by 4^j."""
    T = _rotated(kind, DATASETS[FIRST[kind]].voigt, random_rotation(rng))
    voigt = T.mat if kind == "sym2" else T.voigt
    prob = STRATA[kind][0](T)
    scaled = STRATA[kind][0](type(T)(np.ldexp(voigt, j)))
    np.testing.assert_array_equal(scaled.x0, np.ldexp(prob.x0, j))
    np.testing.assert_array_equal(scaled.fixed, np.ldexp(prob.fixed, j))
    assert scaled.offset == np.ldexp(prob.offset, 2 * j)


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_gram_matrix_is_half_the_hessian_of_the_norm(kind, rng):
    prob = _problem(FIRST[kind], rng)
    n = prob.n
    p = STRATA[kind][1]()
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
            terms = np.abs(g.coeffs) @ np.prod(np.abs(x) ** g.exponents, axis=1)
            assert abs(g.evaluate(x)) <= 1e-12 * terms
        f = prob.objective
        assert f.evaluate(x) <= f.evaluate(np.zeros(prob.n))
        assert STRATA[kind][2](prob.minimizer_voigt(x))


def _transverse_covariant(x):
    a = Sym2Tensor(mat=np.einsum("k,kij->ij", x, DEVIATORIC_BASIS))
    return cross_gen(Sym2Tensor(mat=a.mat @ a.mat), a).components


# per stratum: the numeric covariant at x, in the order of the equations
COVARIANTS = {
    "sym2": _transverse_covariant,
    "elasticity": lambda x: d2prime_ela(ElasticityTensor(ta.h4_voigt(x))).mat[ta.DEV_ROWS, ta.DEV_COLS],
    "piezo": lambda x: d2prime_piezo(PiezoTensor.from_full(ta.h3_full(x))).mat[ta.DEV_ROWS, ta.DEV_COLS],
}


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_equations_are_the_numeric_covariant(kind, rng):
    """The equations come from coefficient tensors, the covariant from the
    point's own tensor: both must give the same values."""
    prob = _problem(FIRST[kind], rng)
    for _ in range(20):
        x = rng.normal(size=prob.n)
        expected = COVARIANTS[kind](x)
        values = np.array([g.evaluate(x) for g, _ in prob.constraints])
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_sym2_builds_share_their_equations():
    p1 = build_distance_problem_sym2(Sym2Tensor(mat=np.diag([1.0, 2.0, 4.0])))
    p2 = build_distance_problem_sym2(Sym2Tensor(mat=np.eye(3)))
    assert len(p1.constraints) == 10
    assert all(g1 is g2 for (g1, _), (g2, _) in zip(p1.constraints, p2.constraints))


@pytest.mark.parametrize("build, tensor", [
    (build_distance_problem_sym2, Sym2Tensor(mat=1e300 * np.diag([1.0, 1.0, -2.0]))),
    (build_distance_problem_ela, ElasticityTensor(voigt=1e200 * np.eye(6))),
    (build_distance_problem_piezo, PiezoTensor(voigt=np.full((3, 6), 1e200))),
    (build_distance_problem_sym2, Sym2Tensor(mat=1e-165 * np.array(DATASETS["a0"].voigt))),
    (build_distance_problem_ela, ElasticityTensor(voigt=1e-165 * np.array(DATASETS["E0"].voigt))),
    (build_distance_problem_piezo, PiezoTensor(voigt=1e-165 * np.array(DATASETS["aln"].voigt))),
])
def test_overflowing_squared_distance_is_refused(build, tensor):
    """Huge tensors overflow and tiny ones underflow: both are refused."""
    huge = np.max(np.abs(tensor.mat if isinstance(tensor, Sym2Tensor) else tensor.voigt)) > 1.0
    word = "overflows" if huge else "underflows"
    with pytest.raises(ValueError, match=f"squared distance {word} a double"):
        build(tensor)


CUBIC_ELA = np.array([[250.0, 100, 100, 0, 0, 0], [100, 250, 100, 0, 0, 0],
                      [100, 100, 250, 0, 0, 0], [0, 0, 0, 60, 0, 0],
                      [0, 0, 0, 0, 60, 0], [0, 0, 0, 0, 0, 60]])
CUBIC_PIEZO = PiezoTensor.from_full(ta.h3_full(np.eye(7)[3])).voigt  # h123 alone


IS_CUBIC = {
    "elasticity": lambda V, strict: is_cubic_ela(ElasticityTensor(voigt=V), strict=strict),
    "piezo": lambda V, strict: is_cubic_piezo(PiezoTensor(voigt=V), strict=strict),
}


@pytest.mark.parametrize("kind, voigt", [
    ("elasticity", CUBIC_ELA), ("piezo", CUBIC_PIEZO),
    ("elasticity", np.array(DATASETS["E0"].voigt)), ("piezo", np.array(DATASETS["aln"].voigt)),
], ids=["cubic-ela", "h123", "E0", "aln"])
@pytest.mark.parametrize("scale", [1e-165, 1e150, 1e200])
def test_cubic_tests_do_not_depend_on_scale(kind, voigt, scale):
    import warnings

    for strict in (False, True):
        unit = IS_CUBIC[kind](voigt, strict)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert IS_CUBIC[kind](scale * voigt, strict) == unit, strict
