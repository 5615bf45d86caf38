import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_opt.datasets import get_dataset
from strata_opt.hierarchy import HierarchyOptions, add_ball_constraint, run_hierarchy
from strata_opt.mech import (
    Sym2Tensor,
    Sym3Tensor,
    build_distance_problem_sym2,
    classify_sym2,
    cross_gen,
    deviatoric_coordinates,
    traceless,
)
from strata_opt.mech import _tensalg as ta
from strata_opt.mech.sym2 import DEVIATORIC_BASIS
from strata_opt.moment import EQ
from strata_opt.poly import Polynomial


def _sym(rng):
    m = rng.normal(size=(3, 3))
    return Sym2Tensor(mat=0.5 * (m + m.T))


class TestCrossProduct:
    def test_metric_cross_metric_vanishes(self):
        q = Sym2Tensor(mat=np.eye(3))
        assert cross_gen(q, q).max_abs() == 0.0

    def test_transverse_isotropy_annihilation(self):
        b = Sym2Tensor(mat=np.diag([1.0, 1.0, -2.0]))
        b2 = Sym2Tensor(mat=b.mat @ b.mat)
        assert cross_gen(b2, b).max_abs() <= 1e-14

    def test_anticommutes(self, rng):
        # like the vector cross product: swapping arguments flips the sign
        a, b = _sym(rng), _sym(rng)
        np.testing.assert_allclose(cross_gen(a, b).full, -cross_gen(b, a).full, atol=1e-12)

    def test_totally_symmetric_output(self, rng):
        T = cross_gen(_sym(rng), _sym(rng)).full
        for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_allclose(T, np.transpose(T, p), atol=1e-13)

    def test_bilinear(self, rng):
        a, b, c = _sym(rng), _sym(rng), _sym(rng)
        lhs = cross_gen(Sym2Tensor(mat=2.0 * a.mat + c.mat), b).full
        rhs = 2.0 * cross_gen(a, b).full + cross_gen(c, b).full
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_degree6_invariant_identity(self, rng):
        # 12 |a^2 x a|^2 = (tr a'^2)^3 - 6 (tr a'^3)^2
        for _ in range(10):
            a = _sym(rng)
            ap = traceless(a).mat
            lhs = 12.0 * cross_gen(Sym2Tensor(mat=a.mat @ a.mat), a).norm2()
            rhs = np.trace(ap @ ap) ** 3 - 6.0 * np.trace(ap @ ap @ ap) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_degree6_identity_at_reference_tensor(self, a0):
        ap = traceless(a0).mat
        lhs = cross_gen(Sym2Tensor(mat=a0.mat @ a0.mat), a0).norm2()
        rhs = (np.trace(ap @ ap) ** 3 - 6.0 * np.trace(ap @ ap @ ap) ** 2) / 12.0
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTraceless:
    def test_metric_maps_to_zero(self):
        q = Sym2Tensor(mat=np.eye(3))
        assert traceless(q).norm() == 0.0

    def test_idempotent(self, rng):
        a = _sym(rng)
        t1 = traceless(a)
        np.testing.assert_allclose(traceless(t1).mat, t1.mat, atol=1e-15)
        assert abs(t1.trace()) <= 1e-14

    def test_reference_tensor(self, a0):
        # tr a0 = 3, so the deviator subtracts the identity
        assert a0.trace() == pytest.approx(3.0)
        np.testing.assert_allclose(traceless(a0).mat, a0.mat - np.eye(3), atol=1e-14)


class TestClassification:
    def test_metric_isotropic(self):
        assert classify_sym2(Sym2Tensor(mat=np.eye(3))).label == "isotropic"

    def test_axisymmetric_tensor(self):
        cls = classify_sym2(Sym2Tensor(mat=np.diag([1.0, 1.0, -2.0])))
        assert cls.label == "transversely_isotropic"

    def test_reference_tensor_orthotropic(self, a0):
        cls = classify_sym2(a0)
        assert cls.label == "orthotropic"
        assert cls.transverse_residual > 1e-3

    def test_zero_tensor(self):
        assert classify_sym2(Sym2Tensor(mat=np.zeros((3, 3)))).label == "isotropic"

    def test_chain_near_threshold(self):
        # slightly perturbed axisymmetric tensor: chain keeps the TI stratum
        a = Sym2Tensor(mat=np.diag([1.0, 1.0 + 1e-7, -2.0]))
        cls = classify_sym2(a, tol=1e-8)
        assert "transversely_isotropic" in cls.chain


def _cross_over_symbols(a, b):
    """The independent slots of (a x b)_ijk = -(a_il eps_ljs b_sk)^s for 3x3
    nested lists of Polynomials, expanded term by term from the definition."""
    def raw(i, j, k):
        return sum(a[i][l] * b[s][k] * float(ta.LEVI[l, j, s])
                   for l in range(3) for s in range(3) if ta.LEVI[l, j, s])

    return [sum(raw(*p) for p in itertools.permutations(slot)) * (1.0 / 6.0) * -1.0
            for slot in ta.SYM3_SLOTS]


def _six_variable_problem(a0):
    """The paper's formulation: min |a0 - a|^2 over (a^2 x a) = 0 in the six
    Voigt components (a11, a22, a33, a23, a13, a12) of a."""
    x = Polynomial.variables(6)
    a11, a22, a33, a23, a13, a12 = x
    A = [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
    f = Polynomial.zero(6)
    for i in range(3):
        for j in range(3):
            diff = A[i][j] - float(a0.mat[i, j])
            f = f + diff * diff
    A2 = [[sum(A[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return f, [(g, EQ) for g in _cross_over_symbols(A2, A)]


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_sym2 = st.lists(_entries, min_size=6, max_size=6).map(lambda c: Sym2Tensor.from_components(*c))


class TestDeviatoricCoordinates:
    def test_basis_is_orthonormal_and_traceless(self):
        np.testing.assert_allclose(np.einsum("kij,lij->kl", DEVIATORIC_BASIS, DEVIATORIC_BASIS),
                                   np.eye(5), atol=1e-15)
        np.testing.assert_allclose(np.einsum("kii->k", DEVIATORIC_BASIS), 0.0, atol=1e-15)


class TestDistanceProblem:
    def test_five_variables(self, a0):
        prob = build_distance_problem_sym2(a0)
        assert prob.n == 5 and len(prob.var_names) == 5
        assert prob.offset == 0.0
        assert prob.natural_scale == pytest.approx(np.max(np.abs(deviatoric_coordinates(a0))))
        assert build_distance_problem_sym2(Sym2Tensor(mat=3.0 * np.eye(3))).natural_scale == 1.0

    def test_objective_vanishes_at_input(self, a0):
        prob = build_distance_problem_sym2(a0)
        assert prob.objective.evaluate(deviatoric_coordinates(a0)) == pytest.approx(0.0, abs=1e-12)

    def test_ten_cubic_equalities(self, a0):
        prob = build_distance_problem_sym2(a0)
        assert len(prob.constraints) == 10
        assert all(kind == "eq" and g.degree == 3 for g, kind in prob.constraints)

    def test_constraints_vanish_on_stratum(self):
        b = Sym2Tensor(mat=np.diag([1.0, 1.0, -2.0]))
        prob = build_distance_problem_sym2(b)
        for g, _ in prob.constraints:
            assert g.evaluate(deviatoric_coordinates(b)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(a=_sym2)
    def test_constraints_are_the_covariant(self, a):
        # a^2 x a = a'^2 x a': the cubics at the deviator's coordinates are
        # the covariant of the full tensor
        prob = build_distance_problem_sym2(Sym2Tensor(mat=np.eye(3)))
        x = deviatoric_coordinates(a)
        cross = cross_gen(Sym2Tensor(mat=a.mat @ a.mat), a).components
        values = [g.evaluate(x) for g, _ in prob.constraints]
        np.testing.assert_allclose(values, cross, rtol=0, atol=1e-12 * (1.0 + a.norm()) ** 3)

    @settings(max_examples=50, deadline=None)
    @given(a0=_sym2, a=_sym2)
    def test_objective_is_squared_tensor_distance(self, a0, a):
        prob = build_distance_problem_sym2(a0)
        x = deviatoric_coordinates(a)
        dist = prob.tensor_distance(x)
        assert prob.objective.evaluate(x) == pytest.approx(dist**2, rel=1e-9, abs=1e-9)
        assert np.trace(prob.minimizer_voigt(x)) == pytest.approx(a0.trace(), rel=1e-12, abs=1e-9)

    def test_closed_form_minimizer_value(self, a0):
        prob = build_distance_problem_sym2(a0)
        astar = np.array([[-44.0, 20.0, -20.0], [20.0, 31.0, 5.0], [-20.0, 5.0, 31.0]]) / 6.0
        x = deviatoric_coordinates(Sym2Tensor.from_matrix(astar))
        assert prob.objective.evaluate(x) == pytest.approx(18.0, rel=1e-12)
        for g, _ in prob.constraints:
            assert abs(g.evaluate(x)) <= 1e-12
        np.testing.assert_allclose(prob.minimizer_voigt(x), astar, atol=1e-14)

    def test_distance_helpers(self, a0):
        prob = build_distance_problem_sym2(a0)
        x = deviatoric_coordinates(a0)
        assert prob.tensor_distance(x) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(prob.minimizer_voigt(x), a0.mat, atol=1e-14)

    def test_distance_to_own_stratum_is_zero(self):
        # a transversely isotropic input certifies 0 and recovers itself
        b = Sym2Tensor(mat=np.diag([1.0, 1.0, -2.0]))
        prob = build_distance_problem_sym2(b)
        cons = add_ball_constraint(prob.objective, prob.constraints, 50.0,
                                   deviatoric_coordinates(b))
        res = run_hierarchy(prob.objective, cons, HierarchyOptions(d_max=2))
        assert res.status_xi == 1
        assert abs(res.bound) <= 1e-5
        np.testing.assert_allclose(prob.minimizer_voigt(res.minimizers[0]), b.mat, atol=1e-3)

    def test_isotropic_input_is_its_own_closest_tensor(self):
        # a' = 0 lies on the stratum: distance 0, and the closest tensor is
        # the input, isotropic part included
        iso = Sym2Tensor(mat=2.0 * np.eye(3))
        prob = build_distance_problem_sym2(iso)
        cons = add_ball_constraint(prob.objective, prob.constraints, 1.0, np.zeros(5))
        res = run_hierarchy(prob.objective, cons,
                            HierarchyOptions(d_max=3, coordinate_scale=prob.natural_scale))
        assert res.status_xi == 1
        assert prob.total_distance(res.bound) <= 1e-4
        np.testing.assert_allclose(prob.minimizer_voigt(res.minimizers[0]), iso.mat, atol=1e-4)


class TestSixVariableFormulation:
    """The deviator problem against the paper's six-variable one, both with
    the ball centred at the reference tensor b."""

    def _solve_both(self, a0, c):
        b = Sym2Tensor.from_matrix(get_dataset("b").voigt)
        f6, h6 = _six_variable_problem(a0)
        six = run_hierarchy(f6, add_ball_constraint(f6, h6, c, b.components),
                            HierarchyOptions(d_max=2))
        prob = build_distance_problem_sym2(a0)
        cons = add_ball_constraint(prob.objective, prob.constraints, c, deviatoric_coordinates(b))
        five = run_hierarchy(prob.objective, cons, HierarchyOptions(d_max=2))
        return six, five

    @pytest.mark.parametrize("c", [202.0, 300.0, 450.0])
    def test_both_certify_at_order_two(self, a0, c):
        six, five = self._solve_both(a0, c)
        assert (six.status_xi, six.order_reached) == (five.status_xi, five.order_reached) == (1, 2)
        assert five.bound == pytest.approx(six.bound, rel=1e-6)

    def test_both_stop_uncertified_with_the_same_bound(self, a0):
        six, five = self._solve_both(a0, 600.0)
        assert six.status_xi == five.status_xi == 0
        assert six.order_reached == five.order_reached == 2
        assert five.bound == pytest.approx(six.bound, rel=1e-6)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Sym2Tensor.from_matrix([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_sym3_symmetry_is_relative(self, k, rng):
        """The asymmetry is compared with the largest entry, at every size."""
        T = ta.symmetrize3(rng.normal(size=(3, 3, 3)))
        assert Sym3Tensor.from_full(np.ldexp(T, k)).full.shape == (3, 3, 3)
        T[0, 1, 2] += 1e-3
        with pytest.raises(ValueError, match="totally symmetric"):
            Sym3Tensor.from_full(np.ldexp(T, k))

    def test_norm_of_a_huge_tensor(self):
        a0 = np.array(get_dataset("a0").voigt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = Sym2Tensor(mat=1e200 * a0)
            assert a.norm() == pytest.approx(1e200 * np.linalg.norm(a0), rel=1e-15)
            assert a.norm2() == np.inf

    def test_sym3_total_symmetry_enforced(self):
        T = np.zeros((3, 3, 3))
        T[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            Sym3Tensor.from_full(T)
