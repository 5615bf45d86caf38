import itertools
import warnings

import numpy as np
import pytest

from strata_opt.mech import (
    ElaHarmonic,
    ElasticityTensor,
    Sym2Tensor,
    build_distance_problem_ela,
    d2prime_ela,
    d2prime_ela_polynomials,
    ela_norm2_split,
    h4_coordinates,
    harmonic_decompose_ela,
    is_cubic_ela,
    recompose_ela,
    tensor_prod_4,
    tensor_prod_22,
)
from strata_opt.mech._tensalg import h4_voigt, voigt_from_full4
from strata_opt.poly import Polynomial

from conftest import poly_allclose, random_rotation, rotated_cubic_voigt

Q = Sym2Tensor(mat=np.eye(3))

XSTAR = np.array([-36.401489, -20.227012, -38.908985, -6.396664, 27.780748,
                  -2.277546, 44.251364, -4.557344, 21.161507])

ESTAR = np.array([
    [240.130669, 144.442318, 125.760345, 6.39666, 41.97381, -21.161507],
    [144.442318, 223.956191, 141.934823, -27.780748, 2.277546, 16.604162],
    [125.760345, 141.934823, 242.638164, 21.384084, -44.251364, 4.557344],
    [6.39666, -27.780748, 21.384084, 133.268156, 4.557344, 2.277546],
    [41.973817, 2.277546, -44.251364, 4.557344, 117.093678, 6.39666],
    [-21.161507, 16.604162, 4.557344, 2.277546, 6.39666, 135.775651],
])


def _random_ela(rng) -> ElasticityTensor:
    v = rng.normal(size=(6, 6)) * 10
    return ElasticityTensor(voigt=0.5 * (v + v.T))


def _h4(x) -> ElasticityTensor:
    """The harmonic tensor of the nine coordinates x."""
    return ElasticityTensor(voigt=h4_voigt(x))


def _random_h4(rng) -> ElasticityTensor:
    return _h4(rng.normal(size=9))


class TestHarmonicDecomposition:
    def test_reference_scalars(self, E0):
        h = harmonic_decompose_ela(E0)
        assert h.alpha == pytest.approx(1531.0, abs=1e-9)
        assert h.beta == pytest.approx(1479.0, abs=1e-9)

    def test_reference_deviators(self, E0):
        h = harmonic_decompose_ela(E0)
        d_exp = np.array([[11 / 3, 2, 14], [2, 5 / 3, 23], [14, 23, -16 / 3]])
        v_exp = np.array([[-1, -11, -1], [-11, 9, -1], [-1, -1, -8]])
        np.testing.assert_allclose(h.dprime.mat, d_exp, atol=1e-10)
        np.testing.assert_allclose(h.vprime.mat, v_exp, atol=1e-10)

    def test_reference_harmonic_part(self, E0):
        HV = harmonic_decompose_ela(E0).h4.voigt
        exp = {
            (0, 0): -1986 / 35, (0, 1): 1093 / 35, (0, 2): 893 / 35,
            (0, 3): 5.0, (0, 4): 352 / 7, (0, 5): -99 / 7,
            (1, 1): -2306 / 35, (1, 2): 1213 / 35, (1, 3): -31.0,
            (1, 4): 3 / 7, (1, 5): 132 / 7,
            (2, 2): -2106 / 35, (2, 3): 26.0, (2, 4): -355 / 7, (2, 5): -33 / 7,
            (3, 3): 1213 / 35, (3, 4): -33 / 7, (3, 5): 3 / 7,
            (4, 4): 893 / 35, (4, 5): 5.0, (5, 5): 1093 / 35,
        }
        for (i, j), val in exp.items():
            assert HV[i, j] == pytest.approx(val, abs=1e-9), (i, j)

    def test_pure_isotropic_input(self):
        E = tensor_prod_4(Q, Q)
        h = harmonic_decompose_ela(E)
        assert h.dprime.norm() <= 1e-12
        assert h.vprime.norm() <= 1e-12
        assert h.h4.norm2() <= 1e-20

    def test_roundtrip(self, E0, rng):
        for E in (E0, _random_ela(rng)):
            back = recompose_ela(harmonic_decompose_ela(E))
            np.testing.assert_allclose(back.voigt, E.voigt, rtol=1e-12, atol=1e-9)

    def test_norm_split_matches_frobenius(self, rng):
        for _ in range(10):
            E = _random_ela(rng)
            direct = float(np.einsum("ijkl,ijkl", E.full(), E.full()))
            split = ela_norm2_split(harmonic_decompose_ela(E))
            assert split == pytest.approx(direct, rel=1e-10)
            assert E.norm2() == pytest.approx(direct, rel=1e-12)

    def test_harmonicity_of_h4(self, rng):
        T = _random_h4(rng).full()
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 1, 0, 3), (3, 1, 2, 0)):
            np.testing.assert_allclose(T, np.transpose(T, perm), atol=1e-12)
        np.testing.assert_allclose(np.einsum("iikl->kl", T), 0.0, atol=1e-12)


class TestTensorProducts:
    def test_metric_sym_product_pattern(self):
        V = tensor_prod_4(Q, Q).voigt
        expected = np.zeros((6, 6))
        expected[:3, :3] = 1.0 / 3.0
        np.fill_diagonal(expected[:3, :3], 1.0)
        expected[3, 3] = expected[4, 4] = expected[5, 5] = 1.0 / 3.0
        np.testing.assert_allclose(V, expected, atol=1e-14)

    def test_metric_22_contraction_identity(self, rng):
        # (q (x)_22 q) : eps = (2 tr(eps) q - eps - eps^T) / 3 for symmetric eps
        T = tensor_prod_22(Q, Q).full()
        m = rng.normal(size=(3, 3))
        eps = 0.5 * (m + m.T)
        contracted = np.einsum("ijkl,kl->ij", T, eps)
        expected = (2.0 * np.trace(eps) * np.eye(3) - 2.0 * eps) / 3.0
        np.testing.assert_allclose(contracted, expected, atol=1e-12)

    def test_linearity_and_symmetry(self, rng):
        a = Sym2Tensor(mat=np.diag(rng.normal(size=3)))
        b = Sym2Tensor(mat=0.5 * (lambda m: m + m.T)(rng.normal(size=(3, 3))))
        two_a = Sym2Tensor(mat=2.0 * a.mat)
        np.testing.assert_allclose(
            tensor_prod_4(two_a, b).voigt, 2.0 * tensor_prod_4(a, b).voigt, atol=1e-12
        )
        np.testing.assert_allclose(
            tensor_prod_4(a, b).voigt, tensor_prod_4(b, a).voigt, atol=1e-12
        )
        np.testing.assert_allclose(
            tensor_prod_22(a, b).voigt, tensor_prod_22(b, a).voigt, atol=1e-12
        )


class TestD2Prime:
    def test_cubic_normal_form_annihilated(self):
        H = _h4([0.7, 0.7, 0.7, 0, 0, 0, 0, 0, 0])
        assert d2prime_ela(H).norm() <= 1e-12

    def test_reference_minimizer_residual(self, E0):
        h0 = harmonic_decompose_ela(E0)
        residual = d2prime_ela(_h4(XSTAR))
        assert np.max(np.abs(residual.mat)) <= 1e-5 * h0.h4.norm2()

    def test_matches_full_contraction(self, rng):
        for _ in range(100):
            H = _random_h4(rng)
            T = H.full()
            d2 = np.einsum("ipqr,pqrj->ij", T, T)
            d2p = d2 - np.trace(d2) / 3.0 * np.eye(3)
            np.testing.assert_allclose(
                d2prime_ela(H).mat, d2p, rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(d2p)))
            )

    def test_homogeneous_degree_two(self, rng):
        H = _random_h4(rng)
        Ht = ElasticityTensor(voigt=3.0 * H.voigt)
        np.testing.assert_allclose(d2prime_ela(Ht).mat, 9.0 * d2prime_ela(H).mat, rtol=1e-12)

    def test_printed_component_polynomials(self):
        L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2 = Polynomial.variables(9)
        expected = (
            (2.0 / 3.0) * (
                -4 * L1 * L1 - L1 * L2 - L1 * L3 + 2 * L2 * L2 + 2 * L2 * L3 + 2 * L3 * L3
                + X1 * X1 - 4 * X1 * X2 - 4 * X2 * X2
                + Y1 * Y1 + 5 * Y1 * Y2 + 2 * Y2 * Y2
                - 2 * Z1 * Z1 - Z1 * Z2 + 2 * Z2 * Z2
            ),
            (-2.0 / 3.0) * (
                -2 * L1 * L1 + L1 * L2 - 2 * L1 * L3 + 4 * L2 * L2 + L2 * L3 - 2 * L3 * L3
                + 2 * X1 * X1 + X1 * X2 - 2 * X2 * X2
                - Y1 * Y1 + 4 * Y1 * Y2 + 4 * Y2 * Y2
                - Z1 * Z1 - 5 * Z1 * Z2 - 2 * Z2 * Z2
            ),
            3 * X1 * Y1 + 3 * X2 * Y1 - 4 * X1 * Y2 - X2 * Y2
            + 4 * Z1 * L1 + Z2 * L1 + 3 * Z1 * L2 - Z2 * L2 - 2 * Z1 * L3,
            3 * X1 * (Z1 + Z2) - X2 * (4 * Z1 + Z2)
            + 3 * Y1 * L1 - Y2 * L1 - 2 * Y1 * L2 + 4 * Y1 * L3 + Y2 * L3,
            3 * Y1 * Z1 + 3 * Y2 * Z1 - 4 * Y1 * Z2 - Y2 * Z2
            - 2 * X1 * L1 + 4 * X1 * L2 + X2 * L2 + 3 * X1 * L3 - X2 * L3,
        )
        for built, exp in zip(d2prime_ela_polynomials(), expected):
            assert poly_allclose(built, exp, tol=1e-12)

    def test_equivariance_under_rotations(self, rng):
        H = _random_h4(rng)
        T = H.full()
        d2p = d2prime_ela(H).mat
        for _ in range(10):
            g = random_rotation(rng)
            Tr = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, T)
            Hr = ElasticityTensor(voigt=np.array(voigt_from_full4(Tr)))
            lhs = d2prime_ela(Hr).mat
            rhs = g @ d2p @ g.T
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, np.max(np.abs(rhs))))


class TestCubicTests:
    def test_recomposed_cubic_is_cubic(self):
        zero = Sym2Tensor(mat=np.zeros((3, 3)))
        H = _h4([1.3, 1.3, 1.3, 0, 0, 0, 0, 0, 0])
        E = recompose_ela(ElaHarmonic(alpha=10.0, beta=4.0, dprime=zero, vprime=zero, h4=H))
        assert is_cubic_ela(E)
        assert is_cubic_ela(E, strict=True)

    def test_reference_is_triclinic(self, E0):
        assert not is_cubic_ela(E0)

    @pytest.mark.parametrize("unit", [1.0, 1e3, 1e9])
    def test_rotated_crystal_in_every_unit(self, unit, rng):
        """C11, C12, C44 = 252, 161, 131 GPa, given in GPa, MPa and Pa: the
        deviators' trace is compared with their norm, with no floor of 1."""
        for _ in range(5):
            E = ElasticityTensor.from_voigt(
                rotated_cubic_voigt(252.0 * unit, 161.0 * unit, 131.0 * unit, random_rotation(rng)))
            back = recompose_ela(harmonic_decompose_ela(E))
            assert np.max(np.abs(back.voigt - E.voigt)) <= 1e-12 * np.max(np.abs(E.voigt))
            assert is_cubic_ela(E, strict=True)

    @pytest.mark.parametrize("k", [-600, -40, 0, 40, 600])
    def test_traceless_check_is_scale_free(self, k, E0, rng):
        for E in (E0, _random_ela(rng)):
            harmonic_decompose_ela(ElasticityTensor(np.ldexp(E.voigt, k)))
        zero = Sym2Tensor(mat=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="traceless"):
            ElaHarmonic(alpha=0.0, beta=0.0, dprime=Sym2Tensor(mat=np.ldexp(np.diag([1.0, 0, 0]), k)),
                        vprime=zero, h4=ElasticityTensor(np.zeros((6, 6))))

    def test_rotated_isotropic_tensor_is_cubic_not_strict(self, rng):
        """lambda = 121, mu = 80.8 GPa: the rotated tensor's harmonic part is
        rounding, whose |d2'| / |H|^2 is O(1); it reads as zero."""
        for _ in range(20):
            E = ElasticityTensor.from_voigt(rotated_cubic_voigt(282.6, 121.0, 80.8, random_rotation(rng)))
            assert is_cubic_ela(E) and not is_cubic_ela(E, strict=True)

    def test_isotropic_at_least_cubic_not_strict(self):
        zero = Sym2Tensor(mat=np.zeros((3, 3)))
        H = ElasticityTensor(voigt=np.zeros((6, 6)))
        E = recompose_ela(ElaHarmonic(alpha=10.0, beta=4.0, dprime=zero, vprime=zero, h4=H))
        assert is_cubic_ela(E)
        assert not is_cubic_ela(E, strict=True)


class TestOverflow:
    def test_huge_symmetric_voigt_matrix_kept(self):
        V = 1.5e308 * np.eye(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = ElasticityTensor(voigt=V)
            assert np.array_equal(E.voigt, V)
            assert E.norm() == E.norm2() == np.inf
            assert ElasticityTensor(voigt=V / 1e8).norm() == pytest.approx(1.5e300 * np.sqrt(15.0))


class TestDistanceProblem:
    def test_printed_objective_expansion(self, E0):
        f = build_distance_problem_ela(E0).objective
        assert f.coefficient((0,) * 9) == pytest.approx(2026042 / 35, rel=1e-12)
        linear = {"L1": 668.0, "L2": 540.0, "L3": 620.0, "X1": -88.0, "X2": -456.0,
                  "Y1": -392.0, "Y2": -808.0, "Z1": -264.0, "Z2": -264.0}
        names = ("L1", "L2", "L3", "X1", "X2", "Y1", "Y2", "Z1", "Z2")
        for i, name in enumerate(names):
            alpha = tuple(1 if j == i else 0 for j in range(9))
            assert f.coefficient(alpha) == pytest.approx(linear[name], abs=1e-9), name
        squares = [8, 8, 8, 16, 8, 16, 8, 16, 8]
        for i, coeff in enumerate(squares):
            alpha = tuple(2 if j == i else 0 for j in range(9))
            assert f.coefficient(alpha) == pytest.approx(coeff, abs=1e-9)
        cross = {(0, 1): 2.0, (1, 2): 2.0, (0, 2): 2.0, (3, 4): 8.0, (5, 6): 8.0, (7, 8): 8.0}
        for (i, j), coeff in cross.items():
            alpha = tuple(1 if k in (i, j) else 0 for k in range(9))
            assert f.coefficient(alpha) == pytest.approx(coeff, abs=1e-9)

    def test_objective_value_at_origin(self, E0):
        f = build_distance_problem_ela(E0).objective
        assert f.evaluate(np.zeros(9)) == pytest.approx(2026042 / 35, rel=1e-12)

    def test_five_quadratic_equalities(self, E0):
        prob = build_distance_problem_ela(E0)
        assert len(prob.constraints) == 5
        assert all(kind == "eq" and g.degree == 2 for g, kind in prob.constraints)

    def test_printed_closest_cubic_tensor(self, E0):
        prob = build_distance_problem_ela(E0)
        V = prob.minimizer_voigt(XSTAR)
        np.testing.assert_allclose(V, ESTAR, atol=2e-5)

    def test_total_distance_reconstruction(self, E0):
        prob = build_distance_problem_ela(E0)
        fstar = prob.objective.evaluate(XSTAR)
        delta = prob.total_distance(fstar)
        assert delta == pytest.approx(74.131148, abs=1e-4)
        assert prob.tensor_distance(XSTAR) == pytest.approx(delta, abs=1e-9)
        assert delta / E0.norm() == pytest.approx(0.103910, abs=1e-5)

    def test_cubic_input_has_zero_offset_and_distance(self):
        zero = Sym2Tensor(mat=np.zeros((3, 3)))
        H = _h4([2.0, 2.0, 2.0, 0, 0, 0, 0, 0, 0])
        E = recompose_ela(ElaHarmonic(alpha=30.0, beta=12.0, dprime=zero, vprime=zero, h4=H))
        prob = build_distance_problem_ela(E)
        assert prob.offset == pytest.approx(0.0, abs=1e-16)
        x_own = h4_coordinates(harmonic_decompose_ela(E).h4.voigt)
        assert prob.objective.evaluate(x_own) == pytest.approx(0.0, abs=1e-12)


class TestProductsMatchIndexLoops:
    """The array forms of the two products against their index-loop
    definitions: each entry adds the same six products in the same order,
    so the results are bitwise equal."""

    @staticmethod
    def _loops(a, b):
        T4, T22 = np.zeros((3, 3, 3, 3)), np.zeros((3, 3, 3, 3))
        for i, j, k, l in itertools.product(range(3), repeat=4):
            T4[i, j, k, l] = (
                a[i, j] * b[k, l] + b[i, j] * a[k, l]
                + a[i, k] * b[j, l] + b[i, k] * a[j, l]
                + a[i, l] * b[j, k] + b[i, l] * a[j, k]
            ) / 6.0
            T22[i, j, k, l] = (
                2 * a[i, j] * b[k, l] + 2 * b[i, j] * a[k, l]
                - a[i, k] * b[j, l] - a[i, l] * b[j, k]
                - b[i, k] * a[j, l] - b[i, l] * a[j, k]
            ) / 6.0
        return (ElasticityTensor(voigt=np.array(voigt_from_full4(T4))).voigt,
                ElasticityTensor(voigt=np.array(voigt_from_full4(T22))).voigt)

    def test_bitwise_equal(self, rng):
        for _ in range(20):
            a, b = (Sym2Tensor(mat=m + m.T) for m in rng.normal(size=(2, 3, 3)) * 10.0)
            V4, V22 = self._loops(a.mat, b.mat)
            assert np.array_equal(tensor_prod_4(a, b).voigt, V4)
            assert np.array_equal(tensor_prod_22(a, b).voigt, V22)
