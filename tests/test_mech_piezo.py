import itertools

import numpy as np
import pytest

from strata_opt.mech import (
    H3Params,
    PiezoTensor,
    build_distance_problem_piezo,
    d2prime_piezo,
    d2prime_piezo_polynomials,
    invariants_h3,
    is_cubic_piezo,
    piezo_harmonic_part,
)
from strata_opt.poly import Polynomial

from conftest import poly_allclose, random_rotation

HSTAR = np.array([-0.075476, -0.426450, 0.088998, -0.005937, 0.412070, -0.308913, 0.609783])

ESTAR = np.array([
    [-0.075476, 0.088998, -0.013521, -0.005937, -0.300870, -0.426450],
    [-0.426450, 0.412070, 0.0143797, -0.308913, -0.005937, 0.088998],
    [-0.300870, -0.308913, 0.609783, 0.014379, -0.013521, -0.005937],
])


def _random_h3(rng) -> H3Params:
    return H3Params.from_array(rng.normal(size=7))


def _random_piezo(rng) -> PiezoTensor:
    return PiezoTensor(voigt=rng.normal(size=(3, 6)))


class TestHarmonicPart:
    def test_harmonic_input_passes_through(self, rng):
        h = _random_h3(rng)
        e = h.to_tensor()
        split = piezo_harmonic_part(e)
        assert split.g.norm() <= 1e-12
        np.testing.assert_allclose(split.h.as_array(), h.as_array(), atol=1e-12)

    def test_reference_constant_term(self, e0_aln):
        split = piezo_harmonic_part(e0_aln)
        assert split.h.norm2() == pytest.approx(2.7367, abs=5e-4)

    def test_vector_part_annihilated(self, rng):
        # e_{ijk} = v_i delta_{jk} has no harmonic component
        v = rng.normal(size=3)
        T = np.zeros((3, 3, 3))
        for i, j, k in itertools.product(range(3), repeat=3):
            T[i, j, k] = v[i] * (j == k)
        split = piezo_harmonic_part(PiezoTensor.from_full(T))
        assert split.h.norm2() <= 1e-24

    def test_norm_split(self, rng):
        for _ in range(10):
            e = _random_piezo(rng)
            split = piezo_harmonic_part(e)
            assert e.norm2() == pytest.approx(split.g.norm2() + split.h.norm2(), rel=1e-10)

    def test_orthogonality(self, rng):
        e = _random_piezo(rng)
        split = piezo_harmonic_part(e)
        inner = float(np.einsum("ijk,ijk", split.g.full(), split.h.full()))
        assert abs(inner) <= 1e-10 * e.norm2()

    def test_residual_plus_harmonic_recovers_input(self, rng):
        e = _random_piezo(rng)
        split = piezo_harmonic_part(e)
        np.testing.assert_allclose(
            split.g.full() + split.h.full(), e.full(), atol=1e-12
        )


class TestD2Prime:
    def test_cubic_normal_form_annihilated(self):
        h = H3Params(h111=0, h112=0, h122=0, h123=0.9, h222=0, h223=0, h333=0)
        assert d2prime_piezo(h).norm() <= 1e-14

    def test_matches_full_contraction(self, rng):
        for _ in range(100):
            h = _random_h3(rng)
            T = h.full()
            d2 = np.einsum("ikl,klj->ij", T, T)
            d2p = d2 - np.trace(d2) / 3.0 * np.eye(3)
            np.testing.assert_allclose(
                d2prime_piezo(h).mat, d2p, rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(d2p)))
            )

    def test_reference_minimizer_residual(self, e0_aln):
        h0 = piezo_harmonic_part(e0_aln).h
        residual = d2prime_piezo(H3Params.from_array(HSTAR))
        assert residual.norm() <= 1e-5 * h0.norm2()

    def test_printed_component_polynomials(self):
        h111, h112, h122, h123, h222, h223, h333 = Polynomial.variables(7)
        expected = (
            (2.0 / 3.0) * (h111 * h111 - 3 * h112 * h222 - 2 * h222 * h222
                           + 3 * h223 * h333 + h333 * h333),
            (-2.0 / 3.0) * (2 * h111 * h111 + 3 * h111 * h122 - h222 * h222
                            + h333 * (3 * h223 + 2 * h333)),
            h111 * (2 * h112 + h222) + 3 * h112 * h122 + 2 * h122 * h222 - 2 * h123 * h333,
            h111 * h223 + h122 * (3 * h223 + h333) - 2 * h123 * h222,
            -2 * h111 * h123 - h112 * (3 * h223 + 2 * h333) - h222 * (h223 + h333),
        )
        for built, exp in zip(d2prime_piezo_polynomials(), expected):
            assert poly_allclose(built, exp, tol=1e-12)

    def test_equivariance_under_rotations(self, rng):
        h = _random_h3(rng)
        T = h.full()
        d2p = d2prime_piezo(h).mat
        for _ in range(10):
            g = random_rotation(rng)
            Tr = np.einsum("ia,jb,kc,abc->ijk", g, g, g, T)
            hr = H3Params.from_full(Tr)
            np.testing.assert_allclose(
                d2prime_piezo(hr).mat, g @ d2p @ g.T,
                atol=1e-9 * max(1.0, np.max(np.abs(d2p))),
            )


class TestInvariants:
    def test_cubic_normal_form(self):
        delta = 0.8
        h = H3Params(h111=0, h112=0, h122=0, h123=delta, h222=0, h223=0, h333=0)
        I2, I4, I6, I10, I15 = invariants_h3(h)
        assert I2 == pytest.approx(6 * delta**2, rel=1e-12)
        assert (I4, I6, I10, I15) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_tensor(self):
        assert invariants_h3(H3Params(*[0.0] * 7)) == (0.0,) * 5

    def test_homogeneity_degrees(self, rng):
        h = _random_h3(rng)
        t = 1.7
        ht = H3Params.from_array(t * h.as_array())
        base = invariants_h3(h)
        scaled = invariants_h3(ht)
        for val, val_t, deg in zip(base, scaled, (2, 4, 6, 10, 15)):
            assert val_t == pytest.approx(t**deg * val, rel=1e-9)

    def test_smith_bao_relations(self, rng):
        for _ in range(100):
            h = _random_h3(rng)
            I2, I4, I6, I10, I15 = invariants_h3(h)
            T = h.full()
            d2 = np.einsum("ikl,klj->ij", T, T)
            d2p = d2 - np.trace(d2) / 3.0 * np.eye(3)
            v3 = np.einsum("ijk,jk->i", T, d2p)
            K4 = float(np.trace(d2 @ d2))
            K10 = float(np.einsum("ijk,i,j,k", T, v3, v3, v3))
            w = np.einsum("i,ijk,j->k", v3, T, v3)
            K15 = float(np.linalg.det(np.column_stack([v3, d2 @ v3, w])))
            scale2 = max(1.0, I2)
            assert K4 == pytest.approx(I4 + I2**2 / 3.0, rel=1e-10, abs=1e-10 * scale2**2)
            rhs10 = (-4.0 / 3.0 * I10 - I2**3 * I4 / 27.0 + I2**2 * I6 / 9.0
                     + 2.0 * I2 * I4**2 / 9.0 + 2.0 / 3.0 * I4 * I6)
            assert K10 == pytest.approx(rhs10, rel=1e-9, abs=1e-9 * scale2**5)
            assert K15 == pytest.approx(2.0 * I15, rel=1e-9, abs=1e-9 * scale2**7)

    def test_rotation_invariance(self, rng):
        h = _random_h3(rng)
        base = invariants_h3(h)
        T = h.full()
        for _ in range(10):
            g = random_rotation(rng)
            hr = H3Params.from_full(np.einsum("ia,jb,kc,abc->ijk", g, g, g, T))
            rotated = invariants_h3(hr)
            for val, val_r in zip(base, rotated):
                assert val_r == pytest.approx(val, rel=1e-9, abs=1e-11)


class TestCubicTest:
    def test_harmonic_cubic_tensor(self):
        h = H3Params(h111=0, h112=0, h122=0, h123=1.1, h222=0, h223=0, h333=0)
        e = h.to_tensor()
        assert is_cubic_piezo(e)
        assert is_cubic_piezo(e, strict=True)

    def test_reference_is_triclinic(self, e0_aln):
        assert not is_cubic_piezo(e0_aln)

    def test_zero_tensor_at_least_cubic_not_strict(self):
        e = PiezoTensor(voigt=np.zeros((3, 6)))
        assert is_cubic_piezo(e)
        assert not is_cubic_piezo(e, strict=True)


class TestDistanceProblem:
    def test_printed_objective_expansion(self, e0_aln):
        f = build_distance_problem_piezo(e0_aln).objective
        assert f.coefficient((0,) * 7) == pytest.approx(2.7367, abs=5e-4)
        linear = (-0.1002, 0.4574, -0.1742, 0.1636, 0.0836, -0.0114, -5.2244)
        for i, val in enumerate(linear):
            alpha = tuple(1 if j == i else 0 for j in range(7))
            assert f.coefficient(alpha) == pytest.approx(val, abs=1e-9)
        squares = (4, 6, 6, 6, 4, 6, 4)
        for i, val in enumerate(squares):
            alpha = tuple(2 if j == i else 0 for j in range(7))
            assert f.coefficient(alpha) == pytest.approx(val, abs=1e-12)
        for (i, j) in ((0, 2), (1, 4), (5, 6)):  # h111*h122, h112*h222, h223*h333
            alpha = tuple(1 if k in (i, j) else 0 for k in range(7))
            assert f.coefficient(alpha) == pytest.approx(6.0, abs=1e-12)

    def test_five_quadratic_equalities(self, e0_aln):
        prob = build_distance_problem_piezo(e0_aln)
        assert len(prob.constraints) == 5
        assert all(kind == "eq" and g.degree == 2 for g, kind in prob.constraints)

    def test_printed_closest_cubic_tensor(self, e0_aln):
        prob = build_distance_problem_piezo(e0_aln)
        V = prob.minimizer_voigt(HSTAR)
        np.testing.assert_allclose(V, ESTAR, atol=2e-6)

    def test_total_distance_reconstruction(self, e0_aln):
        prob = build_distance_problem_piezo(e0_aln)
        fstar = prob.objective.evaluate(HSTAR)
        delta = prob.total_distance(fstar)
        assert delta == pytest.approx(1.214681, abs=1e-4)
        assert prob.tensor_distance(HSTAR) == pytest.approx(delta, abs=1e-10)
        assert delta / e0_aln.norm() == pytest.approx(0.684256, abs=1e-4)

    def test_harmonic_cubic_input_distance_zero(self):
        h = H3Params(h111=0, h112=0, h122=0, h123=0.5, h222=0, h223=0, h333=0)
        prob = build_distance_problem_piezo(h.to_tensor())
        assert prob.offset == pytest.approx(0.0, abs=1e-20)
        assert prob.objective.evaluate(h.as_array()) == pytest.approx(0.0, abs=1e-14)


def test_harmonic_part_matches_index_loops(rng):
    """The array form of q . tr(e^s) against its index-loop definition,
    bitwise: each entry adds the same three products in the same order."""
    for _ in range(10):
        e = _random_piezo(rng)
        T = e.full()
        es = sum(np.transpose(T, p) for p in itertools.permutations(range(3))) / 6.0
        t = np.einsum("ijj->i", es)
        qt = np.zeros((3, 3, 3))
        for i, j, k in itertools.product(range(3), repeat=3):
            qt[i, j, k] = (np.eye(3)[i, j] * t[k] + np.eye(3)[j, k] * t[i]
                           + np.eye(3)[k, i] * t[j]) / 3.0
        h = es - 0.6 * qt
        split = piezo_harmonic_part(e)
        assert np.array_equal(split.h.full(), H3Params.from_full(h).full())
        assert np.array_equal(split.g.full(), PiezoTensor.from_full(T - h).full())
