import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_opt.moment import MomentVector, assemble_relaxation
from strata_opt.poly import (
    Polynomial,
    grlex_key,
    grlex_position,
    lambda_set,
)


class TestLambdaSet:
    def test_univariate(self):
        assert lambda_set(1, 1).tolist() == [[0], [1]]

    def test_cardinalities(self):
        assert len(lambda_set(2, 2)) == 6
        assert len(lambda_set(9, 2)) == 55  # basis size of the 9-variable order-1 problem
        for n, k in [(3, 4), (6, 2), (4, 0)]:
            assert len(lambda_set(n, k)) == math.comb(n + k, n)

    def test_zero_vector_first(self):
        for n in (1, 3, 6):
            assert lambda_set(n, 3)[0].tolist() == [0] * n
            assert grlex_position((0,) * n) == 0

    def test_graded_lex_order(self):
        members = list(map(tuple, lambda_set(3, 4).tolist()))
        keys = [grlex_key(a) for a in members]
        assert keys == sorted(keys)
        assert len(set(members)) == len(members)
        assert all(sum(a) <= 4 for a in members)

    def test_prefix_nesting(self):
        for k in range(4):
            small = lambda_set(4, k)
            big = lambda_set(4, k + 1)
            np.testing.assert_array_equal(big[: len(small)], small)

    def test_grlex_position_matches_index_sets(self):
        for n in range(1, 7):
            for k in range(6):
                idx = lambda_set(n, k)
                np.testing.assert_array_equal(grlex_position(idx), np.arange(len(idx)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grlex_position_on_callers_shapes(self, n):
        """Against the enumeration order of lambda_set, on the shapes the
        callers pass: one vector (n,), a moment table (s, s, n), a block's
        shifted rows (rows, t, n) and the extraction's shifted basis (n, s, n)."""
        rng = np.random.default_rng(n)
        ref = {alpha: i for i, alpha in enumerate(map(tuple, lambda_set(n, 6).tolist()))}

        def expected(alphas):
            return np.array([ref[tuple(a)] for a in alphas.reshape(-1, n).tolist()]
                            ).reshape(alphas.shape[:-1])

        rows = lambda_set(n, 2)
        deltas = rows[rng.choice(len(rows), size=min(4, len(rows)), replace=False)]
        basis = rows[rng.choice(len(rows), size=min(5, len(rows)), replace=False)]
        for alphas in (rows[-1], rows[:, None, :] + rows[None, :, :],
                       lambda_set(n, 4)[:, None, :] + deltas[None, :, :],
                       basis + np.eye(n, dtype=np.int64)[:, None, :]):
            got = grlex_position(alphas)
            assert got.shape == alphas.shape[:-1]
            np.testing.assert_array_equal(got, expected(alphas))

    def test_arrays_are_read_only(self):
        idx = lambda_set(3, 2)
        assert idx.dtype == np.int64 and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_set(0, 2)
        with pytest.raises(ValueError):
            lambda_set(2, -1)


class TestPolynomialBasics:
    def test_zero_point(self):
        p = Polynomial.monomial((2, 0), 1.0) + 2.0 * Polynomial.variable(1, 2)
        assert p.evaluate([0.0, 0.0]) == 0.0

    def test_constant(self):
        p = Polynomial.constant(3, 5.0)
        assert p.evaluate([9.0, -2.0, 0.5]) == 5.0

    def test_no_zero_coeffs_stored(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 1): 0.0})
        assert (0, 1) not in p.terms
        q = p - p
        assert q.is_zero and q.terms == {}

    def test_mul_monomials(self):
        x = Polynomial.variable(0, 1)
        assert x * x == Polynomial.monomial((2,), 1.0)

    def test_add_cancel(self):
        p = Polynomial(3, {(1, 1, 0): 2.0, (0, 0, 2): -1.0})
        assert (p + p * -1.0).is_zero

    def test_degree_additivity(self, rng):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 2)
        if not (p.is_zero or q.is_zero):
            assert (p * q).degree == p.degree + q.degree

    def test_mul_matches_pointwise_products(self, rng):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 3)
        prod = p * q
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            lhs = prod.evaluate(x)
            rhs = p.evaluate(x) * q.evaluate(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        p = Polynomial.variable(0, 2)
        q = Polynomial.variable(0, 3)
        with pytest.raises(ValueError):
            p + q
        with pytest.raises(ValueError):
            p.evaluate([1.0, 2.0, 3.0])

    def test_power(self):
        x = Polynomial.variable(0, 2)
        y = Polynomial.variable(1, 2)
        assert (x + y) ** 2 == x * x + 2.0 * x * y + y * y
        with pytest.raises(ValueError):
            (x + y) ** (-1)

    def test_dilate_is_argument_scaling(self, rng):
        p = _random_poly(rng, 3, 4)
        r = 3.7
        q = p.dilate(r)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            assert q.evaluate(x) == pytest.approx(p.evaluate(r * x), rel=1e-12, abs=1e-12)
        assert p.dilate(1.0) == p


class TestArithmeticResults:
    """Arithmetic builds its results without re-validating their terms; the
    public constructor still validates outside input."""

    def _operands(self, rng):
        p = _random_poly(rng, 3, 3)
        cancel = next(iter(p.terms))
        q = {a: c for a, c in _random_poly(rng, 3, 2).terms.items() if a != cancel}
        # share monomials with p, and cancel one of them exactly
        q.update({a: float(rng.normal()) for a in list(p.terms)[1:3]})
        q[cancel] = -p.terms[cancel]
        return p, Polynomial(3, q)

    def test_results_equal_public_construction(self, rng):
        for _ in range(10):
            p, q = self._operands(rng)
            for res in (p + q, p - q, q - p, -p, p * q, 2.5 * p, p * 0.0, p.dilate(-1.7), p ** 3):
                ref = Polynomial(3, res.terms)
                assert res == ref
                assert list(res.terms.items()) == list(ref.terms.items())

    def test_results_drop_exact_zeros(self, rng):
        p, q = self._operands(rng)
        for res in (p + q, p - p, p * 0.0, p.dilate(0.0), (p - p) * q):
            assert all(c != 0.0 for c in res.terms.values())
        assert (p + q).coefficient(next(iter(p.terms))) == 0.0
        assert next(iter(p.terms)) not in (p + q).terms

    def test_results_are_immutable(self, rng):
        p, q = self._operands(rng)
        for res in (p + q, -p, p * q, p.dilate(2.0)):
            with pytest.raises(AttributeError):
                res.terms = {}
            with pytest.raises(AttributeError):
                res.n = 5

    def test_public_constructor_rejects_bad_exponents(self):
        for terms in ({(1, 0): 1.0}, {(1, 0, 0, 1): 1.0}, {(1, -1, 0): 2.0}):
            with pytest.raises(ValueError):
                Polynomial(3, terms)
        with pytest.raises(ValueError):
            Polynomial(0, {})


def _random_poly(rng, n, deg):
    terms = {}
    for alpha in map(tuple, lambda_set(n, deg).tolist()):
        if rng.random() < 0.4:
            terms[alpha] = float(rng.normal())
    return Polynomial(n, terms)


@st.composite
def polynomials(draw, n=2, max_deg=3):
    members = list(map(tuple, lambda_set(n, max_deg).tolist()))
    coeffs = draw(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False),
            min_size=len(members), max_size=len(members),
        )
    )
    return Polynomial(n, dict(zip(members, coeffs)))


@st.composite
def polynomials_and_points(draw):
    """A polynomial in 1 to 4 variables of degree at most 4, with some
    coefficients zero, and 1 to 6 points in [-2, 2]^n."""
    n = draw(st.integers(1, 4))
    members = list(map(tuple, lambda_set(n, draw(st.integers(0, 4))).tolist()))
    coeff = st.one_of(st.just(0.0), st.floats(min_value=-8, max_value=8, allow_nan=False))
    p = Polynomial(n, dict(zip(members, draw(st.lists(coeff, min_size=len(members),
                                                     max_size=len(members))))))
    m = draw(st.integers(1, 6))
    coords = draw(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False),
                           min_size=m * n, max_size=m * n))
    return p, np.array(coords).reshape(m, n)


@given(polynomials_and_points())
@settings(max_examples=80, deadline=None)
def test_evaluation_kernel(case):
    """A batch of points is bitwise its rows evaluated one at a time; a
    value is <f, y> for the assembled objective f and the Dirac moments y
    of the point, and the term-by-term sum, up to rounding of the terms'
    magnitude |p|(|x|); other shapes are refused."""
    p, P = case
    batch = p.evaluate(P)
    assert batch.shape == (len(P),)
    np.testing.assert_array_equal(batch, [p.evaluate(x) for x in P])
    d = max(1, math.ceil(p.degree / 2))
    objective = assemble_relaxation(p, [], d).objective
    magnitude = Polynomial(p.n, {a: abs(c) for a, c in p.terms.items()})
    for x in P:
        value = p.evaluate(x)
        assert isinstance(value, float)
        scale = 1e-12 * max(1.0, magnitude.evaluate(np.abs(x)))
        assert abs(value - objective @ MomentVector.from_dirac(x, d).values) <= scale
        terms = sum(c * math.prod(xi**a for xi, a in zip(x, alpha)) for alpha, c in p.terms.items())
        assert abs(value - terms) <= scale
    for shape in ((p.n + 1,), (len(P), p.n, 1)):
        with pytest.raises(ValueError):
            p.evaluate(np.zeros(shape))


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_product_evaluation_homomorphism(p, q):
    x = np.array([0.7, -1.3])
    lhs = (p * q).evaluate(x)
    rhs = p.evaluate(x) * q.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_additive_inverse(p):
    assert (p + p * -1.0).is_zero


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_gradient_matches_central_differences(p):
    x = np.array([0.7, -1.3])
    grad = [dp.evaluate(x) for dp in p.gradient()]
    for i, g in enumerate(grad):
        h = np.zeros(2)
        h[i] = 1e-5
        fd = (p.evaluate(x + h) - p.evaluate(x - h)) / 2e-5
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gradient_of_known_polynomial():
    x, y = Polynomial.variables(2)
    p = 3.0 * x * x * y - y + 2.0
    dx, dy = p.gradient()
    assert dx == 6.0 * x * y
    assert dy == 3.0 * x * x - 1.0
    assert Polynomial.constant(2, 4.0).gradient() == (Polynomial.zero(2), Polynomial.zero(2))
