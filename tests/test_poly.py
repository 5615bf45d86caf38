import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_opt.moment import MomentVector, assemble_relaxation
from strata_opt.popfile import format_polynomial, parse_polynomial
from strata_opt.poly import (
    Polynomial,
    derivative_arrays,
    forms_from_tensor,
    grlex_position,
    lambda_set,
    term_arrays,
)
from conftest import term_dict


def _grlex_key(alpha):
    """Sort key of graded lexicographic order (x1 > x2 > ... within a grade)."""
    return (sum(alpha), tuple(-a for a in alpha))


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
        keys = [_grlex_key(a) for a in members]
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

    @pytest.mark.parametrize("c", [0.0, -0.0, 1.5, -3e300, 5e-324])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_constant_arrays_are_the_mapping_constructors(self, n, c):
        p, q = Polynomial.constant(n, c), Polynomial(n, {(0,) * n: c})
        for a, b in ((p.exponents, q.exponents), (p.coeffs, q.coeffs)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_constant_refuses_a_non_finite_value(self, c):
        with pytest.raises(ValueError, match="finite"):
            Polynomial.constant(2, c)

    def test_no_zero_coeffs_stored(self):
        p = Polynomial(2, {(1, 0): 1.0, (0, 1): 0.0})
        assert p.exponents.tolist() == [[1, 0]] and p.coeffs.tolist() == [1.0]
        q = p - p
        assert q.is_zero and q.exponents.shape == (0, 2) and q.coeffs.shape == (0,)

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
        terms = term_dict(p)
        cancel = next(iter(terms))
        q = {a: c for a, c in term_dict(_random_poly(rng, 3, 2)).items() if a != cancel}
        # share monomials with p, and cancel one of them exactly
        q.update({a: float(rng.normal()) for a in list(terms)[1:3]})
        q[cancel] = -terms[cancel]
        return p, Polynomial(3, q)

    def test_results_equal_public_construction(self, rng):
        for _ in range(10):
            p, q = self._operands(rng)
            for res in (p + q, p - q, q - p, -p, p * q, 2.5 * p, p * 0.0, p.dilate(-1.7), p ** 3):
                ref = Polynomial(3, term_dict(res))
                assert res == ref
                assert res.exponents.tolist() == ref.exponents.tolist()
                assert res.coeffs.tolist() == ref.coeffs.tolist()

    def test_results_drop_exact_zeros(self, rng):
        p, q = self._operands(rng)
        for res in (p + q, p - p, p * 0.0, p.dilate(0.0), (p - p) * q):
            assert res.coeffs.all()
        assert (p + q).coefficient(p.exponents[0]) == 0.0
        assert p.exponents[0].tolist() not in (p + q).exponents.tolist()

    def test_results_are_immutable(self, rng):
        p, q = self._operands(rng)
        for res in (p + q, -p, p * q, p.dilate(2.0)):
            with pytest.raises(AttributeError):
                res.coeffs = np.zeros(0)
            with pytest.raises(AttributeError):
                res.exponents = np.zeros((0, 3), np.int64)
            with pytest.raises(AttributeError):
                res.n = 5
            with pytest.raises(ValueError):
                res.coeffs[0] = 1.0
            with pytest.raises(ValueError):
                res.exponents[0, 0] = 1

    def test_public_constructor_rejects_bad_exponents(self):
        for terms in ({(1, 0): 1.0}, {(1, 0, 0, 1): 1.0}, {(1, -1, 0): 2.0},
                      {(1.5, 0, 0): 1.0}, {(1, 0, 0): float("nan")}, {(1, 0, 0): float("inf")},
                      {(2**53, 0, 0): 1.0}):
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
    magnitude = Polynomial(p.n, {a: abs(c) for a, c in term_dict(p).items()})
    for x in P:
        value = p.evaluate(x)
        assert isinstance(value, float)
        scale = 1e-12 * max(1.0, magnitude.evaluate(np.abs(x)))
        assert abs(value - objective @ MomentVector.from_dirac(x, d).values) <= scale
        terms = sum(c * math.prod(xi**a for xi, a in zip(x, alpha))
                    for alpha, c in term_dict(p).items())
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


@given(st.lists(polynomials(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_jacobian_arrays_are_the_term_arrays_of_the_gradients(polys):
    X, (C,) = derivative_arrays(polys, 2, (1,))
    want_X, want_C = term_arrays([dp for p in polys for dp in p.gradient()], 2)
    np.testing.assert_array_equal(X, want_X)
    np.testing.assert_array_equal(C, want_C)
    assert C.shape == (2 * len(polys), len(X))
    assert not (X.flags.writeable or C.flags.writeable)


def test_jacobian_arrays_of_the_strata_equations(a0, E0, e0_aln):
    """Bitwise the term_arrays of the gradients on each built-in stratum's
    equations, which the atom projection reads."""
    from strata_opt.mech import (build_distance_problem_ela, build_distance_problem_piezo,
                                 build_distance_problem_sym2)

    for prob in (build_distance_problem_sym2(a0), build_distance_problem_ela(E0),
                 build_distance_problem_piezo(e0_aln)):
        eqs = [g for g, _ in prob.constraints]
        assert eqs
        X, (C,) = derivative_arrays(eqs, prob.n, (1,))
        want_X, want_C = term_arrays([dg for g in eqs for dg in g.gradient()], prob.n)
        np.testing.assert_array_equal(X, want_X)
        np.testing.assert_array_equal(C, want_C)


@given(st.lists(polynomials(), max_size=4))
@settings(max_examples=60, deadline=None)
def test_derivative_arrays_of_three_orders_share_one_support(polys):
    """Orders 0, 1 and 2 over one support are bitwise the term_arrays of
    the polynomials, their gradients and their gradients' gradients."""
    X, (C0, C1, C2) = derivative_arrays(polys, 2, (0, 1, 2))
    grads = [dp for p in polys for dp in p.gradient()]
    hessians = [ddp for dp in grads for ddp in dp.gradient()]
    want_X, want_C = term_arrays(list(polys) + grads + hessians, 2)
    np.testing.assert_array_equal(X, want_X)
    np.testing.assert_array_equal(np.vstack((C0, C1, C2)), want_C)
    assert (len(C0), len(C1), len(C2)) == (len(polys), 2 * len(polys), 4 * len(polys))
    assert not (X.flags.writeable or C0.flags.writeable or C2.flags.writeable)


def test_gradient_of_known_polynomial():
    x, y = Polynomial.variables(2)
    p = 3.0 * x * x * y - y + 2.0
    dx, dy = p.gradient()
    assert dx == 6.0 * x * y
    assert dy == 3.0 * x * x - 1.0
    assert Polynomial.constant(2, 4.0).gradient() == (Polynomial.zero(2), Polynomial.zero(2))


@pytest.mark.parametrize("k", [2, 3])
def test_forms_from_tensor_is_the_sum_over_index_tuples(k, rng):
    n, out = 4, (2, 3)
    K = rng.normal(size=(n,) * k + out)
    x = Polynomial.variables(n)
    forms = forms_from_tensor(K, k)
    assert len(forms) == math.prod(out)
    for o, form in zip(itertools.product(*map(range, out)), forms):
        direct = sum(float(K[a + o]) * math.prod(x[i] for i in a)
                     for a in itertools.product(range(n), repeat=k))
        assert form.exponents.tolist() == direct.exponents.tolist()
        assert form.coeffs.tolist() == pytest.approx(direct.coeffs.tolist(), rel=1e-14, abs=1e-14)


# -- the representation invariant, against dict references ---------------------

def _dict_add(a, b, sign=1.0):
    out = dict(a)
    for alpha, c in b.items():
        out[alpha] = out.get(alpha, 0.0) + sign * c
    return out


def _dict_mul(a, b):
    out = {}
    for a1, c1 in a.items():
        for a2, c2 in b.items():
            key = tuple(x + y for x, y in zip(a1, a2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _assert_canonical(p, ref, n):
    """Distinct nonnegative rows strictly ascending in graded-lex position,
    nonzero coefficients, both arrays read-only, and p equal to the
    polynomial of the reference map."""
    X, c = p.exponents, p.coeffs
    assert X.dtype == np.int64 and c.dtype == np.float64
    assert X.shape == (len(c), n) and p.n == n
    assert (X >= 0).all()
    assert (np.diff(grlex_position(X)) > 0).all()
    assert c.all()
    assert not X.flags.writeable and not c.flags.writeable
    assert p == Polynomial(n, {alpha: v for alpha, v in ref.items() if v != 0.0})


@st.composite
def dyadic_terms(draw, n):
    """A map over Lambda(n, 3), in a drawn order, with coefficients in
    {-1, -3/4, ..., 1}: sums and products of such maps are exact in any
    order, so the arrays' results must equal the dict references."""
    members = draw(st.permutations(list(map(tuple, lambda_set(n, 3).tolist()))))
    quarters = draw(st.lists(st.integers(-4, 4), min_size=len(members), max_size=len(members)))
    return {alpha: q / 4 for alpha, q in zip(members, quarters) if q}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_representation_invariant(data):
    n = data.draw(st.integers(1, 3))
    a, b = data.draw(dyadic_terms(n)), data.draw(dyadic_terms(n))
    s, r = data.draw(st.floats(-4, 4)), data.draw(st.floats(-4, 4))
    k = data.draw(st.integers(0, 3))
    p, q = Polynomial(n, a), Polynomial(n, b)
    power = {(0,) * n: 1.0}
    for _ in range(k):
        power = _dict_mul(power, a)
    names = ("x", "y", "z")[:n]
    text = "({0})*({1}) - ({0})^2 + ({1})/4".format(format_polynomial(p, names),
                                                   format_polynomial(q, names))
    cases = [
        (p, a),
        (p + q, _dict_add(a, b)),
        (p - q, _dict_add(a, b, -1.0)),
        (p * s, {alpha: c * s for alpha, c in a.items()}),
        (p * q, _dict_mul(a, b)),
        (p ** k, power),
        (p.dilate(r), {alpha: c * r ** sum(alpha) for alpha, c in a.items()}),
        (parse_polynomial(text, names),
         _dict_add(_dict_add(_dict_mul(a, b), _dict_mul(a, a), -1.0),
                   {alpha: c * 0.25 for alpha, c in b.items()})),
    ]
    for i, dp in enumerate(p.gradient()):
        lowered = {alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]: c * alpha[i]
                   for alpha, c in a.items() if alpha[i]}
        cases.append((dp, lowered))
    for res, ref in cases:
        _assert_canonical(res, ref, n)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_representation_invariant_of_forms(data):
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    K = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=2 * n**k, max_size=2 * n**k)),
                 dtype=float).reshape((n,) * k + (2,))
    for o, form in enumerate(forms_from_tensor(K, k)):
        ref = {}
        for idx in itertools.product(range(n), repeat=k):
            alpha = tuple(idx.count(j) for j in range(n))
            ref[alpha] = ref.get(alpha, 0.0) + K[idx + (o,)]
        _assert_canonical(form, ref, n)


def test_one_term_product_that_underflows_is_zero():
    x, y = Polynomial.variables(2)
    tiny = (1e-200 * x) * (1e-200 * y)
    assert tiny.is_zero and tiny.exponents.shape == (0, 2) and tiny.coeffs.shape == (0,)
    _assert_canonical((1e-200 * x) * (1e-200 * y + x), {(2, 0): 1e-200}, 2)
    _assert_canonical((1e-200 * x + y) * (1e-200 * y), {(0, 2): 1e-200}, 2)


@pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy,
                                    copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_polynomials_and_problems_pickle_and_copy(copier, E0):
    """A Polynomial, a DistanceProblem and a PopProblem survive pickle, copy
    and deepcopy, with equal read-only arrays."""
    from strata_opt.mech import build_distance_problem_ela
    from strata_opt.popfile import parse_pop

    x, y = Polynomial.variables(2)
    dist = build_distance_problem_ela(E0)
    pop = parse_pop("var x y\nmin (x - 1)^2 + x*y\neq x^2 + y^2 - 1\nge 1 - x\n")

    def polys(obj):
        if isinstance(obj, Polynomial):
            return [obj]
        return [obj.objective] + [g for g, _ in obj.constraints]

    for obj in (3.0 * x * y - y**3 + 0.5, Polynomial(3, {}), dist, pop):
        again = copier(obj)
        before, after = polys(obj), polys(again)
        assert len(after) == len(before)
        for p, q in zip(before, after):
            assert type(q) is Polynomial and q == p
            np.testing.assert_array_equal(q.exponents, p.exponents)
            np.testing.assert_array_equal(q.coeffs, p.coeffs)
            assert q.exponents.shape == p.exponents.shape
            assert not (q.exponents.flags.writeable or q.coeffs.flags.writeable)
    np.testing.assert_array_equal(copier(dist).x0, dist.x0)
