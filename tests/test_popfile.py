import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_opt.poly import Polynomial, lambda_set
from strata_opt.popfile import (
    PopFormatError,
    PopProblem,
    format_polynomial,
    format_pop,
    parse_polynomial,
    parse_pop,
)


class TestPolynomialText:
    def test_parse_basic(self):
        p = parse_polynomial("x^2 + 2*x*y - 3", ("x", "y"))
        assert p.coefficient((2, 0)) == 1.0
        assert p.coefficient((1, 1)) == 2.0
        assert p.coefficient((0, 0)) == -3.0

    def test_parentheses_and_unary_minus(self):
        p = parse_polynomial("-(x - 1)^2", ("x",))
        assert p == -(Polynomial.variable(0, 1) - 1.0) ** 2

    def test_rational_constant(self):
        p = parse_polynomial("2026042/35", ("x",))
        assert p.coefficient((0,)) == pytest.approx(2026042 / 35, rel=1e-15)

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(PopFormatError):
            parse_polynomial("1/x", ("x",))

    def test_unknown_variable_rejected(self):
        with pytest.raises(PopFormatError):
            parse_polynomial("x + z", ("x", "y"))

    def test_format_then_parse_identity(self):
        p = parse_polynomial("0.5*x^3 - x*y + 4*y^2 - 7", ("x", "y"))
        text = format_polynomial(p, ("x", "y"))
        assert parse_polynomial(text, ("x", "y")) == p

    def test_print_idempotent(self):
        p = parse_polynomial("3*x^2*y - 0.25*y + 11", ("x", "y"))
        once = format_polynomial(p, ("x", "y"))
        twice = format_polynomial(parse_polynomial(once, ("x", "y")), ("x", "y"))
        assert once == twice

    def test_zero_polynomial(self):
        assert format_polynomial(Polynomial.zero(2), ("x", "y")) == "0"
        assert parse_polynomial("0", ("x", "y")).is_zero


@st.composite
def small_polys(draw):
    members = list(map(tuple, lambda_set(2, 3).tolist()))
    coeffs = draw(st.lists(
        st.one_of(st.just(0.0), st.integers(-9, 9).map(float),
                  st.floats(-4, 4, allow_nan=False)),
        min_size=len(members), max_size=len(members)))
    return Polynomial(2, dict(zip(members, coeffs)))


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_roundtrip_random_polynomials(p):
    text = format_polynomial(p, ("u", "v"))
    assert parse_polynomial(text, ("u", "v")) == p


class TestPopFiles:
    def test_full_problem(self):
        text = """
        # toy problem
        var x1 x2
        min x1^2 + x2^2 - x1*x2
        eq x1 + x2 - 1
        ge x1
        ball 10
        """
        prob = parse_pop(text)
        assert prob.var_names == ("x1", "x2")
        assert prob.ball == 10.0
        assert len(prob.constraints) == 2
        assert prob.constraints[0][1] == "eq"
        assert prob.constraints[1][1] == "ge"

    def test_round_trip(self):
        text = "var x\nmin x^2 - x\nge 1 - x\nball 5.5\n"
        prob = parse_pop(text)
        again = parse_pop(format_pop(prob))
        assert again.var_names == prob.var_names
        assert again.objective == prob.objective
        assert again.constraints == prob.constraints
        assert again.ball == prob.ball

    def test_missing_var_rejected(self):
        with pytest.raises(PopFormatError):
            parse_pop("min x^2")

    def test_missing_min_rejected(self):
        with pytest.raises(PopFormatError):
            parse_pop("var x\nge x")

    def test_duplicate_min_rejected(self):
        with pytest.raises(PopFormatError):
            parse_pop("var x\nmin x\nmin x^2")

    def test_duplicate_ball_rejected(self):
        with pytest.raises(PopFormatError, match="line 4: duplicate ball statement"):
            parse_pop("var x\nmin x^2\nball 3\nball 5\n")

    @pytest.mark.parametrize("statement, message", [
        ("min x +", "unexpected end of line"),
        ("min (x", "expected ')', got end of line"),
        ("min x^", "exponent must be a nonnegative integer, got end of line"),
    ])
    def test_errors_at_the_end_of_a_line_name_it(self, statement, message):
        with pytest.raises(PopFormatError) as info:
            parse_pop(f"var x\n{statement}\n")
        assert str(info.value) == f"line 2: {message}"

    def test_line_numbers_in_errors(self):
        with pytest.raises(PopFormatError, match="line 3"):
            parse_pop("var x\nmin x\nge x + bogus\n")

    @pytest.mark.parametrize("text, line, message", [
        ("var x\nmin 1e999*x^2 + x\n", 2, "number '1e999' overflows"),
        ("var x\nmin x^2\nge 1e400 - x^2\n", 3, "number '1e400' overflows"),
        ("var x\nmin x^2\n\nge 1e200*1e200*x\n", 4, "coefficient overflows"),
        ("var x\nmin x^2 + (1e300*x)^2\n", 2, "coefficient overflows"),
        ("var x\nmin 1e200*1e200*x - 1e200*1e200*x\n", 2, "coefficient overflows"),  # inf - inf
        ("var x\nmin x^2\nball inf\n", 3, "ball needs a finite number"),
        ("var x\nmin x^2\nball nan\n", 3, "ball needs a finite number"),
    ])
    def test_non_finite_numbers_rejected(self, text, line, message):
        with pytest.raises(PopFormatError, match=f"line {line}: .*{message}"):
            parse_pop(text)

    def test_largest_finite_numbers_accepted(self):
        prob = parse_pop("var x\nmin 1.7e308*x^2 + 1e-320*x\nge 1e200*1e100 - x^2\n")
        assert prob.objective.coefficient((2,)) == 1.7e308
        assert prob.constraints[0][0].coefficient((0,)) == 1e300

    def test_generated_distance_problem_round_trips(self, a0):
        from strata_opt.mech import build_distance_problem_sym2

        dp = build_distance_problem_sym2(a0)
        pop = PopProblem(var_names=dp.var_names, objective=dp.objective,
                         constraints=list(dp.constraints), ball=300.0)
        again = parse_pop(format_pop(pop))
        assert again.objective == dp.objective
        assert [g for g, _ in again.constraints] == [g for g, _ in dp.constraints]


def _long_sum(num_terms, seed=0):
    """A sum of num_terms monomial terms in x, y over about num_terms / 2
    distinct monomials, so that monomials repeat, and with coefficients whose
    partial sums are exact, so that some of them cancel to zero.  Returns the
    text and the terms as (sign, coefficient, exponent)."""
    rng = np.random.default_rng(seed)
    members = list(map(tuple, lambda_set(2, 80).tolist()))[: max(1, num_terms // 2)]
    terms = []
    while len(terms) < num_terms:
        alpha = members[rng.integers(len(members))]
        c = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        terms.append((sign, c, alpha))
        if rng.random() < 0.2:  # the same term back with the other sign
            terms.append((-sign, c, alpha))
    terms = terms[:num_terms]
    parts = []
    for sign, c, alpha in terms:
        factors = [repr(c)] + [f"{v}^{a}" for v, a in zip("xy", alpha) if a]
        parts.append(("-" if sign < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    text += "".join(f" {op} {body}" for op, body in parts[1:])
    return text, terms


class TestLongSums:
    def test_parses_to_the_term_by_term_sum(self):
        text, terms = _long_sum(2000)
        ref = Polynomial.zero(2)
        for sign, c, alpha in terms:
            mono = Polynomial.monomial(alpha, c)
            ref = ref + mono if sign > 0 else ref - mono
        p = parse_polynomial(text, ("x", "y"))
        assert p == ref
        assert list(p.terms.items()) == list(ref.terms.items())
        assert len(p.terms) < len(set(alpha for _, _, alpha in terms))  # some cancelled

    def test_validation_grows_linearly(self, monkeypatch):
        counted = []
        validate = Polynomial.__init__

        def counting_init(self, n, terms=None):
            counted.append(len(terms or {}))
            validate(self, n, terms)

        monkeypatch.setattr(Polynomial, "__init__", counting_init)

        def validated_terms(num_terms):
            counted.clear()
            parse_polynomial(_long_sum(num_terms)[0], ("x", "y"))
            return sum(counted)

        assert validated_terms(2000) <= 2.2 * validated_terms(1000)
