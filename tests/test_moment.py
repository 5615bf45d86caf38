import numpy as np
import pytest

from strata_opt.moment import (
    EQ,
    GE,
    MomentVector,
    _block_for,
    _sum_positions,
    assemble_relaxation,
    constraint_half_degree,
    minimal_order,
    moment_matrix,
)
from strata_opt.poly import Polynomial, lambda_set

from conftest import term_dict


def shift_vector(g: Polynomial, y: MomentVector) -> np.ndarray:
    """The shifted sequence (g . y)_alpha = sum_beta g_beta y_{alpha+beta}
    over Lambda(2(d - v_g)), one term at a time: the reference for the rows
    of LMIBlock."""
    if g.n != y.n:
        raise ValueError(f"variable count mismatch: {g.n} vs {y.n}")
    v = constraint_half_degree(g)
    if v > y.d:
        raise ValueError(f"deg(g)={g.degree} too high for order d={y.d}")
    position = _positions(y.n, 2 * y.d)
    return np.array([sum(c * y.values[position[tuple(a + b for a, b in zip(alpha, beta))]]
                         for beta, c in term_dict(g).items())
                     for alpha in _positions(y.n, 2 * (y.d - v))])


def localizing_matrix(g: Polynomial, y: MomentVector, k: int) -> np.ndarray:
    """Localizing matrix M_k(g . y), the dense reference for LMIBlock;
    requires k <= d - v_g."""
    v = constraint_half_degree(g)
    if k > y.d - v:
        raise ValueError(f"order k={k} exceeds d - v_g = {y.d - v}")
    shifted = MomentVector(n=y.n, d=y.d - v, values=shift_vector(g, y))
    return moment_matrix(shifted, k)


def _dirac(x, d):
    return MomentVector.from_dirac(np.asarray(x, dtype=float), d)


class TestMomentVector:
    def test_item_is_the_moment(self):
        y = _dirac([2.0, 3.0], 1)
        assert y[(1, 1)] == 6.0 and y[(0, 2)] == 9.0 and y[(0, 0)] == 1.0

    @pytest.mark.parametrize("alpha", [(1,), (1, 0, 0), (-1, 1), (2, -1), (2, 1), (0, 3),
                                       (0.5, 1)])
    def test_item_outside_lambda_2d_raises(self, alpha):
        """Wrong length, a negative or fractional entry, or degree above 2d:
        grlex_position alone would give (-1, 1) the position of (0, 1)."""
        with pytest.raises(KeyError):
            _dirac([2.0, 3.0], 1)[alpha]


class TestShiftVector:
    def test_unit_polynomial_truncates(self, rng):
        y = MomentVector(n=2, d=2, values=rng.normal(size=len(lambda_set(2, 4))))
        out = shift_vector(Polynomial.constant(2, 1.0), y)
        np.testing.assert_array_equal(out, y.values)

    def test_dirac_shift_scales(self):
        x = np.array([2.0, 0.0, 1.0])
        y = _dirac(x, 2)
        out = shift_vector(Polynomial.variable(0, 3), y)
        # v = 1 for a linear g, so the target set is Lambda(2(d-1))
        position = _positions(3, 4)
        for pos, alpha in enumerate(map(tuple, lambda_set(3, 2).tolist())):
            assert out[pos] == pytest.approx(2.0 * y.values[position[alpha]], rel=1e-14)

    def test_single_term_is_shifted_copy(self, rng):
        y = MomentVector(n=2, d=2, values=rng.normal(size=len(lambda_set(2, 4))))
        g = Polynomial.monomial((1, 1), 3.0)
        out = shift_vector(g, y)
        position = _positions(2, 4)
        for pos, (a0, a1) in enumerate(lambda_set(2, 2).tolist()):
            assert out[pos] == pytest.approx(3.0 * y.values[position[(a0 + 1, a1 + 1)]])

    def test_degree_overflow_rejected(self):
        y = _dirac([1.0], 1)
        with pytest.raises(ValueError):
            shift_vector(Polynomial.monomial((3,), 1.0), y)


class TestMomentMatrix:
    def test_dirac_rank_one_structure(self, rng):
        x = rng.normal(size=3)
        y = _dirac(x, 2)
        for k in (1, 2):
            M = moment_matrix(y, k)
            mono = np.array([np.prod(x**np.array(a)) for a in lambda_set(3, k)])
            np.testing.assert_allclose(M, np.outer(mono, mono), rtol=1e-12, atol=1e-12)
            assert np.linalg.matrix_rank(M, tol=1e-9) == 1

    def test_two_atom_rank_two(self):
        y = MomentVector.from_atoms([[1.0, 0.5], [-0.3, 2.0]], [0.5, 0.5], 2)
        M = moment_matrix(y, 2)
        assert np.linalg.matrix_rank(M, tol=1e-9) == 2

    def test_pinned_y0_pattern(self):
        vals = np.zeros(len(lambda_set(3, 2)))
        vals[0] = 1.0
        y = MomentVector(n=3, d=1, values=vals)
        M = moment_matrix(y, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(M, expected)

    def test_order_bound(self):
        y = _dirac([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            moment_matrix(y, 2)


class TestLocalizingMatrix:
    def test_unit_is_moment_matrix(self, rng):
        y = MomentVector(n=2, d=2, values=rng.normal(size=len(lambda_set(2, 4))))
        np.testing.assert_array_equal(
            localizing_matrix(Polynomial.constant(2, 1.0), y, 2), moment_matrix(y, 2)
        )

    def test_annihilation_on_variety(self):
        # g(x) = 1 - x1^2 - x2^2 vanishes at the support point
        x = np.array([0.6, 0.8])
        g = Polynomial.constant(2, 1.0) - Polynomial.monomial((2, 0)) - Polynomial.monomial((0, 2))
        y = _dirac(x, 2)
        M = localizing_matrix(g, y, 1)
        np.testing.assert_allclose(M, np.zeros_like(M), atol=1e-12)

    def test_ball_dirac_is_scaled_outer_product(self):
        x = np.array([0.5, -1.0])
        x0 = np.array([0.1, 0.2])
        c = 10.0
        g = Polynomial.constant(2, c)
        for i in range(2):
            xi = Polynomial.variable(i, 2)
            diff = xi - float(x0[i])
            g = g - diff * diff
        y = _dirac(x, 2)
        M = localizing_matrix(g, y, 1)
        mono = np.array([np.prod(x**np.array(a)) for a in lambda_set(2, 1)])
        gval = c - np.sum((x - x0) ** 2)
        np.testing.assert_allclose(M, gval * np.outer(mono, mono), rtol=1e-12)
        assert np.linalg.eigvalsh(M)[0] >= -1e-12


class TestAssemble:
    def test_smallest_instance(self):
        f = Polynomial.variable(0, 1)
        prob = assemble_relaxation(f, [], 1)
        assert len(prob.blocks) == 1
        moment_block = prob.blocks[0]
        assert moment_block.side == 2
        # one 2x2 LMI [[1, y1], [y1, y2]], objective y1
        y = np.array([1.0, 0.3, 0.5])
        np.testing.assert_array_equal(moment_block.evaluate(y), [[1.0, 0.3], [0.3, 0.5]])
        np.testing.assert_array_equal(prob.objective, [0.0, 1.0, 0.0])

    def test_block_sides_sym2_problem(self, a0):
        from strata_opt.mech import build_distance_problem_sym2

        prob = build_distance_problem_sym2(a0)
        from strata_opt.hierarchy import add_ball_constraint

        cons = add_ball_constraint(prob.objective, prob.constraints, 300.0)
        rel = assemble_relaxation(prob.objective, cons, 2)
        sides = [b.side for b in rel.blocks]
        # 5 deviator coordinates: moment 21 and ball 6; ten cubic equalities
        # of one row each (v = 2)
        assert sides == [21, 6]
        assert [eq.shift.shape[0] for eq in rel.equalities] == [1] * 10
        assert rel.v_max == 2
        assert rel.num_moments == len(lambda_set(5, 4)) == 126
        assert assemble_relaxation(prob.objective, cons, 3).num_moments == 462

    def test_block_sides_ela_problem(self, E0):
        from strata_opt.mech import build_distance_problem_ela
        from strata_opt.hierarchy import add_ball_constraint

        prob = build_distance_problem_ela(E0)
        cons = add_ball_constraint(prob.objective, prob.constraints, 58000.0)
        rel = assemble_relaxation(prob.objective, cons, 1)
        sides = [b.side for b in rel.blocks]
        assert sides[0] == len(lambda_set(9, 1)) == 10
        assert sides[1:] == [1]  # the ball; 5 equalities of one row each
        assert [eq.shift.shape[0] for eq in rel.equalities] == [1] * 5
        assert rel.num_moments == 55

    def test_assembly_matches_localizing_matrices(self, rng):
        n = 2
        f = Polynomial.monomial((2, 0)) + Polynomial.monomial((0, 2))
        g1 = Polynomial.constant(n, 1.0) - Polynomial.monomial((2, 0)) - Polynomial.monomial((0, 2))
        g2 = Polynomial.variable(0, n) * Polynomial.variable(1, n) - 0.1
        constraints = [(g1, GE), (g2, EQ)]
        d = 2
        rel = assemble_relaxation(f, constraints, d)
        y = MomentVector(n=n, d=d, values=rng.normal(size=rel.num_moments))
        np.testing.assert_allclose(
            rel.blocks[0].evaluate(y.values), moment_matrix(y, d), atol=1e-12
        )
        np.testing.assert_allclose(
            rel.blocks[1].evaluate(y.values), localizing_matrix(g1, y, d - 1), atol=1e-12
        )
        # the equality's rows are the distinct entries of its localizing matrix
        eq = rel.equalities[0]
        rows = y.values[eq.shift] @ eq.coeffs
        np.testing.assert_allclose(rows, shift_vector(g2, y), atol=1e-12)
        np.testing.assert_array_equal(eq.base, _sum_positions(n, d - 1))
        np.testing.assert_allclose(eq.evaluate(y.values), localizing_matrix(g2, y, d - 1), atol=1e-12)

    def test_objective_consistency(self, rng):
        f = Polynomial(2, {(0, 0): 3.0, (1, 1): -2.0, (2, 0): 1.0})
        rel = assemble_relaxation(f, [], 2)
        y = MomentVector(n=2, d=2, values=rng.normal(size=rel.num_moments))
        position = _positions(2, 4)
        manual = sum(c * y.values[position[tuple(a)]]
                     for a, c in zip(f.exponents.tolist(), f.coeffs))
        assert rel.objective @ y.values == pytest.approx(manual, rel=1e-13)

    def test_nesting_prefix_blocks(self):
        f = Polynomial.monomial((2,), 1.0)
        g = Polynomial.constant(1, 4.0) - Polynomial.monomial((2,), 1.0)
        rel_d = assemble_relaxation(f, [(g, GE)], 2)
        rel_d1 = assemble_relaxation(f, [(g, GE)], 3)
        # positions are graded-lex prefixes: the order-d table is the
        # top-left corner of the order-(d+1) one, with the same coefficients
        for b_small, b_big in zip(rel_d.blocks, rel_d1.blocks):
            s = b_small.side
            np.testing.assert_array_equal(b_big.shift[b_big.base[:s, :s]],
                                          b_small.shift[b_small.base])
            np.testing.assert_array_equal(b_big.coeffs, b_small.coeffs)

    def test_all_coefficient_matrices_symmetric(self):
        f = Polynomial.monomial((2, 0)) - Polynomial.monomial((1, 1), 3.0)
        g = Polynomial.constant(2, 2.0) - Polynomial.monomial((0, 2))
        h = Polynomial.variable(0, 2) * Polynomial.variable(1, 2) - 0.5
        rel = assemble_relaxation(f, [(g, GE), (h, EQ)], 2)
        y = np.random.default_rng(0).normal(size=rel.num_moments)
        for blk in rel.blocks:
            # entries (a, b) and (b, a) read the same row of g . y
            np.testing.assert_array_equal(blk.base, blk.base.T)
            np.testing.assert_array_equal(blk.evaluate(y), blk.evaluate(y).T)

    def test_minimal_order_enforced(self):
        f = Polynomial.monomial((4,), 1.0)
        with pytest.raises(ValueError):
            assemble_relaxation(f, [], 1)
        assert minimal_order(f, []) == 2

    def test_odd_degree_constraint_rounds_up(self):
        g = Polynomial.monomial((3,), 1.0)
        assert minimal_order(Polynomial.variable(0, 1), [(g, GE)]) == 2


def _positions(n, k):
    """Reference positions in graded-lex order, independent of
    grlex_position: the row of each exponent vector in lambda_set(n, k)."""
    return {alpha: i for i, alpha in enumerate(map(tuple, lambda_set(n, k).tolist()))}


def _block_by_entries(g, d, idx2d):
    """Reference assembly: the coefficient array filled one entry at a time;
    idx2d maps the exponent vectors of Lambda(2d) to their positions."""
    rows = lambda_set(g.n, d - constraint_half_degree(g)).tolist()
    side = len(rows)
    A = np.zeros((len(idx2d), side, side))
    for a, alpha in enumerate(rows):
        for b in range(a, side):
            base = tuple(x + z for x, z in zip(alpha, rows[b]))
            for delta, coeff in zip(g.exponents.tolist(), g.coeffs):
                pos = idx2d[tuple(x + z for x, z in zip(base, delta))]
                A[pos, a, b] += coeff
                if b != a:
                    A[pos, b, a] += coeff
    return A


def _cancelling_poly(rng, n, deg):
    """A random polynomial of exact degree deg, built by arithmetic in which
    repeated monomials add up and some terms cancel exactly."""
    members = list(map(tuple, lambda_set(n, deg).tolist()))
    top = [a for a in members if sum(a) == deg]
    p = Polynomial.monomial(top[rng.integers(len(top))], float(rng.normal()) + 3.0)
    for _ in range(2 * len(members)):
        mono = Polynomial.monomial(members[rng.integers(len(members))], float(rng.normal()))
        p = p + mono
        if rng.random() < 0.3:
            p = p - mono
    return p


class TestVectorizedAssembly:
    @pytest.mark.parametrize("n,deg,d", [(1, 0, 1), (1, 3, 2), (1, 5, 4), (2, 1, 2),
                                         (2, 4, 3), (3, 3, 2), (4, 2, 2), (6, 1, 2)])
    def test_block_equals_entrywise_loop_bitwise(self, n, deg, d):
        rng = np.random.default_rng([n, deg, d])
        idx2d = _positions(n, 2 * d)
        for _ in range(3):
            g = _cancelling_poly(rng, n, deg)
            assert g.degree == deg
            blk = _block_for(g, d)
            ref = _block_by_entries(g, d, idx2d)
            # each (moment, row, col) entry of the table carries one coefficient
            A = np.zeros(ref.shape)
            positions = blk.shift[blk.base]
            a, b, t = np.indices(positions.shape)
            A[positions, a, b] = blk.coeffs[t]
            assert A.tobytes() == ref.tobytes()
            y = rng.normal(size=len(idx2d))
            np.testing.assert_allclose(blk.evaluate(y), np.tensordot(y, ref, axes=1),
                                       rtol=1e-12, atol=1e-12)

    def test_zero_constraint_gives_zero_block(self):
        x = Polynomial.variable(0, 2)
        blk = _block_for(x - x, 1)
        assert blk.side == 3 and not np.any(blk.coeffs)
        assert not np.any(blk.evaluate(np.ones(len(lambda_set(2, 2)))))

    @pytest.mark.parametrize("n,d", [(1, 3), (3, 2), (6, 2)])
    def test_moment_matrix_equals_entrywise_lookup(self, rng, n, d):
        y = MomentVector(n=n, d=d, values=rng.normal(size=len(lambda_set(n, 2 * d))))
        position = _positions(n, 2 * d)
        for k in range(d + 1):
            rows = lambda_set(n, k).tolist()
            ref = np.array([[y.values[position[tuple(x + z for x, z in zip(a, b))]] for b in rows]
                            for a in rows])
            assert moment_matrix(y, k).tobytes() == ref.tobytes()

