"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with `pytest -v -s tests/test_acceptance.py`)."""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from strata_opt import distance
from strata_opt.datasets import CR_SWEEP, get_dataset
from strata_opt.hierarchy import (
    HierarchyOptions,
    add_ball_constraint,
    extract_minimizers,
    run_hierarchy,
)
from strata_opt.mech import (
    ElasticityTensor,
    PiezoTensor,
    Sym2Tensor,
    build_distance_problem_ela,
    build_distance_problem_piezo,
    build_distance_problem_sym2,
    cross_gen,
    d2prime_ela,
    d2prime_piezo,
    deviatoric_coordinates,
    ela_norm2_split,
    harmonic_decompose_ela,
    invariants_h3,
    is_cubic_piezo,
    piezo_harmonic_part,
    recompose_ela,
    traceless,
)
from strata_opt.mech._tensalg import h3_full, h4_voigt, voigt_from_full4
from strata_opt.moment import GE, MomentVector, assemble_relaxation, minimal_order
from strata_opt.poly import Polynomial, lambda_set
from strata_opt.sdp import SolverOptions, solve_sdp

from conftest import random_rotation


def _report(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: PASS - {message}")


def test_criterion_1_transverse_isotropy_sym2():
    a0 = Sym2Tensor.from_matrix(get_dataset("a0").voigt)
    prob = build_distance_problem_sym2(a0)
    x_ref = deviatoric_coordinates(Sym2Tensor.from_matrix(get_dataset("b").voigt))
    constraints = add_ball_constraint(prob.objective, prob.constraints, 300.0, x_ref)

    t0 = time.perf_counter()
    res = run_hierarchy(prob.objective, constraints, HierarchyOptions(d_max=3))
    elapsed = time.perf_counter() - t0

    assert res.status_xi == 1
    assert res.order_reached == 2
    assert abs(res.bound - 18.0) <= 1e-3

    astar_exact = np.array([[-44.0, 20.0, -20.0], [20.0, 31.0, 5.0], [-20.0, 5.0, 31.0]]) / 6.0
    a_star = prob.minimizer_voigt(res.minimizers[0])
    assert np.max(np.abs(a_star - astar_exact)) <= 1e-2

    a_star_t = Sym2Tensor.from_matrix(a_star, tol=1e-6)
    residual = cross_gen(Sym2Tensor(mat=a_star_t.mat @ a_star_t.mat), a_star_t).max_abs()
    assert residual / a0.norm() ** 3 <= 1e-6
    assert elapsed <= 30.0

    _report(1, f"distance^2 = {res.bound:.6f} at order 2, "
               f"minimizer error {np.max(np.abs(a_star - astar_exact)):.2e}, "
               f"constraint residual {residual / a0.norm() ** 3:.2e}, {elapsed:.1f} s")


def test_criterion_2_cubic_elasticity():
    E0 = ElasticityTensor.from_voigt(get_dataset("E0").voigt)
    prob = build_distance_problem_ela(E0)
    constraints = add_ball_constraint(prob.objective, prob.constraints, 58000.0, np.zeros(9))

    t0 = time.perf_counter()
    res = run_hierarchy(prob.objective, constraints, HierarchyOptions(d_max=2))
    elapsed = time.perf_counter() - t0

    assert res.status_xi == 1
    assert res.order_reached == 1
    assert abs(res.bound - 2530.474727) <= 0.5

    x_paper = np.array([-36.401489, -20.227012, -38.908985, -6.396664, 27.780748,
                        -2.277546, 44.251364, -4.557344, 21.161507])
    x = res.minimizers[0]
    assert np.max(np.abs(x - x_paper)) <= 5e-3

    delta = prob.total_distance(res.bound)
    assert abs(delta - 74.131148) <= 0.05
    assert abs(delta / E0.norm() - 0.103910) <= 1e-4

    estar_paper = np.array([
        [240.130669, 144.442318, 125.760345, 6.39666, 41.97381, -21.161507],
        [144.442318, 223.956191, 141.934823, -27.780748, 2.277546, 16.604162],
        [125.760345, 141.934823, 242.638164, 21.384084, -44.251364, 4.557344],
        [6.39666, -27.780748, 21.384084, 133.268156, 4.557344, 2.277546],
        [41.973817, 2.277546, -44.251364, 4.557344, 117.093678, 6.39666],
        [-21.161507, 16.604162, 4.557344, 2.277546, 6.39666, 135.775651],
    ])
    Estar = prob.minimizer_voigt(x)
    assert np.max(np.abs(Estar - estar_paper)) <= 0.05

    H0 = harmonic_decompose_ela(E0).h4
    d2p = d2prime_ela(ElasticityTensor(h4_voigt(x))).norm()
    assert d2p <= 1e-4 * H0.norm2()
    assert elapsed <= 10.0

    _report(2, f"rho = {res.bound:.6f} GPa^2 at order 1, Delta = {delta:.6f} GPa, "
               f"relative = {delta / E0.norm():.6f}, d2' residual {d2p / H0.norm2():.2e}, "
               f"{elapsed:.1f} s")


def test_criterion_3_cubic_piezoelectricity_aln():
    e0 = PiezoTensor(voigt=np.array(get_dataset("aln").voigt))
    prob = build_distance_problem_piezo(e0)
    constraints = add_ball_constraint(prob.objective, prob.constraints, 3.0, np.zeros(7))

    t0 = time.perf_counter()
    res = run_hierarchy(prob.objective, constraints, HierarchyOptions(d_max=2))
    elapsed = time.perf_counter() - t0

    assert res.status_xi == 1
    assert res.order_reached == 1
    assert abs(res.bound - 1.060855) <= 1e-3

    h_paper = np.array([-0.075476, -0.426450, 0.088998, -0.005937, 0.412070,
                        -0.308913, 0.609783])
    x = res.minimizers[0]
    assert np.max(np.abs(x - h_paper)) <= 1e-3

    delta = prob.total_distance(res.bound)
    assert abs(delta - 1.214681) <= 1e-3
    assert abs(delta / e0.norm() - 0.684256) <= 1e-3
    assert elapsed <= 10.0

    _report(3, f"rho = {res.bound:.6f} C^2/m^4 at order {res.order_reached}, "
               f"Delta = {delta:.6f} C/m^2, relative = {delta / e0.norm():.6f}, {elapsed:.1f} s")


TABLE1 = {
    "aln": (1.214681, 0.684256),
    "cr0.035": (1.307327, 0.715295),
    "cr0.07": (1.364909, 0.729065),
    "cr0.10": (1.541726, 0.785604),
    "cr0.13": (1.542293, 0.758240),
    "cr0.16": (1.665883, 0.793355),
    "cr0.19": (1.852505, 0.813719),
    "cr0.225": (1.877377, 0.781094),
    "cr0.255": (1.944763, 0.752770),
}


# Full index pairs of the Voigt columns 11, 22, 33, 23, 13, 12.
_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

# Unit sym(e1 x e2 x e3): every cubic piezoelectricity tensor is t R*h_c.
_CUBIC_H3 = np.zeros((3, 3, 3))
for _perm in itertools.permutations(range(3)):
    _CUBIC_H3[_perm] = 1.0
_CUBIC_H3 /= np.linalg.norm(_CUBIC_H3)


def _cubic_orbit_distance(voigt, rng, starts=8):
    """Distance from a 3x6 piezoelectricity tensor to the cubic stratum by
    direct search over the cubic orbit; shares no code with the package.

    For a rotation R the best multiple of R*h_c leaves the residual
    |e0|^2 - <e0, R*h_c>^2, so Delta^2 = |e0|^2 - max_R <e0, R*h_c>^2.  Each
    Nelder-Mead start maximizes over a rotation vector drawn from `rng`.  The
    result is reached by a cubic tensor, so it bounds the true distance
    from above.
    """
    T = np.zeros((3, 3, 3))
    for J, (j, k) in enumerate(_VOIGT_PAIRS):
        T[:, j, k] = T[:, k, j] = voigt[:, J]

    def neg_projection2(w):
        R = Rotation.from_rotvec(w).as_matrix()
        return -np.einsum("ijk,ia,jb,kc,abc", T, R, R, R, _CUBIC_H3) ** 2

    best = max(
        -minimize(neg_projection2, rng.uniform(-np.pi, np.pi, 3), method="Nelder-Mead",
                  options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000}).fun
        for _ in range(starts)
    )
    return float(np.sqrt(max(0.0, np.einsum("ijk,ijk", T, T) - best)))


def test_criterion_4_concentration_sweep():
    """Nine-point wurtzite Cr_x Al_(1-x) N sweep: every row certifies at
    d_max = 2, and every certified Delta is confirmed by two routes that do
    not go through the bound.

    - The extracted minimizer is a cubic tensor at distance Delta from e0.
    - A direct search over the cubic orbit (`_cubic_orbit_distance`) reaches
      Delta.  Twenty different seeds all came within 5e-7 of the values
      pinned in `tests/test_sweep_regression.py`.

    TABLE1 is checked in full only on the x = 0 row (aln), which it matches
    to 2e-6.  Its eight x > 0 rows are not the distances of the embedded
    tensors.  Each sits 0.0065..0.0398 above a distance that a cubic tensor
    reaches, and a true distance cannot exceed a reached one.  For cr0.035
    the row's own Delta / relative = 1.82768 is not the embedded tensor's
    norm (1.79839), so that row was computed on a different tensor; the
    other seven imply the embedded norms to 1e-5.  Whether the fault lies in
    the embedded tensors or in the table cannot be settled without the
    source tensors, so for x > 0 the test only requires that no table value
    undercuts a certified bound.
    """
    t0 = time.perf_counter()
    rows = {}
    for ds_id in CR_SWEEP:
        e0 = PiezoTensor(voigt=np.array(get_dataset(ds_id).voigt))
        report = distance(e0, d_max=2)
        assert report.status_xi == 1, ds_id
        rows[ds_id] = (e0, report.distance, np.array(report.minimizers_voigt[0]))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 90.0

    d_exp, r_exp = TABLE1["aln"]
    e0, delta, _ = rows["aln"]
    assert abs(delta - d_exp) <= 1e-5
    assert abs(delta / e0.norm() - r_exp) <= 1e-5

    rng = np.random.default_rng(20220711)
    for ds_id, (e0, delta, closest) in rows.items():
        assert abs(PiezoTensor(voigt=e0.voigt - closest).norm() - delta) <= 5e-5, ds_id
        assert is_cubic_piezo(PiezoTensor(voigt=closest)), ds_id
        assert abs(_cubic_orbit_distance(e0.voigt, rng) - delta) <= 5e-5, ds_id
        assert delta <= TABLE1[ds_id][0] + 5e-5, ds_id

    offsets = ", ".join(f"{i} {d - TABLE1[i][0]:+.1e}" for i, (_, d, _) in rows.items())
    _report(4, f"nine concentrations certified and matched by extraction and direct "
               f"search; Delta - table: {offsets}; {elapsed:.1f} s total")


def _random_pop(rng):
    n = int(rng.integers(1, 4))
    deg = int(rng.integers(2, 5))
    members = list(map(tuple, lambda_set(n, deg).tolist()))
    terms = {}
    for alpha in members:
        if rng.random() < 0.45:
            terms[alpha] = float(rng.normal())
    f = Polynomial(n, terms)
    if f.degree == 0:
        f = f + Polynomial.variable(0, n)
    ball = Polynomial.constant(n, 4.0)
    for i in range(n):
        xi = Polynomial.variable(i, n)
        ball = ball - xi * xi
    return n, f, [(ball, GE)]


def test_criterion_5_hierarchy_monotonicity():
    rng = np.random.default_rng(918273)
    gap = SolverOptions().gap_tol
    t0 = time.perf_counter()
    checked = 0
    for _trial in range(20):
        n, f, constraints = _random_pop(rng)
        d0 = minimal_order(f, constraints)
        bounds = []
        for d in (d0, d0 + 1):
            sol = solve_sdp(assemble_relaxation(f, constraints, d))
            assert sol.status == "optimal", (n, f.degree, d)
            bounds.append(sol.objective)
        assert bounds[0] <= bounds[1] + 10.0 * gap

        pts = rng.uniform(-2.0, 2.0, size=(3 * 10**5, n))
        pts = pts[np.sum(pts**2, axis=1) <= 4.0][: 10**5]
        assert len(pts) == 10**5
        best = float(np.min(f.evaluate(pts)))
        for b in bounds:
            assert b <= best + 10.0 * gap
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(5, f"{checked} random POPs: bounds nondecreasing and below the "
               f"best of 1e5 feasible samples, {elapsed:.1f} s")


def test_criterion_6_property_suites(rng):
    # degree-6 invariant identity (1e-9 relative)
    for _ in range(25):
        m = rng.normal(size=(3, 3))
        a = Sym2Tensor(mat=0.5 * (m + m.T))
        ap = traceless(a).mat
        lhs = 12.0 * cross_gen(Sym2Tensor(mat=a.mat @ a.mat), a).norm2()
        rhs = np.trace(ap @ ap) ** 3 - 6.0 * np.trace(ap @ ap @ ap) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    # norm splits (1e-10 relative) and decomposition roundtrips (1e-12)
    for _ in range(25):
        v = rng.normal(size=(6, 6)) * 5
        E = ElasticityTensor(voigt=0.5 * (v + v.T))
        direct = float(np.einsum("ijkl,ijkl", E.full(), E.full()))
        harm = harmonic_decompose_ela(E)
        assert ela_norm2_split(harm) == pytest.approx(direct, rel=1e-10)
        np.testing.assert_allclose(recompose_ela(harm).voigt, E.voigt,
                                   rtol=1e-12, atol=1e-12 * max(1.0, direct))

        e = PiezoTensor(voigt=rng.normal(size=(3, 6)))
        split = piezo_harmonic_part(e)
        assert e.norm2() == pytest.approx(split.g.norm2() + split.h.norm2(), rel=1e-10)
        np.testing.assert_allclose(split.g.full() + split.h.full(), e.full(), atol=1e-12)

    # covariant equivariance under 50 random rotations (1e-9)
    H = ElasticityTensor(h4_voigt(rng.normal(size=9)))
    TH = H.full()
    dH = d2prime_ela(H).mat
    h = PiezoTensor.from_full(h3_full(rng.normal(size=7)))
    Th = h.full()
    dh = d2prime_piezo(h).mat
    inv_base = invariants_h3(h)
    for _ in range(50):
        g = random_rotation(rng)
        Hr = ElasticityTensor(np.array(voigt_from_full4(
            np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, TH))))
        np.testing.assert_allclose(d2prime_ela(Hr).mat, g @ dH @ g.T,
                                   atol=1e-9 * max(1.0, np.max(np.abs(dH))))
        hr = PiezoTensor.from_full(np.einsum("ia,jb,kc,abc->ijk", g, g, g, Th))
        np.testing.assert_allclose(d2prime_piezo(hr).mat, g @ dh @ g.T,
                                   atol=1e-9 * max(1.0, np.max(np.abs(dh))))
        for val, val_r in zip(inv_base, invariants_h3(hr)):
            assert val_r == pytest.approx(val, rel=1e-9, abs=1e-11)

    # Smith-Bao relations on 100 random tensors
    for _ in range(100):
        h = PiezoTensor.from_full(h3_full(rng.normal(size=7)))
        I2, I4, I6, I10, I15 = invariants_h3(h)
        T = h.full()
        d2 = np.einsum("ikl,klj->ij", T, T)
        v3 = np.einsum("ijk,jk->i", T, d2 - np.trace(d2) / 3.0 * np.eye(3))
        K4 = float(np.trace(d2 @ d2))
        K10 = float(np.einsum("ijk,i,j,k", T, v3, v3, v3))
        w = np.einsum("i,ijk,j->k", v3, T, v3)
        K15 = float(np.linalg.det(np.column_stack([v3, d2 @ v3, w])))
        s = max(1.0, I2)
        assert K4 == pytest.approx(I4 + I2**2 / 3.0, rel=1e-10, abs=1e-10 * s**2)
        assert K10 == pytest.approx(
            -4.0 / 3.0 * I10 - I2**3 * I4 / 27.0 + I2**2 * I6 / 9.0
            + 2.0 / 9.0 * I2 * I4**2 + 2.0 / 3.0 * I4 * I6,
            rel=1e-9, abs=1e-9 * s**5)
        assert K15 == pytest.approx(2.0 * I15, rel=1e-9, abs=1e-9 * s**7)

    # d2' brute-force contraction equivalence on 100 random inputs (1e-10)
    for _ in range(100):
        H = ElasticityTensor(h4_voigt(rng.normal(size=9)))
        T = H.full()
        d2 = np.einsum("ipqr,pqrj->ij", T, T)
        ref = d2 - np.trace(d2) / 3.0 * np.eye(3)
        np.testing.assert_allclose(d2prime_ela(H).mat, ref,
                                   rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(ref))))
        h = PiezoTensor.from_full(h3_full(rng.normal(size=7)))
        T = h.full()
        d2 = np.einsum("ikl,klj->ij", T, T)
        ref = d2 - np.trace(d2) / 3.0 * np.eye(3)
        np.testing.assert_allclose(d2prime_piezo(h).mat, ref,
                                   rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    _report(6, "degree-6 identity, norm splits, roundtrips, 50-rotation "
               "equivariance, Smith-Bao x100, contraction audits x100")


def test_criterion_7_extraction_oracle():
    # constructed two-atom moment vectors: both atoms to 1e-8
    y = MomentVector.from_atoms([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5], 2)
    pts, w = extract_minimizers(y, 2, 2, tol=1e-8, rng=np.random.default_rng(0))
    got = sorted(p[0] for p in pts)
    np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-8)
    np.testing.assert_allclose(sorted(w), [0.5, 0.5], atol=1e-8)

    y2 = MomentVector.from_atoms([[0.3, -0.7], [0.5, 1.1]], [0.25, 0.75], 2)
    pts2, _ = extract_minimizers(y2, 2, 2, tol=1e-8, rng=np.random.default_rng(0))
    got2 = sorted(map(tuple, np.round(pts2, 9)))
    np.testing.assert_allclose(got2[0], (0.3, -0.7), atol=1e-8)
    np.testing.assert_allclose(got2[1], (0.5, 1.1), atol=1e-8)

    # the double-well hierarchy extracts both symmetric minimizers
    x = Polynomial.variable(0, 1)
    f = (x * x - 1.0) ** 2
    constraints = add_ball_constraint(f, [], 3.0, np.array([0.5]))
    res = run_hierarchy(f, constraints, HierarchyOptions(d_max=4))
    assert res.status_xi == 1
    assert abs(res.bound) <= 1e-6
    got = sorted(float(p[0]) for p in res.minimizers)
    np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-4)

    _report(7, "two-atom vectors recovered to 1e-8; double well yields both "
               f"minimizers at order {res.order_reached}")


def test_criterion_8_sdp_unit_suite():
    from test_sdp import _correlation_problem, _interval_problem

    sol1 = solve_sdp(_correlation_problem())
    assert sol1.status == "optimal"
    assert abs(sol1.objective - (-1.0)) <= 1e-8

    sol2 = solve_sdp(_interval_problem())
    assert sol2.status == "optimal"
    assert abs(sol2.objective) <= 1e-8

    again = solve_sdp(_correlation_problem())
    assert again.trace == sol1.trace  # bitwise-identical iterate sequence
    np.testing.assert_array_equal(again.y.values, sol1.y.values)

    _report(8, f"analytic SDPs solved to {max(abs(sol1.objective + 1), abs(sol2.objective)):.1e}; "
               "repeated solves bitwise identical")
