"""Known defects of the solver, each a strict expected failure: the test
asserts what its ROADMAP item promises, and fails by that assertion until
the item is mended.  strict=True turns a mended defect into an XPASS
failure, so the change that mends one removes its marker."""

import numpy as np
import pytest

from strata_opt import distance, pop_solve
from strata_opt.mech import Sym2Tensor
from strata_opt.popfile import parse_pop
from strata_opt.sdp import SolverOptions


def _known_defect(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


@_known_defect(2)
def test_certified_bound_lies_below_f_at_the_validated_atom():
    """min 1e12 x^2 + x^4 over 1 - x^2 >= 0 has its minimum 0 at x = 0: a
    certified bound lies at most the solver's gap tolerance above f at
    every validated atom."""
    rep = pop_solve(parse_pop("var x\nmin 1e12*x^2 + x^4\nge 1 - x^2\n"))
    if rep.status_xi == 1:
        assert rep.minimizers_voigt
        for (x,) in rep.minimizers_voigt:
            value = 1e12 * x * x + x**4
            assert rep.bound <= value + SolverOptions().gap_tol * (1.0 + abs(value)), (rep.bound, x)


@_known_defect(5)
def test_empty_feasible_set_ends_infeasible():
    """min x^2 + 5 with the ball 1 - (x^2 + 5) >= 0, which no x meets."""
    rep = pop_solve(parse_pop("var x\nmin x^2 + 5\nball 1\n"))
    assert rep.status_xi != 1
    assert [p["solver_status"] for p in rep.diagnostics][-1:] == ["infeasible"]


@_known_defect(16)
def test_near_stratum_o2_distances_meet_the_closed_form():
    """a = Q diag(l1, l1 + delta, l3) Q^T, delta log-uniform in [1e-8, 1]:
    its distance to the O2 stratum (a repeated eigenvalue) is
    min(l2 - l1, l3 - l2) / sqrt(2), and every one of 50 draws is certified
    within 1e-6 |a| of it."""
    rng = np.random.default_rng(0)
    misses = []
    for _ in range(50):
        l1, l3 = rng.uniform(-3.0, 3.0, 2)
        lam = np.array([l1, l1 + 10.0 ** rng.uniform(-8.0, 0.0), l3])
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = (Q * lam) @ Q.T
        ev = np.linalg.eigvalsh(a)
        exact = min(ev[1] - ev[0], ev[2] - ev[1]) / np.sqrt(2.0)
        rep = distance(Sym2Tensor.from_matrix(a))
        if rep.status_xi != 1 or abs(rep.distance - exact) > 1e-6 * np.linalg.norm(a):
            misses.append((rep.status_xi, rep.distance, exact))
    assert not misses, f"{len(misses)} of 50 miss the closed form: {misses[:3]}"
