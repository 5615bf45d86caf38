"""Closest cubic elasticity tensor to a measured single-crystal superalloy.

The 21-dimensional distance-to-cubic problem collapses to 9 variables: the
harmonic decomposition E = (alpha, beta, d', v', H) shows that the optimal
cubic tensor keeps alpha and beta, drops the second-order parts (their norm
becomes a constant offset), and only the fourth-order harmonic part H is
optimized, subject to the five quadratic equations dev(H : H) = 0.
"""

import numpy as np

import strata_opt
from strata_opt.datasets import get_dataset
from strata_opt.mech import (
    ElasticityTensor,
    build_distance_problem_ela,
    harmonic_decompose_ela,
)

E0 = ElasticityTensor.from_voigt(get_dataset("E0").voigt)
print("measured stiffness [GPa]:")
print(E0.voigt)

harm = harmonic_decompose_ela(E0)
print(f"\nharmonic decomposition: alpha = {harm.alpha:.1f}, beta = {harm.beta:.1f}")
print("second-order part d':")
print(np.round(harm.dprime.mat, 4))
print("second-order part v':")
print(np.round(harm.vprime.mat, 4))
print("fourth-order harmonic part [H]:")
print(np.round(harm.h4.voigt, 4))

problem = build_distance_problem_ela(E0)
print(f"\nreduced problem: {problem.n} variables, "
      f"{len(problem.constraints)} quadratic equalities, "
      f"constant offset {problem.offset:.4f} GPa^2")

# the paper's ball constant c = 58000 > f(x_ref)
report = strata_opt.distance(E0, c=58000.0, d_max=2)
E_star = np.array(report.minimizers_voigt[0])
print(f"\nstatus           : {report.status_xi:+d} "
      f"(certified at order {report.diagnostics[-1]['d']})")
print(f"certified bound  : {report.bound:.6f} GPa^2")
print(f"distance         : {report.distance:.6f} GPa")
print(f"relative distance: {report.relative_distance:.6f}")
print("\nclosest cubic stiffness [GPa]:")
print(np.round(E_star, 6))

residual = E0.voigt - E_star
print(f"\nlargest stiffness correction: {np.max(np.abs(residual)):.2f} GPa")
