"""Distance from an orthotropic second-order tensor to transverse isotropy.

The closed stratum of tensors with at least transverse isotropy is cut out
by the ten cubic equations a^2 x a = 0 (generalized cross product), so the
squared distance from a fixed tensor is a polynomial optimization problem.
This script certifies the distance for the classic orthotropic example,
compares with its known closed-form solution, and shows how the coercivity
ball constant affects certification.
"""

import numpy as np

from strata_opt.datasets import get_dataset
from strata_opt.hierarchy import HierarchyOptions, add_ball_constraint, run_hierarchy
from strata_opt.mech import (
    Sym2Tensor,
    build_distance_problem_sym2,
    classify_sym2,
    deviatoric_coordinates,
)

a0 = Sym2Tensor.from_matrix(get_dataset("a0").voigt)
print("input tensor a0:")
print(a0.mat)

cls = classify_sym2(a0)
print(f"\nisotropy class: {cls.label}")
print(f"  |a'|/|a| = {cls.isotropy_residual:.3e}, |a^2 x a|/|a|^3 = {cls.transverse_residual:.3e}")

# The known closed-form answer: squared distance exactly 18, with minimizer
a_exact = np.array([[-44.0, 20.0, -20.0], [20.0, 31.0, 5.0], [-20.0, 5.0, 31.0]]) / 6.0

# Only the deviator a' is constrained (a^2 x a = a'^2 x a'), so the problem
# is posed in the coordinates of a' in an orthonormal basis of the traceless
# symmetric matrices; the isotropic part of the closest tensor is a0's.
problem = build_distance_problem_sym2(a0)
print(f"\nreduced problem: {problem.n} variables (the deviator a'), "
      f"{len(problem.constraints)} cubic equality constraints")

# reference feasible point used to validate the ball constant
x_ref = deviatoric_coordinates(Sym2Tensor(mat=np.diag([1.0, 1.0, -2.0])))

print("\ncertifying with ball constant c = 300:")
constraints = add_ball_constraint(problem.objective, problem.constraints, 300.0, x_ref)
result = run_hierarchy(problem.objective, constraints, HierarchyOptions(d_max=3))
a_star = problem.minimizer_voigt(result.minimizers[0])
print(f"  status          : {result.status_xi:+d} (certified at order {result.order_reached})")
print(f"  squared distance: {result.bound:.6f}   (closed form: 18)")
print(f"  minimizer error : {np.max(np.abs(a_star - a_exact)):.2e} per component")
print(f"  trace           : {np.trace(a_star):.6f}   (input: {a0.trace():.6f})")
print("  closest transversely isotropic tensor:")
print(np.round(a_star, 6))

print("\nsensitivity to the ball constant (certification is eventually lost):")
for c in (202.0, 450.0, 600.0):
    constraints = add_ball_constraint(problem.objective, problem.constraints, c, x_ref)
    result = run_hierarchy(problem.objective, constraints, HierarchyOptions(d_max=2))
    last = result.diagnostics[-1]
    print(f"  c = {c:5.0f}: status {result.status_xi:+d}, bound {result.bound:10.6f}, "
          f"moment ranks ({last.rank_low}, {last.rank_high})")
