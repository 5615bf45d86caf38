"""Distance to cubic piezoelectricity across a wurtzite alloy series.

For third-order piezoelectricity tensors the cubic stratum is g = 0 and
dev(h : h) = 0, where h is the leading harmonic part; the closest cubic
tensor is simply the optimal h.  The alloy series shows the raw tensors
drifting relative to cubic symmetry as the chromium concentration grows.
"""

import numpy as np

import strata_opt
from strata_opt.datasets import CR_SWEEP, get_dataset
from strata_opt.mech import PiezoTensor, piezo_harmonic_part

e0 = PiezoTensor(voigt=np.array(get_dataset("aln").voigt))
print("raw AlN tensor [C/m^2]:")
print(e0.voigt)

split = piezo_harmonic_part(e0)
print(f"\n|g|^2 = {split.g.norm2():.6f} (non-harmonic residual, fixed cost)")
print(f"|h|^2 = {split.h.norm2():.6f} (leading harmonic part, optimized)")

report = strata_opt.distance(e0, c=3.0, d_max=2)
print(f"\nAlN: status {report.status_xi:+d}, bound {report.bound:.6f} C^2/m^4, "
      f"distance {report.distance:.6f} C/m^2, relative {report.relative_distance:.6f}")
print("closest cubic tensor [C/m^2]:")
print(np.round(report.minimizers_voigt[0], 6))

print("\nconcentration sweep (ball constant c = 1.5 f(x_ref)):")
print(f"  {'x':>7s} {'distance':>10s} {'relative':>10s} {'order':>6s}")
for ds_id in CR_SWEEP:
    report = strata_opt.distance(PiezoTensor(voigt=np.array(get_dataset(ds_id).voigt)), d_max=2)
    x_label = "0" if ds_id == "aln" else ds_id[2:]
    print(f"  {x_label:>7s} {report.distance:10.6f} {report.relative_distance:10.6f} "
          f"{report.diagnostics[-1]['d']:6d}")
