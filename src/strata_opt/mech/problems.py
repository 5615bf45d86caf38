"""The one form of a stratum-distance problem: an affine map, a metric and x0."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..poly import Polynomial


@dataclass
class DistanceProblem:
    """A stratum-distance problem in reduced coordinates.

    Every stratum distance is min |x - x0|^2 in the tensor norm over the
    reduced (harmonic) coordinates x, subject to the stratum's covariant
    equations.  The affine map x -> fixed + sum_k x_k basis[k] gives the
    candidate tensor's Voigt matrix and ``weights`` the norm's Voigt
    multiplicities; from them one code path derives the Gram matrix Q, the
    objective |x - x0|_Q^2 and the candidate at any x, so each builder
    supplies only its stratum's facts.  The squared distance from the input
    (``reference``) to the candidate at x is ``offset + objective(x)``: the
    offset collects the harmonic components that the stratum drops.  The
    stratum contains the line t * normal_form, and ``x_ref`` is its point
    closest to x0 in Q, t = d^T Q x0 / d^T Q d: a feasible point never
    worse than x = 0, where the automatic ball constant is set.

    Raises ValueError when the squared distance overflows a double.
    """

    reference: np.ndarray     # the input's Voigt matrix
    basis: np.ndarray         # (n, *reference.shape)
    weights: np.ndarray       # Voigt multiplicities of the tensor norm, shaped as reference
    x0: np.ndarray            # the input's reduced coordinates: objective(x0) = 0
    normal_form: np.ndarray   # direction d of a line t * d on the stratum
    constraints: list         # [(Polynomial, "eq")]: the stratum's equations
    var_names: tuple
    fixed: np.ndarray | float = 0.0   # the candidate tensor at x = 0
    offset: float = 0.0
    natural_scale: float = 1.0   # magnitude of the optimal coordinates
    Q: np.ndarray = field(init=False, repr=False)
    objective: Polynomial = field(init=False, repr=False)
    x_ref: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.basis)
        B = self.basis.reshape(n, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            self.Q = (B * self.weights.ravel()) @ B.T
            Qx0 = self.Q @ self.x0
            linear = -2.0 * Qx0
            constant = float(self.x0 @ Qx0)
            # the headroom of 2 keeps the ball constant 1.5 f(x_ref) finite
            total = 2.0 * (self.offset + constant)
        if not (np.isfinite(linear).all() and np.isfinite(total)):
            raise ValueError("the squared distance overflows a double")
        unit = np.eye(n, dtype=np.int64)
        terms = {(0,) * n: constant}
        for k in range(n):
            terms[tuple(unit[k])] = linear[k]
            for l in range(k, n):
                terms[tuple(unit[k] + unit[l])] = self.Q[k, l] * (1.0 if k == l else 2.0)
        self.objective = Polynomial(n, terms)
        Qd = self.Q @ self.normal_form
        self.x_ref = float(Qd @ self.x0) / float(Qd @ self.normal_form) * self.normal_form

    @property
    def n(self) -> int:
        return len(self.basis)

    def minimizer_voigt(self, x) -> np.ndarray:
        """The candidate tensor's Voigt matrix at x."""
        return self.fixed + np.tensordot(np.asarray(x, dtype=float), self.basis, axes=1)

    def tensor_distance(self, x) -> float:
        """|reference - candidate(x)| in the tensor norm, formed directly."""
        diff = self.reference - self.minimizer_voigt(x)
        return float(np.sqrt(np.sum(self.weights * diff * diff)))

    def total_distance(self, bound: float) -> float:
        """Stratum distance from a certified bound on the reduced objective."""
        return float(np.sqrt(max(0.0, self.offset + bound)))
