"""The one form of a stratum-distance problem: an affine map, a metric and one projection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..poly import Polynomial, _wrap, lambda_set
from ._tensalg import voigt_norm


@dataclass
class DistanceProblem:
    """A stratum-distance problem in reduced coordinates.

    A builder gives only its stratum's facts: the input (``reference``), the
    norm's Voigt multiplicities (``weights``), the directions of the part the
    stratum leaves free (``free``) and of the coordinates x (``basis``), the
    equations in x and a normal form.  The norm splits orthogonally over
    span(free), span(basis) and their complement, so one least-squares
    projection of the reference, scaled by a power of two to unit size,
    gives ``x0``, the candidate's free part ``fixed`` and the ``offset``
    (the complement's squared norm, which no candidate changes); scaling
    the input by 2^j scales them by exactly 2^j, 2^j and 4^j.  Coordinates
    and complement components within the projection's rounding of zero read
    zero, so an input on span(free) + span(basis) has offset 0.  The
    objective is |x - x0|_Q^2, and the squared distance to the candidate
    ``fixed + sum_k x_k basis[k]`` is ``offset + objective(x)``.  ``x_ref``
    is the point of the stratum's line t * normal_form closest to x0 in Q:
    feasible and never worse than x = 0.  ``natural_scale`` is the largest
    |entry| of x0 and of x0 . basis (1 at x0 = 0).

    Raises ValueError when the squared distance overflows a double, a
    nonzero reference's squared norm underflows one, or natural_scale raised
    to the equations' degree is not a normal double: the solver's
    coordinates are x / natural_scale, so the equations' coefficients would
    overflow or underflow there.
    """

    reference: np.ndarray     # the input's Voigt matrix
    weights: np.ndarray       # Voigt multiplicities of the tensor norm, shaped as reference
    free: np.ndarray          # (m, *reference.shape): the part no equation constrains
    basis: np.ndarray         # (n, *reference.shape): the reduced coordinates' directions
    normal_form: np.ndarray   # direction d of a line t * d on the stratum
    constraints: list         # [(Polynomial, "eq")]: the stratum's equations
    var_names: tuple
    x0: np.ndarray = field(init=False)       # the input's coordinates: objective(x0) = 0
    fixed: np.ndarray = field(init=False)    # the candidate tensor at x = 0
    offset: float = field(init=False)
    natural_scale: float = field(init=False)
    Q: np.ndarray = field(init=False, repr=False)
    objective: Polynomial = field(init=False, repr=False)
    x_ref: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, n, W = len(self.free), len(self.basis), self.weights
        # the independent entries (of a square matrix: upper triangle, off-diagonals twice)
        mult = np.triu(2.0 - np.eye(len(W))) if W.shape[0] == W.shape[1] else np.ones(W.shape)
        keep = mult > 0
        root = np.sqrt((W * mult)[keep])
        A = np.concatenate([self.free, self.basis])[:, keep].T * root[:, None]
        e = np.frexp(np.max(np.abs(self.reference)))[1]  # as in unit_scaled
        v = np.ldexp(self.reference, -e)[keep] * root
        q, r = np.linalg.qr(A, mode="complete")  # q[:, m + n:] spans the complement
        c = q.T @ v
        coef = np.linalg.solve(r[:m + n], c[:m + n])
        noise = 2.0 * np.finfo(float).eps * np.linalg.norm(v)
        coef[np.abs(coef) <= noise] = 0.0
        rest = c[m + n:]
        rest[np.abs(rest) <= noise] = 0.0
        B = self.basis.reshape(n, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            self.x0 = np.ldexp(coef[m:], e)
            self.fixed = np.ldexp(coef[:m] @ self.free.reshape(m, W.size), e).reshape(W.shape)
            self.offset = float(np.ldexp(rest @ rest, 2 * e))
            self.Q = (B * W.ravel()) @ B.T
            linear = -2.0 * (self.Q @ self.x0)
            constant = -0.5 * float(self.x0 @ linear)
            # the headroom of 2 keeps the ball constant 1.5 f(x_ref) finite
            total = 2.0 * (self.offset + constant)
            tiny = v.any() and np.ldexp(v @ v, 2 * e) < np.finfo(float).tiny
        if not (np.isfinite(linear).all() and np.isfinite(total)):
            raise ValueError("the squared distance overflows a double")
        if tiny:
            raise ValueError("the squared distance underflows a double")
        self.natural_scale = float(np.max(np.abs(np.append(self.x0, self.x0 @ B)))) or 1.0
        degree = max(g.degree for g, _ in self.constraints)
        with np.errstate(over="ignore"):
            power = np.float64(self.natural_scale) ** degree
        if not np.finfo(float).tiny <= power < np.inf:
            raise ValueError(f"the input's scale {self.natural_scale:.3g} to the power {degree} "
                             "of its equations is not a normal double")
        # lambda_set(n, 2) lists 1, x_1..x_n, then x_k x_l (k <= l) row by row
        quadratic = (self.Q * (2.0 - np.eye(n)))[np.triu_indices(n)]
        self.objective = _wrap(lambda_set(n, 2), np.concatenate([[constant], linear, quadratic]))
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
        return voigt_norm(diff, self.weights)

    def total_distance(self, bound: float) -> float:
        """Stratum distance from a certified bound on the reduced objective."""
        return float(np.sqrt(max(0.0, self.offset + bound)))
