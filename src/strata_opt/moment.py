"""Moment vectors, moment/localizing matrices and LMI assembly of a relaxation.

The order-d relaxation of ``min f over {g_i >= 0}`` is the semidefinite
program over truncated moment sequences y indexed by Lambda(2d):

    minimize <f, y>  s.t.  y_0 = 1,  M_{d-v_i}(g_i . y) >= 0  for all i,

where v_i = ceil(deg(g_i)/2) and g_0 := 1 gives the plain moment matrix.
Each constraint matrix is stored in LMI coefficient form, i.e. as the
stack of symmetric matrices A_alpha with M_{d-v_i}(g_i . y) =
sum_alpha y_alpha A_alpha (the alpha = 0 slice is the constant part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .poly import IndexSet, Polynomial, grlex_position, lambda_set

__all__ = [
    "MomentVector",
    "LMIBlock",
    "RelaxationProblem",
    "constraint_half_degree",
    "minimal_order",
    "shift_vector",
    "moment_matrix",
    "localizing_matrix",
    "assemble_relaxation",
]

EQ = "eq"
GE = "ge"


def constraint_half_degree(g: Polynomial) -> int:
    """v_g = ceil(deg(g)/2); odd-degree constraints round up."""
    return math.ceil(g.degree / 2)


def minimal_order(f: Polynomial, constraints) -> int:
    """Smallest admissible relaxation order d0."""
    d0 = math.ceil(f.degree / 2)
    for g, _kind in constraints:
        d0 = max(d0, constraint_half_degree(g))
    return d0


@dataclass(frozen=True)
class MomentVector:
    """Candidate truncated moment sequence y over Lambda(n, 2d)."""

    n: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        idx = lambda_set(self.n, 2 * self.d)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(idx),):
            raise ValueError(
                f"expected {len(idx)} moments for n={self.n}, d={self.d}, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def index_set(self) -> IndexSet:
        return lambda_set(self.n, 2 * self.d)

    @property
    def y0(self) -> float:
        return float(self.values[0])

    def __getitem__(self, alpha) -> float:
        return float(self.values[self.index_set.position[tuple(alpha)]])

    @classmethod
    def from_dirac(cls, x, d: int) -> "MomentVector":
        """Moments y_alpha = x^alpha of the Dirac measure at x."""
        return cls.from_atoms([x], [1.0], d)

    @classmethod
    def from_atoms(cls, points, weights, d: int) -> "MomentVector":
        """Moments of the atomic measure sum_j w_j * delta_{x_j}."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(weights, dtype=float)
        n = pts.shape[1]
        idx = lambda_set(n, 2 * d)
        vals = np.zeros(len(idx))
        for pos, alpha in enumerate(idx.members):
            vals[pos] = sum(
                wj * np.prod([xj**a for xj, a in zip(p, alpha)]) for p, wj in zip(pts, w)
            )
        return cls(n=n, d=d, values=vals)


def shift_vector(g: Polynomial, y: MomentVector) -> np.ndarray:
    """The shifted sequence (g . y)_alpha = sum_beta g_beta y_{alpha+beta},
    over Lambda(2(d - v_g))."""
    if g.n != y.n:
        raise ValueError(f"variable count mismatch: {g.n} vs {y.n}")
    v = constraint_half_degree(g)
    if v > y.d:
        raise ValueError(f"deg(g)={g.degree} too high for order d={y.d}")
    target = lambda_set(y.n, 2 * (y.d - v))
    src = y.index_set
    out = np.zeros(len(target))
    for pos, alpha in enumerate(target.members):
        acc = 0.0
        for beta, coeff in g.sorted_terms():
            key = tuple(a + b for a, b in zip(alpha, beta))
            if key not in src.position:
                raise ValueError(f"moment index {key} exceeds Lambda(2d)")
            acc += coeff * y.values[src.position[key]]
        out[pos] = acc
    return out


@lru_cache(maxsize=None)
def _sum_positions(n: int, k: int) -> np.ndarray:
    """Position table of M_k: entry (a, b) is the position of
    alpha_a + alpha_b in Lambda(2k), for alpha_a, alpha_b in Lambda(k)."""
    rows = lambda_set(n, k).exponents
    table = grlex_position(rows[:, None, :] + rows[None, :, :])
    table.flags.writeable = False
    return table


def moment_matrix(y: MomentVector, k: int) -> np.ndarray:
    """Moment matrix M_k(y) = (y_{alpha+beta}) over Lambda(k) x Lambda(k)."""
    if k > y.d:
        raise ValueError(f"order k={k} exceeds relaxation order d={y.d}")
    return y.values[_sum_positions(y.n, k)]


def localizing_matrix(g: Polynomial, y: MomentVector, k: int) -> np.ndarray:
    """Localizing matrix M_k(g . y); requires k <= d - v_g."""
    v = constraint_half_degree(g)
    if k > y.d - v:
        raise ValueError(f"order k={k} exceeds d - v_g = {y.d - v}")
    shifted = MomentVector(n=y.n, d=y.d - v, values=shift_vector(g, y))
    return moment_matrix(shifted, k)


@dataclass(frozen=True)
class LMIBlock:
    """One PSD block in LMI coefficient form: sum_alpha y_alpha A[alpha] >= 0."""

    label: str
    g: Polynomial
    v: int
    side: int
    A: np.ndarray = field(repr=False)  # (|Lambda(2d)|, side, side)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Reconstruct the block matrix at a full moment vector."""
        return np.tensordot(values, self.A, axes=1)


@dataclass(frozen=True)
class RelaxationProblem:
    """Order-d relaxation in explicit SDP form."""

    n: int
    d: int
    d0: int
    objective: np.ndarray  # coefficients of f over Lambda(2d), zero padded
    blocks: tuple[LMIBlock, ...]

    @property
    def index_set(self) -> IndexSet:
        return lambda_set(self.n, 2 * self.d)

    @property
    def num_moments(self) -> int:
        return len(self.index_set)

    @property
    def v_max(self) -> int:
        return max((b.v for b in self.blocks[1:]), default=0)

    def objective_value(self, values: np.ndarray) -> float:
        return float(self.objective @ values)


def _block_for(g: Polynomial, label: str, d: int, idx2d: IndexSet) -> LMIBlock:
    n = g.n
    v = constraint_half_degree(g)
    k = d - v
    table = _sum_positions(n, k)
    side = table.shape[0]
    deltas = np.array(list(g.terms), dtype=np.int64).reshape(-1, n)
    coeffs = np.array(list(g.terms.values()), dtype=float)
    # shift[p, t]: position in Lambda(2d) of (the p-th member of Lambda(2k)) + delta_t
    shift = grlex_position(lambda_set(n, 2 * k).exponents[:, None, :] + deltas[None, :, :])
    rows = np.arange(side)
    A = np.zeros((len(idx2d), side, side))
    # each (moment, row, col) entry receives exactly one coefficient, so one
    # indexed assignment equals accumulating the terms one by one
    A[shift[table], rows[:, None, None], rows[None, :, None]] = coeffs
    return LMIBlock(label=label, g=g, v=v, side=side, A=A)


def assemble_relaxation(f: Polynomial, constraints, d: int) -> RelaxationProblem:
    """Build the order-d relaxation of min f over {g >= 0 / h = 0}.

    ``constraints`` is a list of ``(Polynomial, kind)`` with kind "ge" or
    "eq"; each equality h = 0 is compiled into the two localizing blocks
    of h >= 0 and -h >= 0.
    """
    n = f.n
    for g, kind in constraints:
        if g.n != n:
            raise ValueError("all constraint polynomials must share the variable count")
        if kind not in (EQ, GE):
            raise ValueError(f"unknown constraint kind {kind!r}")
    d0 = minimal_order(f, constraints)
    if d < d0:
        raise ValueError(f"relaxation order d={d} below minimal order d0={d0}")

    idx2d = lambda_set(n, 2 * d)
    objective = np.zeros(len(idx2d))
    for alpha, coeff in f.sorted_terms():
        objective[idx2d.position[alpha]] = coeff

    blocks = [_block_for(Polynomial.constant(n, 1.0), "moment", d, idx2d)]
    for i, (g, kind) in enumerate(constraints, start=1):
        if kind == GE:
            blocks.append(_block_for(g, f"g{i}", d, idx2d))
        else:
            blocks.append(_block_for(g, f"g{i}+", d, idx2d))
            blocks.append(_block_for(-g, f"g{i}-", d, idx2d))
    return RelaxationProblem(n=n, d=d, d0=d0, objective=objective, blocks=tuple(blocks))
