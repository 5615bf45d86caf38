"""Moment vectors, moment/localizing matrices and LMI assembly of a relaxation.

The order-d relaxation of ``min f over {g_i >= 0, h_j = 0}`` is the
semidefinite program over truncated moment sequences y indexed by Lambda(2d):

    minimize <f, y>  s.t.  y_0 = 1,  M_{d-v_i}(g_i . y) >= 0  for all i,
                           (h_j . y)_gamma = 0  for gamma in Lambda(2(d-v_j)),

where v = ceil(deg/2) and g_0 := 1 gives the plain moment matrix.

Each PSD block is stored as the rows of its shifted sequence, read through
a base table: with delta_t the exponents of g, k = d - v and

    (g . y)_gamma = sum_t g_t y[shift[gamma, t]],   shift[gamma, t] = pos(gamma + delta_t)

for gamma in Lambda(2k), the block is M_k(g . y)[a, b] = (g . y)[base[a, b]],
base the s x s table of M_k (base[a, b] = position of alpha_a + alpha_b).
An index set Lambda(k) is the exponent array lambda_set(n, k) and pos is
grlex_position, so every table is one gather over such arrays.
A_alpha, the coefficient matrix of y_alpha, is never formed.  An equality
h = 0 is the same block M_{d-v}(h . y), whose rows must vanish:
(h . y)_gamma = 0 for gamma in Lambda(2(d - v)), the distinct entries of the
block, so the feasible set is that of the PSD pair M_{d-v}(+-h . y) >= 0
without the pair's empty interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .poly import Polynomial, grlex_position, lambda_set, monomials

__all__ = [
    "MomentVector",
    "LMIBlock",
    "RelaxationProblem",
    "constraint_half_degree",
    "minimal_order",
    "shift_vector",
    "moment_matrix",
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
        size = math.comb(self.n + 2 * self.d, self.n)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (size,):
            raise ValueError(
                f"expected {size} moments for n={self.n}, d={self.d}, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def __getitem__(self, alpha) -> float:
        """y_alpha; KeyError for an alpha outside Lambda(2d)."""
        a = np.asarray(alpha)
        if a.shape != (self.n,) or np.any((a < 0) | (a % 1 != 0)) or a.sum() > 2 * self.d:
            raise KeyError(alpha)
        return float(self.values[grlex_position(a)])

    @classmethod
    def from_dirac(cls, x, d: int) -> "MomentVector":
        """Moments y_alpha = x^alpha of the Dirac measure at x."""
        return cls.from_atoms([x], [1.0], d)

    @classmethod
    def from_atoms(cls, points, weights, d: int) -> "MomentVector":
        """Moments of the atomic measure sum_j w_j * delta_{x_j}."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[1]
        vals = np.asarray(weights, dtype=float) @ monomials(lambda_set(n, 2 * d), pts)
        return cls(n=n, d=d, values=vals)


def shift_vector(g: Polynomial, y: MomentVector) -> np.ndarray:
    """The shifted sequence (g . y)_alpha = sum_beta g_beta y_{alpha+beta},
    over Lambda(2(d - v_g))."""
    if g.n != y.n:
        raise ValueError(f"variable count mismatch: {g.n} vs {y.n}")
    v = constraint_half_degree(g)
    if v > y.d:
        raise ValueError(f"deg(g)={g.degree} too high for order d={y.d}")
    block = _block_for(g, y.d)
    return y.values[block.shift] @ block.coeffs


@lru_cache(maxsize=None)
def _sum_positions(n: int, k: int) -> np.ndarray:
    """Position table of M_k: entry (a, b) is the position of
    alpha_a + alpha_b in Lambda(2k), for alpha_a, alpha_b in Lambda(k)."""
    rows = lambda_set(n, k)
    table = grlex_position(rows[:, None, :] + rows[None, :, :])
    table.flags.writeable = False
    return table


def moment_matrix(y: MomentVector, k: int) -> np.ndarray:
    """Moment matrix M_k(y) = (y_{alpha+beta}) over Lambda(k) x Lambda(k)."""
    if k > y.d:
        raise ValueError(f"order k={k} exceeds relaxation order d={y.d}")
    return y.values[_sum_positions(y.n, k)]


@dataclass(frozen=True)
class LMIBlock:
    """One block M_k(g . y): the rows of the shifted sequence g . y, read
    through a base table.  Row gamma is (g . y)_gamma = sum_t coeffs[t] *
    y[shift[gamma, t]], and entry (a, b) of the block is row base[a, b].
    An inequality asks the block to be PSD, an equality its rows to vanish.
    An assembled block of order k has base the table of M_k and gamma
    running over Lambda(2k); any symmetric base with entries
    0..len(shift) - 1 is a block."""

    v: int
    base: np.ndarray = field(repr=False)    # (side, side) rows of shift
    shift: np.ndarray = field(repr=False)   # (rows, t) positions in Lambda(2d)
    coeffs: np.ndarray = field(repr=False)  # (t,)

    @property
    def side(self) -> int:
        return self.base.shape[0]

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """The block matrix at a full moment vector."""
        return (np.asarray(values)[self.shift] @ self.coeffs)[self.base]


@dataclass(frozen=True)
class RelaxationProblem:
    """Order-d relaxation in explicit SDP form."""

    n: int
    d: int
    objective: np.ndarray  # coefficients of f over Lambda(2d), zero padded
    blocks: tuple[LMIBlock, ...]           # PSD
    equalities: tuple[LMIBlock, ...] = ()  # rows vanish

    @property
    def num_moments(self) -> int:
        return math.comb(self.n + 2 * self.d, self.n)

    @property
    def v_max(self) -> int:
        return max((c.v for c in self.blocks[1:] + self.equalities), default=0)


def _block_for(g: Polynomial, d: int) -> LMIBlock:
    """The order-d block M_k(g . y), k = d - v: shift[p, t] is the position in
    Lambda(2d) of (the p-th member of Lambda(2k)) + delta_t, coeffs g's."""
    n, v = g.n, constraint_half_degree(g)
    shift = grlex_position(lambda_set(n, 2 * (d - v))[:, None, :] + g.exponents[None, :, :])
    return LMIBlock(v=v, base=_sum_positions(n, d - v), shift=shift, coeffs=g.coeffs)


def assemble_relaxation(f: Polynomial, constraints, d: int) -> RelaxationProblem:
    """Build the order-d relaxation of min f over {g >= 0 / h = 0}.

    ``constraints`` is a list of ``(Polynomial, kind)`` with kind "ge" or
    "eq"; each becomes the localizing block of its polynomial, a PSD block
    for an inequality and rows that vanish for an equality.
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

    objective = np.zeros(math.comb(n + 2 * d, n))
    objective[grlex_position(f.exponents)] = f.coeffs

    blocks = [_block_for(Polynomial.constant(n, 1.0), d)]
    equalities = []
    for g, kind in constraints:
        (blocks if kind == GE else equalities).append(_block_for(g, d))
    return RelaxationProblem(n=n, d=d, objective=objective, blocks=tuple(blocks),
                             equalities=tuple(equalities))
