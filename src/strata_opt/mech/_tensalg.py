"""Tensor algebra on numpy arrays.

Every function takes and returns float arrays and broadcasts over leading
axes, so one call serves a single tensor and a stack of them.  A stratum's
equations are its covariant applied to the stacked basis tensors of the
reduced coordinates: that gives the covariant's coefficient tensor, which
``poly.forms_from_tensor`` turns into polynomials.  All components refer to
an orthonormal basis; the metric is the identity, so no co/contravariant
distinction is made anywhere.
"""

from __future__ import annotations

import itertools

import numpy as np

# Levi-Civita symbol and Euclidean metric
LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0
Q3 = np.eye(3)

# Voigt convention: positions 1..6 <-> index pairs 11, 22, 33, 23, 13, 12;
# VOIGT_INDEX[i, j] is the position of the pair (i, j)
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_ROWS, _COLS = np.array(VOIGT_PAIRS).T
VOIGT_INDEX = np.empty((3, 3), dtype=np.intp)
VOIGT_INDEX[_ROWS, _COLS] = VOIGT_INDEX[_COLS, _ROWS] = np.arange(6)
VOIGT_WEIGHTS = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
# multiplicity of each entry of a 6x6 (fourth-order) and a 3x6 (third-order,
# jk-symmetric) Voigt matrix in the full tensor's squared norm
VOIGT4_WEIGHTS = np.outer(VOIGT_WEIGHTS, VOIGT_WEIGHTS)
VOIGT3_WEIGHTS = np.tile(VOIGT_WEIGHTS, (3, 1))
VOIGT4_WEIGHTS.flags.writeable = VOIGT3_WEIGHTS.flags.writeable = False

# the five independent entries 11, 22, 12, 13, 23 of a symmetric deviator
DEV_ROWS, DEV_COLS = np.array([0, 1, 0, 0, 1]), np.array([0, 1, 1, 2, 2])

# independent slots of a totally symmetric third-order tensor;
# SYM3_POSITION[i, j, k] is the position of the slot of (i, j, k)
SYM3_SLOTS = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
    (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
)
_SYM3_AXES = tuple(np.array(SYM3_SLOTS).T)
SYM3_POSITION = np.empty((3, 3, 3), dtype=np.intp)
for _s, _slot in enumerate(SYM3_SLOTS):
    for _perm in itertools.permutations(_slot):
        SYM3_POSITION[_perm] = _s


def sym3_components(T):
    """The 10 independent slots of totally symmetric third-order tensors."""
    return T[(Ellipsis,) + _SYM3_AXES]


def dev(m):
    """Deviatoric part m - tr(m)/3 q of 3x3 matrices (the last two axes)."""
    return m - np.einsum("...ii", m)[..., None, None] * (1.0 / 3.0) * Q3


def symmetrize3(T):
    """Total symmetrization over the last three axes: the mean of the six transposes."""
    lead = tuple(range(T.ndim - 3))
    return sum(np.transpose(T, lead + tuple(T.ndim - 3 + p for p in perm))
               for perm in itertools.permutations(range(3))) / 6.0


def cross_sym2_sym2(a, b):
    """Generalized cross product (a x b)_{ijk} = -(a_{il} eps_{ljs} b_{sk})^s."""
    return -symmetrize3(np.einsum("...il,ljs,...sk->...ijk", a, LEVI, b))


def full4_from_voigt(V):
    """Expand 6x6 Voigt tables into full fourth-order tensors."""
    return V[..., VOIGT_INDEX[:, :, None, None], VOIGT_INDEX]


def voigt_from_full4(T):
    return T[..., _ROWS[:, None], _COLS[:, None], _ROWS, _COLS]


def full3_from_voigt(V):
    """Expand 3x6 Voigt tables into full third-order tensors (jk symmetric)."""
    return V[..., VOIGT_INDEX]


def voigt_from_full3(T):
    return T[..., _ROWS, _COLS]


def check_finite(m) -> None:
    """Refuse an array with an entry that is not finite, naming each one and
    its index."""
    m = np.asarray(m)
    bad = np.argwhere(~np.isfinite(m)) if m.ndim else ()
    if len(bad):
        raise ValueError("tensor entries must be finite, got "
                         + ", ".join(f"{m[tuple(i)]} at {tuple(i.tolist())}" for i in bad))


def check_tol(tol: float) -> None:
    """Refuse a class test's tolerance that is not finite and positive."""
    if not np.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def unit_scaled(m):
    """m divided by the power of two at or above its largest entry: exact, so
    a scale-invariant test reads the same answer without overflow or underflow."""
    return np.ldexp(m, -np.frexp(np.max(np.abs(m)))[1])


def refuse_asymmetry(T, transposes, tol: float, message: str) -> None:
    """Refuse T with message when one of its transposes (axis orders) differs
    from it by more than tol of its largest |entry|; compared at unit size, so
    no difference overflows and the rule reads the same at every scale."""
    u = unit_scaled(T)
    if any(np.max(np.abs(u - np.transpose(u, axes))) > tol * np.max(np.abs(u))
           for axes in transposes):
        raise ValueError(message)


def symmetric_matrix(m, n: int, what: str, tol: float, message: str):
    """m symmetrized, refusing first an entry that is not finite, then another
    shape than n x n and an asymmetry above tol of the largest |entry| (with
    message).  An exactly symmetric m, as every one built here, is kept as it
    is; another is stored as 0.5 m + 0.5 m^T, which no entry overflows."""
    m = np.array(m, dtype=float)
    check_finite(m)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} {what}, got shape {m.shape}")
    if (m != m.T).any():
        refuse_asymmetry(m, [(1, 0)], tol, message)
        m = 0.5 * m + 0.5 * m.T
    return m


def _unit_square_sum(V, W):
    """(sum W (V / 2^e)^2, e), 2^e the power of two at or above V's largest
    |entry|: the scaling is exact, and no square overflows."""
    e = np.frexp(np.max(np.abs(V)))[1]
    return np.sum(W * np.ldexp(V, -e) ** 2), e


def voigt_norm2(V, W) -> float:
    """The squared norm sum W V V of a Voigt table V with multiplicities W,
    the exponent applied once to the unit-size sum: a value beyond the
    doubles reads inf, without a warning."""
    s, e = _unit_square_sum(V, W)
    with np.errstate(over="ignore"):
        return float(np.ldexp(s, 2 * e))


def voigt_norm(V, W) -> float:
    """sqrt(sum W V V), formed at unit size like voigt_norm2."""
    s, e = _unit_square_sum(V, W)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(s), e))


def h4_voigt(p):
    """Voigt tables of the fourth-order harmonic tensors with coordinates
    (L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2) on the last axis."""
    L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    return np.moveaxis(np.array([
        [L2 + L3, -L3, -L2, -X1, Y1 + Y2, -Z2],
        [-L3, L3 + L1, -L1, -X2, -Y1, Z1 + Z2],
        [-L2, -L1, L1 + L2, X1 + X2, -Y2, -Z1],
        [-X1, -X2, X1 + X2, -L1, -Z1, -Y1],
        [Y1 + Y2, -Y1, -Y2, -Z1, -L2, -X1],
        [-Z2, Z1 + Z2, -Z1, -Y1, -X1, -L3],
    ]), (0, 1), (-2, -1))


def h3_full(p):
    """Full third-order harmonic tensors with free coordinates
    (h111, h112, h122, h123, h222, h223, h333) on the last axis; the remaining
    slots follow from tracelessness h_{i11} + h_{i22} + h_{i33} = 0."""
    h111, h112, h122, h123, h222, h223, h333 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    slots = np.array([h111, h112, -h223 - h333, h122, h123,          # in SYM3_SLOTS order
                      -h111 - h122, h222, h223, -h112 - h222, h333])
    return np.moveaxis(slots, 0, -1)[..., SYM3_POSITION]


def h3_coordinates(T):
    """The seven free coordinates of h3_full read off full harmonic tensors."""
    return T[..., [0, 0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 1, 1, 2], [0, 1, 1, 2, 1, 2, 2]]
