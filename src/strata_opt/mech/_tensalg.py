"""Low-level tensor algebra shared by the numeric and symbolic paths.

Every function here is written with plain index loops over generic scalar
entries, so the same code serves numpy floats and Polynomial coefficients
(building constraint polynomials is just running the algebra over symbols).
All components refer to an orthonormal basis; the metric is the identity, so
no co/contravariant distinction is made anywhere.
"""

from __future__ import annotations

import itertools

import numpy as np

# Levi-Civita symbol and Euclidean metric
LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0
Q3 = np.eye(3)

# Voigt convention: positions 1..6 <-> index pairs 11, 22, 33, 23, 13, 12
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
PAIR_TO_VOIGT = {}
for _I, (_i, _j) in enumerate(VOIGT_PAIRS):
    PAIR_TO_VOIGT[(_i, _j)] = _I
    PAIR_TO_VOIGT[(_j, _i)] = _I
VOIGT_WEIGHTS = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
# multiplicity of each entry of a 6x6 (fourth-order) and a 3x6 (third-order,
# jk-symmetric) Voigt matrix in the full tensor's squared norm
VOIGT4_WEIGHTS = np.outer(VOIGT_WEIGHTS, VOIGT_WEIGHTS)
VOIGT3_WEIGHTS = np.tile(VOIGT_WEIGHTS, (3, 1))
VOIGT4_WEIGHTS.flags.writeable = VOIGT3_WEIGHTS.flags.writeable = False

# independent slots of a totally symmetric third-order tensor
SYM3_SLOTS = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
    (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
)


def mat_mul(a, b):
    """3x3 generic matrix product."""
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def mat_trace(a):
    return a[0][0] + a[1][1] + a[2][2]


def deviator(a):
    """a - tr(a)/3 * q, entrywise generic."""
    t = mat_trace(a) * (1.0 / 3.0)
    return [[a[i][j] - t * Q3[i, j] for j in range(3)] for i in range(3)]


def symmetrize3(T):
    """Total symmetrization of a third-order tensor (average of 6 transposes)."""
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in itertools.product(range(3), repeat=3):
        acc = T[i][j][k] * 0.0
        for p, q, r in itertools.permutations((i, j, k)):
            acc = acc + T[p][q][r]
        out[i][j][k] = acc * (1.0 / 6.0)
    return out


def cross_sym2_sym2(a, b):
    """Generalized cross product (a x b)_{ijk} = -(a_{il} eps_{ljs} b_{sk})^s."""
    raw = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in itertools.product(range(3), repeat=3):
        acc = a[0][0] * 0.0
        for l in range(3):
            for s in range(3):
                e = LEVI[l, j, s]
                if e:
                    acc = acc + a[i][l] * b[s][k] * e
        raw[i][j][k] = acc
    sym = symmetrize3(raw)
    return [[[sym[i][j][k] * (-1.0) for k in range(3)] for j in range(3)] for i in range(3)]


def cross_sym2_vec(a, v):
    """Cross product of a symmetric tensor with a vector:
    (a x v)_{ij} = -(a_{il} eps_{ljs} v_s) symmetrized over (i, j)."""
    raw = [[a[0][0] * 0.0 for _ in range(3)] for _ in range(3)]
    for i, j in itertools.product(range(3), repeat=2):
        acc = a[0][0] * 0.0
        for l in range(3):
            for s in range(3):
                e = LEVI[l, j, s]
                if e:
                    acc = acc + a[i][l] * v[s] * e
        raw[i][j] = acc
    return [[(raw[i][j] + raw[j][i]) * (-0.5) for j in range(3)] for i in range(3)]


def full4_from_voigt(V):
    """Expand a 6x6 Voigt table into the full fourth-order tensor."""
    return [
        [
            [
                [V[PAIR_TO_VOIGT[(i, j)]][PAIR_TO_VOIGT[(k, l)]] for l in range(3)]
                for k in range(3)
            ]
            for j in range(3)
        ]
        for i in range(3)
    ]


def voigt_from_full4(T):
    return [
        [T[i][j][k][l] for (k, l) in VOIGT_PAIRS]
        for (i, j) in VOIGT_PAIRS
    ]


def full3_from_voigt(V):
    """Expand a 3x6 Voigt table into the full third-order tensor (jk symmetric)."""
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for J, (j, k) in enumerate(VOIGT_PAIRS):
            out[i][j][k] = V[i][J]
            out[i][k][j] = V[i][J]
    return out


def voigt_from_full3(T):
    return [[T[i][j][k] for (j, k) in VOIGT_PAIRS] for i in range(3)]


def norm2_voigt4(V):
    """Squared 81-component norm from the Voigt table (pair multiplicities)."""
    acc = V[0][0] * 0.0
    for I in range(6):
        for J in range(6):
            acc = acc + VOIGT_WEIGHTS[I] * VOIGT_WEIGHTS[J] * V[I][J] * V[I][J]
    return acc


def norm2_voigt3(V):
    """Squared 27-component norm of a jk-symmetric third-order tensor."""
    acc = V[0][0] * 0.0
    for i in range(3):
        for J in range(6):
            acc = acc + VOIGT_WEIGHTS[J] * V[i][J] * V[i][J]
    return acc


def contract_d2_full4(T):
    """(d2)_{ij} = T_{ipqr} T_{pqrj}."""
    out = [[None] * 3 for _ in range(3)]
    for i, j in itertools.product(range(3), repeat=2):
        acc = T[0][0][0][0] * 0.0
        for p, q, r in itertools.product(range(3), repeat=3):
            acc = acc + T[i][p][q][r] * T[p][q][r][j]
        out[i][j] = acc
    return out


def contract_d2_full3(T):
    """(d2)_{ij} = T_{ikl} T_{klj}."""
    out = [[None] * 3 for _ in range(3)]
    for i, j in itertools.product(range(3), repeat=2):
        acc = T[0][0][0] * 0.0
        for k, l in itertools.product(range(3), repeat=2):
            acc = acc + T[i][k][l] * T[k][l][j]
        out[i][j] = acc
    return out


def h4_voigt(p):
    """Voigt table of the fourth-order harmonic tensor with coordinates
    (L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2)."""
    L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2 = p
    return [
        [L2 + L3, -L3, -L2, -X1, Y1 + Y2, -Z2],
        [-L3, L3 + L1, -L1, -X2, -Y1, Z1 + Z2],
        [-L2, -L1, L1 + L2, X1 + X2, -Y2, -Z1],
        [-X1, -X2, X1 + X2, -L1, -Z1, -Y1],
        [Y1 + Y2, -Y1, -Y2, -Z1, -L2, -X1],
        [-Z2, Z1 + Z2, -Z1, -Y1, -X1, -L3],
    ]


def h3_full(p):
    """Full third-order harmonic tensor with free coordinates
    (h111, h112, h122, h123, h222, h223, h333); the remaining slots follow
    from tracelessness h_{i11} + h_{i22} + h_{i33} = 0."""
    h111, h112, h122, h123, h222, h223, h333 = p
    comp = {
        (0, 0, 0): h111,
        (0, 0, 1): h112,
        (0, 0, 2): -h223 - h333,
        (0, 1, 1): h122,
        (0, 1, 2): h123,
        (0, 2, 2): -h111 - h122,
        (1, 1, 1): h222,
        (1, 1, 2): h223,
        (1, 2, 2): -h112 - h222,
        (2, 2, 2): h333,
    }
    out = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), val in comp.items():
        for perm in set(itertools.permutations((i, j, k))):
            out[perm[0]][perm[1]][perm[2]] = val
    return out


def as_array(nested) -> np.ndarray:
    return np.array(nested, dtype=float)
