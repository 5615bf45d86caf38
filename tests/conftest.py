import numpy as np
import pytest

from strata_opt.mech import (ElaHarmonic, ElasticityTensor, PiezoTensor, Sym2Tensor, d2prime_piezo,
                              tensor_prod_4, tensor_prod_22)
from strata_opt.mech import _tensalg as ta
from strata_opt.mech.elasticity import _isotropic_voigt
from strata_opt.poly import Polynomial


@pytest.fixture
def rng():
    return np.random.default_rng(20230711)


@pytest.fixture
def a0():
    return Sym2Tensor.from_matrix([[-7.0, 4.0, -4.0], [4.0, 5.0, -2.0], [-4.0, -2.0, 5.0]])


@pytest.fixture
def E0():
    return ElasticityTensor.from_voigt(
        [
            [243.0, 136.0, 135.0, 22.0, 52.0, -17.0],
            [136.0, 239.0, 137.0, -28.0, 11.0, 16.0],
            [135.0, 137.0, 233.0, 29.0, -49.0, 3.0],
            [22.0, -28.0, 29.0, 133.0, -10.0, -4.0],
            [52.0, 11.0, -49.0, -10.0, 119.0, -2.0],
            [-17.0, 16.0, 3.0, -4.0, -2.0, 130.0],
        ]
    )


@pytest.fixture
def e0_aln():
    return PiezoTensor(
        voigt=np.array(
            [
                [0.0, 0.0, -0.0505, -0.0394, -0.2854, -0.0637],
                [-0.0637, -0.0042, 0.0332, -0.2818, -0.0058, 0.0185],
                [-0.5807, -0.5822, 1.4607, 0.0022, 0.0002, 0.0043],
            ]
        )
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish rotation from QR orthonormalization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def poly_allclose(p, q, tol=1e-12):
    """Coefficient-wise comparison of two polynomials."""
    _, C = term_arrays([p, q], p.n)
    return bool(np.all(np.abs(C[0] - C[1]) <= tol))


def term_dict(p):
    """The map {alpha: c} of a polynomial's terms, for references built in tests."""
    return dict(zip(map(tuple, p.exponents.tolist()), p.coeffs.tolist()))


def term_arrays(polys, n):
    """Polynomials in n variables over their common support, X (T, n) in
    graded-lex order, and their coefficients C (len(polys), T): polys[i] =
    sum_t C[i, t] x^X[t].  The reference for derivative_arrays' orders."""
    rows = sorted({a for p in polys for a in term_dict(p)}, key=lambda a: (sum(a), [-e for e in a]))
    column = {a: t for t, a in enumerate(rows)}
    C = np.zeros((len(polys), len(rows)))
    for i, p in enumerate(polys):
        for a, c in term_dict(p).items():
            C[i, column[a]] = c
    return np.array(rows, dtype=np.int64).reshape(len(rows), n), C


def gradient(p):
    """(dp/dx_1, ..., dp/dx_n), term by term."""
    terms = term_dict(p)
    return tuple(Polynomial(p.n, {a[:i] + (a[i] - 1,) + a[i + 1:]: c * a[i]
                                  for a, c in terms.items() if a[i]})
                 for i in range(p.n))


def rotated_cubic_voigt(c11, c12, c44, g) -> np.ndarray:
    """The Voigt matrix of the cubic crystal (c11, c12, c44) rotated by g."""
    V = np.diag([c11] * 3 + [c44] * 3) + np.pad(np.full((3, 3), c12) - np.diag([c12] * 3), (0, 3))
    T = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, ta.full4_from_voigt(V))
    return ta.voigt_from_full4(T)


def recompose_ela(h: ElaHarmonic) -> ElasticityTensor:
    """E = E_iso + q (x)_4 a + q (x)_22 b + H, the inverse of
    harmonic_decompose_ela."""
    q = Sym2Tensor(mat=np.eye(3))
    a = Sym2Tensor(mat=2.0 / 7.0 * (h.dprime.mat + 2.0 * h.vprime.mat))
    b = Sym2Tensor(mat=2.0 * (h.dprime.mat - h.vprime.mat))
    V = (_isotropic_voigt(h.alpha, h.beta) + tensor_prod_4(q, a).voigt
         + tensor_prod_22(q, b).voigt + h.h4.voigt)
    return ElasticityTensor(voigt=V)


def ela_norm2_split(h: ElaHarmonic) -> float:
    """|E|^2 from the harmonic components:

        |E|^2 = 5 k4^2 + 4 k22^2 + 2/21 |d' + 2v'|^2 + 4/3 |d' - v'|^2 + |H|^2,

    the weights 5 and 4 on the isotropic coefficients k4 = (alpha + 2 beta)/15
    and k22 = (alpha - beta)/6."""
    k4 = (h.alpha + 2.0 * h.beta) / 15.0
    k22 = (h.alpha - h.beta) / 6.0
    dp, vp = h.dprime.mat, h.vprime.mat
    return float(
        5.0 * k4**2 + 4.0 * k22**2
        + 2.0 / 21.0 * np.einsum("ij,ij", dp + 2 * vp, dp + 2 * vp)
        + 4.0 / 3.0 * np.einsum("ij,ij", dp - vp, dp - vp)
        + h.h4.norm2()
    )


def h4_coordinates(V):
    """The nine coordinates of ta.h4_voigt read off harmonic Voigt tables: the
    entries at which h4_voigt places -L1, ..., -Z2."""
    return -V[..., [1, 0, 0, 0, 1, 1, 2, 2, 0], [2, 2, 1, 3, 3, 4, 4, 5, 5]]


def invariants_h3(h: PiezoTensor) -> tuple[float, float, float, float, float]:
    """Integrity basis (I2, I4, I6, I10, I15) of a third-order harmonic tensor:

        I2 = |h|^2, I4 = |d2'|^2, I6 = |v3|^2, I10 = |d2' x v3|^2,
        I15 = det(v3, v5, v7),

    with v3 = h : d2', v5 = d2' . v3, v7 = d2' . v5 and the cross product
    (a x v)_ij = -(a_il eps_ljs v_s) symmetrized over (i, j)."""
    T = h.full()
    d2p = d2prime_piezo(h).mat
    v3 = np.einsum("ijk,jk->i", T, d2p)
    v5 = d2p @ v3
    v7 = d2p @ v5
    I2 = float(np.einsum("ijk,ijk", T, T))
    I4 = float(np.einsum("ij,ij", d2p, d2p))
    I6 = float(v3 @ v3)
    raw = np.einsum("il,ljs,s->ij", d2p, ta.LEVI, v3)
    cross = -0.5 * (raw + raw.T)
    I10 = float(np.einsum("ij,ij", cross, cross))
    I15 = float(np.linalg.det(np.column_stack([v3, v5, v7])))
    return (I2, I4, I6, I10, I15)
