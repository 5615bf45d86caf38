import numpy as np
import pytest

from strata_opt.mech import ElasticityTensor, PiezoTensor, Sym2Tensor
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
    from strata_opt.mech import _tensalg as ta

    V = np.diag([c11] * 3 + [c44] * 3) + np.pad(np.full((3, 3), c12) - np.diag([c12] * 3), (0, 3))
    T = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, ta.full4_from_voigt(V))
    return ta.voigt_from_full4(T)
