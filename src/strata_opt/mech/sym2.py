"""Symmetric second-order tensors and the transversely isotropic stratum.

The closed stratum of tensors with at least transverse isotropy ([O(2)]) is
the variety a^2 x a = 0, where x is the generalized cross product; three
equal eigenvalues (isotropy, [SO(3)]) is a' = 0, and the generic class is
orthotropy ([D2]).  The covariant depends on the deviator a' alone, so the
distance problem is posed in the 5 coordinates of a' in an orthonormal basis
(deviatoric_coordinates); the isotropic part of the closest tensor is the
input's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..poly import Polynomial, _wrap, forms_from_tensor
from ..moment import EQ
from . import _tensalg as ta
from .problems import DistanceProblem

__all__ = [
    "Sym2Tensor",
    "Sym3Tensor",
    "cross_gen",
    "traceless",
    "classify_sym2",
    "Sym2Classification",
    "build_distance_problem_sym2",
    "deviatoric_coordinates",
]

ISOTROPIC = "isotropic"
TRANSVERSELY_ISOTROPIC = "transversely_isotropic"
ORTHOTROPIC = "orthotropic"
_ASYMMETRIC = "matrix is not symmetric within tolerance"


@dataclass(frozen=True)
class Sym2Tensor:
    """Symmetric 3x3 tensor.  The constructor refuses an entry that is not
    finite and an asymmetry above 1e-9 of the largest |entry|, and stores m
    symmetrized (ta.symmetric_matrix), so symmetry is exact."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", ta.symmetric_matrix(self.mat, 3, "matrix", 1e-9, _ASYMMETRIC))

    @classmethod
    def from_matrix(cls, m, tol: float = 1e-9) -> "Sym2Tensor":
        """The tensor of m, accepting an asymmetry up to tol of its largest |entry|."""
        return cls(mat=ta.symmetric_matrix(m, 3, "matrix", tol, _ASYMMETRIC))

    @classmethod
    def from_components(cls, a11, a22, a33, a23, a13, a12) -> "Sym2Tensor":
        return cls(mat=np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]))

    @property
    def components(self) -> np.ndarray:
        """(a11, a22, a33, a23, a13, a12) in Voigt pair order."""
        m = self.mat
        return np.array([m[0, 0], m[1, 1], m[2, 2], m[1, 2], m[0, 2], m[0, 1]])

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def norm2(self) -> float:
        return ta.voigt_norm2(self.mat, 1.0)

    def norm(self) -> float:
        return ta.voigt_norm(self.mat, 1.0)


@dataclass(frozen=True)
class Sym3Tensor:
    """Totally symmetric third-order tensor (10 independent components)."""

    full: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.full, dtype=float)
        if T.shape != (3, 3, 3):
            raise ValueError(f"expected shape (3,3,3), got {T.shape}")
        object.__setattr__(self, "full", T)

    @classmethod
    def from_full(cls, T, tol: float = 1e-9) -> "Sym3Tensor":
        """The tensor of T, accepting an asymmetry up to tol of its largest |entry|."""
        T = np.asarray(T, dtype=float)
        ta.check_finite(T)
        ta.refuse_asymmetry(T, [(0, 2, 1), (1, 0, 2), (2, 1, 0)], tol,
                            "tensor is not totally symmetric within tolerance")
        return cls(full=T)

    @property
    def components(self) -> np.ndarray:
        """The 10 independent slots in lexicographic index order."""
        return ta.sym3_components(self.full)

    def norm2(self) -> float:
        return float(np.einsum("ijk,ijk", self.full, self.full))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.full)))


def cross_gen(a: Sym2Tensor, b: Sym2Tensor) -> Sym3Tensor:
    """Generalized cross product (a x b)_{ijk} = -(a_{il} eps_{ljs} b_{sk})^s."""
    return Sym3Tensor(full=ta.cross_sym2_sym2(a.mat, b.mat))


def traceless(a: Sym2Tensor) -> Sym2Tensor:
    """Deviatoric part a' = a - tr(a)/3 q, with a'_33 = -(a'_11 + a'_22) so
    that its trace is exactly 0 at every scale (+ 0.0 keeps a zero unsigned)."""
    m = a.mat - np.trace(a.mat) / 3.0 * np.eye(3)
    m[2, 2] = -(m[0, 0] + m[1, 1]) + 0.0
    return Sym2Tensor(mat=m)


@dataclass(frozen=True)
class Sym2Classification:
    label: str
    isotropy_residual: float        # |a'| / |a|
    transverse_residual: float      # |a^2 x a| / |a|^3
    chain: tuple                    # closed-stratum memberships within 10x of tol

    def __str__(self):
        return self.label


def classify_sym2(a: Sym2Tensor, tol: float = 1e-6) -> Sym2Classification:
    """Detect the isotropy class of a symmetric second-order tensor.

    Residuals are relative, read off a scaled to unit size so that no norm
    overflows; near-threshold cases (within 10x of tol) list the whole
    closed-stratum membership chain instead of a single class.
    """
    a = Sym2Tensor(mat=ta.unit_scaled(a.mat))
    nrm = a.norm()
    if nrm == 0.0:
        return Sym2Classification(ISOTROPIC, 0.0, 0.0, (ISOTROPIC,))
    r_iso = traceless(a).norm() / nrm
    cross = cross_gen(Sym2Tensor(mat=a.mat @ a.mat), a)
    r_ti = cross.max_abs() / nrm**3
    if r_iso <= tol:
        label = ISOTROPIC
    elif r_ti <= tol:
        label = TRANSVERSELY_ISOTROPIC
    else:
        label = ORTHOTROPIC
    chain = [ORTHOTROPIC]
    if r_ti <= 10 * tol:
        chain.append(TRANSVERSELY_ISOTROPIC)
    if r_iso <= 10 * tol:
        chain.append(ISOTROPIC)
    return Sym2Classification(label, float(r_iso), float(r_ti), tuple(chain))


# Orthonormal (Frobenius) basis of the traceless symmetric matrices:
# (e11 - e22)/sqrt2, (e11 + e22 - 2 e33)/sqrt6, then the shears 23, 13, 12
# of (eij + eji)/sqrt2.  Coordinates in it keep the norm: |a'| = |x|.
_R2, _R6 = np.sqrt(0.5), np.sqrt(1.0 / 6.0)
DEVIATORIC_BASIS = np.zeros((5, 3, 3))
DEVIATORIC_BASIS[0] = np.diag([_R2, -_R2, 0.0])
DEVIATORIC_BASIS[1] = np.diag([_R6, _R6, -2.0 * _R6])
for _k, (_i, _j) in enumerate(((1, 2), (0, 2), (0, 1)), start=2):
    DEVIATORIC_BASIS[_k, _i, _j] = DEVIATORIC_BASIS[_k, _j, _i] = _R2
DEVIATORIC_BASIS.flags.writeable = False
DEV_VARS = ("x1", "x2", "x3", "x4", "x5")


def deviatoric_coordinates(a: Sym2Tensor) -> np.ndarray:
    """The 5 coordinates of the deviator a' in DEVIATORIC_BASIS; the
    isotropic part tr(a)/3 q is orthogonal to every basis matrix."""
    return np.einsum("kij,ij->k", DEVIATORIC_BASIS, a.mat)


def _drop_rounding(p: Polynomial) -> Polynomial:
    """p without the coefficients below 1e-12 of its largest: the basis'
    irrational entries leave rounding remainders (1e-17) of terms that
    cancel exactly; the smallest true coefficient is 0.14 of the largest."""
    keep = np.abs(p.coeffs) > 1e-12 * np.abs(p.coeffs).max()
    return _wrap(p.exponents[keep], p.coeffs[keep])


@lru_cache(maxsize=1)
def _transverse_equations() -> tuple:
    """The 10 independent cubics (x'^2 x x')_ijk of the deviator in its 5
    coordinates, built once: the coefficient of x_a x_b x_c is
    (D_a D_b) x D_c over the basis matrices D of DEVIATORIC_BASIS."""
    D = DEVIATORIC_BASIS
    K = ta.cross_sym2_sym2(np.einsum("aij,bjk->abik", D, D)[:, :, None], D)
    return tuple(_drop_rounding(p) for p in forms_from_tensor(ta.sym3_components(K), 3))


def build_distance_problem_sym2(a0: Sym2Tensor) -> DistanceProblem:
    """Distance from a0 to the transversely isotropic closed stratum,
    reduced to the 5 coordinates x of the deviator a'.

    |a0 - a|^2 = |a0' - a'|^2 + (tr a0 - tr a)^2 / 3, and the covariant sees
    only the deviator (a^2 x a = a'^2 x a', as a x q = 0 and a x a = 0), so
    the isotropic part q is free and the candidate keeps the input's: the
    problem is min |x - x0|^2 over the 10 cubic equations (a'^2 x a') = 0,
    and nothing is dropped (offset 0).  The normal form is the axis n of the
    eigenvalue left alone when the two closest eigenvalues of a0 merge:
    x_ref is that merge, the projection of a0' onto the line of dev(n n^T).
    """
    lam, vecs = np.linalg.eigh(a0.mat)
    axis = vecs[:, 2 if lam[1] - lam[0] <= lam[2] - lam[1] else 0]
    return DistanceProblem(
        reference=a0.mat,
        weights=np.ones((3, 3)),
        free=np.eye(3)[None],
        basis=DEVIATORIC_BASIS,
        normal_form=np.einsum("kij,i,j->k", DEVIATORIC_BASIS, axis, axis),
        constraints=[(g, EQ) for g in _transverse_equations()],
        var_names=DEV_VARS,
    )
