"""Elasticity tensors: Voigt form, harmonic decomposition, cubic stratum.

An elasticity tensor decomposes orthogonally as

    E = E_iso + q (x)_4 a + q (x)_22 b + H,
    E_iso = (alpha + 2 beta)/15 q (x)_4 q + (alpha - beta)/6 q (x)_22 q,

with alpha = tr d, beta = tr v (d = tr_12 E, v = tr_13 E), a = 2/7 (d' + 2v'),
b = 2 (d' - v') and H the fourth-order harmonic part.  The squared norm
splits accordingly:

    |E|^2 = 5 k4^2 + 4 k22^2 + 2/21 |d' + 2v'|^2 + 4/3 |d' - v'|^2 + |H|^2,

where k4 = (alpha + 2 beta)/15 and k22 = (alpha - beta)/6 are the two
isotropic coefficients.  The at-least-cubic stratum is d' = v' = 0 together
with the five quadratic equations d2' = dev(H : H) = 0, which is what the
reduced distance problem minimizes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..moment import EQ
from ..poly import forms_from_tensor
from . import _tensalg as ta
from .problems import DistanceProblem
from .sym2 import Sym2Tensor, traceless

__all__ = [
    "ElasticityTensor",
    "ElaHarmonic",
    "tensor_prod_4",
    "tensor_prod_22",
    "harmonic_decompose_ela",
    "d2prime_ela",
    "d2prime_ela_polynomials",
    "CubicClassification",
    "classify_ela",
    "build_distance_problem_ela",
]

H4_VARS = ("L1", "L2", "L3", "X1", "X2", "Y1", "Y2", "Z1", "Z2")
_ASYMMETRIC = "Voigt matrix must be 6x6 symmetric"


@dataclass(frozen=True)
class ElasticityTensor:
    """Fourth-order elasticity tensor stored as its symmetric 6x6 Voigt
    matrix.  The constructor refuses an entry that is not finite and an
    asymmetry above 1e-9 of the largest |entry|, and stores V symmetrized
    (ta.symmetric_matrix)."""

    voigt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "voigt",
                           ta.symmetric_matrix(self.voigt, 6, "Voigt matrix", 1e-9, _ASYMMETRIC))

    @classmethod
    def from_voigt(cls, m, tol: float = 1e-9) -> "ElasticityTensor":
        """The tensor of m, accepting an asymmetry up to tol of its largest |entry|."""
        return cls(voigt=ta.symmetric_matrix(m, 6, "Voigt matrix", tol, _ASYMMETRIC))

    def full(self) -> np.ndarray:
        return ta.full4_from_voigt(self.voigt)

    def norm2(self) -> float:
        return ta.voigt_norm2(self.voigt, ta.VOIGT4_WEIGHTS)

    def norm(self) -> float:
        return ta.voigt_norm(self.voigt, ta.VOIGT4_WEIGHTS)

    def trace_12(self) -> Sym2Tensor:
        """d_{kl} = E_{iikl}."""
        return Sym2Tensor(mat=np.einsum("iikl->kl", self.full()))

    def trace_13(self) -> Sym2Tensor:
        """v_{jl} = E_{ijil}."""
        return Sym2Tensor(mat=np.einsum("ijil->jl", self.full()))


@dataclass(frozen=True)
class ElaHarmonic:
    """Harmonic components (alpha, beta, d', v', H) of an elasticity tensor;
    the harmonic part H is an elasticity tensor itself, the Voigt table that
    ta.h4_voigt builds from its nine coordinates.  The deviators' traces are
    compared with their norms, so the test reads the same at every scale."""

    alpha: float
    beta: float
    dprime: Sym2Tensor
    vprime: Sym2Tensor
    h4: ElasticityTensor

    def __post_init__(self):
        for part in (self.dprime, self.vprime):
            if abs(part.trace()) > 1e-12 * part.norm():
                raise ValueError("deviatoric components must be traceless")


def _placements(a: Sym2Tensor, b: Sym2Tensor) -> list:
    """a_ij b_kl, b_ij a_kl, a_ik b_jl, b_ik a_jl, a_il b_jk, b_il a_jk."""
    return [np.einsum(spec, p, q) for spec in ("ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl")
            for p, q in ((a.mat, b.mat), (b.mat, a.mat))]


def tensor_prod_4(a: Sym2Tensor, b: Sym2Tensor) -> ElasticityTensor:
    """Totally symmetric product (a (x)_4 b) = a . b symmetrized over all slots."""
    T = sum(_placements(a, b)) / 6.0
    return ElasticityTensor(voigt=ta.voigt_from_full4(T))


def tensor_prod_22(a: Sym2Tensor, b: Sym2Tensor) -> ElasticityTensor:
    """(a (x)_22 b)_{ijkl} = (2 a_{ij} b_{kl} + 2 b_{ij} a_{kl}
    - a_{ik} b_{jl} - a_{il} b_{jk} - b_{ik} a_{jl} - b_{il} a_{jk}) / 6."""
    t = _placements(a, b)
    T = (2 * t[0] + 2 * t[1] - t[2] - t[4] - t[3] - t[5]) / 6.0
    return ElasticityTensor(voigt=ta.voigt_from_full4(T))


_Q = Sym2Tensor(mat=np.eye(3))


@lru_cache(maxsize=1)
def _isotropic_basis() -> np.ndarray:
    """Voigt matrices of q (x)_4 q and q (x)_22 q, (2, 6, 6)."""
    basis = np.array([tensor_prod_4(_Q, _Q).voigt, tensor_prod_22(_Q, _Q).voigt])
    basis.flags.writeable = False
    return basis


def _isotropic_voigt(alpha: float, beta: float) -> np.ndarray:
    """E_iso = (alpha + 2 beta)/15 q (x)_4 q + (alpha - beta)/6 q (x)_22 q."""
    P4, P22 = _isotropic_basis()
    return (alpha + 2 * beta) / 15.0 * P4 + (alpha - beta) / 6.0 * P22


def harmonic_decompose_ela(E: ElasticityTensor) -> ElaHarmonic:
    """Split E into (alpha, beta, d', v', H), the terms of the module
    docstring's sum."""
    d = E.trace_12()
    v = E.trace_13()
    alpha, beta = d.trace(), v.trace()
    dp, vp = traceless(d), traceless(v)
    a = Sym2Tensor(mat=2.0 / 7.0 * (dp.mat + 2.0 * vp.mat))
    b = Sym2Tensor(mat=2.0 * (dp.mat - vp.mat))
    HV = E.voigt - _isotropic_voigt(alpha, beta) - tensor_prod_4(_Q, a).voigt - tensor_prod_22(_Q, b).voigt
    return ElaHarmonic(alpha=alpha, beta=beta, dprime=dp, vprime=vp, h4=ElasticityTensor(HV))


@lru_cache(maxsize=1)
def d2prime_ela_polynomials() -> tuple:
    """The five independent components (11, 22, 12, 13, 23) of
    d2' = dev(H : H) as quadratics in the nine harmonic coordinates: the
    coefficient of x_a x_b is dev(T_a : T_b), T_a the full tensor of the
    a-th basis vector."""
    T = ta.full4_from_voigt(_h4_basis())
    K = ta.dev(np.einsum("aipqr,bpqrj->abij", T, T))
    return forms_from_tensor(K[..., ta.DEV_ROWS, ta.DEV_COLS], 2)


def d2prime_ela(H: ElasticityTensor) -> Sym2Tensor:
    """Deviatoric part of the quadratic covariant d2 = H : H of a harmonic H,
    contracted as H_ipqr H_jpqr (H is totally symmetric): entries (i, j) and
    (j, i) add the same products, so d2 is exactly symmetric even where it
    is the rounding of a cubic H."""
    T = H.full()
    return Sym2Tensor(mat=ta.dev(np.einsum("ipqr,jpqr->ij", T, T)))


@dataclass(frozen=True)
class CubicClassification:
    """The at-least-cubic test: the relative residuals of the stratum's
    equations by name; cubic when each is at most tol, and strictly cubic
    when the harmonic part is also above tol of the tensor's norm."""

    residuals: dict
    cubic: bool
    strict: bool

    @classmethod
    def of(cls, residuals: dict, harmonic: bool, tol: float):
        cubic = all(r <= tol for r in residuals.values())
        return cls(residuals, cubic, bool(cubic and harmonic))

    @property
    def label(self) -> str:
        if not self.cubic:
            return "not cubic"
        return "at-least-cubic (strictly cubic)" if self.strict else "at-least-cubic"


def classify_ela(E: ElasticityTensor, tol: float = 1e-6) -> CubicClassification:
    """The at-least-cubic test d' = v' = 0 and d2'(H) = 0 by |d'|/|E|, |v'|/|E|
    and |d2'|/|H|^2, read off E scaled to unit size so that no norm
    overflows.  A harmonic part at most tol of |E| reads as zero, with
    |d2'|/|H|^2 = 0: there it is rounding, whose d2' is as large as its
    |H|^2.  Raises ValueError when tol is not finite and positive."""
    ta.check_tol(tol)
    E = ElasticityTensor(ta.unit_scaled(E.voigt))
    h = harmonic_decompose_ela(E)
    nE, nH2 = E.norm(), h.h4.norm2()
    harmonic = np.sqrt(nH2) > tol * nE
    return CubicClassification.of({
        "|d'| / |E|": h.dprime.norm() / nE if nE > 0 else 0.0,
        "|v'| / |E|": h.vprime.norm() / nE if nE > 0 else 0.0,
        "|d2'| / |H|^2": d2prime_ela(h.h4).norm() / nH2 if harmonic else 0.0,
    }, harmonic, tol)


@lru_cache(maxsize=1)
def _h4_basis() -> np.ndarray:
    """Voigt matrices of the nine harmonic coordinates, (9, 6, 6)."""
    basis = ta.h4_voigt(np.eye(9))
    basis.flags.writeable = False
    return basis


def build_distance_problem_ela(E0: ElasticityTensor) -> DistanceProblem:
    """Distance from E0 to the cubic closed stratum, reduced to the nine
    coordinates of the harmonic part H.

    min |H0 - H|^2 over d2'(H) = 0: the isotropic part is free, the
    second-order components d', v' are dropped (the offset), and x_ref is
    the fit of H0 along the normal form L1 = L2 = L3.
    """
    return DistanceProblem(
        reference=E0.voigt,
        weights=ta.VOIGT4_WEIGHTS,
        free=_isotropic_basis(),
        basis=_h4_basis(),
        normal_form=np.repeat([1.0, 0.0], (3, 6)),  # the cubic normal form L1 = L2 = L3
        constraints=[(p, EQ) for p in d2prime_ela_polynomials()],
        var_names=H4_VARS,
    )
