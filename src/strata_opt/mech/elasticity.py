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
from ..poly import Polynomial
from . import _tensalg as ta
from .problems import DistanceProblem
from .sym2 import Sym2Tensor, traceless

__all__ = [
    "ElasticityTensor",
    "ElaHarmonic",
    "H4Params",
    "tensor_prod_4",
    "tensor_prod_22",
    "harmonic_decompose_ela",
    "recompose_ela",
    "ela_norm2_split",
    "d2prime_ela",
    "d2prime_ela_polynomials",
    "is_cubic_ela",
    "build_distance_problem_ela",
]

H4_VARS = ("L1", "L2", "L3", "X1", "X2", "Y1", "Y2", "Z1", "Z2")


@dataclass(frozen=True)
class ElasticityTensor:
    """Fourth-order elasticity tensor stored as its symmetric 6x6 Voigt matrix."""

    voigt: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        if m.shape != (6, 6):
            raise ValueError(f"expected a 6x6 Voigt matrix, got shape {m.shape}")
        object.__setattr__(self, "voigt", 0.5 * (m + m.T))

    @classmethod
    def from_voigt(cls, m, tol: float = 1e-9) -> "ElasticityTensor":
        m = np.asarray(m, dtype=float)
        scale = max(1.0, float(np.max(np.abs(m))))
        if m.shape != (6, 6) or np.max(np.abs(m - m.T)) > tol * scale:
            raise ValueError("Voigt matrix must be 6x6 symmetric")
        return cls(voigt=m)

    def full(self) -> np.ndarray:
        return ta.as_array(ta.full4_from_voigt(self.voigt))

    def norm2(self) -> float:
        return float(ta.norm2_voigt4(self.voigt))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))

    def trace_12(self) -> Sym2Tensor:
        """d_{kl} = E_{iikl}."""
        return Sym2Tensor(mat=np.einsum("iikl->kl", self.full()))

    def trace_13(self) -> Sym2Tensor:
        """v_{jl} = E_{ijil}."""
        return Sym2Tensor(mat=np.einsum("ijil->jl", self.full()))


@dataclass(frozen=True)
class H4Params:
    """Coordinates (L1, L2, L3, X1, X2, Y1, Y2, Z1, Z2) of a fourth-order
    harmonic tensor in the fixed Voigt parameterization."""

    L1: float
    L2: float
    L3: float
    X1: float
    X2: float
    Y1: float
    Y2: float
    Z1: float
    Z2: float

    @classmethod
    def from_array(cls, x) -> "H4Params":
        x = np.asarray(x, dtype=float)
        if x.shape != (9,):
            raise ValueError(f"expected 9 coordinates, got shape {x.shape}")
        return cls(*map(float, x))

    def as_array(self) -> np.ndarray:
        return np.array([self.L1, self.L2, self.L3, self.X1, self.X2,
                         self.Y1, self.Y2, self.Z1, self.Z2])

    def to_voigt(self) -> np.ndarray:
        return ta.as_array(ta.h4_voigt(self.as_array()))

    def to_tensor(self) -> ElasticityTensor:
        return ElasticityTensor(voigt=self.to_voigt())

    def norm2(self) -> float:
        return float(ta.norm2_voigt4(self.to_voigt()))

    @classmethod
    def from_voigt(cls, V, tol: float = 1e-8) -> "H4Params":
        """Read the nine coordinates off a harmonic Voigt matrix; rejects
        matrices that are not harmonic within tol (relative)."""
        V = np.asarray(V, dtype=float)
        params = cls(
            L1=-V[1, 2], L2=-V[0, 2], L3=-V[0, 1],
            X1=-V[0, 3], X2=-V[1, 3],
            Y1=-V[1, 4], Y2=-V[2, 4],
            Z1=-V[2, 5], Z2=-V[0, 5],
        )
        scale = max(1.0, float(np.max(np.abs(V))))
        if np.max(np.abs(params.to_voigt() - V)) > tol * scale:
            raise ValueError("Voigt matrix is not harmonic within tolerance")
        return params


@dataclass(frozen=True)
class ElaHarmonic:
    """Harmonic components (alpha, beta, d', v', H) of an elasticity tensor."""

    alpha: float
    beta: float
    dprime: Sym2Tensor
    vprime: Sym2Tensor
    h4: H4Params

    def __post_init__(self):
        for part in (self.dprime, self.vprime):
            if abs(part.trace()) > 1e-12 * (1.0 + part.norm()):
                raise ValueError("deviatoric components must be traceless")


def _placements(a: Sym2Tensor, b: Sym2Tensor) -> list:
    """a_ij b_kl, b_ij a_kl, a_ik b_jl, b_ik a_jl, a_il b_jk, b_il a_jk."""
    return [np.einsum(spec, p, q) for spec in ("ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl")
            for p, q in ((a.mat, b.mat), (b.mat, a.mat))]


def tensor_prod_4(a: Sym2Tensor, b: Sym2Tensor) -> ElasticityTensor:
    """Totally symmetric product (a (x)_4 b) = a . b symmetrized over all slots."""
    T = sum(_placements(a, b)) / 6.0
    return ElasticityTensor(voigt=ta.as_array(ta.voigt_from_full4(T)))


def tensor_prod_22(a: Sym2Tensor, b: Sym2Tensor) -> ElasticityTensor:
    """(a (x)_22 b)_{ijkl} = (2 a_{ij} b_{kl} + 2 b_{ij} a_{kl}
    - a_{ik} b_{jl} - a_{il} b_{jk} - b_{ik} a_{jl} - b_{il} a_{jk}) / 6."""
    t = _placements(a, b)
    T = (2 * t[0] + 2 * t[1] - t[2] - t[4] - t[3] - t[5]) / 6.0
    return ElasticityTensor(voigt=ta.as_array(ta.voigt_from_full4(T)))


_Q = Sym2Tensor(mat=np.eye(3))


@lru_cache(maxsize=1)
def _isotropic_basis() -> tuple:
    """Voigt matrices of q (x)_4 q and q (x)_22 q."""
    P4, P22 = tensor_prod_4(_Q, _Q).voigt, tensor_prod_22(_Q, _Q).voigt
    P4.flags.writeable = P22.flags.writeable = False
    return P4, P22


def _isotropic_voigt(alpha: float, beta: float) -> np.ndarray:
    """E_iso = (alpha + 2 beta)/15 q (x)_4 q + (alpha - beta)/6 q (x)_22 q."""
    P4, P22 = _isotropic_basis()
    return (alpha + 2 * beta) / 15.0 * P4 + (alpha - beta) / 6.0 * P22


def harmonic_decompose_ela(E: ElasticityTensor) -> ElaHarmonic:
    """Split E into (alpha, beta, d', v', H); recompose_ela is its inverse."""
    d = E.trace_12()
    v = E.trace_13()
    alpha, beta = d.trace(), v.trace()
    dp, vp = traceless(d), traceless(v)
    a = Sym2Tensor(mat=2.0 / 7.0 * (dp.mat + 2.0 * vp.mat))
    b = Sym2Tensor(mat=2.0 * (dp.mat - vp.mat))
    HV = E.voigt - _isotropic_voigt(alpha, beta) - tensor_prod_4(_Q, a).voigt - tensor_prod_22(_Q, b).voigt
    scale = max(1.0, float(np.max(np.abs(E.voigt))))
    return ElaHarmonic(
        alpha=alpha, beta=beta, dprime=dp, vprime=vp,
        h4=H4Params.from_voigt(HV, tol=1e-10 * scale),
    )


def recompose_ela(h: ElaHarmonic) -> ElasticityTensor:
    """E = E_iso + q (x)_4 a + q (x)_22 b + H."""
    a = Sym2Tensor(mat=2.0 / 7.0 * (h.dprime.mat + 2.0 * h.vprime.mat))
    b = Sym2Tensor(mat=2.0 * (h.dprime.mat - h.vprime.mat))
    V = (_isotropic_voigt(h.alpha, h.beta) + tensor_prod_4(_Q, a).voigt
         + tensor_prod_22(_Q, b).voigt + h.h4.to_voigt())
    return ElasticityTensor(voigt=V)


def ela_norm2_split(h: ElaHarmonic) -> float:
    """|E|^2 from the harmonic components (see module docstring).

    Note: the weights 5 and 4 apply to the isotropic *coefficients*
    k4 = (alpha + 2 beta)/15 and k22 = (alpha - beta)/6, which is the only
    normalization under which the split reproduces the Frobenius norm.
    """
    k4 = (h.alpha + 2.0 * h.beta) / 15.0
    k22 = (h.alpha - h.beta) / 6.0
    dp, vp = h.dprime.mat, h.vprime.mat
    return float(
        5.0 * k4**2 + 4.0 * k22**2
        + 2.0 / 21.0 * np.einsum("ij,ij", dp + 2 * vp, dp + 2 * vp)
        + 4.0 / 3.0 * np.einsum("ij,ij", dp - vp, dp - vp)
        + h.h4.norm2()
    )


@lru_cache(maxsize=1)
def d2prime_ela_polynomials() -> tuple:
    """The five independent components (11, 22, 12, 13, 23) of
    d2' = dev(H : H) as quadratics in the nine harmonic coordinates."""
    T = ta.full4_from_voigt(ta.h4_voigt(Polynomial.variables(9)))
    d2p = ta.deviator(ta.contract_d2_full4(T))
    return (d2p[0][0], d2p[1][1], d2p[0][1], d2p[0][2], d2p[1][2])


def d2prime_ela(H: H4Params) -> Sym2Tensor:
    """Deviatoric part of the quadratic covariant d2 = H : H."""
    x = H.as_array()
    c11, c22, c12, c13, c23 = (p.evaluate(x) for p in d2prime_ela_polynomials())
    c33 = -c11 - c22
    return Sym2Tensor(mat=np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]]))


def is_cubic_ela(E: ElasticityTensor, tol: float = 1e-6, strict: bool = False) -> bool:
    """At-least-cubic test d' = v' = 0 and d2'(H) = 0, all relative;
    with strict=True additionally requires a nonzero harmonic part."""
    h = harmonic_decompose_ela(E)
    nE = max(E.norm(), np.finfo(float).tiny)
    nH2 = h.h4.norm2()
    if h.dprime.norm() > tol * nE or h.vprime.norm() > tol * nE:
        return False
    if nH2 > 0 and d2prime_ela(h.h4).norm() > tol * nH2:
        return False
    if strict and np.sqrt(nH2) <= tol * nE:
        return False
    return True


@lru_cache(maxsize=1)
def _h4_basis() -> np.ndarray:
    """Voigt matrices of the nine harmonic coordinates, (9, 6, 6)."""
    basis = np.array([ta.h4_voigt(e) for e in np.eye(9)])
    basis.flags.writeable = False
    return basis


def build_distance_problem_ela(E0: ElasticityTensor) -> DistanceProblem:
    """Distance from E0 to the cubic closed stratum, reduced to the nine
    coordinates of the harmonic part H.

    min |H0 - H|^2 over d2'(H) = 0; the candidate is the isotropic part
    (alpha0, beta0) of E0 plus H, the dropped second-order components
    contribute the constant offset 2/21 |d0'+2v0'|^2 + 4/3 |d0'-v0'|^2, and
    x_ref is the fit of H0 along the normal form L1 = L2 = L3.
    """
    h0 = harmonic_decompose_ela(E0)
    x0 = h0.h4.as_array()
    basis = _h4_basis()
    dp, vp = h0.dprime.mat, h0.vprime.mat
    offset = float(
        2.0 / 21.0 * np.einsum("ij,ij", dp + 2 * vp, dp + 2 * vp)
        + 4.0 / 3.0 * np.einsum("ij,ij", dp - vp, dp - vp)
    )
    return DistanceProblem(
        reference=E0.voigt,
        fixed=_isotropic_voigt(h0.alpha, h0.beta),
        basis=basis,
        weights=ta.VOIGT4_WEIGHTS,
        x0=x0,
        normal_form=np.repeat([1.0, 0.0], (3, 6)),  # the cubic normal form L1 = L2 = L3
        constraints=[(p, EQ) for p in d2prime_ela_polynomials()],
        var_names=H4_VARS,
        offset=offset,
        natural_scale=float(np.max(np.abs(np.tensordot(x0, basis, axes=1)))) or 1.0,
    )
