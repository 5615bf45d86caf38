"""Piezoelectricity tensors: Voigt form, leading harmonic part, cubic stratum.

A piezoelectricity tensor e (symmetric in its last two slots) splits as
e = g + h where

    h = e^s - 3/5 q . tr(e^s)        (leading harmonic part, traceless)

and g = e - h is orthogonal to h, so |e|^2 = |g|^2 + |h|^2.  The at-least-
cubic stratum is g = 0 together with d2' = dev(h : h) = 0; the reduced
distance problem minimizes |h0 - h|^2 over those five quadratic equations
in the seven free coordinates of h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..moment import EQ
from ..poly import Polynomial
from . import _tensalg as ta
from .problems import DistanceProblem
from .sym2 import Sym2Tensor

__all__ = [
    "PiezoTensor",
    "H3Params",
    "PiezoSplit",
    "piezo_harmonic_part",
    "d2prime_piezo",
    "d2prime_piezo_polynomials",
    "invariants_h3",
    "is_cubic_piezo",
    "build_distance_problem_piezo",
]

H3_VARS = ("h111", "h112", "h122", "h123", "h222", "h223", "h333")


@dataclass(frozen=True)
class PiezoTensor:
    """Third-order piezoelectricity tensor as its 3x6 Voigt matrix."""

    voigt: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        if m.shape != (3, 6):
            raise ValueError(f"expected a 3x6 Voigt matrix, got shape {m.shape}")
        object.__setattr__(self, "voigt", m)

    @classmethod
    def from_full(cls, T, tol: float = 1e-9) -> "PiezoTensor":
        T = np.asarray(T, dtype=float)
        scale = max(1.0, float(np.max(np.abs(T))))
        if np.max(np.abs(T - np.transpose(T, (0, 2, 1)))) > tol * scale:
            raise ValueError("tensor is not symmetric in its last two slots")
        return cls(voigt=ta.as_array(ta.voigt_from_full3(T)))

    def full(self) -> np.ndarray:
        return ta.as_array(ta.full3_from_voigt(self.voigt))

    def norm2(self) -> float:
        return float(ta.norm2_voigt3(self.voigt))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))


@dataclass(frozen=True)
class H3Params:
    """Free coordinates (h111, h112, h122, h123, h222, h223, h333) of a
    third-order harmonic tensor."""

    h111: float
    h112: float
    h122: float
    h123: float
    h222: float
    h223: float
    h333: float

    @classmethod
    def from_array(cls, x) -> "H3Params":
        x = np.asarray(x, dtype=float)
        if x.shape != (7,):
            raise ValueError(f"expected 7 coordinates, got shape {x.shape}")
        return cls(*map(float, x))

    @classmethod
    def from_full(cls, T, tol: float = 1e-8) -> "H3Params":
        T = np.asarray(T, dtype=float)
        params = cls(h111=T[0, 0, 0], h112=T[0, 0, 1], h122=T[0, 1, 1],
                     h123=T[0, 1, 2], h222=T[1, 1, 1], h223=T[1, 1, 2],
                     h333=T[2, 2, 2])
        scale = max(1.0, float(np.max(np.abs(T))))
        if np.max(np.abs(params.full() - T)) > tol * scale:
            raise ValueError("tensor is not harmonic within tolerance")
        return params

    def as_array(self) -> np.ndarray:
        return np.array([self.h111, self.h112, self.h122, self.h123,
                         self.h222, self.h223, self.h333])

    def full(self) -> np.ndarray:
        return ta.as_array(ta.h3_full(self.as_array()))

    def to_tensor(self) -> PiezoTensor:
        return PiezoTensor.from_full(self.full())

    def norm2(self) -> float:
        T = self.full()
        return float(np.einsum("ijk,ijk", T, T))


@dataclass(frozen=True)
class PiezoSplit:
    """Orthogonal split e = g + h; g carries the two vector parts and the
    twisted second-order part, whose finer coordinates are not needed here."""

    g: PiezoTensor
    h: H3Params

    def __post_init__(self):
        inner = float(np.einsum("ijk,ijk", self.g.full(), self.h.full()))
        scale = self.g.norm2() + self.h.norm2()
        if abs(inner) > 1e-10 * (1.0 + scale):
            raise ValueError("g and h are not orthogonal")


def piezo_harmonic_part(e: PiezoTensor) -> PiezoSplit:
    """Compute h = e^s - 3/5 q . tr(e^s) and the residual g = e - h."""
    T = e.full()
    es = sum(np.transpose(T, p) for p in itertools.permutations(range(3))) / 6.0
    t = np.einsum("ijj->i", es)
    q = np.eye(3)
    qt = (np.einsum("ij,k->ijk", q, t) + np.einsum("jk,i->ijk", q, t)
          + np.einsum("ki,j->ijk", q, t)) / 3.0
    hfull = es - 0.6 * qt
    h = H3Params.from_full(hfull)
    g = PiezoTensor.from_full(T - hfull)
    return PiezoSplit(g=g, h=h)


@lru_cache(maxsize=1)
def d2prime_piezo_polynomials() -> tuple:
    """The five independent components (11, 22, 12, 13, 23) of
    d2' = dev(h : h) as quadratics in the seven coordinates."""
    T = ta.h3_full(Polynomial.variables(7))
    d2p = ta.deviator(ta.contract_d2_full3(T))
    return (d2p[0][0], d2p[1][1], d2p[0][1], d2p[0][2], d2p[1][2])


def d2prime_piezo(h: H3Params) -> Sym2Tensor:
    """Deviatoric part of the quadratic covariant d2 = h : h."""
    x = h.as_array()
    c11, c22, c12, c13, c23 = (p.evaluate(x) for p in d2prime_piezo_polynomials())
    c33 = -c11 - c22
    return Sym2Tensor(mat=np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]]))


def invariants_h3(h: H3Params) -> tuple[float, float, float, float, float]:
    """Integrity basis (I2, I4, I6, I10, I15) of a third-order harmonic tensor:

        I2 = |h|^2, I4 = |d2'|^2, I6 = |v3|^2, I10 = |d2' x v3|^2,
        I15 = det(v3, v5, v7),

    with v3 = h : d2', v5 = d2' . v3 and v7 = d2' . v5.
    """
    T = h.full()
    d2 = np.einsum("ikl,klj->ij", T, T)
    d2p = d2 - np.trace(d2) / 3.0 * np.eye(3)
    v3 = np.einsum("ijk,jk->i", T, d2p)
    v5 = d2p @ v3
    v7 = d2p @ v5
    I2 = float(np.einsum("ijk,ijk", T, T))
    I4 = float(np.einsum("ij,ij", d2p, d2p))
    I6 = float(v3 @ v3)
    cross = ta.as_array(ta.cross_sym2_vec(d2p, v3))
    I10 = float(np.einsum("ij,ij", cross, cross))
    I15 = float(np.linalg.det(np.column_stack([v3, v5, v7])))
    return (I2, I4, I6, I10, I15)


def is_cubic_piezo(e: PiezoTensor, tol: float = 1e-6, strict: bool = False) -> bool:
    """At-least-cubic test g = 0 and d2'(h) = 0 (relative tolerances);
    strict=True additionally requires h != 0."""
    split = piezo_harmonic_part(e)
    ne = max(e.norm(), np.finfo(float).tiny)
    nh2 = split.h.norm2()
    if split.g.norm() > tol * ne:
        return False
    if nh2 > 0 and d2prime_piezo(split.h).norm() > tol * nh2:
        return False
    if strict and np.sqrt(nh2) <= tol * ne:
        return False
    return True


@lru_cache(maxsize=1)
def _h3_basis() -> np.ndarray:
    """Voigt matrices of the seven harmonic coordinates, (7, 3, 6)."""
    basis = np.array([ta.voigt_from_full3(ta.h3_full(e)) for e in np.eye(7)])
    basis.flags.writeable = False
    return basis


def build_distance_problem_piezo(e0: PiezoTensor) -> DistanceProblem:
    """Distance from e0 to the cubic closed stratum, reduced to the seven
    coordinates of the harmonic part h.

    min |h0 - h|^2 over d2'(h) = 0, offset by |g0|^2; the candidate is h
    itself, and x_ref is the fit of h0 along the normal form h123.
    """
    split = piezo_harmonic_part(e0)
    x0 = split.h.as_array()
    basis = _h3_basis()
    return DistanceProblem(
        reference=e0.voigt,
        basis=basis,
        weights=ta.VOIGT3_WEIGHTS,
        x0=x0,
        normal_form=np.eye(7)[3],  # the cubic normal form: h123 alone
        constraints=[(p, EQ) for p in d2prime_piezo_polynomials()],
        var_names=H3_VARS,
        offset=split.g.norm2(),
        natural_scale=float(np.max(np.abs(np.tensordot(x0, basis, axes=1)))) or 1.0,
    )
