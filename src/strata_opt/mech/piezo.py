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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..moment import EQ
from ..poly import forms_from_tensor
from . import _tensalg as ta
from .elasticity import CubicClassification
from .problems import DistanceProblem
from .sym2 import Sym2Tensor

__all__ = [
    "PiezoTensor",
    "PiezoSplit",
    "piezo_harmonic_part",
    "d2prime_piezo",
    "d2prime_piezo_polynomials",
    "classify_piezo",
    "build_distance_problem_piezo",
]

H3_VARS = ("h111", "h112", "h122", "h123", "h222", "h223", "h333")


@dataclass(frozen=True)
class PiezoTensor:
    """Third-order piezoelectricity tensor as its 3x6 Voigt matrix; the
    constructor refuses an entry that is not finite."""

    voigt: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        ta.check_finite(m)
        if m.shape != (3, 6):
            raise ValueError(f"expected a 3x6 Voigt matrix, got shape {m.shape}")
        object.__setattr__(self, "voigt", m)

    @classmethod
    def from_full(cls, T, tol: float = 1e-9) -> "PiezoTensor":
        """The tensor of a full 3x3x3 T, accepting an asymmetry in its last
        two slots up to tol of its largest |entry|."""
        T = np.asarray(T, dtype=float)
        ta.check_finite(T)
        ta.refuse_asymmetry(T, [(0, 2, 1)], tol, "tensor is not symmetric in its last two slots")
        return cls(voigt=ta.voigt_from_full3(T))

    def full(self) -> np.ndarray:
        return ta.full3_from_voigt(self.voigt)

    def norm2(self) -> float:
        return ta.voigt_norm2(self.voigt, ta.VOIGT3_WEIGHTS)

    def norm(self) -> float:
        return ta.voigt_norm(self.voigt, ta.VOIGT3_WEIGHTS)


@dataclass(frozen=True)
class PiezoSplit:
    """Orthogonal split e = g + h; g carries the two vector parts and the
    twisted second-order part, whose finer coordinates are not needed here.
    The harmonic part h is a piezoelectricity tensor itself, whose seven
    coordinates are h3_coordinates(h.full())."""

    g: PiezoTensor
    h: PiezoTensor

    def __post_init__(self):
        # a test that does not depend on scale, so it reads the parts scaled
        # to unit size: no square overflows or underflows
        g, h = ta.unit_scaled(np.stack([self.g.full(), self.h.full()]))
        if abs(np.vdot(g, h)) > 1e-10 * (np.vdot(g, g) + np.vdot(h, h)):
            raise ValueError("g and h are not orthogonal")


def piezo_harmonic_part(e: PiezoTensor) -> PiezoSplit:
    """Compute h = e^s - 3/5 q . tr(e^s) and the residual g = e - h, each
    read off its full tensor: e^s is symmetric, and g's asymmetry is the
    rounding of e, so neither is tested."""
    T = e.full()
    es = ta.symmetrize3(T)
    t = np.einsum("ijj->i", es)
    q = np.eye(3)
    qt = (np.einsum("ij,k->ijk", q, t) + np.einsum("jk,i->ijk", q, t)
          + np.einsum("ki,j->ijk", q, t)) / 3.0
    hfull = es - 0.6 * qt
    return PiezoSplit(g=PiezoTensor(ta.voigt_from_full3(T - hfull)),
                      h=PiezoTensor(ta.voigt_from_full3(hfull)))


@lru_cache(maxsize=1)
def d2prime_piezo_polynomials() -> tuple:
    """The five independent components (11, 22, 12, 13, 23) of
    d2' = dev(h : h) as quadratics in the seven coordinates: the coefficient
    of x_a x_b is dev(T_a : T_b), T_a the full tensor of the a-th basis
    vector."""
    T = ta.full3_from_voigt(_h3_basis())
    K = ta.dev(np.einsum("aikl,bklj->abij", T, T))
    return forms_from_tensor(K[..., ta.DEV_ROWS, ta.DEV_COLS], 2)


def d2prime_piezo(h: PiezoTensor) -> Sym2Tensor:
    """Deviatoric part of the quadratic covariant d2 = h : h of a harmonic h,
    contracted as h_ikl h_jkl, as in d2prime_ela."""
    T = h.full()
    return Sym2Tensor(mat=ta.dev(np.einsum("ikl,jkl->ij", T, T)))


def classify_piezo(e: PiezoTensor, tol: float = 1e-6) -> CubicClassification:
    """The at-least-cubic test g = 0 and d2'(h) = 0 by |g|/|e| and |d2'|/|h|^2,
    read off e scaled to unit size so that no norm overflows; an h at most
    tol of |e| reads as zero, as in classify_ela.  Raises ValueError when
    tol is not finite and positive."""
    ta.check_tol(tol)
    e = PiezoTensor(ta.unit_scaled(e.voigt))
    split = piezo_harmonic_part(e)
    ne, nh2 = e.norm(), split.h.norm2()
    harmonic = np.sqrt(nh2) > tol * ne
    return CubicClassification.of({
        "|g| / |e|": split.g.norm() / ne if ne > 0 else 0.0,
        "|d2'| / |h|^2": d2prime_piezo(split.h).norm() / nh2 if harmonic else 0.0,
    }, harmonic, tol)


@lru_cache(maxsize=1)
def _h3_basis() -> np.ndarray:
    """Voigt matrices of the seven harmonic coordinates, (7, 3, 6)."""
    basis = ta.voigt_from_full3(ta.h3_full(np.eye(7)))
    basis.flags.writeable = False
    return basis


def build_distance_problem_piezo(e0: PiezoTensor) -> DistanceProblem:
    """Distance from e0 to the cubic closed stratum, reduced to the seven
    coordinates of the harmonic part h.

    min |h0 - h|^2 over d2'(h) = 0: nothing is free, g0 is dropped (the
    offset), and x_ref is the fit of h0 along the normal form h123.
    """
    return DistanceProblem(
        reference=e0.voigt,
        weights=ta.VOIGT3_WEIGHTS,
        free=np.empty((0, 3, 6)),
        basis=_h3_basis(),
        normal_form=np.eye(7)[3],  # the cubic normal form: h123 alone
        constraints=[(p, EQ) for p in d2prime_piezo_polynomials()],
        var_names=H3_VARS,
    )
