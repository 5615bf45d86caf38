"""Constitutive-tensor algebra: Voigt forms, harmonic decompositions,
covariants, isotropy-class tests and reduced stratum-distance problems."""

from ._tensalg import h3_coordinates
from .elasticity import (
    CubicClassification,
    ElaHarmonic,
    ElasticityTensor,
    build_distance_problem_ela,
    classify_ela,
    d2prime_ela,
    d2prime_ela_polynomials,
    harmonic_decompose_ela,
    tensor_prod_4,
    tensor_prod_22,
)
from .piezo import (
    PiezoSplit,
    PiezoTensor,
    build_distance_problem_piezo,
    classify_piezo,
    d2prime_piezo,
    d2prime_piezo_polynomials,
    piezo_harmonic_part,
)
from .problems import DistanceProblem
from .sym2 import (
    Sym2Classification,
    Sym2Tensor,
    Sym3Tensor,
    build_distance_problem_sym2,
    classify_sym2,
    cross_gen,
    deviatoric_coordinates,
    traceless,
)

__all__ = [
    "CubicClassification",
    "DistanceProblem",
    "ElaHarmonic",
    "ElasticityTensor",
    "PiezoSplit",
    "PiezoTensor",
    "Sym2Classification",
    "Sym2Tensor",
    "Sym3Tensor",
    "build_distance_problem_ela",
    "build_distance_problem_piezo",
    "build_distance_problem_sym2",
    "classify_ela",
    "classify_piezo",
    "classify_sym2",
    "cross_gen",
    "d2prime_ela",
    "d2prime_ela_polynomials",
    "d2prime_piezo",
    "d2prime_piezo_polynomials",
    "deviatoric_coordinates",
    "h3_coordinates",
    "harmonic_decompose_ela",
    "piezo_harmonic_part",
    "tensor_prod_4",
    "tensor_prod_22",
    "traceless",
]
