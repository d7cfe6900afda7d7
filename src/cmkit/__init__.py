"""Exact-arithmetic toolkit: changemaker vectors, linear (chain) lattices,
torsion staircases, and intersection-graph obstructions, with an
enumerated census and verification sweeps on top."""

__version__ = "0.1.0"

from .census import (
    CensusRecord,
    SummaryAccumulator,
    VerificationResult,
    build_record,
    run_census,
    verify_claim,
)
from .changemaker import (
    ChangemakerVector,
    CharacteristicVector,
    as_changemaker,
    coordinate_free_check,
    is_changemaker,
    iter_changemakers,
    subset_representation,
)
from .errors import CapacityError
from .graphs import (
    IntersectionGraph,
    intersection_graph,
    leading_ones,
    standard_basis,
)
from .lattice import (
    complement_basis,
    determinant,
    gram_matrix,
    inner_product,
    is_isometric,
    is_negative_definite,
    short_vectors,
)
from .linear import (
    cf_evaluate,
    cf_expand,
    gerstein_isomorphic,
    linear_gram,
    recognize_linear,
)
from .torsion import (
    AlexanderExponents,
    TorsionSequence,
    coefficients,
    exponents_from_torsion,
    genus_from_changemaker,
    lemma4_witness,
    torsion_at_most,
    torsion_from_alexander,
    torsion_from_changemaker,
    torsion_staircase,
    torus_knot_exponents,
)

__all__ = [
    "AlexanderExponents",
    "CapacityError",
    "CensusRecord",
    "ChangemakerVector",
    "CharacteristicVector",
    "IntersectionGraph",
    "SummaryAccumulator",
    "TorsionSequence",
    "VerificationResult",
    "as_changemaker",
    "build_record",
    "cf_evaluate",
    "cf_expand",
    "coefficients",
    "complement_basis",
    "coordinate_free_check",
    "determinant",
    "exponents_from_torsion",
    "genus_from_changemaker",
    "gerstein_isomorphic",
    "gram_matrix",
    "inner_product",
    "intersection_graph",
    "is_changemaker",
    "is_isometric",
    "is_negative_definite",
    "iter_changemakers",
    "leading_ones",
    "lemma4_witness",
    "linear_gram",
    "recognize_linear",
    "run_census",
    "short_vectors",
    "standard_basis",
    "subset_representation",
    "torsion_at_most",
    "torsion_from_alexander",
    "torsion_from_changemaker",
    "torsion_staircase",
    "torus_knot_exponents",
    "verify_claim",
]
