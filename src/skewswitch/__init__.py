"""Switching calculus for skew exponent matrices over Z/lZ.

Decides when two skew polynomial algebras at l-th roots of unity have
equivalent graded module categories, normalizes matrices to modular
Eulerian form, builds the point simplicial complex, and counts
equivalence classes exactly.
"""

from .algfrontend import (
    ClassificationReport,
    SkewAlgebraSpec,
    classify_pair,
    grmod_witness_as_lambdas,
)
from .census import (
    COUNT_GUARD,
    ENUM_GUARD,
    REFERENCE_TABLES,
    CensusResult,
    CycleType,
    brute_force_census,
    count_eulerian_classes,
    count_switching_classes,
    cycle_types,
    enumerate_eulerian_representatives,
)
from .errors import NotCoprimeError, ResourceGuardError
from .eulerian import (
    ORBIT_GUARD,
    RowSumProfile,
    eulerian_in_orbit,
    eulerize,
    is_modular_eulerian,
    row_sum_profile,
)
from .pointcomplex import (
    SimplicialComplex,
    complexes_isomorphic,
    dimension,
    facets,
)
from .skewmat import (
    AltMatrix,
    EquivWitness,
    Permutation,
    SwitchExponents,
    canonical_class_form,
    canonical_iso_form,
    isolate,
    isomorphic,
    make,
    relabel,
    switch,
    switch_many,
    switching_equivalent,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AltMatrix",
    "COUNT_GUARD",
    "CensusResult",
    "ClassificationReport",
    "CycleType",
    "ENUM_GUARD",
    "EquivWitness",
    "NotCoprimeError",
    "ORBIT_GUARD",
    "Permutation",
    "REFERENCE_TABLES",
    "ResourceGuardError",
    "RowSumProfile",
    "SimplicialComplex",
    "SkewAlgebraSpec",
    "SwitchExponents",
    "brute_force_census",
    "canonical_class_form",
    "canonical_iso_form",
    "classify_pair",
    "complexes_isomorphic",
    "count_eulerian_classes",
    "count_switching_classes",
    "cycle_types",
    "dimension",
    "enumerate_eulerian_representatives",
    "eulerian_in_orbit",
    "eulerize",
    "facets",
    "grmod_witness_as_lambdas",
    "is_modular_eulerian",
    "isolate",
    "isomorphic",
    "make",
    "relabel",
    "row_sum_profile",
    "switch",
    "switch_many",
    "switching_equivalent",
    "verify_witness",
]
