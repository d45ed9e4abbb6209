"""Switching calculus for skew exponent matrices over Z/lZ.

Decides when two skew polynomial algebras at l-th roots of unity have
equivalent graded module categories, normalizes matrices to modular
Eulerian form, builds the point simplicial complex, and counts
equivalence classes exactly.

Public names resolve on first use (PEP 562): importing the package loads
none of its submodules, so a command pays only for the modules it runs.
"""

import importlib as _importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOMES = {
    "AltMatrix": "skewmat",
    "COUNT_GUARD": "census",
    "CensusResult": "census",
    "ClassificationReport": "algfrontend",
    "CycleType": "census",
    "ENUM_GUARD": "census",
    "EquivWitness": "skewmat",
    "NotCoprimeError": "errors",
    "ORBIT_GUARD": "eulerian",
    "Permutation": "skewmat",
    "REFERENCE_TABLES": "census",
    "ResourceGuardError": "errors",
    "RowSumProfile": "eulerian",
    "SimplicialComplex": "pointcomplex",
    "SkewAlgebraSpec": "algfrontend",
    "SwitchExponents": "skewmat",
    "brute_force_census": "census",
    "canonical_class_form": "skewmat",
    "canonical_iso_form": "skewmat",
    "classify_pair": "algfrontend",
    "complexes_isomorphic": "pointcomplex",
    "count_eulerian_classes": "census",
    "count_switching_classes": "census",
    "cycle_types": "census",
    "dimension": "pointcomplex",
    "enumerate_eulerian_representatives": "census",
    "eulerian_in_orbit": "eulerian",
    "eulerize": "eulerian",
    "facets": "pointcomplex",
    "is_modular_eulerian": "eulerian",
    "isolate": "skewmat",
    "isomorphic": "skewmat",
    "make": "skewmat",
    "relabel": "skewmat",
    "row_sum_profile": "eulerian",
    "switch": "skewmat",
    "switch_many": "skewmat",
    "switching_equivalent": "skewmat",
    "verify_witness": "skewmat",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES.values():  # a submodule, reached as an attribute as after an eager import
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
