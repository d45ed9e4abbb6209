"""Algebra-level answers built on the matrix machinery.

A skew polynomial algebra at l-th roots of unity is described by its
exponent matrix: variables obey x_i x_j = w_ij x_j x_i with w_ij a power
of a fixed primitive l-th root of unity, and only the exponents are ever
stored.  Three nested questions are answered for a pair of algebras:
graded-algebra isomorphism, equivalence of graded module categories, and
isomorphism of the point complexes.  Each positive answer carries a
checkable witness, and a positive earlier answer forces all later ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pointcomplex import SimplicialComplex, complexes_isomorphic, dimension, facets
from .skewmat import AltMatrix, EquivWitness, Permutation, isomorphic, switching_equivalent

__all__ = [
    "SkewAlgebraSpec",
    "ClassificationReport",
    "classify_pair",
    "grmod_witness_as_lambdas",
]


@dataclass(frozen=True)
class SkewAlgebraSpec:
    """Exponent matrix presentation of a skew polynomial algebra.

    The primitive root is never materialized; every statement about the
    algebra is carried by the exponents mod l.
    """

    matrix: AltMatrix

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    @property
    def size(self) -> int:
        return self.matrix.size


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts for one pair of algebras, coarsest last, with witnesses.

    algebra_isomorphic is a relabeling carrying one matrix to the other,
    grmod_equivalent a switching-equivalence witness, complexes_isomorphic
    a vertex bijection of the point complexes.  An earlier verdict being
    positive forces every later one, and the constructor rejects reports
    violating that chain.
    """

    algebra_isomorphic: Permutation | None
    grmod_equivalent: EquivWitness | None
    complexes_isomorphic: Permutation | None
    first_facets: SimplicialComplex
    second_facets: SimplicialComplex
    first_dimension: int
    second_dimension: int
    note: str | None = None

    def __post_init__(self) -> None:
        if self.algebra_isomorphic is not None and self.grmod_equivalent is None:
            raise ValueError("algebra isomorphism must imply module-category equivalence")
        if self.grmod_equivalent is not None and self.complexes_isomorphic is None:
            raise ValueError("module-category equivalence must imply complex isomorphism")


def classify_pair(a: SkewAlgebraSpec, b: SkewAlgebraSpec) -> ClassificationReport:
    """Answer all three classification questions for a pair of algebras.

    Algebras over different moduli are incomparable and rejected; algebras
    in different numbers of variables get a definite all-negative report,
    since their graded module categories can never be equivalent.
    """
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    ca, cb = facets(a.matrix), facets(b.matrix)
    da, db = dimension(ca), dimension(cb)
    if a.size != b.size:
        return ClassificationReport(
            None,
            None,
            None,
            ca,
            cb,
            da,
            db,
            note="different variable counts: the graded module categories of graded"
            " quotient algebras with different Hilbert series are never equivalent",
        )
    return ClassificationReport(
        isomorphic(a.matrix, b.matrix),
        switching_equivalent(a.matrix, b.matrix),
        complexes_isomorphic(ca, cb),
        ca,
        cb,
        da,
        db,
    )


def grmod_witness_as_lambdas(w: EquivWitness, modulus: int) -> list[tuple[int, int]]:
    """Per-variable rescaling exponents (i, a_i) of an equivalence witness.

    Variable i is rescaled by the a_i-th power of the primitive root; the
    relabeling part of the witness is untouched.  Feeding the exponents
    back through the switching map reproduces the target matrix.
    """
    return [(i + 1, a % modulus) for i, a in enumerate(w.exponents)]
