"""Algebra-level answers built on the matrix machinery.

A skew polynomial algebra at l-th roots of unity is described by its
exponent matrix: variables obey x_i x_j = w_ij x_j x_i with w_ij a power
of a fixed primitive l-th root of unity, and only the exponents are ever
stored.  Three nested questions are answered for a pair of algebras:
graded-algebra isomorphism, equivalence of graded module categories, and
isomorphism of the point complexes.  Each positive answer carries a
checkable witness, and a positive earlier answer forces all later ones:
a relabeling sigma is the equivalence witness (sigma, 0, ..., 0), and the
sigma of an equivalence witness carries one point complex onto the other,
because switching leaves every triple sum unchanged.  So each witness
answers the next question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pointcomplex import SimplicialComplex, _carries_facets, complexes_isomorphic, facets
from .skewmat import AltMatrix, EquivWitness, Permutation, isomorphic, switching_equivalent

__all__ = [
    "SkewAlgebraSpec",
    "ClassificationReport",
    "classify_pair",
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
    grmod_equivalent a switching-equivalence witness (zero exponents when
    algebra_isomorphic is set), complexes_isomorphic a vertex bijection of
    the point complexes (the witness's sigma when there is one).  An earlier
    verdict being positive forces every later one, and the constructor
    rejects reports violating that chain.
    """

    algebra_isomorphic: Permutation | None
    grmod_equivalent: EquivWitness | None
    complexes_isomorphic: Permutation | None
    first_facets: SimplicialComplex
    second_facets: SimplicialComplex
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
    if a.size != b.size:
        note = "different variable counts: the graded module categories of graded quotient algebras with"
        return ClassificationReport(None, None, None, ca, cb, note + " different Hilbert series are never equivalent")
    return ClassificationReport(*_verdicts(a.matrix, b.matrix, ca, cb), ca, cb)


def _verdicts(m: AltMatrix, mp: AltMatrix, c: SimplicialComplex, cp: SimplicialComplex) -> tuple:
    """The three verdicts for matrices of one modulus and size, whose complexes are c and cp.

    Each search runs only below a no.  A handed-down sigma is checked against
    both facet lists; isomorphic and switching_equivalent check their own.
    """
    sigma = isomorphic(m, mp)
    witness = EquivWitness(sigma, tuple([0] * m.size)) if sigma else switching_equivalent(m, mp)
    if witness is None:
        return None, None, complexes_isomorphic(c, cp)
    if not _carries_facets(c, set(cp.facets), witness.sigma):
        raise RuntimeError(f"witness {witness} does not carry facets onto facets")
    return sigma, witness, witness.sigma
