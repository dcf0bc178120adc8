"""Multidegrees, projection ranks, the positivity criterion, and MSupp.

The multidegree of type n is deg(C . L_n), one stable intersection of the
cycle C with L_n = Lambda_1^{n_1} x ... x Lambda_k^{n_k}, where
Lambda_i^{n_i} is the n_i-fold stable self-intersection of block i's
positive divisor.  By associativity of stable intersection and pull-back
this equals the degree of C cut by n_i pullbacks of each divisor.  The
powers of any tropical hyperplane, the standard fan translated to its apex
(c0 - c_i), are the standard tropical linear spaces translated to that apex;
any other divisor's power is the chain of n_i - 1 stable self-intersections.
R^b is ``standard_linear_space(b, 0)``, and the powers n_i >= 2 are memoized
on their divisor, so they live as long as it does.
The rank function I -> dim pi_I tabulates projection dimensions over all
block subsets; the criterion compares the two.  The criterion's positivity
prediction is only valid for translation-admissible cycles, and its
result object says so.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from . import cycles as cyc
from . import ops
from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .errors import (
    DimensionMismatchError,
    NonPositiveDivisorError,
    TypeMismatchError,
    WrongDimensionError,
)
from .linalg import integral_row

ADMISSIBILITY_CAVEAT = (
    "positivity prediction is valid only for translation-admissible cycles")


class DivisorSet(namedtuple("DivisorSet", "blocks divisors")):
    """One positive divisor per block of the ``BlockStructure`` ``blocks``;
    defaults to standard hyperplanes."""

    __slots__ = ()

    @classmethod
    def standard(cls, blocks: BlockStructure) -> "DivisorSet":
        return cls(blocks, tuple(standard_hyperplane(b) for b in blocks.blocks))

    def replaced(self, i: int, divisor: TropicalCycle) -> "DivisorSet":
        """The set with block i's divisor (1-based) replaced."""
        i = self.blocks.index(i)
        divs = list(self.divisors)
        divs[i - 1] = divisor
        return DivisorSet(self.blocks, tuple(divs))

    def validate(self, blocks: BlockStructure) -> None:
        """Check that the set holds one positive divisor per block of
        ``blocks``, the cycle's block structure."""
        if self.blocks != blocks or len(self.divisors) != blocks.k:
            raise DimensionMismatchError(
                f"divisor set over blocks {self.blocks.blocks} holding "
                f"{len(self.divisors)} divisor(s) does not fit a cycle over "
                f"blocks {blocks.blocks}")
        for i, (b, d) in enumerate(zip(self.blocks.blocks, self.divisors), 1):
            if d.m != b:
                raise DimensionMismatchError(
                    f"divisor {i} lives in R^{d.m}, block has R^{b}")
            positive, witness = ops.is_positive_divisor(d)
            if not positive:
                raise NonPositiveDivisorError(
                    f"divisor {i} is not positive (witness line {witness})")


class RankFunction(namedtuple("RankFunction", "k table")):
    """I subset of [k] -> dim pi_I of the support; rank(empty) = 0.
    ``table`` holds the (sorted subset, rank) pairs."""

    __slots__ = ()

    def rank(self, subset) -> int:
        key = tuple(sorted(set(subset)))
        for s, r in self.table:
            if s == key:
                return r
        raise KeyError(f"subset {key} not tabulated")


class CriterionResult(namedtuple("CriterionResult",
                                 "holds violating_subset facet_witness caveat",
                                 defaults=(ADMISSIBILITY_CAVEAT,))):
    """The criterion's verdict, the block subset that violates it and the
    ``WeightedFacet`` that witnesses it (each ``None`` when absent), and
    the admissibility caveat."""

    __slots__ = ()

    def __bool__(self):
        return self.holds


def _check_type(cycle: TropicalCycle, n) -> tuple[int, ...]:
    blocks = cycle.ambient
    n = integral_row(n, TypeMismatchError, "type vector")
    if len(n) != blocks.k:
        raise TypeMismatchError(f"type vector length {len(n)} for k={blocks.k}")
    if any(e < 0 for e in n):
        raise TypeMismatchError(f"negative entries in type vector {n}")
    if any(e > b for e, b in zip(n, blocks.blocks)):
        raise TypeMismatchError(f"type vector {n} exceeds block sizes {blocks.blocks}")
    if cycle.dim is None or sum(n) != cycle.dim:
        raise TypeMismatchError(
            f"type vector {n} sums to {sum(n)}, cycle dimension is {cycle.dim}")
    return n


def standard_hyperplane(b: int) -> TropicalCycle:
    """The standard tropical hyperplane in R^b: ``ops.standard_linear_space(b, 1)``."""
    return ops.standard_linear_space(b, 1)


def pullback(divisor: TropicalCycle, block: int,
             blocks: BlockStructure) -> TropicalCycle:
    """divisor x product of the other blocks' full spaces, one product over ``blocks``.

    The result is marked valid and balanced when the divisor is.
    """
    block = blocks.index(block)
    size = blocks.blocks[block - 1]
    if divisor.m != size:
        raise DimensionMismatchError(
            f"divisor in R^{divisor.m} for block {block} of size {size}")
    return cyc.product(*(divisor if i == block else ops.standard_linear_space(b, 0)
                         for i, b in enumerate(blocks.blocks, 1)), blocks=blocks)


def divisor_power(divisor: TropicalCycle, n: int) -> TropicalCycle:
    """Lambda^n: R^b (``standard_linear_space(b, 0)``) for n = 0, Lambda
    for n = 1, the standard tropical linear space of codimension n
    translated to v when Lambda is the standard hyperplane translated to v,
    the first vertex of its first support facet (cycle equality, so a file
    holding it qualifies), and ``stable_intersect(Lambda^(n-1), Lambda)``
    for any other divisor.

    A negative, non-integral or ``bool`` exponent raises
    TypeMismatchError.  Each power is balance-checked once.  The powers
    n >= 2 are memoized on the divisor (``_cache["powers"]``), so they live
    as long as it does and the chain continues from the memoized
    Lambda^(n-1); each self-intersection of the chain is checked under the
    default seed's direction.
    """
    n = integral_row((n,), TypeMismatchError, "divisor power exponent")[0]
    if n < 0:
        raise TypeMismatchError(f"negative divisor power exponent {n}")
    if n == 0:
        return ops.standard_linear_space(divisor.m, 0)
    cyc.require_balanced(divisor)
    if n == 1:
        return divisor
    powers = divisor._cache.setdefault("powers", {})
    if n not in powers:
        apex = None if divisor.is_empty else divisor.support_facets[0].poly.vertices[0]
        if apex is not None and divisor == cyc.translate(standard_hyperplane(divisor.m), apex):
            powers[n] = cyc.translate(ops.standard_linear_space(divisor.m, n), apex)
        else:
            powers[n] = ops.stable_intersect(divisor_power(divisor, n - 1), divisor)
    return powers[n]


def multidegree(cycle: TropicalCycle, n, divs: DivisorSet | None = None,
                seed=0) -> int:
    """deg(cycle . L_n) with L_n = prod_i Lambda_i^{n_i} (see divisor_power).

    This is the degree of the cycle cut by n_i pullbacks of each block's
    divisor, computed as one stable intersection of complementary
    dimension.  ``seed`` picks the direction that checks it:
    ``stable_intersect`` raises SeedDependenceError unless every refined
    cell gets the same weight under that direction as under ``u(eps)``.
    """
    n = _check_type(cycle, n)
    if divs is None:
        divs = DivisorSet.standard(cycle.ambient)
    divs.validate(cycle.ambient)
    lin = cyc.product(*map(divisor_power, divs.divisors, n), blocks=cycle.ambient)
    return cyc.degree0(ops.stable_intersect(cycle, lin, seed=seed))


def rank_function(cycle: TropicalCycle) -> RankFunction:
    """Tabulate dim pi_I over every subset of [k]."""
    if cycle.is_empty:
        raise WrongDimensionError("rank function of an empty cycle")
    blocks = cycle.ambient
    table = [((), 0)] + [(s, ops.projection_dim(cycle, s)) for s in blocks.subsets()]
    return RankFunction(blocks.k, tuple(table))


def _violating_subset(n, ranks: RankFunction) -> tuple[int, ...] | None:
    """The first subset I in table order with n_I > rank(I), or None."""
    for subset, rank in ranks.table:
        if sum(n[i - 1] for i in subset) > rank:
            return subset
    return None


def positivity_criterion(cycle: TropicalCycle, n,
                         ranks: RankFunction | None = None) -> CriterionResult:
    """n_I <= dim pi_I for all I, plus a facet witness when it holds."""
    n = _check_type(cycle, n)
    if ranks is None:
        ranks = rank_function(cycle)
    subset = _violating_subset(n, ranks)
    if subset is not None:
        return CriterionResult(False, subset, None)
    return CriterionResult(True, None, facet_witness(cycle, n))


def facet_witness(cycle: TropicalCycle, n) -> WeightedFacet | None:
    """First facet (canonical order) with dim pi_I(facet) >= n_I for all I."""
    n = _check_type(cycle, n)
    blocks = cycle.ambient
    bounds = [(blocks.coords_of(s), sum(n[i - 1] for i in s))
              for s in blocks.subsets()]
    for f in cycle.support_facets:
        if all(ops.projected_dim(f.poly, coords) >= need for coords, need in bounds):
            return f
    return None


def type_vectors(cycle: TropicalCycle):
    """All n >= 0 with sum n_i = dim and n_i <= m_i."""
    d = cycle.dim
    if d is None:
        return []
    return [n for n in product(*(range(b + 1) for b in cycle.ambient.blocks))
            if sum(n) == d]


def msupp(cycle: TropicalCycle, divs: DivisorSet | None = None,
          mode: str = "criterion", seed=0) -> frozenset:
    """Type vectors with positive multidegree.

    criterion mode uses the projection ranks (exact for
    translation-admissible cycles); bruteforce computes every multidegree.
    """
    if cycle.is_empty:
        raise WrongDimensionError("msupp of an empty cycle")
    if mode == "criterion":
        ranks = rank_function(cycle)
        out = [n for n in type_vectors(cycle) if _violating_subset(n, ranks) is None]
    elif mode == "bruteforce":
        out = [n for n in type_vectors(cycle)
               if multidegree(cycle, n, divs, seed) > 0]
    else:
        raise ValueError(f"unknown msupp mode {mode!r}")
    return frozenset(out)


def check_submodular(ranks: RankFunction):
    """rank(I&J) + rank(I|J) <= rank(I) + rank(J) over all subset pairs."""
    subsets = [frozenset(s) for s, _ in ranks.table]
    for a in subsets:
        for b in subsets:
            lhs = ranks.rank(a & b) + ranks.rank(a | b)
            rhs = ranks.rank(a) + ranks.rank(b)
            if lhs > rhs:
                return False, (tuple(sorted(a)), tuple(sorted(b)))
    return True, None


def exchange_property(vectors) -> bool:
    """Polymatroid-base exchange axiom, checked by brute force: for all n,
    n2 in the set and every i with n_i > n2_i, some j with n_j < n2_j has
    n - e_i + e_j in the set."""
    vectors = {tuple(v) for v in vectors}
    return all(any(tuple(x - (t == i) + (t == j) for t, x in enumerate(n)) in vectors
                   for j in range(len(n)) if n[j] < n2[j])
               for n in vectors for n2 in vectors for i in range(len(n)) if n[i] > n2[i])
