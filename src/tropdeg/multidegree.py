"""Multidegrees, projection ranks, the positivity criterion, and MSupp.

The multidegree of type n is deg(C . L_n), one stable intersection of the
cycle C with L_n = Lambda_1^{n_1} x ... x Lambda_k^{n_k}, where
Lambda_i^{n_i} is the n_i-fold stable self-intersection of block i's
positive divisor.  By associativity of stable intersection and pull-back
this equals the degree of C cut by n_i pullbacks of each divisor.  The
divisor powers are cached per (divisor, n_i), a bounded number of them.
The rank function I -> dim pi_I tabulates projection dimensions over all
block subsets; the criterion compares the two.  The criterion's positivity
prediction is only valid for translation-admissible cycles, and its
result object says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from . import cycles as cyc
from . import ops
from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .errors import (
    BadBlockIndexError,
    DimensionMismatchError,
    NonPositiveDivisorError,
    TypeMismatchError,
    WrongDimensionError,
)
from .linalg import integral_row
from .polyhedra import Polyhedron

ADMISSIBILITY_CAVEAT = (
    "positivity prediction is valid only for translation-admissible cycles")


@dataclass(frozen=True)
class DivisorSet:
    """One positive divisor per block; defaults to standard hyperplanes."""

    blocks: BlockStructure
    divisors: tuple[TropicalCycle, ...]

    @classmethod
    def standard(cls, blocks: BlockStructure) -> "DivisorSet":
        return cls(blocks, tuple(standard_hyperplane(b) for b in blocks.blocks))

    def replaced(self, i: int, divisor: TropicalCycle) -> "DivisorSet":
        """The set with block i's divisor (1-based) replaced."""
        i = _block_index(i, self.blocks)
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


@dataclass(frozen=True)
class RankFunction:
    """I subset of [k] -> dim pi_I of the support; rank(empty) = 0."""

    k: int
    table: tuple[tuple[tuple[int, ...], int], ...]

    def rank(self, subset) -> int:
        key = tuple(sorted(subset))
        for s, r in self.table:
            if s == key:
                return r
        raise KeyError(f"subset {key} not tabulated")

    def subsets(self):
        return [s for s, _ in self.table]


@dataclass(frozen=True)
class CriterionResult:
    holds: bool
    violating_subset: tuple[int, ...] | None
    facet_witness: WeightedFacet | None
    caveat: str = ADMISSIBILITY_CAVEAT

    def __bool__(self):
        return self.holds


def _block_index(i, blocks: BlockStructure) -> int:
    """The 1-based block index i as an int, checked to lie in 1..k."""
    i = integral_row((i,), BadBlockIndexError, "block index")[0]
    if not 1 <= i <= blocks.k:
        raise BadBlockIndexError(f"block index {i} out of 1..{blocks.k}")
    return i


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


@lru_cache(maxsize=None)
def standard_hyperplane(b: int) -> TropicalCycle:
    """The standard tropical hyperplane in R^b, built and balance-checked once."""
    hyperplane = ops.tropical_hyperplane([0] * (b + 1))
    cyc.require_balanced(hyperplane)
    return hyperplane


def _full_space(b: int) -> TropicalCycle:
    """R^b as a cycle with one unit-weight facet, validated and balance-checked.

    The checks are trivial (one facet, no codimension-1 face) and let
    products with it carry both marks.
    """
    full = TropicalCycle(BlockStructure((b,)),
                         [WeightedFacet(Polyhedron.full_space(b), 1)])
    cyc.require_balanced(full)
    return full


def _block_product(parts, blocks: BlockStructure) -> TropicalCycle:
    """Product of one cycle per block, the last one over ``blocks``;
    ``product`` keeps proven marks.  A single part is returned as it is."""
    out = parts[0]
    for i, part in enumerate(parts[1:], 2):
        out = cyc.product(out, part, blocks if i == len(parts) else None)
    return out


def pullback(divisor: TropicalCycle, block: int,
             blocks: BlockStructure) -> TropicalCycle:
    """divisor x product of the other blocks' full spaces, as a cycle in R^m.

    The result is marked valid and balanced when the divisor is.
    """
    block = _block_index(block, blocks)
    size = blocks.blocks[block - 1]
    if divisor.m != size:
        raise DimensionMismatchError(
            f"divisor in R^{divisor.m} for block {block} of size {size}")
    return _block_product(
        [divisor if i == block else _full_space(b)
         for i, b in enumerate(blocks.blocks, 1)], blocks)


#: powers kept by ``divisor_power``; the standard divisors of blocks of
#: sizes 1-3 need 9, and other divisors evict the least recently used
DIVISOR_POWER_CACHE_SIZE = 32


@lru_cache(maxsize=DIVISOR_POWER_CACHE_SIZE)
def divisor_power(divisor: TropicalCycle, n: int) -> TropicalCycle:
    """Lambda^n: R^b for n = 0, else the n-fold stable self-intersection.

    Each power is balance-checked once and cached; cycles hash by their
    key, and the cache keeps the ``DIVISOR_POWER_CACHE_SIZE`` powers used
    last.
    Each self-intersection is checked under the default seed's direction
    by ``stable_intersect``.  A negative or non-integral exponent raises
    TypeMismatchError.
    """
    n = integral_row((n,), TypeMismatchError, "divisor power exponent")[0]
    if n < 0:
        raise TypeMismatchError(f"negative divisor power exponent {n}")
    if n == 0:
        return _full_space(divisor.m)
    cyc.require_balanced(divisor)
    power = divisor
    for _ in range(n - 1):
        power = ops.stable_intersect(power, divisor)
    return power


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
    lin = _block_product([divisor_power(d, e) for d, e in zip(divs.divisors, n)],
                         cycle.ambient)
    return cyc.degree0(ops.stable_intersect(cycle, lin, seed=seed))


def rank_function(cycle: TropicalCycle) -> RankFunction:
    """Tabulate dim pi_I over every subset of [k]."""
    if cycle.is_empty:
        raise WrongDimensionError("rank function of an empty cycle")
    k = cycle.ambient.k
    table = [((), 0)]
    for size in range(1, k + 1):
        for subset in combinations(range(1, k + 1), size):
            table.append((subset, ops.projection_dim(cycle, subset)))
    return RankFunction(k, tuple(table))


def positivity_criterion(cycle: TropicalCycle, n,
                         ranks: RankFunction | None = None) -> CriterionResult:
    """n_I <= dim pi_I for all I, plus a facet witness when it holds."""
    n = _check_type(cycle, n)
    if ranks is None:
        ranks = rank_function(cycle)
    for subset in ranks.subsets():
        if not subset:
            continue
        n_i = sum(n[i - 1] for i in subset)
        if n_i > ranks.rank(subset):
            return CriterionResult(False, subset, None)
    return CriterionResult(True, None, facet_witness(cycle, n))


def facet_witness(cycle: TropicalCycle, n) -> WeightedFacet | None:
    """First facet (canonical order) with dim pi_I(facet) >= n_I for all I."""
    n = _check_type(cycle, n)
    blocks = cycle.ambient
    bounds = [(blocks.coords_of(s), sum(n[i - 1] for i in s))
              for size in range(1, blocks.k + 1)
              for s in combinations(range(1, blocks.k + 1), size)]
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
        out = [n for n in type_vectors(cycle)
               if positivity_criterion(cycle, n, ranks).holds]
    elif mode == "bruteforce":
        out = [n for n in type_vectors(cycle)
               if multidegree(cycle, n, divs, seed) > 0]
    else:
        raise ValueError(f"unknown msupp mode {mode!r}")
    return frozenset(out)


def check_submodular(ranks: RankFunction):
    """rank(I&J) + rank(I|J) <= rank(I) + rank(J) over all subset pairs."""
    subsets = [frozenset(s) for s in ranks.subsets()]
    for a in subsets:
        for b in subsets:
            lhs = ranks.rank(a & b) + ranks.rank(a | b)
            rhs = ranks.rank(a) + ranks.rank(b)
            if lhs > rhs:
                return False, (tuple(sorted(a)), tuple(sorted(b)))
    return True, None


def exchange_property(vectors) -> bool:
    """Polymatroid-base exchange axiom, checked by brute force."""
    vecs = sorted(vectors)
    for n in vecs:
        for n2 in vecs:
            for i in range(len(n)):
                if n[i] <= n2[i]:
                    continue
                witness = False
                for j in range(len(n)):
                    if n[j] < n2[j]:
                        cand = list(n)
                        cand[i] -= 1
                        cand[j] += 1
                        if tuple(cand) in vectors:
                            witness = True
                            break
                if not witness:
                    return False
    return True
