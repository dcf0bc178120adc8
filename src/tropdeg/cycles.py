"""Tropical cycles: weighted polyhedral complexes over a block-decomposed space.

A cycle is a list of weighted facets; lower faces are derived, never stored.
Validation (purity + the complex condition) and the balancing condition are
separate, report-style checks: construction never repairs or refines input.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import linalg
from .errors import (
    BadBlockIndexError,
    DimensionMismatchError,
    EmptySubsetError,
    InvalidComplexError,
    InvariantError,
    UnbalancedCycleError,
    WrongDimensionError,
)
from .linalg import IntVec, frac_vec, integral_row, vdot
from .polyhedra import (
    Polyhedron,
    offending_pairs,
    refine_cells,
)


class BlockStructure(namedtuple("BlockStructure", "blocks")):
    """Ambient factorization R^{m_1} x ... x R^{m_k}: ``blocks`` holds the
    positive sizes m_i, checked on construction, also by ``_make`` and
    ``_replace``."""

    __slots__ = ()

    def __new__(cls, blocks):
        checked = integral_row(blocks, DimensionMismatchError, "block sizes")
        if not checked or any(b < 1 for b in checked):
            raise DimensionMismatchError(f"bad block sizes {blocks}")
        return super().__new__(cls, checked)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return sum(self.blocks)

    def index(self, i) -> int:
        """The 1-based block index i as an int, checked to lie in 1..k."""
        i = integral_row((i,), BadBlockIndexError, "block index")[0]
        if not 1 <= i <= self.k:
            raise BadBlockIndexError(f"block index {i} out of 1..{self.k}")
        return i

    def subset(self, indices) -> tuple[int, ...]:
        """The checked block indices, sorted, without repeats and nonempty."""
        subset = tuple(sorted(set(map(self.index, indices))))
        if not subset:
            raise EmptySubsetError("empty block subset")
        return subset

    def subsets(self) -> list[tuple[int, ...]]:
        """Every nonempty block subset, by size, then lexicographically."""
        indices = range(1, self.k + 1)
        return [s for size in indices for s in combinations(indices, size)]

    def block_range(self, i: int) -> range:
        """Coordinate range of block i (1-based)."""
        i = self.index(i)
        start = sum(self.blocks[: i - 1])
        return range(start, start + self.blocks[i - 1])

    def coords_of(self, subset) -> list[int]:
        """Coordinates of the blocks in ``subset``, checked as ``subset`` does."""
        return [j for i in self.subset(subset) for j in self.block_range(i)]


class WeightedFacet(namedtuple("WeightedFacet", "poly weight")):
    """A nonempty ``Polyhedron`` with a non-negative int weight, checked on
    construction, also by ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, poly, weight):
        weight = integral_row((weight,), InvalidComplexError, "facet weight")[0]
        if weight < 0:
            raise InvalidComplexError(f"negative weight {weight}")
        if poly.is_empty:
            raise InvalidComplexError("empty facet polyhedron")
        return super().__new__(cls, poly, weight)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TropicalCycle:
    """Weighted facet list over a block structure; immutable."""

    __slots__ = ("ambient", "facets", "support_facets", "_cache")

    def __init__(self, ambient: BlockStructure, facets):
        self.ambient = ambient
        fs = []
        for f in facets:
            if not isinstance(f, WeightedFacet):
                f = WeightedFacet(*f)
            if f.poly.m != ambient.m:
                raise DimensionMismatchError(
                    f"facet in R^{f.poly.m}, ambient is R^{ambient.m}")
            fs.append(f)
        self.facets = tuple(sorted(fs, key=lambda f: (f.poly.key, f.weight)))
        #: the positive-weight facets, in the order of ``facets``
        self.support_facets = tuple(f for f in self.facets if f.weight > 0)
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.ambient.m

    @property
    def is_empty(self) -> bool:
        return not self.support_facets

    @property
    def dim(self):
        """Common dimension of the positive-weight facets (None when empty)."""
        dims = {f.poly.dim for f in self.support_facets}
        if not dims:
            return None
        return max(dims)

    @property
    def key(self):
        return (self.ambient.blocks,
                tuple((f.poly.key, f.weight) for f in self.support_facets))

    def __eq__(self, other):
        return isinstance(other, TropicalCycle) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (f"TropicalCycle(blocks={self.ambient.blocks}, dim={self.dim}, "
                f"facets={len(self.support_facets)})")


class ComplexReport(namedtuple("ComplexReport", "ok pure weights_ok bad_pairs")):
    """Validity of a complex; ``bad_pairs`` holds the facet index pairs that
    fail the face condition."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


class Codim1Record(namedtuple("Codim1Record", "face incident")):
    """A codimension-1 face Q and its incident support facets: each entry
    of ``incident`` is (facet index i, a lift in L_P of the lattice normal
    u_{P/Q}), P the i-th support facet: a vector of L_P on which P's facet
    row takes its least positive value; primitive, and unique modulo L_Q."""

    __slots__ = ()


class BalanceReport(namedtuple("BalanceReport", "balanced violations")):
    """Balancing of a cycle; ``violations`` holds the unbalanced
    ``Codim1Record``s."""

    __slots__ = ()

    def __bool__(self):
        return self.balanced


def empty_cycle(ambient: BlockStructure) -> TropicalCycle:
    return TropicalCycle(ambient, ())


_KNOWN_VALID = ComplexReport(ok=True, pure=True, weights_ok=True, bad_pairs=())
_KNOWN_BALANCED = BalanceReport(balanced=True, violations=())


def validate_complex(cycle: TropicalCycle) -> ComplexReport:
    """Purity of the support, non-negative weights, and the face condition:
    ``bad_pairs`` is ``offending_pairs`` of the support facets, as indices
    into ``support_facets``."""
    return _report(cycle, offending_pairs([f.poly for f in cycle.support_facets]))


def _report(cycle: TropicalCycle, bad_pairs) -> ComplexReport:
    """The report for these offending pairs; purity and weights are read
    off the cycle."""
    pure = len({f.poly.dim for f in cycle.support_facets}) <= 1
    weights_ok = all(f.weight >= 0 for f in cycle.facets)
    return ComplexReport(ok=pure and weights_ok and not bad_pairs, pure=pure,
                         weights_ok=weights_ok, bad_pairs=tuple(bad_pairs))


def complex_report(cycle: TropicalCycle) -> ComplexReport:
    """``validate_complex`` at most once per cycle: the verdict is memoized
    on the cycle.  A verdict stored by ``refined_cycle`` or carried by
    ``_propagate_checks`` stands in for it."""
    if "valid" not in cycle._cache:
        cycle._cache["valid"] = validate_complex(cycle)
    return cycle._cache["valid"]


def _require_valid(cycle: TropicalCycle) -> None:
    report = complex_report(cycle)
    if not report.ok:
        raise InvalidComplexError(
            f"not a valid complex (pure={report.pure}, "
            f"weights_ok={report.weights_ok}, bad_pairs={report.bad_pairs})")


def codim1_faces(cycle: TropicalCycle) -> tuple[Codim1Record, ...]:
    """Codimension-1 faces of the support with their lattice normals.

    Faces equal as point sets are merged across facets.  For every
    incident facet P, with Q = P cap {row = 0} for its facet row, the
    stored vector lies in L_P = Lin(P) cap Z^m and maps to the generator
    u_{P/Q} of L_P / L_Q that points into P (Allermann-Rau 2010).
    """
    _require_valid(cycle)
    support = cycle.support_facets
    merged: dict = {}
    for idx, wf in enumerate(support):
        p = wf.poly
        for row, q in zip(p.ineqs, p.facet_faces()):
            entry = merged.setdefault(q.key, (q, []))
            entry[1].append((idx, _lattice_normal(p, row)))
    return tuple(
        Codim1Record(face=q, incident=tuple(sorted(inc)))
        for q, inc in (merged[k] for k in sorted(merged)))


def _lattice_normal(p: Polyhedron, row) -> IntVec:
    """The vector of L_P with the least positive value of the facet row's
    linear form: an xgcd fold over the saturated basis of L_P.

    The values of that form on L_P are gcd * Z and its kernel there is
    L_Q, so the vector maps to the generator of L_P / L_Q on P's side; it
    is primitive, since a proper multiple would take a smaller value.
    """
    g, normal = 0, (0,) * p.m
    for b in p.direction_basis():
        g, s, t = linalg._xgcd(g, vdot(row[1:], b))
        normal = tuple(s * x + t * y for x, y in zip(normal, b))
    return normal


def check_balancing(cycle: TropicalCycle) -> BalanceReport:
    """Weighted primitive normals sum into Lin(Q) at every codimension-1 face."""
    if "balance" in cycle._cache:
        return cycle._cache["balance"]
    support = cycle.support_facets
    violations = []
    for record in codim1_faces(cycle):
        total = (0,) * cycle.m
        for idx, v in record.incident:
            w = support[idx].weight
            total = tuple(a + w * b for a, b in zip(total, v))
        # Lin(Q) is the common kernel of the normals of Q's equality rows
        if any(vdot(eq[1:], total) != 0 for eq in record.face.eqs):
            violations.append(record)
    report = BalanceReport(balanced=not violations, violations=tuple(violations))
    cycle._cache["balance"] = report
    return report


def require_balanced(cycle: TropicalCycle) -> None:
    if not cycle.is_empty and not check_balancing(cycle).balanced:
        raise UnbalancedCycleError("cycle fails the balancing condition")


def assert_balanced(cycle: TropicalCycle, what: str) -> None:
    """The output check: an unbalanced result of ``what`` is an internal
    failure (``InvariantError``), not a fault of the input."""
    if not cycle.is_empty and not check_balancing(cycle).balanced:
        raise InvariantError(f"{what} produced an unbalanced cycle")


def degree0(cycle: TropicalCycle) -> int:
    """Sum of point weights of a 0-dimensional cycle."""
    if cycle.dim not in (None, 0):
        raise WrongDimensionError(f"degree of a cycle of dimension {cycle.dim}")
    return sum(f.weight for f in cycle.support_facets)


def translate(cycle: TropicalCycle, v) -> TropicalCycle:
    v = frac_vec(v)
    if len(v) != cycle.m:
        raise DimensionMismatchError(
            f"translation vector of length {len(v)} in R^{cycle.m}")
    out = TropicalCycle(cycle.ambient,
                        [WeightedFacet(f.poly.translate(v), f.weight)
                         for f in cycle.facets])
    _propagate_checks(out, cycle)
    return out


def _propagate_checks(dst: TropicalCycle, *srcs: TropicalCycle) -> None:
    """Give ``dst`` the valid and balanced verdicts that every source
    carries; its callers (``translate`` and ``product``) preserve both
    properties."""
    if all(getattr(s._cache.get("valid"), "ok", False) for s in srcs):
        dst._cache.setdefault("valid", _KNOWN_VALID)
    if all(getattr(s._cache.get("balance"), "balanced", False) for s in srcs):
        dst._cache.setdefault("balance", _KNOWN_BALANCED)


def product(*factors: TropicalCycle,
            blocks: BlockStructure | None = None) -> TropicalCycle:
    """Direct product of any number of cycles, in factor order, over
    ``blocks`` (by default the factors' blocks joined); weights multiply,
    dimensions add.

    Support facets are folded from the left, so each prefix polyhedron is
    built once.  The product keeps the valid and balanced marks when every
    factor carries them: a product of valid, balanced cycles is valid and
    balanced (Allermann-Rau 2010).  No factors raise DimensionMismatchError.
    """
    if blocks is None:
        blocks = BlockStructure(sum((c.ambient.blocks for c in factors), ()))
    if blocks.m != sum(c.m for c in factors):
        raise DimensionMismatchError("blocks do not sum to the product dimension")
    # zero-weight facets are refinement bookkeeping; products drop them
    facets = factors[0].support_facets
    for c in factors[1:]:
        facets = [WeightedFacet(p.poly.product(f.poly), p.weight * f.weight)
                  for p in facets for f in c.support_facets]
    out = TropicalCycle(blocks, facets)
    _propagate_checks(out, *factors)
    return out


def recession_cycle(cycle: TropicalCycle) -> TropicalCycle:
    """The fan of recession cones with induced weights.

    The top-dimensional recession cones go through ``refined_cycle``: a
    cone of their common refinement receives the sum of the weights of the
    facets whose recession cone contains it.
    """
    require_balanced(cycle)
    support = cycle.support_facets
    if not support:
        return empty_cycle(cycle.ambient)
    rec = [(f.poly.recession_cone(), f.weight) for f in support]
    top = [(cone, w) for cone, w in rec if cone.dim == cycle.dim]
    out = refined_cycle(cycle.ambient, refine_cells([cone for cone, _ in top]),
                        [w for _, w in top])
    assert_balanced(out, "recession cycle")
    return out


def refined_cycle(ambient: BlockStructure, pieces, weights) -> TropicalCycle:
    """The cycle on ``refine_cells`` pieces, each weighing the sum of the
    ``weights`` of its cells; pieces of weight zero are dropped.

    It stores the validity verdict of the refinement, whose last
    ``offending_pairs`` scan was empty: a subset of the pieces has no
    offending pair either, and purity and weights are read off the cycle.
    Balancing is left to ``check_balancing``.
    """
    facets = [(piece, sum(weights[i] for i in cells)) for piece, cells in pieces]
    out = TropicalCycle(ambient, [(p, w) for p, w in facets if w > 0])
    out._cache["valid"] = _report(out, ())
    return out
