"""Tropical cycles: weighted polyhedral complexes over a block-decomposed space.

A cycle is a list of weighted facets; lower faces are derived, never stored.
Validation (purity + the complex condition) and the balancing condition are
separate, report-style checks: construction never repairs or refines input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    DimensionMismatchError,
    InputError,
    InvalidComplexError,
    UnbalancedCycleError,
    WrongDimensionError,
)
from .linalg import IntVec, frac_vec, integral_row, vdot
from .polyhedra import (
    Polyhedron,
    common_refinement,
    face_key_set,
    refine_by_hyperplanes,
)


@dataclass(frozen=True)
class BlockStructure:
    """Ambient factorization R^{m_1} x ... x R^{m_k}."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise DimensionMismatchError(f"bad block sizes {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return sum(self.blocks)

    def block_range(self, i: int) -> range:
        """Coordinate range of block i (1-based)."""
        if not 1 <= i <= self.k:
            raise DimensionMismatchError(f"block index {i} out of 1..{self.k}")
        start = sum(self.blocks[: i - 1])
        return range(start, start + self.blocks[i - 1])

    def coords_of(self, subset) -> list[int]:
        out: list[int] = []
        for i in sorted(subset):
            out.extend(self.block_range(i))
        return out


@dataclass(frozen=True)
class WeightedFacet:
    poly: Polyhedron
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise InvalidComplexError(f"negative weight {self.weight}")
        if self.poly.is_empty:
            raise InvalidComplexError("empty facet polyhedron")


class TropicalCycle:
    """Weighted facet list over a block structure; immutable."""

    __slots__ = ("ambient", "facets", "_cache")

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
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.ambient.m

    @property
    def support_facets(self) -> tuple[WeightedFacet, ...]:
        return tuple(f for f in self.facets if f.weight > 0)

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


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    pure: bool
    weights_ok: bool
    bad_pairs: tuple[tuple[int, int], ...]   # facet index pairs that fail the face condition

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Codim1Record:
    face: Polyhedron
    # (facet index i, a lift in L_P of the lattice normal u_{P/Q}), P the
    # i-th support facet: a vector of L_P on which P's facet row takes its
    # least positive value; primitive, and unique modulo L_Q
    incident: tuple[tuple[int, IntVec], ...]


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    violations: tuple[Codim1Record, ...]

    def __bool__(self):
        return self.balanced


def empty_cycle(ambient: BlockStructure) -> TropicalCycle:
    return TropicalCycle(ambient, ())


_KNOWN_VALID = ComplexReport(ok=True, pure=True, weights_ok=True, bad_pairs=())
_KNOWN_BALANCED = BalanceReport(balanced=True, violations=())


def mark_complex_by_construction(cycle: TropicalCycle) -> TropicalCycle:
    """Record that a cycle is a valid complex by construction.

    Used for outputs assembled from closed cells of one hyperplane
    arrangement (pairwise intersections are then common faces) so later
    operations do not re-run the quadratic validation.  It marks validity
    only; balancing is always computed, or carried by ``product`` and
    ``_propagate_checks`` from computed verdicts.
    """
    cycle._cache.setdefault("valid", _KNOWN_VALID)
    return cycle


def validate_complex(cycle: TropicalCycle) -> ComplexReport:
    """Purity of the support, pairwise face condition, non-negative weights."""
    support = cycle.support_facets
    dims = {f.poly.dim for f in support}
    pure = len(dims) <= 1
    weights_ok = all(f.weight >= 0 for f in cycle.facets)
    bad: list[tuple[int, int]] = []
    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            a, b = support[i].poly, support[j].poly
            inter = a.intersect(b)
            if inter.is_empty:
                continue
            if inter.key not in face_key_set(a) or inter.key not in face_key_set(b):
                bad.append((i, j))
    ok = pure and weights_ok and not bad
    return ComplexReport(ok=ok, pure=pure, weights_ok=weights_ok,
                         bad_pairs=tuple(bad))


def complex_report(cycle: TropicalCycle) -> ComplexReport:
    """``validate_complex`` at most once per cycle: the verdict is memoized
    on the cycle, and a validity mark carried by construction stands in."""
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
    if "codim1" in cycle._cache:
        return cycle._cache["codim1"]
    _require_valid(cycle)
    support = cycle.support_facets
    merged: dict = {}
    for idx, wf in enumerate(support):
        p = wf.poly
        for row, q in zip(p.ineqs, p.facet_faces()):
            entry = merged.setdefault(q.key, (q, []))
            entry[1].append((idx, _lattice_normal(p, row)))
    records = tuple(
        Codim1Record(face=q, incident=tuple(sorted(inc)))
        for q, inc in (merged[k] for k in sorted(merged)))
    cycle._cache["codim1"] = records
    return records


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
        dirs = record.face.direction_basis()
        if not linalg.in_span(dirs, total):
            violations.append(record)
    report = BalanceReport(balanced=not violations, violations=tuple(violations))
    cycle._cache["balance"] = report
    return report


def require_balanced(cycle: TropicalCycle) -> None:
    if not cycle.is_empty and not check_balancing(cycle).balanced:
        raise UnbalancedCycleError("cycle fails the balancing condition")


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
    _propagate_checks(cycle, out)
    return out


def _propagate_checks(src: TropicalCycle, dst: TropicalCycle) -> None:
    # validity and balancing are invariant under the operations that call this
    if src._cache.get("valid") is not None and src._cache["valid"].ok:
        dst._cache.setdefault("valid", _KNOWN_VALID)
    balance = src._cache.get("balance")
    if balance is not None and balance.balanced:
        dst._cache.setdefault("balance", _KNOWN_BALANCED)


def product(c1: TropicalCycle, c2: TropicalCycle,
            blocks: BlockStructure | None = None) -> TropicalCycle:
    """Direct product; weights multiply, dimensions add.

    The product keeps the valid and balanced marks when both factors carry
    them: a product of valid, balanced cycles is valid and balanced
    (Allermann-Rau 2010).
    """
    if blocks is None:
        blocks = BlockStructure(c1.ambient.blocks + c2.ambient.blocks)
    if blocks.m != c1.m + c2.m:
        raise DimensionMismatchError("blocks do not sum to the product dimension")
    # zero-weight facets are refinement bookkeeping; products drop them
    facets = [WeightedFacet(f1.poly.product(f2.poly), f1.weight * f2.weight)
              for f1 in c1.support_facets for f2 in c2.support_facets]
    out = TropicalCycle(blocks, facets)
    v1, v2 = c1._cache.get("valid"), c2._cache.get("valid")
    if v1 is not None and v1.ok and v2 is not None and v2.ok:
        out._cache.setdefault("valid", _KNOWN_VALID)
    b1, b2 = c1._cache.get("balance"), c2._cache.get("balance")
    if b1 is not None and b1.balanced and b2 is not None and b2.balanced:
        out._cache.setdefault("balance", _KNOWN_BALANCED)
    return out


def refine_against(cycle: TropicalCycle, hyperplanes) -> TropicalCycle:
    """Subdivide every facet by linear hyperplanes (integer covectors)."""
    rows = []
    for h in hyperplanes:
        h = integral_row(h, InputError, "covector")
        if len(h) != cycle.m:
            raise DimensionMismatchError(
                f"covector of length {len(h)} in R^{cycle.m}")
        rows.append((0,) + h)
    facets = []
    for f in cycle.facets:
        for piece in refine_by_hyperplanes(f.poly, rows):
            facets.append(WeightedFacet(piece, f.weight))
    return TropicalCycle(cycle.ambient, facets)


def recession_cycle(cycle: TropicalCycle) -> TropicalCycle:
    """The fan of recession cones with induced weights.

    Cones are refined by the arrangement of all their constraint
    hyperplanes; a maximal cone receives the sum of the weights of the
    facets whose recession cone contains it.
    """
    require_balanced(cycle)
    support = cycle.support_facets
    if not support:
        return empty_cycle(cycle.ambient)
    d = cycle.dim
    rec = [(f.poly.recession_cone(), f.weight) for f in support]
    top = [cone for cone, _ in rec if cone.dim == d]
    pieces = common_refinement(top)
    facets = []
    for piece in pieces:
        row = piece.interior_row()
        weight = sum(w for cone, w in rec if cone.dim == d and cone.contains_row(row))
        if weight > 0:
            facets.append(WeightedFacet(piece, weight))
    out = mark_complex_by_construction(TropicalCycle(cycle.ambient, facets))
    require_balanced(out)
    return out
