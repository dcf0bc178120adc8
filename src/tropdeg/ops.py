"""Geometric operations between cycles.

Stable intersection implements the fan displacement rule with a verified
generic rational displacement: for every pair of faces meeting after the
infinitesimal displacement the direction spaces must span the ambient
space, otherwise the next vector of the same splitmix64 stream is drawn.
Every stable intersection is checked under two seeds.  All constructed
cycles are checked balanced before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import cycles as cyc
from . import linalg
from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .errors import (
    BadBlockIndexError,
    DimensionMismatchError,
    EmptySubsetError,
    InputError,
    InvariantError,
    SeedDependenceError,
    WrongCodimensionError,
    WrongDimensionError,
    WrongDimensionsError,
)
from .linalg import (IntVec, int_row, integral_row, is_zero_vec, primitive, rank,
                     saturate, vdot, vsub)
from .polyhedra import (
    Polyhedron,
    dual_description,
    homogenized_constraints,
    is_covered,
    refine_cells,
)

_MASK64 = (1 << 64) - 1
_SEED_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DisplacementSeed:
    """Deterministic source of generic rational vectors."""

    seed: int = 0

    def derived(self, salt: int) -> "DisplacementSeed":
        return DisplacementSeed((self.seed + salt * _SEED_STRIDE) & _MASK64)


class Rng:
    """splitmix64; deterministic across platforms and Python versions."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _SEED_STRIDE) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next64() % (hi - lo + 1)

    def fraction(self, num_bound: int = 4096, den_bound: int = 16) -> Fraction:
        num = self.randint(1, num_bound)
        if self.next64() & 1:
            num = -num
        return Fraction(num, self.randint(1, den_bound))

    def vector(self, m: int, num_bound: int = 4096, den_bound: int = 16):
        return tuple(self.fraction(num_bound, den_bound) for _ in range(m))


def _as_seed(seed) -> DisplacementSeed:
    if isinstance(seed, DisplacementSeed):
        return seed
    return DisplacementSeed(integral_row((seed,), InputError, "seed")[0])


# ---------------------------------------------------------------------------
# stable intersection
# ---------------------------------------------------------------------------

def stable_intersect(c1: TropicalCycle, c2: TropicalCycle, seed=0) -> TropicalCycle:
    """Stable intersection with multiplicities from the displacement rule.

    The facet pairs, their lattice-index weights and the refinement of the
    candidate cells are seed-independent and computed once.  The seed
    drives only the displacement vector, which decides the candidates that
    count; that step runs under ``seed`` and under ``seed.derived(101)``,
    and the two must give every refined piece the same weight, otherwise
    SeedDependenceError is raised.  One cycle is built, on the first
    seed's weights, and balance-checked.
    """
    if c1.m != c2.m:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {c1.m} vs {c2.m}")
    cyc.require_balanced(c1)
    cyc.require_balanced(c2)
    seed = _as_seed(seed)
    if c1.is_empty or c2.is_empty:
        return cyc.empty_cycle(c1.ambient)
    m = c1.m
    out_dim = c1.dim + c2.dim - m
    if out_dim < 0:
        return cyc.empty_cycle(c1.ambient)
    meeting = []               # (P, Q) of every meeting facet pair
    full_pairs = []            # (i, j, P, Q): meeting, Lin(P) + Lin(Q) = R^m
    candidates = []            # (i, j, P cap Q, weight product * lattice index)
    support2 = c2.support_facets
    for i, f1 in enumerate(c1.support_facets):
        for j, f2 in enumerate(support2):
            p, q = f1.poly, f2.poly
            inter = p.intersect(q)
            if inter.is_empty:
                continue
            meeting.append((p, q))
            if not _full_span(p, q, m):
                continue
            full_pairs.append((i, j, p, q))
            if inter.dim == out_dim:
                index = linalg.lattice_index(
                    p.direction_basis() + q.direction_basis(), m)
                candidates.append((i, j, inter, f1.weight * f2.weight * index))

    # Proper subspaces spanned by direction spaces of face pairs of meeting
    # facets.  A face pair meets after displacement by eps*v only when v
    # lies in Lin(F) + Lin(F'), so keeping v outside every proper such
    # span certifies that displaced meetings happen only with full span.
    low_spans = _low_face_spans(meeting, m)
    pieces = refine_cells([c for _, _, c, _ in candidates])

    flags, redraws = _displacement_flags(full_pairs, low_spans, m, out_dim, seed)
    again, _ = _displacement_flags(full_pairs, low_spans, m, out_dim,
                                   seed.derived(101))
    weights = [w if flags[i, j] else 0 for i, j, _, w in candidates]
    other = [w if again[i, j] else 0 for i, j, _, w in candidates]
    # the pieces are fixed, so equal piece weights mean equal cycle keys
    if any(sum(weights[c] for c in cells) != sum(other[c] for c in cells)
           for _, cells in pieces):
        raise SeedDependenceError(
            "stable intersection differs across displacement seeds")
    out = cyc.refined_cycle(c1.ambient, pieces, weights)
    _assert_balanced(out, "stable intersection")
    out._cache["displacement_redraws"] = redraws
    return out


def _displacement_flags(full_pairs, low_spans, m: int, out_dim: int, seed):
    """({(i, j): P meets Q + eps*v} over the full-span pairs, redraws) for
    the first generic vector v of the seed's splitmix64 stream.

    A vector is rejected, and the next one drawn, when it lies in a proper
    span of ``low_spans`` or a full-span pair meets after displacement in
    a joint polyhedron of the wrong dimension.
    """
    rng = Rng(seed.seed)
    for redraws in range(64):
        # an integer multiple of the drawn vector; both tests below are
        # invariant under positive scaling
        v = int_row(rng.vector(m))
        if any(is_zero_vec(linalg.reduce_mod(basis, v)) for basis in low_spans):
            continue
        flags = {}
        for i, j, p, q in full_pairs:
            nonempty, qdim = _displaced(p, q, v)
            if nonempty and qdim != out_dim + 1:
                break
            flags[i, j] = nonempty
        else:
            return flags, redraws
    raise InvariantError("no generic displacement found in 64 draws")


def _full_span(p: Polyhedron, q: Polyhedron, m: int) -> bool:
    return rank(p.direction_basis() + q.direction_basis()) == m


def _low_face_spans(meeting, m: int):
    """Canonical bases of the proper subspaces Lin(F)+Lin(F') over face pairs."""
    seen_pairs = set()
    spans: dict = {}
    for p, q in meeting:
        for fa in p.all_faces():
            for fb in q.all_faces():
                key = (fa.key, fb.key)
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                red, _ = linalg.rref(fa.direction_basis() + fb.direction_basis())
                if len(red) < m:
                    spans.setdefault(tuple(red))
    return list(spans)


def _displaced(f: Polyhedron, g: Polyhedron, v):
    """Whether f meets g + eps*v for arbitrarily small eps > 0, and the
    dimension of the joint (x, eps) polyhedron (-1 when it is empty).

    Read off one double description of the joint homogenization cone in
    (x0, x, eps): the polyhedron is empty when no ray has positive height
    x0; the displaced facets meet when some ray has a positive eps entry
    or some lineality vector a nonzero one; the dimension is the rank of
    rays and lineality minus one.
    """
    rows = [r + (0,) for r in f.ineqs]
    eqs = [r + (0,) for r in f.eqs]
    for r in g.ineqs:
        rows.append(int_row(r + (-sum(c * x for c, x in zip(r[1:], v)),)))
    for r in g.eqs:
        eqs.append(int_row(r + (-sum(c * x for c, x in zip(r[1:], v)),)))
    gen_rays, gen_lin = dual_description(
        f.m + 2, homogenized_constraints(f.m + 1, rows, eqs))
    if not any(r[0] > 0 for r in gen_rays):
        return False, -1
    nonempty = (any(r[-1] > 0 for r in gen_rays)
                or any(l[-1] != 0 for l in gen_lin))
    return nonempty, rank(gen_rays + gen_lin) - 1


def _assert_balanced(cycle: TropicalCycle, what: str) -> None:
    if not cycle.is_empty and not cyc.check_balancing(cycle).balanced:
        raise InvariantError(f"{what} produced an unbalanced cycle")


# ---------------------------------------------------------------------------
# push-forwards along linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpurityReport:
    """Witness that an image is not pure-dimensional."""

    facet_index: int          # input facet whose image is the witness
    image: Polyhedron         # its (lower-dimensional, uncovered) image
    top_dim: int

    def __str__(self):
        return (f"image of facet {self.facet_index} has dimension "
                f"{self.image.dim} < {self.top_dim} and is not covered")


@dataclass(frozen=True)
class PushforwardResult:
    cycle: TropicalCycle | None
    impurity: ImpurityReport | None
    absorbed: tuple[int, ...] = ()

    @property
    def is_pure(self) -> bool:
        return self.impurity is None


def pushforward_linear(cycle: TropicalCycle, matrix,
                       out_blocks: BlockStructure) -> PushforwardResult:
    """Image cycle under an integer linear map (rows of length m): each
    facet's image through ``_image_cycle``."""
    cyc.require_balanced(cycle)
    matrix = [integral_row(row, InputError, "matrix row") for row in matrix]
    if len(matrix) != out_blocks.m or any(len(r) != cycle.m for r in matrix):
        raise DimensionMismatchError("matrix shape does not match the map")
    return _image_cycle(_linear_images(cycle, matrix, out_blocks.m), out_blocks)


def _linear_images(cycle: TropicalCycle, matrix, m_out: int):
    """(``linear_image``, weight, images of the direction basis as lattice
    generators) per support facet."""
    return [(f.poly.linear_image(matrix, m_out), f.weight,
             [tuple(vdot(row, b) for row in matrix) for b in f.poly.direction_basis()])
            for f in cycle.support_facets]


def minkowski_sum_subspace(cycle: TropicalCycle, span_gens) -> PushforwardResult:
    """Minkowski sum with the rational linear span V of the given vectors.

    Built facet by facet in R^m: sigma + V, with the weight lattice
    L_sigma + L_V (the image of L_sigma x L_V under (x, y) -> x + y).
    """
    cyc.require_balanced(cycle)
    if any(len(vec) != cycle.m for vec in span_gens):
        raise DimensionMismatchError(f"span vectors must have length {cycle.m}")
    basis = saturate(span_gens, cycle.m)
    if not basis:
        return PushforwardResult(cycle, None)
    return _image_cycle(_facet_sums(cycle, basis), cycle.ambient)


def _facet_sums(cycle: TropicalCycle, basis):
    """(sigma + V, weight, generators of L_sigma + L_V) per support facet."""
    return [(f.poly.plus_span(basis), f.weight, f.poly.direction_basis() + basis)
            for f in cycle.support_facets]


def _purity(images) -> PushforwardResult:
    """Purity of the union of (image, weight, lattice generators) triples,
    from the supports alone: lower images covered by the top-dimensional
    ones are absorbed, the first uncovered one is the witness; no cycle."""
    d = max((img.dim for img, _, _ in images), default=-1)
    top = [img for img, _, _ in images if img.dim == d]
    absorbed = []
    for idx, (img, _, _) in enumerate(images):
        if img.dim == d:
            continue
        if not is_covered(img, top):
            return PushforwardResult(None, ImpurityReport(idx, img, d))
        absorbed.append(idx)
    return PushforwardResult(None, None, tuple(absorbed))


def _image_cycle(images, out_blocks: BlockStructure) -> PushforwardResult:
    """``_purity``, then ``refined_cycle`` with lattice-index weights on the
    top-dimensional (not absorbed) images; the cycle is balance-checked.

    Each top image ``img`` with weight ``w`` and lattice generators ``gens``
    carries the weight ``w * [L_img : <gens>]`` once, where ``L_img`` is
    ``Lin(img) ∩ Z^m``.  A refined piece sums the weights of the images
    containing it.  That is its lattice-index weight: a piece is top
    dimensional inside each such image, so ``Lin(piece) = Lin(img)`` and
    ``L_piece = L_img``, and as ``L_img`` is saturated the index is the
    product of the nonzero Smith invariant factors of ``gens``.
    """
    verdict = _purity(images)
    if not verdict.is_pure:
        return verdict
    top = [(img, _image_weight(img, w, gens))
           for i, (img, w, gens) in enumerate(images) if i not in verdict.absorbed]
    out = cyc.refined_cycle(out_blocks, refine_cells([img for img, _ in top]),
                            [w for _, w in top])
    _assert_balanced(out, "push-forward")
    return PushforwardResult(out, None, verdict.absorbed)


def _image_weight(img: Polyhedron, weight: int, gens) -> int:
    """``weight * [L_img : <gens>]``, after checking that the generators lie
    in and span Lin(img)."""
    if any(vdot(eq[1:], g) != 0 for eq in img.eqs for g in gens):
        raise InvariantError("lattice generator outside the image's linear span")
    if rank(gens) != img.dim:
        raise InvariantError("lattice generators do not span the image's linear span")
    return weight * linalg.saturation_index(gens)


def projection_dim(cycle: TropicalCycle, subset) -> int:
    """Dimension of the image of the support under the block projection."""
    blocks = cycle.ambient
    subset = _check_subset(subset, blocks.k)
    if cycle.is_empty:
        raise WrongDimensionError("projection of an empty cycle")
    kernel = projection_kernel(blocks, subset)
    return max(projected_dim(f.poly, kernel) for f in cycle.support_facets)


def projection_kernel(blocks: BlockStructure, subset) -> list[IntVec]:
    """Unit vectors of the coordinates outside the given blocks."""
    keep = set(blocks.coords_of(subset))
    return [tuple(1 if t == j else 0 for t in range(blocks.m))
            for j in range(blocks.m) if j not in keep]


def projected_dim(poly: Polyhedron, kernel) -> int:
    """Dimension of the image of ``poly`` under a projection with this kernel."""
    return rank(list(poly.direction_basis()) + kernel) - len(kernel)


def projection_pushforward(cycle: TropicalCycle, subset) -> PushforwardResult:
    """Push the cycle forward along the coordinate projection onto blocks."""
    blocks = cycle.ambient
    subset = _check_subset(subset, blocks.k)
    coords = blocks.coords_of(subset)
    matrix = [tuple(1 if t == j else 0 for t in range(cycle.m)) for j in coords]
    out_blocks = BlockStructure(tuple(blocks.blocks[i - 1] for i in sorted(subset)))
    return pushforward_linear(cycle, matrix, out_blocks)


def _check_subset(subset, k: int) -> tuple[int, ...]:
    subset = tuple(sorted(set(integral_row(subset, BadBlockIndexError,
                                           "block index"))))
    if not subset:
        raise EmptySubsetError("empty block subset")
    if subset[0] < 1 or subset[-1] > k:
        raise BadBlockIndexError(f"block indices {subset} out of 1..{k}")
    return subset


# ---------------------------------------------------------------------------
# divisors and positivity
# ---------------------------------------------------------------------------

def tropical_hyperplane(coeffs) -> TropicalCycle:
    """Locus where min(c0, c1+a1, ..., cm+am) is attained at least twice.

    All weights 1; for zero coefficients this is the standard fan with
    vertex at the origin.
    """
    coeffs = [Fraction(e) for e in coeffs]
    m = len(coeffs) - 1
    if m < 1:
        raise DimensionMismatchError("need at least two coefficients")

    def term_row(l: int):
        # c_l + a_l as (constant, linear) with a_0 == 0
        lin = [0] * m
        if l >= 1:
            lin[l - 1] = 1
        return coeffs[l], lin

    facets = []
    for i, j in combinations(range(m + 1), 2):
        ci, li = term_row(i)
        cj, lj = term_row(j)
        eq = [ci - cj] + [a - b for a, b in zip(li, lj)]
        ineqs = []
        for l in range(m + 1):
            if l in (i, j):
                continue
            cl, ll = term_row(l)
            ineqs.append([cl - ci] + [a - b for a, b in zip(ll, li)])
        cell = Polyhedron.from_hrep(m, ineqs=ineqs, eqs=[eq])
        if not cell.is_empty and cell.dim == m - 1:
            facets.append(WeightedFacet(cell, 1))
    return TropicalCycle(BlockStructure((m,)), facets)


def is_positive_divisor(cycle: TropicalCycle):
    """True when the facet direction spaces intersect only in the origin.

    Returns (flag, witness) with a primitive line direction contained in
    every facet when the divisor is not positive.
    """
    m = cycle.m
    if cycle.dim != m - 1:
        raise WrongCodimensionError(
            f"divisor must have codimension 1, got dim {cycle.dim} in R^{m}")
    rows = []
    for f in cycle.support_facets:
        rows.extend(r[1:] for r in f.poly.eqs)
    kernel = linalg.int_kernel(rows, m)
    if not kernel:
        return True, None
    return False, kernel[0]


def pair_positive(c1: TropicalCycle, c2: TropicalCycle):
    """Positivity of the stable intersection of complementary-dimension cycles.

    Equivalent to the existence of a facet pair whose direction spaces
    span the ambient space; the witness pair of facet indices is returned.
    """
    if c1.m != c2.m:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {c1.m} vs {c2.m}")
    cyc.require_balanced(c1)
    cyc.require_balanced(c2)
    if c1.is_empty or c2.is_empty:
        return False, None
    if c1.dim + c2.dim != c1.m:
        raise WrongDimensionsError(
            f"dimensions {c1.dim} + {c2.dim} != {c1.m}")
    support2 = c2.support_facets
    for i, f1 in enumerate(c1.support_facets):
        for j, f2 in enumerate(support2):
            if _full_span(f1.poly, f2.poly, c1.m):
                return True, (i, j)
    return False, None


# ---------------------------------------------------------------------------
# translation-admissibility search
# ---------------------------------------------------------------------------

NO_COUNTEREXAMPLE_FOUND = "NoCounterexampleFound"
COUNTEREXAMPLE_FOUND = "CounterexampleFound"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the refutation search.

    The search is sound but not complete: NoCounterexampleFound is not a
    proof of translation-admissibility, and the verdict records the
    strategy and how many subspaces were tested so callers cannot mistake
    it for one.
    """

    status: str
    witness: tuple[IntVec, ...] | None
    strategy: str
    tested: int

    @property
    def found(self) -> bool:
        return self.status == COUNTEREXAMPLE_FOUND


def check_admissible(cycle: TropicalCycle, strategy: str = "coords",
                     seed: int = 0) -> AdmissibilityVerdict:
    """Search candidate subspaces V for an impure Minkowski sum cycle+V,
    read off the supports of the facet sums alone (no weights computed)."""
    cyc.require_balanced(cycle)
    m = cycle.m
    tested = 0
    seen = set()
    for cand in _candidates(cycle, strategy, seed):
        basis = saturate(cand, m)
        if not basis or len(basis) == m:
            continue        # V = 0 or V = R^m: the sum is trivially pure
        if basis in seen:
            continue
        seen.add(basis)
        tested += 1
        if not _purity(_facet_sums(cycle, basis)).is_pure:
            return AdmissibilityVerdict(COUNTEREXAMPLE_FOUND, basis,
                                        strategy, tested)
    return AdmissibilityVerdict(NO_COUNTEREXAMPLE_FOUND, None, strategy, tested)


def _candidates(cycle, strategy, seed):
    parts = [_strategy_part(part) for part in strategy.split("+")]
    m = cycle.m
    for part, n in parts:
        if part == "coords":
            basis = [tuple(1 if t == j else 0 for t in range(m))
                     for j in range(m)]
            for size in range(1, m + 1):
                for subset in combinations(range(m), size):
                    yield [basis[j] for j in subset]
        elif part == "spans":
            pool = _direction_pool(cycle)
            for size in (1, 2):
                for subset in combinations(pool, size):
                    yield list(subset)
        else:
            rng = Rng(seed)
            lines = []
            for _ in range(n):
                vec = tuple(rng.randint(-9, 9) for _ in range(m))
                if not is_zero_vec(vec):
                    lines.append(primitive(vec))
            for line in lines:
                yield [line]
            for pair in combinations(lines, 2):
                yield list(pair)


def _strategy_part(text: str):
    """(name, N) of one part of a strategy: coords, spans or random:N."""
    part = text.strip()
    if part in ("coords", "spans"):
        return part, 0
    name, _, count = part.partition(":")
    if name == "random" and count.strip().isdecimal():
        return name, int(count)
    raise InputError(f"bad strategy {part!r}: want coords, spans or random:N "
                     "with an integer N >= 0")


def _direction_pool(cycle):
    pool: set = set()
    for f in cycle.support_facets:
        p = f.poly
        pool.update(p.rays)
        pool.update(p.lineality)
        verts = p.vertices
        for a, b in combinations(verts, 2):
            diff = vsub(b, a)
            if not is_zero_vec(diff):
                pool.add(primitive(diff))
    base = sorted(pool)
    for a, b in combinations(base, 2):
        for vec in (tuple(x + y for x, y in zip(a, b)),
                    tuple(x - y for x, y in zip(a, b))):
            if not is_zero_vec(vec):
                pool.add(primitive(vec))
    return sorted(pool)
