"""Geometric operations between cycles.

Stable intersection implements the fan displacement rule with the symbolic
generic direction ``u(eps) = (1, eps, ..., eps^(m-1))``: a candidate facet
pair counts when its displacement cone ``T_x(P) - T_x(Q)``, cut out by
lifted tight facet rows, holds ``u(eps)`` by lexicographic sign tests, with
no draw (see ``_displacement_flags``).
Seeds are ints; every stable intersection is checked under the seed's
signed permutation of ``u(eps)``.  All constructed cycles are checked
balanced (``cycles.assert_balanced``) before being returned.
A tropical hyperplane is the standard one translated to its apex (c0 - c_i),
and projection dimensions are ranks of direction bases restricted to block
coordinates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import cycles as cyc
from . import linalg
from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .errors import (
    DimensionMismatchError,
    InputError,
    InvariantError,
    SeedDependenceError,
    TypeMismatchError,
    WrongCodimensionError,
    WrongDimensionError,
    WrongDimensionsError,
)
from .linalg import (frac_vec, identity_rows, integral_row, is_zero_vec,
                     primitive, rank, reduce_mod, rref, saturate, sign_normalized,
                     vdot, vneg)
from .polyhedra import Polyhedron, _given_rows, common_refinement, is_covered

_MASK64 = (1 << 64) - 1
_SEED_STRIDE = 0x9E3779B97F4A7C15


def _check_seed(seed) -> int:
    return integral_row((seed,), InputError, "seed")[0]


class Rng:
    """splitmix64; deterministic across platforms and Python versions."""

    def __init__(self, seed: int):
        self.state = _check_seed(seed) & _MASK64

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


# ---------------------------------------------------------------------------
# stable intersection
# ---------------------------------------------------------------------------

def stable_intersect(c1: TropicalCycle, c2: TropicalCycle, seed=0) -> TropicalCycle:
    """Stable intersection with multiplicities from the displacement rule.

    The candidate pairs (facet pairs whose direction spaces span R^m and
    that meet in the output dimension), their lattice-index weights, the
    ``common_refinement`` of their intersections and their displacement
    cone rows are computed once.  The candidates whose cone holds ``u(eps)``
    build the cycle; under the seed's ``_check_direction`` every refined
    piece must get the same weight, else SeedDependenceError.
    """
    if c1.m != c2.m:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {c1.m} vs {c2.m}")
    cyc.require_balanced(c1)
    cyc.require_balanced(c2)
    seed = _check_seed(seed)
    if c1.is_empty or c2.is_empty:
        return cyc.empty_cycle(c1.ambient)
    m = c1.m
    out_dim = c1.dim + c2.dim - m
    if out_dim < 0:
        return cyc.empty_cycle(c1.ambient)
    candidates = []            # (P cap Q, weight product * lattice index)
    cones = []                 # the displacement cone of each candidate
    support2 = c2.support_facets
    for f1 in c1.support_facets:
        for f2 in support2:
            p, q = f1.poly, f2.poly
            inter = p.intersect(q)
            # an empty intersection has dim -1 < out_dim
            if inter.dim != out_dim:
                continue
            # an infinite index: Lin P + Lin Q is not the whole space
            index = linalg.lattice_index(p.direction_basis() + q.direction_basis(), m)
            if index != linalg.INFINITE:
                candidates.append((inter, f1.weight * f2.weight * index))
                cones.append(_displacement_cone(p, q, inter.interior_row()))

    pieces = common_refinement([c for c, _ in candidates])

    flags = _displacement_flags(cones, range(m), (1,) * m)
    again = _displacement_flags(cones, *_check_direction(m, seed))
    weights = [w if f else 0 for (_, w), f in zip(candidates, flags)]
    other = [w if f else 0 for (_, w), f in zip(candidates, again)]
    # the pieces are fixed, so equal piece weights mean equal cycle keys
    if any(sum(weights[c] for c in cells) != sum(other[c] for c in cells)
           for _, cells in pieces):
        raise SeedDependenceError(
            "stable intersection differs under the seed's check direction")
    out = cyc.refined_cycle(c1.ambient, pieces, weights)
    cyc.assert_balanced(out, "stable intersection")
    # always 0; kept for bench/selftest.py and bench/layertrace.py
    out._cache["displacement_redraws"] = 0
    return out


def _displacement_cone(p: Polyhedron, q: Polyhedron, x) -> list:
    """Integer rows ``a`` with ``T_x(P) - T_x(Q) = {v : a.v >= 0}``, ``x`` a
    relative interior point row of a candidate's ``P ∩ Q``.

    ``P`` meets ``Q + eps*v`` for all small ``eps > 0`` exactly when ``v`` is
    in this cone (Fulton-Sturmfels 1997).  Writing ``v = s - t`` with ``s``
    in ``Lin P`` and ``t`` in ``Lin Q`` (they span R^m), ``v`` is in it when
    ``s`` is in ``T_x(P)`` and ``t`` in ``T_x(Q)``.
    """
    return _lifted(p, q, x) + [vneg(r) for r in _lifted(q, p, x)]


def _lifted(p: Polyhedron, q: Polyhedron, x) -> list:
    """``p``'s facet rows tight at ``x``, each lifted to the form equal to it
    on ``Lin P`` and zero on ``Lin Q``: it vanishes on ``Lin P ∩ Lin Q =
    Lin(P ∩ Q)``, so the lift exists and is unique.  The values of ``p.eqs``
    on ``q``'s direction basis are independent and lead the echelon rows,
    so the residual's value part is zero."""
    basis = q.direction_basis()
    ech, _ = rref([tuple(vdot(e[1:], b) for b in basis) + e[1:] for e in p.eqs])
    return [reduce_mod(ech, tuple(vdot(a[1:], b) for b in basis) + a[1:])[len(basis):]
            for a in p.ineqs if vdot(a, x) == 0]


def _towards(a, b):
    """A positive multiple of the direction from point row a to point row b."""
    return tuple(a[0] * bj - b[0] * aj for aj, bj in zip(a[1:], b[1:]))


def _check_direction(m: int, seed: int):
    """The seed's (order, signs) from ``Rng(seed)``; sign -1 leads, unlike the build's."""
    rng, order = Rng(seed), list(range(m))
    for i in range(m - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    return order, [-1] + [1 if rng.next64() & 1 else -1 for _ in range(m - 1)]


def _displacement_flags(cones, order, signs):
    """[u in C for each cone C given as rows], ``u_{order[i]} = signs[i] *
    eps^i`` for all small ``eps > 0``: each row of C is lexicographically
    positive (its first nonzero entry in ``order``, times its sign, is > 0).
    For an integer row a != 0, ``a . u(eps)`` has that sign for all
    ``0 < eps < 1/(1 + max|a_j|)``: u is on no row's hyperplane, so the
    test is exact for any H-description of C, redundant or not.

    Why the cone facets suffice.  Fix a refined piece sigma.  Under v its
    weight is ``f(v) = sum w_P*w_Q*[Z^m : L_P+L_Q]*[v in C_PQ]`` over the
    candidates whose ``P ∩ Q`` contains sigma.  Each candidate cone
    ``C_PQ = T_x(P) - T_x(Q)`` spans ``Lin P + Lin Q = R^m``, so each
    indicator is constant off the boundary of ``C_PQ``, and ``f`` is
    constant on every connected component of R^m minus the union of the
    cone boundaries.  The inputs are balanced, so by the fan displacement
    rule (Fulton-Sturmfels 1997; Jensen-Yu 2016) ``f(v)`` is the stable
    multiplicity of sigma for every v outside a finite union of proper
    subspaces, the spans ``Lin(F) + Lin(F')`` of face pairs of meeting
    facets; their complement is dense.  Every component is open, so it
    holds such a v, and every v off the cone boundaries, such as u(eps),
    gives the stable weights.  (It need not lie outside those spans: a v
    inside one may flip a flag, but then it flips no piece weight.)
    """
    def lex_positive(a):
        return next((a[i] * s for i, s in zip(order, signs) if a[i]), 0) > 0

    return [all(lex_positive(r) for r in rows) for rows in cones]


# ---------------------------------------------------------------------------
# push-forwards along linear maps
# ---------------------------------------------------------------------------

class ImpurityReport(namedtuple("ImpurityReport", "facet_index image top_dim")):
    """Witness that an image is not pure-dimensional: the input facet
    ``facet_index`` has the lower-dimensional, uncovered image ``image``,
    below the top dimension ``top_dim``."""

    __slots__ = ()

    def __str__(self):
        return (f"image of facet {self.facet_index} has dimension "
                f"{self.image.dim} < {self.top_dim} and is not covered")


class PushforwardResult(namedtuple("PushforwardResult", "cycle impurity absorbed",
                                   defaults=((),))):
    """The image cycle (``None`` when impure), the ``ImpurityReport`` (``None``
    when pure) and the indices of the absorbed lower-dimensional images."""

    __slots__ = ()

    @property
    def is_pure(self) -> bool:
        return self.impurity is None


def pushforward_linear(cycle: TropicalCycle, matrix,
                       out_blocks: BlockStructure) -> PushforwardResult:
    """Image cycle under an integer linear map (rows of length m): each
    facet's image through ``_image_cycle``."""
    cyc.require_balanced(cycle)
    matrix = [integral_row(row, InputError, "matrix row")
              for row in linalg.vector_entries(matrix, InputError, "matrix")]
    if len(matrix) != out_blocks.m or any(len(r) != cycle.m for r in matrix):
        raise DimensionMismatchError("matrix shape does not match the map")
    return _image_cycle(_linear_images(cycle, matrix), out_blocks)


def _linear_images(cycle: TropicalCycle, matrix):
    """(``linear_image``, weight, images of the direction basis as lattice
    generators) per support facet."""
    return [(f.poly.linear_image(matrix), f.weight,
             [tuple(vdot(row, b) for row in matrix) for b in f.poly.direction_basis()])
            for f in cycle.support_facets]


def minkowski_sum_subspace(cycle: TropicalCycle, span_gens) -> PushforwardResult:
    """Minkowski sum with the rational linear span V of the given vectors.

    Built facet by facet in R^m: sigma + V, with the weight lattice
    L_sigma + L_V (the image of L_sigma x L_V under (x, y) -> x + y).
    """
    cyc.require_balanced(cycle)
    basis = _span_basis(span_gens, cycle.m)
    if not basis:
        return PushforwardResult(cycle, None)
    return _image_cycle(_facet_sums(cycle, basis), cycle.ambient)


def _span_basis(gens, m: int) -> tuple:
    """A basis of L_V, V the span of ``gens``: their primitive nonzero rows
    as they are when the Smith diagonal of those rows is one 1 per row
    (they are independent and generate a saturated lattice), else
    ``saturate``.  The facet sums and their lattices do not depend on
    which basis of L_V is taken.  A string, ``bool`` or non-finite entry
    raises ``InputError``."""
    rows = tuple(r for r in _given_rows(gens, m, "span vector") if not is_zero_vec(r))
    diagonal = linalg.snf_diagonal(rows) if rows else ()
    if len(diagonal) == len(rows) and all(d == 1 for d in diagonal):
        return rows
    return saturate(rows, m)


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
    ``Lin(img) ∩ Z^m``.  A ``common_refinement`` piece sums the weights of
    the images it was cut from.  That is its lattice-index weight: a piece
    is top dimensional inside each such image, so ``Lin(piece) = Lin(img)``
    and ``L_piece = L_img``, and as ``L_img`` is saturated the index is the
    product of the nonzero Smith invariant factors of ``gens``.
    """
    verdict = _purity(images)
    if not verdict.is_pure:
        return verdict
    top = [(img, _image_weight(img, w, gens))
           for i, (img, w, gens) in enumerate(images) if i not in verdict.absorbed]
    out = cyc.refined_cycle(out_blocks, common_refinement([img for img, _ in top]),
                            [w for _, w in top])
    cyc.assert_balanced(out, "push-forward")
    return PushforwardResult(out, None, verdict.absorbed)


def _image_weight(img: Polyhedron, weight: int, gens) -> int:
    """``weight * [L_img : <gens>]``, after checking that the generators lie
    in and span Lin(img)."""
    if any(vdot(eq[1:], g) != 0 for eq in img.eqs for g in gens):
        raise InvariantError("lattice generator outside the image's linear span")
    factors = [d for d in linalg.snf_diagonal(gens) if d != 0]
    if len(factors) != img.dim:
        raise InvariantError("lattice generators do not span the image's linear span")
    return weight * math.prod(factors)


def projection_dim(cycle: TropicalCycle, subset) -> int:
    """Dimension of the image of the support under the block projection."""
    coords = cycle.ambient.coords_of(subset)
    if cycle.is_empty:
        raise WrongDimensionError("projection of an empty cycle")
    return max(projected_dim(f.poly, coords) for f in cycle.support_facets)


def projected_dim(poly: Polyhedron, coords) -> int:
    """Dimension of the image of ``poly`` under the projection onto these
    coordinates: the rank of its direction basis restricted to them."""
    return rank([tuple(b[j] for j in coords) for b in poly.direction_basis()])


def projection_pushforward(cycle: TropicalCycle, subset) -> PushforwardResult:
    """Push the cycle forward along the coordinate projection onto blocks."""
    blocks = cycle.ambient
    subset = blocks.subset(subset)
    coords = blocks.coords_of(subset)
    unit = identity_rows(cycle.m)
    matrix = [unit[j] for j in coords]
    out_blocks = BlockStructure(tuple(blocks.blocks[i - 1] for i in subset))
    return pushforward_linear(cycle, matrix, out_blocks)


# ---------------------------------------------------------------------------
# divisors and positivity
# ---------------------------------------------------------------------------

def standard_linear_space(b: int, n: int) -> TropicalCycle:
    """The standard tropical linear space of codimension n in R^b, the
    n-fold stable self-intersection of the standard hyperplane: R^b as one
    facet of weight 1 for n = 0, else the cones spanned by b - n of the
    rays e_1, ..., e_b, -(e_1 + ... + e_b), each of weight 1; empty for
    n > b.  A bad b raises DimensionMismatchError, an n that is not an
    int >= 0 TypeMismatchError; the checked ints key the cache of
    ``_standard_linear_space``."""
    b = BlockStructure((b,)).m
    n = integral_row((n,), TypeMismatchError, "linear space codimension")[0]
    if n < 0:
        raise TypeMismatchError(f"negative linear space codimension {n}")
    return _standard_linear_space(b, n)


@lru_cache(maxsize=None)
def _standard_linear_space(b: int, n: int) -> TropicalCycle:
    """``standard_linear_space`` of checked ints, balance-checked once."""
    blocks = BlockStructure((b,))
    if n > b:
        return cyc.empty_cycle(blocks)
    rays = [*identity_rows(b), (-1,) * b]
    cones = [Polyhedron.from_generators(b, [(0,) * b], rays=cone)
             for cone in combinations(rays, b - n)] if n else [Polyhedron.full_space(b)]
    fan = TropicalCycle(blocks, [WeightedFacet(cone, 1) for cone in cones])
    cyc.require_balanced(fan)
    return fan


def tropical_hyperplane(coeffs) -> TropicalCycle:
    """Locus where min(c0, c1+a1, ..., cm+am) is attained at least twice:
    the standard hyperplane translated to its apex (c0 - c1, ..., c0 - cm),
    all weights 1, carrying its valid and balanced verdicts.
    """
    coeffs = frac_vec(coeffs, "hyperplane coefficients")
    m = len(coeffs) - 1
    if m < 1:
        raise DimensionMismatchError("need at least two coefficients")
    return cyc.translate(standard_linear_space(m, 1), [coeffs[0] - c for c in coeffs[1:]])


def is_positive_divisor(cycle: TropicalCycle):
    """True when the facet direction spaces intersect only in the origin.

    Returns (flag, witness) with a primitive line direction contained in
    every facet when the divisor is not positive; the pair is memoized on
    the cycle, so a divisor is checked once.
    """
    m = cycle.m
    if cycle.dim != m - 1:
        raise WrongCodimensionError(
            f"divisor must have codimension 1, got dim {cycle.dim} in R^{m}")
    if "positive" not in cycle._cache:
        rows = [r[1:] for f in cycle.support_facets for r in f.poly.eqs]
        cycle._cache["positive"] = ((True, None) if linalg.rank(rows) == m
                                    else (False, linalg.int_kernel(rows, m)[0]))
    return cycle._cache["positive"]


def pair_positive(c1: TropicalCycle, c2: TropicalCycle):
    """Positivity of the stable intersection of complementary-dimension cycles.

    Equivalent to the existence of a facet pair whose direction spaces
    span the ambient space, that is whose direction bases have a finite
    ``lattice_index``, as in ``stable_intersect``; the witness pair of
    facet indices is returned.
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
            gens = f1.poly.direction_basis() + f2.poly.direction_basis()
            if linalg.lattice_index(gens, c1.m) != linalg.INFINITE:
                return True, (i, j)
    return False, None


# ---------------------------------------------------------------------------
# translation-admissibility search
# ---------------------------------------------------------------------------

NO_COUNTEREXAMPLE_FOUND = "NoCounterexampleFound"
COUNTEREXAMPLE_FOUND = "CounterexampleFound"


class AdmissibilityVerdict(namedtuple("AdmissibilityVerdict",
                                      "status witness strategy tested")):
    """Outcome of the refutation search.

    The search is sound but not complete: NoCounterexampleFound is not a
    proof of translation-admissibility, and the verdict records the
    strategy and how many subspaces were tested so callers cannot mistake
    it for one.  ``witness`` is the spanning vectors of the refuting
    subspace, or ``None``.
    """

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == COUNTEREXAMPLE_FOUND


def check_admissible(cycle: TropicalCycle, strategy: str = "coords",
                     seed: int = 0) -> AdmissibilityVerdict:
    """Search candidate subspaces V for an impure Minkowski sum cycle+V,
    read off the supports of the facet sums alone (no weights computed)."""
    cyc.require_balanced(cycle)
    seed = _check_seed(seed)
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
            basis = identity_rows(m)
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
        # never zero; signed from the lesser to the greater point
        pool.update(sign_normalized(primitive(_towards(a, b)))
                    for a, b in combinations(p.vertex_rows, 2))
    base = sorted(pool)
    for a, b in combinations(base, 2):
        for vec in (tuple(x + y for x, y in zip(a, b)),
                    tuple(x - y for x, y in zip(a, b))):
            if not is_zero_vec(vec):
                pool.add(primitive(vec))
    return sorted(pool)
