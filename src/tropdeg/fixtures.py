"""Fixture cycles: the shipped corpus plus a seeded generator.

The generator builds cycles that stay tropical varieties under Minkowski
sums with arbitrary rational subspaces (products of full spaces with
iterated stable self-intersections of translated standard hyperplane
pullbacks, optionally swept along random lines and translated), which is
what the differential test suites need.
"""

from __future__ import annotations

import itertools

from . import cycles as cyc
from . import multidegree as md
from . import ops
from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .ops import Rng
from .polyhedra import Polyhedron


def standard_line() -> TropicalCycle:
    """Standard tropical line in R^2 (rays e1, e2, -e1-e2), unit weights."""
    return ops.tropical_hyperplane([0, 0, 0])


def scaled_line(d: int) -> TropicalCycle:
    """Standard line with all weights d."""
    base = standard_line()
    return TropicalCycle(base.ambient,
                         [WeightedFacet(f.poly, d) for f in base.facets])


def standard_plane() -> TropicalCycle:
    """Standard tropical plane in R^3: six 2-dimensional cones, unit weights."""
    return ops.tropical_hyperplane([0, 0, 0, 0])


def quadrants(m: int, coords: tuple[int, int]):
    """The plane spanned by two coordinate axes, split into its 4 quadrants."""
    i, j = coords
    out = []
    for si, sj in itertools.product([1, -1], [1, -1]):
        ri = tuple(si if t == i else 0 for t in range(m))
        rj = tuple(sj if t == j else 0 for t in range(m))
        out.append(Polyhedron.from_generators(m, [(0,) * m], rays=[ri, rj]))
    return out


def example33a() -> TropicalCycle:
    """Union of the planes span(e1,e2) and span(e3,e4) in R^4, blocks (2,2).

    Each plane is stored as its 4 quadrant cones so facet intersections
    are common faces.  Not translation-admissible.
    """
    facets = [WeightedFacet(p, 1)
              for p in quadrants(4, (0, 1)) + quadrants(4, (2, 3))]
    return TropicalCycle(BlockStructure((2, 2)), facets)


def example33b() -> TropicalCycle:
    """Standard plane in span(e1,e2,e3) union span(e3,e4) in R^4, blocks (2,1,1).

    Connected through codimension 1 but not translation-admissible.
    """
    e1, e2, e3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    neg = (-1, -1, -1, 0)
    facets = []
    for a, b in itertools.combinations([e1, e2, e3, neg], 2):
        facets.append(WeightedFacet(
            Polyhedron.from_generators(4, [(0, 0, 0, 0)], rays=[a, b]), 1))
    facets += [WeightedFacet(p, 1) for p in quadrants(4, (2, 3))]
    return TropicalCycle(BlockStructure((2, 1, 1)), facets)


def parallel_lines() -> TropicalCycle:
    """R*e1 and (0,1) + R*e1 in R^2, unit weights; translation-admissible."""
    a = Polyhedron.from_generators(2, [(0, 0)], lineality=[(1, 0)])
    b = Polyhedron.from_generators(2, [(0, 1)], lineality=[(1, 0)])
    return TropicalCycle(BlockStructure((2,)),
                         [WeightedFacet(a, 1), WeightedFacet(b, 1)])


def diagonal_11() -> TropicalCycle:
    """The diagonal line in R^1 x R^1."""
    p = Polyhedron.from_generators(2, [(0, 0)], lineality=[(1, 1)])
    return TropicalCycle(BlockStructure((1, 1)), [WeightedFacet(p, 1)])


def coordinate_hyperplanes(m: int) -> TropicalCycle:
    """Union of the m coordinate hyperplanes of R^m, unit weights.

    Each hyperplane is subdivided by the others into orthant cells so the
    union is a complex; it is balanced and a positive divisor.
    """
    facets = []
    for i in range(m):
        rest = [j for j in range(m) if j != i]
        for signs in itertools.product([1, -1], repeat=m - 1):
            rays = [tuple(s if t == j else 0 for t in range(m))
                    for s, j in zip(signs, rest)]
            facets.append(WeightedFacet(
                Polyhedron.from_generators(m, [(0,) * m], rays=rays), 1))
    return TropicalCycle(BlockStructure((m,)), facets)


CORPUS = {
    "standard_line": standard_line,
    "standard_plane": standard_plane,
    "example33a": example33a,
    "example33b": example33b,
    "parallel_lines": parallel_lines,
    "diagonal_11": diagonal_11,
    "coordinate_hyperplanes_2": lambda: coordinate_hyperplanes(2),
    "coordinate_hyperplanes_3": lambda: coordinate_hyperplanes(3),
    "scaled_line_d2": lambda: scaled_line(2),
}


def write_corpus(directory) -> list[str]:
    from . import cycfile
    import os
    written = []
    for name, build in sorted(CORPUS.items()):
        path = os.path.join(directory, f"{name}.cyc")
        cycfile.save(path, build())
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# seeded generator of translation-admissible cycles
# ---------------------------------------------------------------------------

def generate_admissible(seed: int, max_m: int = 6, max_k: int = 3) -> TropicalCycle:
    """One seeded cycle from the admissibility-preserving constructions."""
    rng = Rng(seed)
    k = rng.randint(1, max_k)
    blocks = []
    remaining = max_m
    for i in range(k):
        top = max(1, min(3, remaining - (k - 1 - i)))
        b = rng.randint(1, top)
        blocks.append(b)
        remaining -= b
    blocks = BlockStructure(tuple(blocks))

    per_block = []
    for b in blocks.blocks:
        per_block.append(_block_cycle(rng, b))
    out = per_block[0]
    for i, part in enumerate(per_block[1:], 2):
        out = cyc.product(out, part, blocks if i == len(per_block) else None)

    # optionally cut down with translated hyperplane pullbacks
    cuts = rng.randint(0, 1) if out.dim and out.dim > 1 else 0
    for _ in range(cuts):
        i = rng.randint(1, blocks.k)
        b = blocks.blocks[i - 1]
        lam = cyc.translate(md.standard_hyperplane(b),
                            rng.vector(b, num_bound=5, den_bound=3))
        pb = md.pullback(lam, i, blocks)
        cut = ops.stable_intersect(out, pb, seed=rng.randint(1, 1 << 30))
        if not cut.is_empty:
            out = cut

    # optionally sweep along a random rational line (keeps admissibility)
    if rng.randint(0, 3) == 0 and out.dim is not None and out.dim < blocks.m:
        vec = tuple(rng.randint(-3, 3) for _ in range(blocks.m))
        if any(vec):
            swept = ops.minkowski_sum_subspace(out, [vec])
            if swept.is_pure and not swept.cycle.is_empty:
                out = swept.cycle

    # random translation
    if rng.randint(0, 1):
        out = cyc.translate(out, rng.vector(blocks.m, num_bound=7, den_bound=2))
    return out


def _block_cycle(rng: Rng, b: int) -> TropicalCycle:
    """A small admissible cycle in R^b."""
    choice = rng.randint(0, 3)
    full = TropicalCycle(BlockStructure((b,)),
                         [WeightedFacet(Polyhedron.full_space(b), 1)])
    if choice == 0 or b == 1 and choice == 3:
        return full
    if choice == 1:
        # translated standard hyperplane
        coeffs = [rng.fraction(num_bound=4, den_bound=2) for _ in range(b + 1)]
        return ops.tropical_hyperplane(coeffs)
    if choice == 2 and b >= 2:
        # hyperplane cut twice (codimension 2 when b allows, else a point)
        lam1 = md.standard_hyperplane(b)
        lam2 = cyc.translate(lam1, rng.vector(b, num_bound=5, den_bound=2))
        return ops.stable_intersect(lam1, lam2, seed=rng.randint(1, 1 << 30))
    if b >= 2:
        # a rational line through a random point
        direction = tuple(rng.randint(-2, 2) for _ in range(b))
        if not any(direction):
            direction = (1,) * b
        p = Polyhedron.from_generators(
            b, [rng.vector(b, num_bound=3, den_bound=2)], lineality=[direction])
        return TropicalCycle(BlockStructure((b,)), [WeightedFacet(p, 1)])
    return full
