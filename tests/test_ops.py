import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    FIXTURE_DIR,
    cycle_contains,
    fresh,
    min_attained_twice,
    seeded_points,
    transverse_check,
    transverse_degree_oracle,
)
from tropdeg import cycfile, cycles, fixtures
from tropdeg.cycles import (
    BlockStructure,
    TropicalCycle,
    WeightedFacet,
    check_balancing,
    degree0,
    product,
    recession_cycle,
    translate,
)
from tropdeg.errors import (
    BadBlockIndexError,
    DimensionMismatchError,
    EmptySubsetError,
    InputError,
    UnbalancedCycleError,
    WrongCodimensionError,
    WrongDimensionsError,
)
from tropdeg.linalg import rank
from tropdeg.ops import (
    NO_COUNTEREXAMPLE_FOUND,
    Rng,
    check_admissible,
    derived_seed,
    is_positive_divisor,
    minkowski_sum_subspace,
    pair_positive,
    projected_dim,
    projection_dim,
    projection_pushforward,
    pushforward_linear,
    stable_intersect,
    tropical_hyperplane,
)
from tropdeg.polyhedra import Polyhedron, is_covered


def line_cycle(m, direction, base=None, weight=1):
    base = base or (0,) * m
    p = Polyhedron.from_generators(m, vertices=[base], lineality=[direction])
    return TropicalCycle(BlockStructure((m,)), [WeightedFacet(p, weight)])


# ---------------------------------------------------------------------------
# stable intersection
# ---------------------------------------------------------------------------

def test_stable_two_classical_lines():
    out = stable_intersect(line_cycle(2, (1, 1)), line_cycle(2, (1, -1)), seed=1)
    assert degree0(out) == 2          # |det| of the two directions
    assert [f.poly.vertices for f in out.support_facets] == \
        [((Fraction(0), Fraction(0)),)]


def test_stable_translated_standard_lines():
    line = fixtures.standard_line()
    moved = translate(line, (1, 2))
    expected = transverse_degree_oracle(line, moved)
    out = stable_intersect(line, moved, seed=5)
    assert expected == 1
    assert degree0(out) == expected
    assert check_balancing(fresh(out)).balanced


def test_stable_self_intersection():
    line = fixtures.standard_line()
    out = stable_intersect(line, line, seed=9)
    assert degree0(out) == 1
    assert [f.poly.vertices for f in out.support_facets] == \
        [((Fraction(0), Fraction(0)),)]
    # cross-check against the generic-translation degree
    assert degree0(out) == transverse_degree_oracle(
        line, translate(line, (Fraction(5, 3), Fraction(1, 7))))


def test_stable_plane_self_intersection():
    """Standard plane squared in R^3 is the standard line fan, weight 1."""
    plane = fixtures.standard_plane()
    out = stable_intersect(plane, plane, seed=21)
    assert out.dim == 1
    rays = sorted(r for f in out.support_facets for r in f.poly.rays)
    assert rays == [(-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(f.weight == 1 for f in out.support_facets)
    assert degree0(stable_intersect(out, translate(plane, (1, 2, 4)), seed=5)) == 1
    assert degree0(stable_intersect(out, plane, seed=6)) == 1


def test_stable_seed_independence():
    line = fixtures.standard_line()
    a = stable_intersect(line, fixtures.scaled_line(2), seed=1)
    b = stable_intersect(line, fixtures.scaled_line(2), seed=987654321)
    assert a == b


def test_stable_intersect_builds_and_checks_one_cycle(monkeypatch):
    built, checked = [], []
    real_refined, real_check = cycles.refined_cycle, cycles.check_balancing

    def refined(*args):
        built.append(real_refined(*args))
        return built[-1]

    def check(cycle):
        checked.append(cycle)
        return real_check(cycle)

    monkeypatch.setattr(cycles, "refined_cycle", refined)
    monkeypatch.setattr(cycles, "check_balancing", check)
    line, plane = fixtures.standard_line(), fixtures.standard_plane()
    for c1, c2 in [(line, translate(line, (1, 2))), (line, line),
                   (plane, plane), (line, fixtures.scaled_line(2))]:
        built.clear()
        checked.clear()
        out = stable_intersect(c1, c2, seed=3)
        assert not out.is_empty
        assert len(built) == 1 and built[0] is out
        assert sum(c is out for c in checked) == 1


def test_stable_seed_must_be_integral():
    line = fixtures.standard_line()
    with pytest.raises(InputError):
        stable_intersect(line, fixtures.scaled_line(2), seed=1.7)
    assert stable_intersect(line, fixtures.scaled_line(2), seed=Fraction(4, 2)) == \
           stable_intersect(line, fixtures.scaled_line(2), seed=2)


def test_stable_degree_symmetry():
    c1 = translate(fixtures.standard_line(), (Fraction(1, 3), 2))
    c2 = fixtures.scaled_line(3)
    assert degree0(stable_intersect(c1, c2, seed=3)) == \
        degree0(stable_intersect(c2, c1, seed=3))


def test_stable_dimension_contract():
    pt = TropicalCycle(BlockStructure((2,)), [(Polyhedron.point((0, 0)), 1)])
    out = stable_intersect(pt, fixtures.standard_line(), seed=2)
    assert out.is_empty and degree0(out) == 0
    with pytest.raises(DimensionMismatchError):
        stable_intersect(fixtures.standard_line(), line_cycle(3, (1, 1, 1)), seed=0)
    facets = fixtures.standard_line().facets
    bad = TropicalCycle(BlockStructure((2,)), [WeightedFacet(facets[0].poly, 2),
                                               WeightedFacet(facets[1].poly, 1),
                                               WeightedFacet(facets[2].poly, 1)])
    with pytest.raises(UnbalancedCycleError):
        stable_intersect(bad, fixtures.standard_line(), seed=0)


def test_bezout_scaled_lines():
    for d in (1, 2, 3):
        for e in (1, 2, 3):
            cd = fixtures.scaled_line(d)
            ce = translate(fixtures.scaled_line(e), (Fraction(7, 5), Fraction(12, 7)))
            assert degree0(stable_intersect(cd, ce, seed=d * 10 + e)) == d * e


def test_degree_invariant_under_translation():
    line = fixtures.standard_line()
    other = fixtures.scaled_line(2)
    base = degree0(stable_intersect(line, other, seed=0))
    for i, v in enumerate(seeded_points(123, 20, 2, num_bound=9, den_bound=4)):
        assert degree0(stable_intersect(line, translate(other, v), seed=i)) == base


def test_degree_against_recession_cycle():
    line = fixtures.standard_line()
    moved = translate(fixtures.scaled_line(2), (4, Fraction(9, 2)))
    deg = degree0(stable_intersect(line, moved, seed=11))
    rec = recession_cycle(moved)
    assert degree0(stable_intersect(line, rec, seed=12)) == deg


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------

def test_transverse_check():
    assert transverse_check(line_cycle(2, (1, 1)), line_cycle(2, (1, -1)))
    line = fixtures.standard_line()
    assert not transverse_check(line, line)      # vertex meets vertex
    far = translate(line, (100, 200))
    assert transverse_check(line, far)           # disjoint supports, vacuous


# ---------------------------------------------------------------------------
# push-forwards and Minkowski sums
# ---------------------------------------------------------------------------

def test_pushforward_projection_of_diagonal():
    diag = line_cycle(2, (1, 1))
    out = pushforward_linear(diag, [(1, 0)], BlockStructure((1,)))
    assert out.is_pure
    assert [(f.poly.dim, f.weight) for f in out.cycle.support_facets] == [(1, 1)]


def test_pushforward_lattice_index_weight():
    diag = line_cycle(2, (1, 1))
    out = pushforward_linear(diag, [(1, 1)], BlockStructure((1,)))
    assert [f.weight for f in out.cycle.support_facets] == [2]


def test_pushforward_rejects_non_integral_matrix():
    line = fixtures.standard_line()
    for matrix in ([(Fraction(1, 2), 0)], [(0.5, 0)], [("x", 0)]):
        with pytest.raises(InputError):
            pushforward_linear(line, matrix, BlockStructure((1,)))
    out = pushforward_linear(line, [(Fraction(2, 2), 0.0)], BlockStructure((1,)))
    assert out.cycle == pushforward_linear(line, [(1, 0)], BlockStructure((1,))).cycle


def test_minkowski_standard_line_sweep():
    line = fixtures.standard_line()
    out = minkowski_sum_subspace(line, [(1, 0)])
    assert out.is_pure
    cyc = out.cycle
    assert cyc.dim == 2
    assert all(f.weight == 1 for f in cyc.support_facets)
    assert is_covered(Polyhedron.full_space(2), [f.poly for f in cyc.support_facets])
    assert check_balancing(fresh(cyc)).balanced


def test_minkowski_line_with_perpendicular():
    out = minkowski_sum_subspace(line_cycle(2, (1, 0)), [(0, 1)])
    assert out.is_pure
    assert [(f.poly.dim, f.weight) for f in out.cycle.support_facets] == [(2, 1)]


def test_minkowski_impure_examples():
    assert not minkowski_sum_subspace(fixtures.example33a(), [(0, 0, 0, 1)]).is_pure
    assert not minkowski_sum_subspace(fixtures.example33b(), [(0, 0, 1, 0)]).is_pure


def test_minkowski_facet_translation_invariance():
    """cycle + R*v keeps its support iff v lies in every facet's direction space."""
    par = fixtures.parallel_lines()
    same = minkowski_sum_subspace(par, [(1, 0)])
    assert same.is_pure and same.cycle.dim == 1
    assert same.cycle == par
    grown = minkowski_sum_subspace(par, [(0, 1)])
    assert grown.is_pure and grown.cycle.dim == par.dim + 1


def test_minkowski_rejects_span_vectors_of_wrong_length():
    line = fixtures.standard_line()
    for gens in ([(0, 0, 5)], [(1,)], [(1, 0), (1, 0, 0)]):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum_subspace(line, gens)


def test_projection_dim():
    g = fixtures.example33a()
    assert projection_dim(g, [1]) == 2
    assert projection_dim(g, [2]) == 2
    h = fixtures.example33b()
    assert projection_dim(h, [1]) == 2
    assert projection_dim(h, [3]) == 1
    assert projection_dim(h, [1, 3]) == 2
    full = TropicalCycle(BlockStructure((2, 2)),
                         [(Polyhedron.full_space(4), 1)])
    assert projection_dim(full, [1, 2]) == 4
    with pytest.raises(EmptySubsetError):
        projection_dim(g, [])
    with pytest.raises(BadBlockIndexError):
        projection_dim(g, [5])


def test_projected_dim_matches_kernel_rank():
    """The rank on the block coordinates equals the rank of the direction
    basis stacked on the projection's kernel, less the kernel's rank."""
    for seed in range(12):
        cycle = fixtures.generate_admissible(seed)
        blocks = cycle.ambient
        for size in range(1, blocks.k + 1):
            for subset in combinations(range(1, blocks.k + 1), size):
                coords = blocks.coords_of(subset)
                kernel = [tuple(int(t == j) for t in range(blocks.m))
                          for j in range(blocks.m) if j not in coords]
                for f in cycle.support_facets:
                    assert projected_dim(f.poly, coords) == \
                        rank(list(f.poly.direction_basis()) + kernel) - len(kernel)


@pytest.mark.parametrize("subset", [[1.7], [2.2], [Fraction(3, 2)], ["x"], [1, 0.5]])
def test_block_indices_are_not_truncated(subset):
    g = fixtures.example33a()
    with pytest.raises(BadBlockIndexError):
        projection_dim(g, subset)
    with pytest.raises(BadBlockIndexError):
        projection_pushforward(g, subset)
    assert projection_dim(g, [2.0, Fraction(1)]) == projection_dim(g, [1, 2])


def test_projection_pushforward():
    blocks = BlockStructure((2, 1))
    lam = fixtures.standard_line()
    cyl = product(lam, line_cycle(1, (1,)), blocks)
    out = projection_pushforward(cyl, [1])
    assert out.is_pure
    assert out.cycle == lam

    g = fixtures.example33a()
    out = projection_pushforward(g, [1])
    assert out.is_pure            # the origin lies inside the image plane
    assert len(out.absorbed) == 4  # images of the other plane's quadrants
    assert out.cycle.dim == 2
    assert all(f.weight == 1 for f in out.cycle.support_facets)

    diag = TropicalCycle(BlockStructure((1, 1)),
                         [(Polyhedron.from_generators(2, [(0, 0)], lineality=[(1, 1)]), 1)])
    out = projection_pushforward(diag, [2])
    assert out.is_pure
    assert [(f.poly.dim, f.weight) for f in out.cycle.support_facets] == [(1, 1)]


# ---------------------------------------------------------------------------
# hyperplanes and positivity
# ---------------------------------------------------------------------------

def test_hyperplane_standard():
    line = tropical_hyperplane([0, 0, 0])
    assert line.dim == 1 and len(line.support_facets) == 3
    rays = sorted(r for f in line.support_facets for r in f.poly.rays)
    assert rays == [(-1, -1), (0, 1), (1, 0)]
    assert check_balancing(fresh(line)).balanced


def test_hyperplane_translated_membership_oracle():
    coeffs = [0, -1, -2]
    cyc = tropical_hyperplane(coeffs)
    verts = {v for f in cyc.support_facets for v in f.poly.vertices}
    assert verts == {(Fraction(1), Fraction(2))}
    for pt in seeded_points(7, 100, 2, num_bound=5, den_bound=3):
        assert cycle_contains(cyc, pt) == min_attained_twice(coeffs, pt)
    for f in cyc.support_facets:
        assert min_attained_twice(coeffs, f.poly.relative_interior_point())


def test_hyperplane_files_pinned():
    """Cycle files of five hyperplanes, pinned byte for byte."""
    text = "".join(cycfile.dumps(tropical_hyperplane(c)) for c in (
        [1, -1], [0, 0, 0], [0, -1, -2], [0, 0, 0, 0], ["1/2", 3, "-7/3", 0, 1]))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "088bfeeef2936b3a7232b6dc5781c613e17463a2f10389bb3aeec80f9cc344e1"


def test_hyperplane_dimension_one():
    pt = tropical_hyperplane([0, 0])
    assert pt.dim == 0 and degree0(pt) == 1
    assert pt.support_facets[0].poly.vertices == ((Fraction(0),),)


def test_positive_divisor():
    assert is_positive_divisor(fixtures.standard_line()) == (True, None)
    for m in (2, 3):
        hyper = tropical_hyperplane([0] * (m + 1))
        assert is_positive_divisor(hyper)[0]
    flat = TropicalCycle(BlockStructure((2,)),
                         [(Polyhedron.from_hrep(2, eqs=[(0, 1, 0)]), 1)])
    positive, witness = is_positive_divisor(flat)
    assert not positive and witness == (0, 1)
    assert is_positive_divisor(fixtures.coordinate_hyperplanes(2))[0]
    assert is_positive_divisor(fixtures.coordinate_hyperplanes(3))[0]
    with pytest.raises(WrongCodimensionError):
        is_positive_divisor(line_cycle(3, (1, 0, 0)))


def test_pair_positive():
    e1, e2 = line_cycle(2, (1, 0)), line_cycle(2, (0, 1))
    ok, witness = pair_positive(e1, e2)
    assert ok and witness == (0, 0)
    same, _ = pair_positive(e1, e1)
    assert not same
    pt = TropicalCycle(BlockStructure((2,)), [(Polyhedron.point((0, 0)), 1)])
    with pytest.raises(WrongDimensionsError):
        pair_positive(pt, fixtures.standard_line())


def _rank_pair_positive(c1, c2):
    """``pair_positive`` by the rank criterion: the first facet pair, in
    loop order, whose direction bases have rank m together."""
    for i, f1 in enumerate(c1.support_facets):
        for j, f2 in enumerate(c2.support_facets):
            if rank(f1.poly.direction_basis() + f2.poly.direction_basis()) == c1.m:
                return True, (i, j)
    return False, None


def test_pair_positive_matches_rank_criterion_on_fixtures():
    shipped = [cycfile.load(path) for path in sorted(FIXTURE_DIR.glob("*.cyc"))]
    pairs = [(a, b) for a in shipped for b in shipped
             if a.m == b.m and a.dim + b.dim == a.m]
    assert len(pairs) == 29
    outcomes = set()
    for c1, c2 in pairs:
        got = pair_positive(c1, c2)
        assert got == _rank_pair_positive(c1, c2)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_pair_positive_refuses_unbalanced_input():
    ray = TropicalCycle(BlockStructure((2,)), [(Polyhedron.from_generators(
        2, [(0, 0)], rays=[(1, 0)]), 1)])
    for c1, c2 in [(ray, fixtures.standard_line()), (fixtures.standard_line(), ray)]:
        with pytest.raises(UnbalancedCycleError):
            pair_positive(c1, c2)
        with pytest.raises(UnbalancedCycleError):
            stable_intersect(c1, c2)


def test_pair_positive_example33a():
    lines = product(fixtures.standard_line(), fixtures.standard_line(),
                    BlockStructure((2, 2)))
    ok, _ = pair_positive(fixtures.example33a(), lines)
    assert not ok
    deg = degree0(stable_intersect(fixtures.example33a(), lines, seed=8))
    assert deg == 0


def test_pair_positive_matches_degree():
    pairs = [
        (line_cycle(2, (1, 0)), line_cycle(2, (0, 1))),
        (line_cycle(2, (1, 0)), line_cycle(2, (1, 0), base=(0, 1))),
        (fixtures.standard_line(), fixtures.scaled_line(2)),
    ]
    for c1, c2 in pairs:
        ok, _ = pair_positive(c1, c2)
        assert ok == (degree0(stable_intersect(c1, c2, seed=4)) > 0)


# ---------------------------------------------------------------------------
# translation-admissibility search
# ---------------------------------------------------------------------------

def test_admissible_example33a():
    verdict = check_admissible(fixtures.example33a(), "coords")
    assert verdict.found
    # the witness reproduces the impurity
    assert not minkowski_sum_subspace(fixtures.example33a(), verdict.witness).is_pure
    # the coordinate line the construction singles out is a counterexample too
    assert not minkowski_sum_subspace(fixtures.example33a(), [(0, 0, 0, 1)]).is_pure


def test_admissible_example33b_finds_e3():
    verdict = check_admissible(fixtures.example33b(), "coords")
    assert verdict.found
    assert verdict.witness == ((0, 0, 1, 0),)


def test_admissible_linear_subspace():
    diag = line_cycle(3, (1, 1, 1))
    for strategy in ("coords", "spans", "random:6", "coords+spans"):
        verdict = check_admissible(diag, strategy, seed=3)
        assert not verdict.found
        assert verdict.strategy == strategy


def test_admissible_parallel_lines():
    verdict = check_admissible(fixtures.parallel_lines(), "coords+spans")
    assert not verdict.found
    assert verdict.tested > 0


def test_admissible_rejects_bad_strategies():
    line = fixtures.standard_line()
    for strategy in ("bogus", "random:x", "random:-3", "random", "coords+"):
        with pytest.raises(InputError):
            check_admissible(line, strategy)
    # checked before the first candidate, so a counterexample found by
    # an earlier part does not hide a bad later one
    with pytest.raises(InputError):
        check_admissible(fixtures.example33a(), "coords+bogus")


def test_admissible_spans_adds_vertex_differences():
    """Generator seed 55 has a facet with two vertices, whose difference
    joins the spans pool."""
    cycle = fixtures.generate_admissible(55)
    assert any(len(f.poly.vertices) == 2 for f in cycle.support_facets)
    verdict = check_admissible(cycle, "spans")
    assert (verdict.status, verdict.tested) == (NO_COUNTEREXAMPLE_FOUND, 82)


def test_seeds_must_be_integral():
    for seed in (1.5, Fraction(3, 2), "x"):
        with pytest.raises(InputError):
            Rng(seed)
        with pytest.raises(InputError):
            derived_seed(seed, 101)
    with pytest.raises(InputError):
        check_admissible(fixtures.standard_line(), "random:2", seed=1.5)
    with pytest.raises(InputError):
        fixtures.generate_admissible(1.5)
    assert Rng(Fraction(3)).next64() == Rng(3).next64()
    assert derived_seed(Fraction(3), 101) == derived_seed(3, 101)
    assert check_admissible(fixtures.example33a(), "random:4", seed=Fraction(3)) == \
        check_admissible(fixtures.example33a(), "random:4", seed=3)
    assert fixtures.generate_admissible(Fraction(3)) == fixtures.generate_admissible(3)


def test_displacement_on_a_cone_facet_is_redrawn(monkeypatch):
    """A first draw of each pass on span(e1), a facet hyperplane of the cone
    cone(e1, -e2) of the rays e1 and e2, is rejected by the cone sign tests
    for the next draw of the same stream, and the intersection does not
    change."""
    line, scaled = fixtures.standard_line(), fixtures.scaled_line(2)
    want = stable_intersect(line, scaled, seed=7)
    assert want._cache["displacement_redraws"] == 0
    real_vector = Rng.vector
    drawn = []

    def first_on_a_facet(rng, m, *args):
        if any(r is rng for r in drawn):
            return real_vector(rng, m, *args)
        drawn.append(rng)
        return (5, 0)

    monkeypatch.setattr(Rng, "vector", first_on_a_facet)
    got = stable_intersect(line, scaled, seed=7)
    assert len(drawn) == 2
    assert got._cache["displacement_redraws"] == 1
    assert got == want


def test_displacement_seed_determinism():
    line = fixtures.standard_line()
    out1 = stable_intersect(line, fixtures.scaled_line(3), seed=42)
    out2 = stable_intersect(line, fixtures.scaled_line(3), seed=42)
    assert out1 == out2
