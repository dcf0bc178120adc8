from fractions import Fraction
import itertools
from types import SimpleNamespace

import pytest

from conftest import fresh, iterated_multidegree, transverse_degree_oracle
from tropdeg import fixtures, ops
from tropdeg.cycles import (
    BlockStructure,
    TropicalCycle,
    WeightedFacet,
    check_balancing,
    degree0,
    product,
    translate,
    validate_complex,
)
from tropdeg.errors import (BadBlockIndexError, DimensionMismatchError,
                            NonPositiveDivisorError, SeedDependenceError,
                            TypeMismatchError)
from tropdeg.multidegree import (
    DIVISOR_POWER_CACHE_SIZE,
    DivisorSet,
    _check_type,
    check_submodular,
    divisor_power,
    exchange_property,
    facet_witness,
    msupp,
    multidegree,
    positivity_criterion,
    pullback,
    rank_function,
    standard_hyperplane,
    type_vectors,
)
from tropdeg.ops import stable_intersect, tropical_hyperplane
from tropdeg.polyhedra import Polyhedron


def diagonal():
    p = Polyhedron.from_generators(2, [(0, 0)], lineality=[(1, 1)])
    return TropicalCycle(BlockStructure((1, 1)), [WeightedFacet(p, 1)])


def full(blocks):
    b = BlockStructure(blocks)
    return TropicalCycle(b, [WeightedFacet(Polyhedron.full_space(b.m), 1)])


def test_multidegree_diagonal():
    assert multidegree(diagonal(), (1, 0), seed=5) == 1
    assert multidegree(diagonal(), (0, 1), seed=6) == 1


def test_multidegree_diagonal_matches_oracle():
    d = diagonal()
    lam = translate(tropical_hyperplane([0, 0]), (3,))
    pb = pullback(lam, 1, d.ambient)
    assert transverse_degree_oracle(d, pb) == 1


def test_multidegree_full_space_is_one():
    assert multidegree(full((2, 1)), (2, 1), seed=1) == 1
    assert multidegree(full((1, 1)), (1, 1), seed=2) == 1


def test_multidegree_example33a_zero():
    assert multidegree(fixtures.example33a(), (1, 1), seed=3) == 0


def test_multidegree_example33b_zero():
    assert multidegree(fixtures.example33b(), (1, 0, 1), seed=4) == 0


def test_multidegree_type_checks():
    with pytest.raises(TypeMismatchError):
        multidegree(diagonal(), (1, 1), seed=0)       # sums to 2, dim is 1
    with pytest.raises(TypeMismatchError):
        multidegree(diagonal(), (2, -1), seed=0)
    with pytest.raises(TypeMismatchError):
        multidegree(full((1, 1)), (2, 0), seed=0)     # n_1 > m_1


def test_type_vector_must_be_integral():
    line = fixtures.standard_line()
    for n in ((1.5,), (Fraction(3, 2),), ("one",)):
        with pytest.raises(TypeMismatchError):
            _check_type(line, n)
    assert _check_type(line, (1.0,)) == _check_type(line, (Fraction(2, 2),)) == (1,)


def test_multidegree_rejects_nonpositive_divisor():
    flat = TropicalCycle(BlockStructure((2,)),
                         [(Polyhedron.from_hrep(2, eqs=[(0, 1, 0)]), 1)])
    divs = DivisorSet(BlockStructure((2,)), (flat,))
    with pytest.raises(NonPositiveDivisorError):
        multidegree(fixtures.standard_line(), (1,), divs, seed=0)


def test_rank_function():
    ranks = rank_function(fixtures.example33b())
    assert ranks.rank([1]) == 2
    assert ranks.rank([3]) == 1
    assert ranks.rank([1, 3]) == 2
    assert ranks.rank([]) == 0
    assert ranks.rank([1, 2, 3]) == fixtures.example33b().dim

    full_ranks = rank_function(full((2, 2)))
    assert full_ranks.rank([1]) == 2 and full_ranks.rank([1, 2]) == 4

    pt = TropicalCycle(BlockStructure((1, 1)), [(Polyhedron.point((0, 0)), 1)])
    pt_ranks = rank_function(pt)
    assert all(r == 0 for _, r in pt_ranks.table)


def test_positivity_criterion():
    res = positivity_criterion(diagonal(), (1, 0))
    assert res.holds and res.facet_witness is not None

    block_pt = TropicalCycle(BlockStructure((1, 1)),
                             [(Polyhedron.from_generators(2, [(0, 0)], lineality=[(0, 1)]), 1)])
    res = positivity_criterion(block_pt, (1, 0))
    assert not res.holds and res.violating_subset == (1,)


def test_criterion_caveat_on_example33a():
    g = fixtures.example33a()
    res = positivity_criterion(g, (1, 1))
    assert res.holds                      # ranks satisfy the bound
    assert multidegree(g, (1, 1), seed=7) == 0   # yet the degree vanishes
    assert "translation-admissible" in res.caveat
    assert res.facet_witness is None      # no single facet witnesses it


def test_necessity_direction_on_examples():
    """criterion false => multidegree zero, admissible or not."""
    for cyc, seed in ((fixtures.example33a(), 11), (fixtures.example33b(), 12)):
        ranks = rank_function(cyc)
        for n in type_vectors(cyc):
            res = positivity_criterion(cyc, n, ranks)
            if not res.holds:
                assert multidegree(cyc, n, seed=seed) == 0


def test_msupp_full_space():
    assert msupp(full((2, 1))) == {(2, 1)}


def test_msupp_diagonal():
    assert msupp(diagonal()) == {(1, 0), (0, 1)}
    assert msupp(diagonal(), mode="bruteforce", seed=3) == {(1, 0), (0, 1)}


def test_msupp_example33a_divergence():
    g = fixtures.example33a()
    assert msupp(g) == {(1, 1), (2, 0), (0, 2)}
    assert msupp(g, mode="bruteforce", seed=5) == {(2, 0), (0, 2)}


def test_check_submodular():
    assert check_submodular(rank_function(full((2, 2))))[0]
    assert check_submodular(rank_function(diagonal()))[0]

    from tropdeg.multidegree import RankFunction
    broken = RankFunction(2, (((), 0), ((1,), 1), ((2,), 1), ((1, 2), 3)))
    ok, witness = check_submodular(broken)
    assert not ok and witness == ((1,), (2,))


def test_exchange_property():
    assert exchange_property({(1, 0), (0, 1)})
    assert exchange_property({(2, 0), (1, 1), (0, 2)})
    assert not exchange_property({(2, 0), (0, 2)})   # the example33a bruteforce set


def test_facet_witness():
    f = facet_witness(full((2, 1)), (2, 1))
    assert f is not None and f.poly.dim == 3

    prod = product(fixtures.standard_line(), fixtures.standard_line(),
                   BlockStructure((2, 2)))
    f = facet_witness(prod, (1, 1))
    assert f is not None

    assert facet_witness(fixtures.example33a(), (1, 1)) is None


def test_facet_witness_implies_criterion():
    cases = [(full((2, 1)), (2, 1)), (diagonal(), (1, 0)), (diagonal(), (0, 1))]
    for cyc, n in cases:
        if facet_witness(cyc, n) is not None:
            assert positivity_criterion(cyc, n).holds


def test_divisor_choice_invariance():
    """Positivity of the multidegree does not depend on the positive divisor.

    Every value is also checked against the iterated chain of intersections.
    """
    g = diagonal()
    custom = DivisorSet(g.ambient, (tropical_hyperplane([1, -1]),
                                    tropical_hyperplane([0, 2])))
    for n in ((1, 0), (0, 1)):
        assert _agree(g, n, seed=8) == _agree(g, n, custom, seed=9) == 1

    prod = product(fixtures.standard_line(), fixtures.standard_line(),
                   BlockStructure((2, 2)))
    coord = DivisorSet(prod.ambient, (fixtures.coordinate_hyperplanes(2),
                                      fixtures.coordinate_hyperplanes(2)))
    shifted = DivisorSet(prod.ambient, (tropical_hyperplane([0, 1, -2]),
                                        tropical_hyperplane([3, 0, 1])))
    for n in type_vectors(prod):
        values = [_agree(prod, n, divs, seed=s)
                  for divs, s in ((None, 10), (coord, 11), (shifted, 12))]
        assert (values[0] > 0) == (values[1] > 0) == (values[2] > 0)
    assert _agree(prod, (1, 1), coord, seed=13) == 4


def test_divisor_replacement_checks_the_block_index():
    blocks = BlockStructure((1, 2))
    divs = DivisorSet.standard(blocks)
    custom = tropical_hyperplane([0, 1, -2])
    assert divs.replaced(2, custom).divisors == (divs.divisors[0], custom)
    for i in (0, -1, 3, 1.5):
        with pytest.raises(BadBlockIndexError):
            divs.replaced(i, custom)


def test_divisor_set_must_fit_the_cycle(monkeypatch):
    """A divisor set with a divisor missing, or over other blocks, is refused
    before any intersection, with a message naming the set."""
    generated = fixtures.generate_admissible(0)
    short = DivisorSet(generated.ambient, (standard_hyperplane(1),))
    ex33a = fixtures.example33a()
    other_blocks = DivisorSet.standard(BlockStructure((1, 1)))
    monkeypatch.setattr(ops, "stable_intersect", None)
    for cycle, n, divs in ((generated, (0, 1), short),
                           (ex33a, type_vectors(ex33a)[0], other_blocks)):
        with pytest.raises(DimensionMismatchError, match="divisor set"):
            multidegree(cycle, n, divs)


def test_divisor_of_the_wrong_dimension_is_a_dimension_mismatch():
    """A divisor that does not live in its block's space is a dimension
    mismatch, not a non-positive divisor."""
    blocks = BlockStructure((2,))
    divs = DivisorSet(blocks, (standard_hyperplane(1),))
    message = r"divisor 1 lives in R\^1, block has R\^2"
    with pytest.raises(DimensionMismatchError, match=message):
        divs.validate(blocks)
    with pytest.raises(DimensionMismatchError, match=message):
        multidegree(fixtures.standard_line(), (1,), divs)


def test_pullback_checks_block_and_divisor():
    blocks = BlockStructure((2, 1))
    plane = standard_hyperplane(2)
    assert pullback(plane, 1, blocks).ambient == blocks
    for b in (0, 3, -1, 1.5, Fraction(3, 2)):
        with pytest.raises(BadBlockIndexError):
            pullback(plane, b, blocks)
    with pytest.raises(DimensionMismatchError, match="block 2"):
        pullback(plane, 2, blocks)


def test_divisor_power_checks_the_exponent():
    h = standard_hyperplane(2)
    assert divisor_power(h, 1.0) is divisor_power(h, 1) is h
    for n in (-1, -5, 1.5, Fraction(1, 2)):
        with pytest.raises(TypeMismatchError):
            divisor_power(h, n)


def test_type_vectors_enumeration():
    assert set(type_vectors(full((2, 1)))) == {(2, 1)}
    assert set(type_vectors(diagonal())) == {(1, 0), (0, 1)}


def _type_vectors_oracle(blocks, dim):
    """The hand-written recursion ``type_vectors`` replaced."""
    if dim is None:
        return []

    def rec(i, remaining):
        if i == len(blocks) - 1:
            if remaining <= blocks[i]:
                yield (remaining,)
            return
        for v in range(min(remaining, blocks[i]) + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    return list(rec(0, dim))


def test_type_vectors_order_is_pinned():
    """Same list, same order as the recursion, on all 738 (blocks, dim)
    cases with at most 3 blocks of size at most 4, dim None included."""
    cases = 0
    for k in (1, 2, 3):
        for blocks in itertools.product(range(1, 5), repeat=k):
            for dim in [None, *range(sum(blocks) + 1)]:
                stand_in = SimpleNamespace(dim=dim, ambient=BlockStructure(blocks))
                assert type_vectors(stand_in) == _type_vectors_oracle(blocks, dim)
                cases += 1
    assert cases == 738
    assert type_vectors(fixtures.example33b()) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert type_vectors(diagonal()) == [(0, 1), (1, 0)]


def test_pullback_carries_marks():
    lam = translate(tropical_hyperplane([0, 0, 0]), (1, 2))
    assert check_balancing(lam).balanced
    pb = pullback(lam, 2, BlockStructure((1, 2)))
    assert pb._cache["valid"].ok and pb._cache["balance"].balanced
    assert validate_complex(fresh(pb)).ok
    assert check_balancing(fresh(pb)).balanced

    unchecked = pullback(tropical_hyperplane([0, 0, 0]), 2, BlockStructure((1, 2)))
    assert "valid" not in unchecked._cache and "balance" not in unchecked._cache


def test_standard_divisors_built_once():
    a = DivisorSet.standard(BlockStructure((2, 1)))
    b = DivisorSet.standard(BlockStructure((1, 2)))
    assert a.divisors[0] is b.divisors[1] and a.divisors[1] is b.divisors[0]
    assert a.divisors[0] == tropical_hyperplane([0, 0, 0])


def test_divisor_power():
    line = fixtures.standard_line()
    assert divisor_power(line, 0).support_facets[0].poly == Polyhedron.full_space(2)
    assert divisor_power(line, 1) == line
    point = divisor_power(line, 2)
    assert point.dim == 0 and degree0(point) == 1
    assert divisor_power(fixtures.standard_line(), 2) is point
    assert degree0(divisor_power(fixtures.coordinate_hyperplanes(2), 2)) == 2
    assert degree0(divisor_power(fixtures.standard_plane(), 3)) == 1
    for power in (divisor_power(line, 0), point):
        assert power._cache["valid"].ok and power._cache["balance"].balanced
        assert validate_complex(fresh(power)).ok
        assert check_balancing(fresh(power)).balanced


def test_divisor_power_cache_is_bounded():
    """More distinct divisors than the cache holds: it stays within its
    bound, and every power, evicted or not, equals a fresh computation."""
    lines = [tropical_hyperplane([0, a, 0]) for a in range(DIVISOR_POWER_CACHE_SIZE + 5)]
    powers = []
    for line in lines:
        powers.append(divisor_power(line, 2))
        assert divisor_power.cache_info().currsize <= DIVISOR_POWER_CACHE_SIZE
    assert divisor_power.cache_info().maxsize == DIVISOR_POWER_CACHE_SIZE
    for line, power in zip(lines, powers):
        fresh_power = divisor_power.__wrapped__(line, 2)
        assert power.dim == 0 and degree0(power) == 1
        assert power == fresh_power == divisor_power(line, 2)


# --- differential tests against the iterated chain of intersections --------

def _agree(cycle, n, divs=None, seed=0):
    value = multidegree(cycle, n, divs, seed=seed)
    assert value == iterated_multidegree(cycle, n, divs, seed=seed), (cycle, n)
    return value


def test_matches_iterated_on_examples():
    for cyc, seed in ((fixtures.example33a(), 11), (fixtures.example33b(), 12)):
        for n in type_vectors(cyc):
            _agree(cyc, n, seed=seed)


def test_matches_iterated_on_generated_cycles():
    for seed in range(20):
        cycle = fixtures.generate_admissible(seed)
        for n in type_vectors(cycle):
            _agree(cycle, n, seed=seed)


def test_matches_iterated_on_points():
    pts = TropicalCycle(BlockStructure((1, 2)),
                        [(Polyhedron.point((0, 1, 2)), 2),
                         (Polyhedron.point((1, 0, "1/2")), 3)])
    assert _agree(pts, (0, 0), seed=3) == 5


def test_matches_iterated_on_empty_intersection():
    g = fixtures.example33a()
    lin = product(fixtures.standard_line(), fixtures.standard_line(),
                  BlockStructure((2, 2)))
    assert stable_intersect(g, lin, seed=4).is_empty
    assert _agree(g, (1, 1), seed=4) == 0


def _second_seed_disagrees(monkeypatch):
    """Make the displacement step count no candidate under the second seed
    of every stable intersection."""
    original = ops._displacement_flags
    seeds = []

    def disagreeing(cones, m, seed):
        flags, redraws = original(cones, m, seed)
        seeds.append(seed)
        if len(seeds) % 2 == 0:
            assert seed == ops.derived_seed(seeds[-2], 101)
            flags = [False] * len(flags)
        return flags, redraws

    monkeypatch.setattr(ops, "_displacement_flags", disagreeing)


def test_seed_dependence_surfaces(monkeypatch):
    _second_seed_disagrees(monkeypatch)
    with pytest.raises(SeedDependenceError):
        multidegree(diagonal(), (1, 0), seed=5)


def test_generator_checks_both_seeds(monkeypatch):
    """Generator seed 0 builds a cycle through a stable intersection that is
    not empty, so a disagreeing second seed surfaces."""
    fixtures.generate_admissible(0)
    _second_seed_disagrees(monkeypatch)
    with pytest.raises(SeedDependenceError):
        fixtures.generate_admissible(0)
