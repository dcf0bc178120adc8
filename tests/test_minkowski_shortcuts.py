"""Differential tests: the Minkowski-sum shortcuts against their slow paths.

On every proper nonzero coordinate subspace V of the generated cycles of
seeds 0-4 and 27 and of example33b (the candidates of ``check_admissible
--strategy coords``; example33b is not admissible, so some sums are impure):

* ``minkowski_sum_subspace``, which builds each facet's sum in R^m,
  agrees with ``minkowski_oracle``, the push-forward of ``cycle x W`` along
  ``(x, y) -> x + y`` with the product validated in full;
* the support-only purity verdict that ``check_admissible`` uses agrees
  with the oracle wherever the oracle does not raise, and never raises;
* ``Polyhedron.linear_image`` agrees with ``linear_image_oracle`` on random
  integer matrices for every polyhedron the run left in the intern pool.

Products of the generated cycles with a checked subspace cycle carry the
valid and balanced marks, and an unmarked copy passes both checks.
"""

from itertools import combinations

import pytest

from conftest import (fixture_path, fresh, linear_image_oracle, minkowski_oracle,
                      uninterned)
from tropdeg import fixtures, ops
from tropdeg.cycfile import load
from tropdeg.cycles import (BlockStructure, TropicalCycle, WeightedFacet,
                            check_balancing, product, require_balanced,
                            validate_complex)
from tropdeg.errors import InvariantError
from tropdeg.linalg import saturate
from tropdeg.ops import Rng, minkowski_sum_subspace
from tropdeg.polyhedra import Polyhedron

SEEDS = (0, 1, 2, 3, 4, 27)


def cycles():
    for seed in SEEDS:
        yield seed, fixtures.generate_admissible(seed)
    yield "example33b", fixtures.example33b()


def coordinate_subspaces(m: int):
    for size in range(1, m):
        for coords in combinations(range(m), size):
            yield coords, [tuple(int(t == j) for t in range(m)) for j in coords]


def outcome(sum_of, cycle, gens):
    """What a Minkowski sum reports: purity, cycle key or impurity text,
    absorbed facets; or the exception class and message."""
    try:
        result = sum_of(cycle, gens)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if result.is_pure:
        return ("pure", result.cycle.key, result.absorbed)
    return ("impure", str(result.impurity), result.absorbed)


def support_outcome(cycle, gens):
    """The support-only verdict: purity, impurity text, absorbed facets."""
    result = ops._purity(ops._facet_sums(cycle, saturate(gens, cycle.m)))
    if result.is_pure:
        return ("pure", result.absorbed)
    return ("impure", str(result.impurity), result.absorbed)


@pytest.fixture(scope="module")
def run():
    """Both paths and the support-only verdict on every item, the pool left."""
    items = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        for seed, cycle in cycles():
            for coords, gens in coordinate_subspaces(cycle.m):
                want = outcome(minkowski_oracle, fresh(cycle), gens)
                got = outcome(minkowski_sum_subspace, fresh(cycle), gens)
                support = support_outcome(cycle, gens)
                items.append((seed, coords, got, want, support))
        pool = list(Polyhedron._interned.values())
    return items, pool


def test_minkowski_matches_oracle(run):
    items, _ = run
    assert sum(1 for seed, *_ in items if seed in SEEDS) == 118
    for seed, coords, got, want, _ in items:
        assert got == want, (seed, coords)
    kinds = {got[0] for _, _, got, _, _ in items}
    assert kinds == {"pure", "impure", "raised"}


def test_known_unbalanced_pushforward_raises_on_both_paths(run):
    items, _ = run
    raised = [(seed, coords, got) for seed, coords, got, _, _ in items
              if got[0] == "raised"]
    assert raised == [(27, (0, 1, 3), (
        "raised", InvariantError, "push-forward produced an unbalanced cycle"))]


def test_support_verdict_matches_oracle(run):
    items, _ = run
    for seed, coords, _, want, support in items:
        if want[0] == "raised":
            # only the weights fail their balance check; the support is pure
            assert (seed, coords, support[0]) == (27, (0, 1, 3), "pure")
            continue
        if want[0] == "pure":
            want = ("pure", want[2])    # the oracle's outcome without its key
        assert support == want, (seed, coords)
    kinds = {support[0] for *_, support in items}
    assert kinds == {"pure", "impure"}


def subspace_cycle(gens, m: int) -> TropicalCycle:
    """span(gens) as a cycle with one unit-weight facet, checked balanced."""
    poly = Polyhedron.from_generators(m, vertices=[(0,) * m], lineality=gens)
    w = TropicalCycle(BlockStructure((m,)), [WeightedFacet(poly, 1)])
    require_balanced(w)
    return w


def test_products_carry_proven_marks():
    for seed in SEEDS:
        cycle = fresh(fixtures.generate_admissible(seed))
        require_balanced(cycle)
        for coords, gens in coordinate_subspaces(cycle.m):
            prod = product(cycle, subspace_cycle(gens, cycle.m))
            assert "valid" in prod._cache and "balance" in prod._cache
            assert prod._cache["valid"].ok and prod._cache["balance"].balanced
            assert validate_complex(fresh(prod)).ok, (seed, coords)
            assert check_balancing(fresh(prod)).balanced, (seed, coords)


def test_standard_plane_spans_finds_no_counterexample():
    verdict = ops.check_admissible(load(fixture_path("standard_plane")), "spans")
    assert verdict.status == ops.NO_COUNTEREXAMPLE_FOUND
    assert verdict.witness is None
    assert verdict.tested == 38


def random_matrix(rng: Rng, m: int, m_out: int):
    """Integer entries in [-3, 3], about half of them zero, and one zero row."""
    rows = [tuple(rng.randint(-3, 3) if rng.next64() & 1 else 0
                  for _ in range(m)) for _ in range(m_out)]
    rows[rng.randint(0, m_out - 1)] = (0,) * m
    return rows


def test_linear_image_matches_oracle(run):
    _, pool = run
    rng = Rng(20240817)
    assert len(pool) > 100
    for i, p in enumerate(pool):
        # alternately a smaller and a larger target space
        m_out = p.m + 1 if i % 2 else max(1, p.m - 1)
        matrix = random_matrix(rng, p.m, m_out)
        got = uninterned(lambda: p.linear_image(matrix, m_out))
        want = uninterned(lambda: linear_image_oracle(p, matrix, m_out))
        assert got is not want
        assert got.key == want.key
        assert (got.vertices, got.rays, got.lineality) == \
            (want.vertices, want.rays, want.lineality)
