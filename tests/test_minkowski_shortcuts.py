"""Differential tests: the Minkowski-sum shortcuts against their slow paths.

On every proper nonzero coordinate subspace V of the generated cycles of
seeds 0-4 and 27 and of example33b (the candidates of ``check_admissible
--strategy coords``; example33b is not admissible, so some sums are impure):

* ``minkowski_sum_subspace`` agrees with ``minkowski_oracle``, which leaves
  the subspace cycle unchecked so the product is validated in full;
* every product ``cycle x W`` it pushes forward carries the valid and
  balanced marks, and an unmarked copy passes both checks;
* ``Polyhedron.linear_image`` agrees with ``linear_image_oracle`` on random
  integer matrices for every polyhedron the run left in the intern pool.
"""

from itertools import combinations

import pytest

from conftest import fresh, linear_image_oracle, minkowski_oracle, uninterned
from tropdeg import fixtures, ops
from tropdeg.cycles import check_balancing, validate_complex
from tropdeg.errors import InvariantError
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


@pytest.fixture(scope="module")
def run():
    """Both paths on every item, the products pushed forward, the pool left."""
    items = []
    products = []

    def record_pushforward(cycle, matrix, out_blocks):
        products.append((cycle, "valid" in cycle._cache,
                         "balance" in cycle._cache))
        return real_pushforward(cycle, matrix, out_blocks)

    real_pushforward = ops.pushforward_linear
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        for seed, cycle in cycles():
            for coords, gens in coordinate_subspaces(cycle.m):
                want = outcome(minkowski_oracle, fresh(cycle), gens)
                with mp.context() as inner:
                    inner.setattr(ops, "pushforward_linear", record_pushforward)
                    got = outcome(minkowski_sum_subspace, fresh(cycle), gens)
                items.append((seed, coords, got, want))
        pool = list(Polyhedron._interned.values())
    return items, products, pool


def test_minkowski_matches_oracle(run):
    items, _, _ = run
    assert sum(1 for seed, *_ in items if seed in SEEDS) == 118
    for seed, coords, got, want in items:
        assert got == want, (seed, coords)
    kinds = {got[0] for *_, got, _ in items}
    assert kinds == {"pure", "impure", "raised"}


def test_known_unbalanced_pushforward_raises_on_both_paths(run):
    items, _, _ = run
    raised = [(seed, coords, got) for seed, coords, got, _ in items
              if got[0] == "raised"]
    assert raised == [(27, (0, 1, 3), (
        "raised", InvariantError, "push-forward produced an unbalanced cycle"))]


def test_products_carry_proven_marks(run):
    items, products, _ = run
    assert len(products) == len(items)
    for prod, valid, balanced in products:
        assert valid and balanced
        assert validate_complex(fresh(prod)).ok
        assert check_balancing(fresh(prod)).balanced


def random_matrix(rng: Rng, m: int, m_out: int):
    """Integer entries in [-3, 3], about half of them zero, and one zero row."""
    rows = [tuple(rng.randint(-3, 3) if rng.next64() & 1 else 0
                  for _ in range(m)) for _ in range(m_out)]
    rows[rng.randint(0, m_out - 1)] = (0,) * m
    return rows


def test_linear_image_matches_oracle(run):
    _, _, pool = run
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
