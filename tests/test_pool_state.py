"""Outputs do not depend on what ran before them in the same interpreter.

The intern pool and the ``lru_cache``s of ``multidegree`` are memoization
only.  The items of the ``md_sweep`` benchmark (generator seeds 0-39: rank
table, multidegree, criterion and witness key of every type vector) and
the coordinate-subspace Minkowski sums of generator seeds 0-9 run three
times in one interpreter: cold, with the pool and the caches cleared;
warm; and warm in reversed order.  Every item's output must be the same
each time.
"""

import hashlib

import pytest

from conftest import coordinate_subspaces
from tropdeg import cycfile, fixtures
from tropdeg.multidegree import (divisor_power, multidegree, positivity_criterion,
                                 rank_function, standard_hyperplane, type_vectors)
from tropdeg.ops import minkowski_sum_subspace
from tropdeg.polyhedra import Polyhedron

MD_SEEDS = range(40)
MK_SEEDS = range(10)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _md_item(gseed, cycle, n):
    ranks = rank_function(cycle)
    crit = positivity_criterion(cycle, n, ranks)
    witness = crit.facet_witness
    return (ranks.table, multidegree(cycle, n, seed=gseed), crit.holds,
            crit.violating_subset,
            None if witness is None else (witness.poly.key, witness.weight))


def _mk_item(cycle, gens):
    result = minkowski_sum_subspace(cycle, gens)
    return cycfile.dumps(result.cycle) if result.is_pure else str(result.impurity)


def _clear_caches():
    divisor_power.cache_clear()
    standard_hyperplane.cache_clear()


@pytest.fixture
def cold_state(monkeypatch):
    """An empty intern pool and empty caches, both cleared again after."""
    monkeypatch.setattr(Polyhedron, "_interned", {})
    _clear_caches()
    yield
    _clear_caches()


def test_outputs_do_not_depend_on_pool_state(cold_state):
    texts = {s: cycfile.dumps(fixtures.generate_admissible(s)) for s in MD_SEEDS}
    # the cycles are parsed on the cleared pool, as in a fresh interpreter
    Polyhedron._interned.clear()
    _clear_caches()
    cycles = {s: cycfile.loads(text) for s, text in texts.items()}
    items = [(f"md {s} {n}", lambda s=s, n=n: _md_item(s, cycles[s], n))
             for s in MD_SEEDS for n in type_vectors(cycles[s])]
    items += [(f"mk {s} {coords}", lambda s=s, g=gens: _mk_item(cycles[s], g))
              for s in MK_SEEDS for coords, gens in coordinate_subspaces(cycles[s].m)]
    assert len(items) == 88 + 216

    cold, warm, reversed_warm = ({name: _digest(run()) for name, run in order}
                                 for order in (items, items, items[::-1]))
    assert warm == cold
    assert reversed_warm == cold
