"""The positivity criterion on tropical linear spaces.

``tropical_linear_space`` cuts R^m by random tropical hyperplanes and
reblocks the result.  Tropical linear spaces satisfy the rank-based
positivity criterion (Castillo, Cid-Ruiz, Li, Montaño and Zhang 2020), so
on every seed:

* the criterion's ``msupp`` equals the one that computes every
  multidegree;
* every type vector of ``MSupp`` has a facet witness;
* the rank function is submodular and ``MSupp`` has the exchange property;
* the rank function is not modular: the block ranks sum to more than the
  dimension, so the family is not a product of its block projections.

The blocks, rank tables and ``MSupp`` of every seed are pinned.
"""

import hashlib

import pytest

from conftest import tropical_linear_space
from tropdeg.multidegree import (check_submodular, exchange_property,
                                 facet_witness, msupp, rank_function)

LINEAR_SPACE_SEEDS = range(100)

#: sha256 over the blocks, rank table and MSupp of every seed; recorded
#: before ``eval_dir`` and ``linear_image``'s row count were removed
LINEAR_SPACE_DIGEST = "84bbd0e5bde3b0e233f37d7d03543b24f409c6c54dc6d1f1567f213f7ced445c"


@pytest.fixture(scope="module")
def family():
    data = []
    for seed in LINEAR_SPACE_SEEDS:
        cycle = tropical_linear_space(seed)
        ranks = rank_function(cycle)
        data.append((seed, cycle, ranks,
                     msupp(cycle), msupp(cycle, mode="bruteforce", seed=seed)))
    return data


def test_family_outputs_are_pinned(family):
    h = hashlib.sha256()
    for seed, cycle, ranks, support, _ in family:
        h.update(repr((seed, cycle.ambient.blocks, ranks.table,
                       sorted(support))).encode())
    assert h.hexdigest() == LINEAR_SPACE_DIGEST


def test_criterion_agrees_with_the_multidegrees(family):
    disagree = [seed for seed, _, _, support, brute in family if support != brute]
    assert not disagree


def test_every_msupp_vector_has_a_facet_witness(family):
    missing = [(seed, n) for seed, cycle, _, support, _ in family
               for n in sorted(support) if facet_witness(cycle, n) is None]
    assert not missing


def test_ranks_are_submodular_and_msupp_exchanges(family):
    for seed, _, ranks, support, _ in family:
        assert check_submodular(ranks) == (True, None), seed
        assert exchange_property(support), seed


def test_ranks_are_not_modular(family):
    for seed, cycle, ranks, _, _ in family:
        k = cycle.ambient.k
        singles = sum(ranks.rank((i,)) for i in range(1, k + 1))
        assert singles > ranks.rank(range(1, k + 1)), seed
