"""Differential test: push-forward weights per image against per piece.

``ops._image_cycle`` gives each top-dimensional image the weight
``w * [L_img : <gens>]`` once, and a refined piece sums the weights of the
images containing it.  The oracle is the rule this replaced: for every
piece, the sum over the images containing it of ``w`` times
``relative_lattice_index`` of the generators in the piece's own direction
basis.  Checked on every proper coordinate-subspace Minkowski sum of the
generated cycles of seeds 0-9 and on every block projection of the shipped
fixtures.  Where the public call returns a cycle, its facets are the
pieces with positive oracle weight; where it raises, the oracle cycle is
unbalanced too.
"""

from functools import partial
from itertools import combinations

import pytest

from conftest import FIXTURE_DIR, coordinate_subspaces, relative_lattice_index
from tropdeg import fixtures, ops
from tropdeg.cycfile import load
from tropdeg.cycles import BlockStructure, TropicalCycle, check_balancing
from tropdeg.errors import InvariantError
from tropdeg.linalg import saturate
from tropdeg.polyhedra import common_refinement


def cases():
    """(label, images, output blocks, public call) of every item."""
    for seed in range(10):
        cycle = fixtures.generate_admissible(seed)
        for coords, gens in coordinate_subspaces(cycle.m):
            yield ((seed, coords), ops._facet_sums(cycle, saturate(gens, cycle.m)),
                   cycle.ambient, partial(ops.minkowski_sum_subspace, cycle, gens))
    for path in sorted(FIXTURE_DIR.glob("*.cyc")):
        cycle = load(path)
        blocks = cycle.ambient
        for size in range(1, blocks.k + 1):
            for subset in combinations(range(1, blocks.k + 1), size):
                matrix = [tuple(int(t == j) for t in range(cycle.m))
                          for j in blocks.coords_of(subset)]
                out_blocks = BlockStructure(tuple(blocks.blocks[i - 1] for i in subset))
                yield ((path.stem, subset),
                       ops._linear_images(cycle, matrix, out_blocks.m), out_blocks,
                       partial(ops.projection_pushforward, cycle, subset))


def piece_weights(images):
    """(piece, per-image weight, oracle weight) per refined piece of the top
    images, or None when the images are not pure."""
    verdict = ops._purity(images)
    if not verdict.is_pure:
        return None
    top = [t for i, t in enumerate(images) if i not in verdict.absorbed]
    out = []
    for piece in common_refinement([img for img, _, _ in top]):
        row = piece.interior_row()
        inside = [t for t in top if t[0].contains_row(row)]
        out.append((piece,
                    sum(ops._image_weight(img, w, gens) for img, w, gens in inside),
                    sum(w * relative_lattice_index(piece.direction_basis(), gens)
                        for _, w, gens in inside)))
    return out


@pytest.fixture(scope="module")
def items():
    return [(label, piece_weights(images), out_blocks, call)
            for label, images, out_blocks, call in cases()]


def test_image_weights_match_per_piece_oracle(items):
    pieces = [p for _, weights, _, _ in items if weights for p in weights]
    assert len(pieces) > 500
    assert any(old > 1 for _, _, old in pieces)
    for label, weights, _, _ in items:
        for piece, new, old in weights or ():
            assert new == old, (label, piece)


def test_pushforward_facets_are_the_oracle_pieces(items):
    kinds = set()
    for label, weights, out_blocks, call in items:
        if weights is None:
            assert not call().is_pure, label
            kinds.add("impure")
            continue
        want = TropicalCycle(out_blocks, [(p, old) for p, _, old in weights if old > 0])
        try:
            got = call()
        except InvariantError:
            assert not check_balancing(want).balanced, label
            kinds.add("raised")
            continue
        assert got.cycle.key == want.key, label
        kinds.add("pure")
    assert {"pure", "impure"} <= kinds
