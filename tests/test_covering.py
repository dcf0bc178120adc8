"""Covering by subtraction: ``is_covered`` against ``covered_oracle``, the
refine-then-point-test rule it replaced, and the admissibility verdicts
that read it pinned by a digest."""

import hashlib
from fractions import Fraction

import pytest

from conftest import box_rows, coordinate_subspaces, covered_oracle, random_generators
from tropdeg import fixtures
from tropdeg.errors import DimensionMismatchError
from tropdeg.ops import Rng, check_admissible
from tropdeg.polyhedra import Polyhedron, is_covered

ADMISSIBILITY_SEEDS = range(30)

#: sha256 over ``(name, tuple(verdict))`` of ``check_admissible`` under
#: ``coords`` and ``spans``, for generator seeds 0-29 and the
#: ``fixtures.CORPUS`` cycles; recorded before ``is_covered`` peeled its
#: target by subtraction
ADMISSIBILITY_DIGEST = "56404a14cf4eaccfd201dff73ba39224c1c88abf58785764b20fc340f1ccff21"


def test_admissibility_verdicts_are_pinned():
    cycles = [(seed, fixtures.generate_admissible(seed)) for seed in ADMISSIBILITY_SEEDS]
    cycles += [(name, build()) for name, build in sorted(fixtures.CORPUS.items())]
    h = hashlib.sha256()
    for name, cycle in cycles:
        for strategy in ("coords", "spans"):
            h.update(repr((name, tuple(check_admissible(cycle, strategy)))).encode())
    assert h.hexdigest() == ADMISSIBILITY_DIGEST


# --- is_covered against the refinement rule --------------------------------

def _box(lo, hi):
    return Polyhedron.from_hrep(len(lo), box_rows(lo, hi))


def _segment(a, b):
    return Polyhedron.from_generators(len(a), vertices=[a, b])


def facet_sum_cases():
    """(target, cover) of every facet-sum image of generator seeds 0-29
    under every proper coordinate subspace, against two random subsets of
    the top-dimensional images."""
    rng = Rng(3803)
    for seed in ADMISSIBILITY_SEEDS:
        cycle = fixtures.generate_admissible(seed)
        for _, gens in coordinate_subspaces(cycle.m):
            images = [f.poly.plus_span(gens) for f in cycle.support_facets]
            d = max(img.dim for img in images)
            top = [img for img in images if img.dim == d]
            for img in images:
                for _ in range(2):
                    yield img, [t for t in top if rng.next64() & 1]


def random_cases():
    """(target, cover) of ``random_generators`` polyhedra on ``Rng`` seeds
    1414, 4669 and 5772: random covers, and random covers with some of
    the pieces of a random split of the target."""
    for seed in (1414, 4669, 5772):
        rng = Rng(seed)
        for _ in range(100):
            m = rng.randint(1, 3)
            target = Polyhedron.from_generators(m, *random_generators(rng, m))
            cover = [Polyhedron.from_generators(m, *random_generators(rng, m))
                     for _ in range(rng.randint(0, 3))]
            yield target, cover
            row = tuple(rng.randint(-2, 2) for _ in range(m + 1))
            pieces = [p for p in target.split(row) if rng.next64() % 3]
            yield target, cover[:1] + pieces + cover[1:]
            yield target, pieces


def hand_cases():
    """(target, cover) of shapes the random cases seldom reach."""
    sq = _box((0, 0), (2, 2))
    right, left = sq.split((-1, 1, 0))
    beside = _box((2, 0), (3, 2))
    wide = _box((0, 0), (3, 2))
    edge = _segment((1, 0), (1, 2))
    half = Polyhedron.from_hrep(2, [(0, 1, 0)])
    upper = Polyhedron.from_hrep(2, [(0, 1, 0), (0, 0, 1)])
    lower = Polyhedron.from_hrep(2, [(0, 1, 0), (0, 0, -1)])
    axis = Polyhedron.from_hrep(2, eqs=[(0, 0, 1)])
    empty = Polyhedron.empty(2)
    return [
        # a cell against one and both halves of a split
        (sq, [left]), (sq, [right]), (sq, [left, right]), (sq, [right, left]),
        # targets meeting a cell only in a lower-dimensional face
        (left, [right]), (left, [_box((1, 2), (2, 3))]), (wide, [left, beside]),
        (wide, [left, right, beside]), (sq, [beside, left, right]),
        # lower-dimensional cover cells
        (sq, [left, edge]), (sq, [left, edge, right]), (edge, [left]),
        (edge, [_segment((1, 0), (1, 1)), _segment((1, 1), (1, 2))]),
        (edge, [_segment((1, 0), (1, 1))]), (edge, [Polyhedron.point((1, 1))]),
        (Polyhedron.point((1, 1)), [edge]), (Polyhedron.point((3, 3)), [sq]),
        # cells with lineality
        (half, [upper, lower]), (half, [upper]), (half, [lower, sq, upper]),
        (_box((0, 0), (1, 1)), [half]), (axis, [upper, lower]),
        (axis, [upper, lower, Polyhedron.from_hrep(2, [(0, -1, 0)])]),
        (Polyhedron.full_space(2), [half, Polyhedron.from_hrep(2, [(0, -1, 0)])]),
        (Polyhedron.full_space(2), [half, sq]),
        # empty cover members and targets
        (sq, [empty, sq]), (sq, [empty]), (sq, []), (empty, []), (empty, [sq]),
    ]


def test_is_covered_matches_the_refinement_rule():
    verdicts = {True: 0, False: 0}
    for cases in (facet_sum_cases(), random_cases(), hand_cases()):
        for target, cover in cases:
            got = is_covered(target, cover)
            assert got == covered_oracle(target, cover), (target, cover)
            verdicts[got] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_cover_member_in_another_space_raises():
    sq = _box((0, 0), (2, 2))
    for covered in (is_covered, covered_oracle):
        with pytest.raises(DimensionMismatchError):
            covered(sq, [sq, Polyhedron.point((0,))])
        with pytest.raises(DimensionMismatchError):
            covered(Polyhedron.empty(2), [Polyhedron.empty(3)])


@pytest.mark.parametrize("cover", [
    [_box((5, 5), (6, 6)), _box((2, 0), (3, 4)), _box((0, 0), (4, 4))],
    # the row of x >= 3/2 crosses the target and sorts before y <= 1
    [_box((Fraction(3, 2), -5), (10, 1)), _box((0, 0), (4, 4))],
], ids=["edge", "crossing_row_first"])
def test_target_inside_one_cell_costs_only_sign_tests(cover, monkeypatch):
    """A disjoint cell, cells that meet the target in an edge, the second
    of them with a row crossing it, and one that holds it: no ``split``,
    and no polyhedron is built."""
    target = _box((1, 1), (2, 3))

    def no_split(self, row):
        raise AssertionError(f"split by {row}")

    monkeypatch.setattr(Polyhedron, "split", no_split)
    pooled = len(Polyhedron._interned)
    assert is_covered(target, cover)
    assert len(Polyhedron._interned) == pooled
