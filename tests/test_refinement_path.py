"""The refinement path against the full check.

``offending_pairs`` is the one face-condition scan: ``validate_complex``
reports it and ``common_refinement`` cuts along it.  ``refined_cycle``
stores the verdict of the refinement's last scan instead of re-running
the scan.  The differential test compares every verdict it stored with a
full ``validate_complex`` and ``check_balancing`` of a fresh copy, over
the cycles and multidegrees of generator seeds 0-9, their
coordinate-subspace Minkowski sums, and the recession fans and block
projections of the balanced shipped fixtures.  Seed 8 and example33b
bring cells that overlap, so the refinement has to cut.

``common_refinement`` pairs each piece with the cells it was cut from.
A second differential test compares those with ``containing_cells``, the
cells that contain the piece's interior point, on every refinement of
the multidegrees, coordinate-subspace Minkowski sums and recession fans
of generator seeds 0-59.
"""

import pytest

from conftest import FIXTURE_DIR, containing_cells, coordinate_subspaces, fresh
from tropdeg import cycles, fixtures, ops, polyhedra
from tropdeg.cycfile import load
from tropdeg.cycles import (BlockStructure, TropicalCycle, check_balancing,
                            recession_cycle, validate_complex)
from tropdeg.errors import InvariantError
from tropdeg.multidegree import multidegree, type_vectors
from tropdeg.polyhedra import Polyhedron, offending_pairs


def _square(x0, y0, side):
    return Polyhedron.from_generators(2, vertices=[
        (x0, y0), (x0 + side, y0), (x0, y0 + side), (x0 + side, y0 + side)])


@pytest.mark.parametrize("cycle, want", [
    (TropicalCycle(BlockStructure((2,)), [(_square(0, 0, 2), 1), (_square(1, 1, 2), 1)]),
     [(0, 1)]),
    # a cell listed twice: P cap P = P is a face of both copies
    (TropicalCycle(BlockStructure((2,)), [(_square(0, 0, 2), 1), (_square(0, 0, 2), 1)]),
     [(0, 1)]),
    (fixtures.example33a(), []),
])
def test_offending_pairs_is_the_validation_scan(cycle, want):
    cells = [f.poly for f in cycle.support_facets]
    assert offending_pairs(cells) == want
    assert validate_complex(fresh(cycle)).bad_pairs == tuple(want)


@pytest.fixture(scope="module")
def run():
    """(label, output) of every ``refined_cycle`` call, and the cells of
    every ``common_refinement`` call."""
    outputs, refined = [], []
    real_cycle, real_refinement = cycles.refined_cycle, polyhedra.common_refinement

    def record_cycle(ambient, pieces, weights):
        out = real_cycle(ambient, pieces, weights)
        outputs.append((label, out))
        return out

    def record_refinement(cells):
        refined.append(list(cells))
        return real_refinement(refined[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "refined_cycle", record_cycle)
        mp.setattr(ops, "common_refinement", record_refinement)
        mp.setattr(cycles, "common_refinement", record_refinement)
        for seed in range(10):
            label = ("generator", seed)
            cycle = fixtures.generate_admissible(seed)
            for n in type_vectors(cycle):
                label = ("multidegree", seed, n)
                multidegree(cycle, n, seed=seed)
            for coords, gens in coordinate_subspaces(cycle.m):
                label = ("minkowski", seed, coords)
                ops.minkowski_sum_subspace(cycle, gens)
        for path in sorted(FIXTURE_DIR.glob("*.cyc")):
            cycle = load(path)
            if check_balancing(cycle).balanced:
                label = ("recession", path.stem)
                recession_cycle(cycle)
                for block in range(1, cycle.ambient.k + 1):
                    label = ("projection", path.stem, block)
                    ops.projection_pushforward(cycle, [block])
    return outputs, refined


def test_refined_cycle_verdicts_match_full_check(run):
    outputs, refined = run
    kinds = {label[0] for label, _ in outputs}
    assert kinds == {"generator", "multidegree", "minkowski", "recession", "projection"}
    # some inputs are no complex (Minkowski sums of seed 8, the projection
    # of example33b onto block 2), so the refinement had to cut them
    assert any(offending_pairs(list({c.key: c for c in cells}.values()))
               for cells in refined)
    for label, out in outputs:
        report = validate_complex(fresh(out))
        assert out._cache["valid"] == report, label
        assert report.ok and report.bad_pairs == (), label
        assert check_balancing(fresh(out)).balanced, label


def test_refinement_sources_match_containing_cells(monkeypatch):
    calls = []
    real_refinement = polyhedra.common_refinement

    def record_refinement(cells):
        cells = list(cells)
        calls.append((cells, real_refinement(cells)))
        return calls[-1][1]

    monkeypatch.setattr(ops, "common_refinement", record_refinement)
    monkeypatch.setattr(cycles, "common_refinement", record_refinement)
    for seed in range(60):
        cycle = fixtures.generate_admissible(seed)
        for n in type_vectors(cycle):
            multidegree(cycle, n, seed=seed)
        for _, gens in coordinate_subspaces(cycle.m):
            try:
                ops.minkowski_sum_subspace(cycle, gens)
            except InvariantError:       # the known push-forward defect of seed 27
                assert seed == 27
        recession_cycle(cycle)
    assert len(calls) >= 1500
    assert any(len(sources) > 1 for _, refined in calls for _, sources in refined)
    for cells, refined in calls:
        assert refined == containing_cells([p for p, _ in refined], cells)
