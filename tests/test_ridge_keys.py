"""Differential tests: codimension-1 faces grouped by tight generators.

``cycles._ridges`` groups the facet rows of the support facets by the
face's canonical V-rep (lineality, vertex rows and rays in the row's
tight mask) and builds no face polyhedron; ``check_balancing`` tests each
group against the first incident facet's equality rows plus its row.
They must answer as ``ridge_merge_oracle``, which builds every face and
merges equal H-keys, and ``balance_violations_oracle``: the same records
(faces, incident facets, lattice normals, in key order) from
``codim1_faces``, and the same verdict and violations, in order, from
``check_balancing`` of a fresh copy.  The cases:

* every polyhedron of the intern pool that the run of
  ``tests/test_shortcuts.py`` leaves, as a one-facet cycle;
* the cycles of ``tests/test_pool_state.py``: generator seeds 0-39, the
  coordinate-subspace Minkowski sums of seeds 0-9 and the splitting sums;
* ``tropical_linear_space`` seeds 0-99 and generator seeds 0-59, each
  also with one support facet's weight raised by one (unbalanced);
* hand-made cycles whose faces share vertex rows but differ in rays or in
  lineality.  In a valid complex two faces that share a vertex row share
  a point and so the lineality, so the pair that differs only in
  lineality is marked valid without being a complex, to reach the
  grouping.

A polyhedron with a row that is not facet-defining still raises
InvariantError on the balancing path.
"""

import pytest

from conftest import (balance_violations_oracle, coordinate_subspaces, fresh,
                      ridge_merge_oracle, splitting_sums, tropical_linear_space)
from test_shortcuts import run  # noqa: F401  (the module fixture whose pool is read)
from tropdeg import cycles as cyc
from tropdeg import fixtures
from tropdeg.cycles import (BlockStructure, TropicalCycle, WeightedFacet,
                            check_balancing, codim1_faces)
from tropdeg.errors import InvariantError
from tropdeg.ops import minkowski_sum_subspace
from tropdeg.polyhedra import Polyhedron


def _check(cycle) -> tuple[int, bool]:
    """(number of faces, balanced) after comparing with the oracles."""
    want = ridge_merge_oracle(cycle)
    assert list(codim1_faces(fresh(cycle))) == want
    report = check_balancing(fresh(cycle))
    violations = balance_violations_oracle(cycle)
    assert list(report.violations) == violations
    assert report.balanced == (not violations)
    return len(want), report.balanced


def _bumped(cycle):
    """The cycle with its first support facet that has facet rows one
    weight heavier, or None when no support facet has one."""
    support = cycle.support_facets
    i = next((i for i, f in enumerate(support) if f.poly.ineqs), None)
    if i is None:
        return None
    return TropicalCycle(cycle.ambient, [WeightedFacet(f.poly, f.weight + (j == i))
                                         for j, f in enumerate(support)])


def _check_all(cycles):
    faces = unbalanced = 0
    for cycle in cycles:
        n, balanced = _check(cycle)
        faces += n
        unbalanced += not balanced
    return faces, unbalanced


def test_pool_polyhedra_match_oracle(run):
    *_, pool = run
    cycles = [TropicalCycle(BlockStructure((p.m,)), [(p, 1)])
              for p in pool if not p.is_empty]
    faces, unbalanced = _check_all(cycles)
    # a polyhedron with a facet is unbalanced on its own
    assert faces > 300 and unbalanced == sum(bool(c.facets[0].poly.ineqs) for c in cycles)


def test_pool_state_cycles_match_oracle():
    cycles = [fixtures.generate_admissible(s) for s in range(40)]
    sums = [(cycles[s], gens) for s in range(10)
            for _, gens in coordinate_subspaces(cycles[s].m)]
    sums += [(cycle, gens) for _, cycle, gens in splitting_sums()]
    results = [minkowski_sum_subspace(cycle, gens) for cycle, gens in sums]
    cycles += [r.cycle for r in results if r.is_pure]
    faces, unbalanced = _check_all(cycles)
    assert faces > 400 and unbalanced == 0


def test_linear_spaces_and_generated_cycles_match_oracle():
    cycles = [tropical_linear_space(s) for s in range(100)]
    cycles += [fixtures.generate_admissible(s) for s in range(60)]
    bumped = [b for b in map(_bumped, cycles) if b is not None]
    faces, unbalanced = _check_all(cycles)
    assert faces > 500 and unbalanced == 0
    faces, unbalanced = _check_all(bumped)
    assert unbalanced == len(bumped) > 100


def _cone(*rays):
    return Polyhedron.from_generators(len(rays[0]), [(0,) * len(rays[0])], rays)


def test_faces_that_share_vertices_but_not_rays():
    # the cones over the edges of a triangle around e1+e2+e3 meet in the
    # rays e1, e2, e3, all with the vertex row of the origin
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    fan = TropicalCycle(BlockStructure((3,)),
                        [(_cone(e1, e2), 1), (_cone(e2, e3), 1), (_cone(e1, e3), 2)])
    assert _check(fan) == (3, False)
    # the standard tropical plane: six cones, four rays, balanced
    assert _check(fixtures.standard_plane()) == (4, True)


def test_faces_that_differ_only_in_lineality():
    # half-planes of z = 0 bounded by the x-axis and by the y-axis: both
    # faces have the vertex row of the origin and no ray
    h1 = Polyhedron.from_hrep(3, [(0, 0, 1, 0)], [(0, 0, 0, 1)])
    h2 = Polyhedron.from_hrep(3, [(0, 1, 0, 0)], [(0, 0, 0, 1)])
    pair = TropicalCycle(BlockStructure((3,)), [(h1, 1), (h2, 1)])
    pair._cache["valid"] = cyc._KNOWN_VALID
    records = codim1_faces(pair)
    assert records == tuple(ridge_merge_oracle(pair))
    assert [r.face.lineality for r in records] == [((1, 0, 0),), ((0, 1, 0),)]
    report = check_balancing(pair)
    assert report.violations == records


def _with_row(p: Polyhedron, row) -> Polyhedron:
    """p with one more inequality row, built without canonicalization."""
    return Polyhedron(m=p.m, eqs=p.eqs, ineqs=tuple(sorted(p.ineqs + (row,))),
                      vertex_rows=p.vertex_rows, rays=p.rays, lineality=p.lineality,
                      is_empty=False)


@pytest.mark.parametrize("base, row", [
    # tight at one vertex of the unit square only, inside two facets' sets
    ("square", (0, 1, 1)),
    # tight nowhere
    ("square", (1, 1, 1)),
    # tight on the rays of the quadrant only: the face at infinity
    ("quadrant", (1, 0, 0)),
    # a facet row twice, scaled
    ("square", (0, 2, 0)),
])
def test_non_facet_row_raises(base, row):
    p = {"square": Polyhedron.from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
         "quadrant": _cone((1, 0), (0, 1))}[base]
    bad = _with_row(p, row)
    cycle = TropicalCycle(BlockStructure((2,)), [(bad, 1)])
    for check in (check_balancing, codim1_faces):
        with pytest.raises(InvariantError, match="not facet-defining"):
            check(fresh(cycle))
    with pytest.raises(InvariantError, match="not facet-defining"):
        bad.facet_faces()
