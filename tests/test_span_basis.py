"""The span basis of Minkowski sums, and the work the coordinate sums do.

``ops._span_basis`` takes the primitive span rows as they are when their
Smith diagonal is one 1 per row, and calls ``saturate`` otherwise.  On
saturated spans (``(2,0,0)`` is one after ``primitive``), on spans that
are not (``(1,1,0), (1,-1,0)``) and on dependent spans:

* its basis spans the lattice of ``saturate``'s basis;
* ``minkowski_sum_subspace`` writes the same cycle file, or reports the
  same impurity, as with ``_span_basis`` replaced by ``saturate``.

The work-count guard: over the coordinate sums of generator seeds 0-4,
whose outputs are balanced, ``Polyhedron.face`` never runs and no
``int_kernel`` is called through ``linalg`` (where ``saturate`` calls
it); ``direction_basis`` calls it through ``polyhedra``.
"""

import pytest

from conftest import coordinate_subspaces, fixture_path, splitting_sums
from tropdeg import cycfile, fixtures, linalg, ops
from tropdeg.linalg import rref, saturate
from tropdeg.polyhedra import Polyhedron

#: spans whose primitive nonzero rows are a basis of their saturated lattice
SATURATED = [[(1, 0, 0)], [(2, 0, 0)], [(1, 1, 0), (0, 1, 0)], [(1, 2, 3), (0, 1, 1)],
             [(2, 0, 0), (0, 0, 2)], [(2, 2, 0), (3, 0, 3)],
             [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0), (1, 2, 0)], [(0, 0, 0)]]
NOT_SATURATED = [[(1, 1, 0), (1, -1, 0)], [(1, 1, 1), (1, -1, 1)], [(1, 2, 0), (2, 1, 0)]]
DEPENDENT = [[(1, 0, 0), (2, 0, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
             [(1, 1, 0), (1, -1, 0), (1, 0, 0)],
             [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
SPANS = SATURATED + NOT_SATURATED + DEPENDENT


def _padded(gens, m):
    return [tuple(g) + (0,) * (m - len(g)) for g in gens]


def _output(cycle, gens) -> str:
    try:
        result = ops.minkowski_sum_subspace(cycle, gens)
    except Exception as exc:          # the known defect of seed 27 included
        return f"raise {type(exc).__name__}: {exc}"
    return cycfile.dumps(result.cycle) if result.is_pure else str(result.impurity)


@pytest.mark.parametrize("gens", SPANS, ids=str)
def test_basis_is_a_basis_of_the_saturated_lattice(gens):
    basis, want = ops._span_basis(gens, 3), saturate(gens, 3)
    assert rref(basis)[0] == rref(want)[0] and len(basis) == len(want)
    if want:
        # each basis generates the other's lattice: equal Smith diagonals
        # of the joint rows and of either alone
        both = linalg.snf_diagonal(list(basis) + list(want))
        assert both[:len(want)] == linalg.snf_diagonal(want) == [1] * len(want)
        assert linalg.snf_diagonal(basis) == [1] * len(basis)
    rows = tuple(linalg.primitive(g) for g in gens if any(g))
    assert (basis == rows) == (gens in SATURATED)


def _cases():
    cycles = [(f"seed {s}", fixtures.generate_admissible(s)) for s in (8, 19, 27)]
    cycles += [(name, cycfile.load(fixture_path(name)))
               for name in ("example33b", "standard_plane", "coordinate_hyperplanes_3")]
    for name, cycle in cycles:
        for gens in SPANS:
            yield name, cycle, _padded(gens, cycle.m)


def test_sums_match_the_saturate_path(monkeypatch):
    cases = list(_cases())
    got = [_output(cycle, gens) for _, cycle, gens in cases]
    monkeypatch.setattr(ops, "_span_basis", saturate)
    want = [_output(cycle, gens) for _, cycle, gens in cases]
    assert got == want
    assert len(set(want)) > 20


def test_coordinate_sums_do_no_face_or_span_kernel_work(monkeypatch):
    cycles = [fixtures.generate_admissible(s) for s in range(5)]
    sums = [(c, gens) for c in cycles for _, gens in coordinate_subspaces(c.m)]
    counts = {"face": 0, "int_kernel": 0, "saturate": 0}

    def counting(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(Polyhedron, "face", counting("face", Polyhedron.face))
    monkeypatch.setattr(linalg, "int_kernel", counting("int_kernel", linalg.int_kernel))
    monkeypatch.setattr(ops, "saturate", counting("saturate", ops.saturate))
    results = [ops.minkowski_sum_subspace(c, gens) for c, gens in sums]
    assert len(results) > 30 and all(r.is_pure for r in results)
    assert counts == {"face": 0, "int_kernel": 0, "saturate": 0}
    # the counters count: a span that is not saturated goes through both
    ops.minkowski_sum_subspace(cycles[0], [(2, 2) + (0,) * (cycles[0].m - 2),
                                           (1, -1) + (0,) * (cycles[0].m - 2)])
    assert counts["saturate"] == 1 and counts["int_kernel"] == 2


def test_splitting_sums_match_the_saturate_path(monkeypatch):
    cases = list(splitting_sums())
    got = [_output(cycle, gens) for _, cycle, gens in cases]
    monkeypatch.setattr(ops, "_span_basis", saturate)
    assert got == [_output(cycle, gens) for _, cycle, gens in cases]
