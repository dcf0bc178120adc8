"""The start state that ``plus_span`` continues its hull from.

``Polyhedron._dual_start`` takes a polyhedron's facet rows, with
``x0 >= 0`` exactly when that is a facet of the homogenization cone, as
the extreme rays of the dual cone, and its equality rows as the dual
lineality.  Each ray carries its tight bitmask over the vertex rows and
rays ``(0, r)``.  The rays are checked, modulo the equalities, against a
double description of the generators run from scratch, and the masks
against integer sign tests, on the random polyhedra of
``test_polyhedra``, the support facets of generator seeds 0-9 and
hand-made cases.

``plus_span`` must hand the double description the span rows only, never
the generators or the polyhedron's own lineality rows (each is zero on
every row of the start state), from one cached start state; the masks of
a hull continued by lineality and span rows are checked against integer
sign tests too.
"""

from fractions import Fraction

import pytest

from conftest import random_generators
from tropdeg import fixtures, polyhedra
from tropdeg.linalg import reduce_mod, vdot
from tropdeg.ops import Rng
from tropdeg.polyhedra import Polyhedron, _canon_eqs, dual_description


def _check_dual_start(p):
    """Assert the start state of p; return whether it holds ``x0 >= 0``."""
    rows, lin, count = p._dual_start()
    gens = p.vertex_rows + tuple((0,) + r for r in p.rays)
    assert count == len(gens) and lin == p.eqs
    for row, mask in rows:
        assert mask == sum(1 << j for j, g in enumerate(gens) if vdot(row, g) == 0)
    want_rays, want_lin, _ = dual_description(
        p.m + 1, [((0,) + l, True) for l in p.lineality] + [(g, False) for g in gens])
    assert _canon_eqs(want_lin) == p.eqs
    got = [reduce_mod(p.eqs, row) for row, _ in rows]
    assert len(set(got)) == len(got)
    assert set(got) == {reduce_mod(p.eqs, r) for r in want_rays}
    return (1,) + (0,) * p.m in (row for row, _ in rows)


def _random_pool():
    for seed in (1414, 4669, 5772):
        rng = Rng(seed)
        for _ in range(60):
            m = rng.randint(1, 4)
            yield Polyhedron.from_generators(m, *random_generators(rng, m))


def test_random_polyhedra():
    with_x0 = [_check_dual_start(p) for p in _random_pool()]
    assert any(with_x0) and not all(with_x0)


def test_support_facets_of_generated_cycles():
    # each facet is a cone with an apex, whose rays span its dimension
    assert all(_check_dual_start(f.poly) for seed in range(10)
               for f in fixtures.generate_admissible(seed).support_facets)


HAND_CASES = {   # name: (builder, whether x0 >= 0 is a facet)
    "point": (lambda: Polyhedron.from_generators(3, [(Fraction(1, 2), 0, 3)]), True),
    "segment": (lambda: Polyhedron.from_generators(2, [(0, 0), (3, 1)]), False),
    "half-line": (lambda: Polyhedron.from_generators(2, [(1, 1)], rays=[(1, -1)]), True),
    "half-strip": (lambda: Polyhedron.from_generators(2, [(0, 0), (1, 0)], rays=[(0, 1)]),
                   False),
    "pointed cone with apex": (lambda: Polyhedron.from_generators(
        3, [(1, 2, 0)], rays=[(1, 0, 0), (0, 1, 0), (1, 1, 1)]), True),
    "half-plane with lineality": (lambda: Polyhedron.from_hrep(
        3, ineqs=[(1, 1, 0, 0)], eqs=[(0, 0, 0, 1)]), True),
    "hyperplane": (lambda: Polyhedron.from_hrep(3, eqs=[(-2, 1, 1, 1)]), True),
    "full space": (lambda: Polyhedron.full_space(3), True),
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_hand_cases(name):
    build, with_x0 = HAND_CASES[name]
    assert _check_dual_start(build()) == with_x0


def test_masks_continue_from_the_dual_start():
    """A hull continued from ``_dual_start`` by lineality and span rows
    masks each ray with the sign tests over the start generators, then
    over the nonzero added rows; a zero span vector takes no bit."""
    rng = Rng(2718)
    rays_checked = zero_rows = 0
    for p in _random_pool():
        span = [tuple(rng.randint(-1, 1) for _ in range(p.m))
                for _ in range(rng.randint(0, 2))]
        added = [(0,) + v for v in p.lineality + tuple(span)]
        rays, _, masks = dual_description(p.m + 1, [(r, True) for r in added],
                                          start=p._dual_start())
        gens = p.vertex_rows + tuple((0,) + r for r in p.rays)
        rows = gens + tuple(r for r in added if any(r))
        assert masks == [sum(1 << j for j, g in enumerate(rows) if vdot(ray, g) == 0)
                         for ray in rays]
        rays_checked += len(rays)
        zero_rows += len(added) + len(gens) - len(rows)
    assert rays_checked > 200 and zero_rows


def test_plus_span_continues_from_the_cached_start(monkeypatch):
    wedge = Polyhedron.from_generators(3, [(1, 0, 2)], rays=[(1, 0, 0), (0, 1, 0)],
                                       lineality=[(1, 1, 1)])
    calls = []

    def record(dim, constraints, start=None):
        calls.append((list(constraints), start))
        return real(dim, constraints, start=start)

    real = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description", record)
    monkeypatch.setattr(Polyhedron, "_interned", {})
    spans = ([(0, 0, 1)], [(1, -1, 0), (0, 0, 1)])
    for span in spans:
        wedge.plus_span(span)
    assert len(calls) == len(spans)
    for (constraints, start), span in zip(calls, spans):
        assert start is wedge._cache["dual_start"]
        assert constraints == [((0,) + l, True) for l in span]
