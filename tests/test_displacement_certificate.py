"""The displacement flags against explicit vectors, and against a stronger
genericity condition.

``ops.stable_intersect`` decides its flags by lexicographic sign tests of
the symbolic direction ``u(eps)``.  On the stable intersections that
generator seeds 0-59 and all their multidegrees run:

* every displacement pass (the build pass and the seed's check pass) gives
  the flags of one explicit integer vector (``concrete_direction``), which
  lies on no facet hyperplane of any cone;
* vectors inside a proper span ``Lin(F) + Lin(F')`` of a face pair of
  meeting facets (``low_face_spans``, a condition the step does not check)
  but on no cone facet are forced as the build pass's direction.  Each must
  pass the check pass and give the same cycle, also where it flips a
  candidate's flag.
"""

import pytest

from conftest import concrete_direction, low_face_spans
from tropdeg import fixtures, ops
from tropdeg import multidegree as md
from tropdeg.linalg import vdot
from tropdeg.multidegree import multidegree, type_vectors

SEEDS = range(60)
#: vectors drawn in each low span: 540 lie on no cone facet, and 85 of
#: them flip a flag; the replay takes about 2 s
DRAWS_PER_SPAN = 2
MAX_VECTORS = 800


@pytest.fixture(scope="module")
def intersections():
    """(c1, c2, seed, cycle, passes) of every stable intersection with a
    candidate pair that the seeds run, where ``passes`` holds the (cones,
    order, signs, flags) of its build pass and its check pass."""
    passes = []                # (cones, order, signs, flags) of every pass
    recorded = []

    def record_flags(cones, order, signs):
        flags = real_flags(cones, order, signs)
        passes.append((cones, order, signs, flags))
        return flags

    def record(c1, c2, seed=0):
        first = len(passes)
        out = real_intersect(c1, c2, seed)
        if first < len(passes) and passes[first][0]:
            recorded.append((c1, c2, seed, out, passes[first:]))
        return out

    real_flags, real_intersect = ops._displacement_flags, ops.stable_intersect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_displacement_flags", record_flags)
        mp.setattr(ops, "stable_intersect", record)
        # powers cached by earlier tests would skip their intersections
        md.divisor_power.cache_clear()
        for seed in SEEDS:
            cycle = fixtures.generate_admissible(seed)
            for n in type_vectors(cycle):
                multidegree(cycle, n, seed=seed)
    return recorded


def test_every_pass_is_an_explicit_vector(intersections):
    assert len(intersections) > 50
    cones_seen = 0
    for c1, _, seed, _, passes in intersections:
        build, check = passes
        assert (list(build[1]), list(build[2])) == (list(range(c1.m)), [1] * c1.m)
        assert (check[1], check[2]) == ops._check_direction(c1.m, seed)
        for cones, order, signs, flags in passes:
            v = concrete_direction(cones, order, signs)
            row = (1,) + v
            assert flags == [c.contains_row(row) for c in cones]
            assert all(vdot(r, row) != 0 for c in cones for r in c.ineqs + c.eqs)
            cones_seen += len(cones)
    assert cones_seen > 2 * len(intersections)


def _off_every_facet(cones, row) -> bool:
    return all(c.relint_contains_row(row) for c in cones if c.contains_row(row))


def _low_span_vectors(c1, c2, cones, rng):
    """Nonzero integer vectors in the proper low face spans of the meeting
    facet pairs of c1 and c2 that lie on no facet hyperplane of a cone."""
    meeting = [(f.poly, g.poly) for f in c1.support_facets
               for g in c2.support_facets if not f.poly.intersect(g.poly).is_empty]
    for basis in low_face_spans(meeting, c1.m):
        for _ in range(DRAWS_PER_SPAN):
            coeffs = [rng.randint(-9, 9) for _ in basis]
            v = tuple(sum(k * b[j] for k, b in zip(coeffs, basis))
                      for j in range(c1.m))
            if any(v) and _off_every_facet(cones, (1,) + v):
                yield v


def test_low_span_displacements_keep_the_cycle(intersections, monkeypatch):
    rng = ops.Rng(2016)
    cases = [(c1, c2, seed, want, cones, flags, v)
             for c1, c2, seed, want, ((cones, _, _, flags), _) in intersections
             for v in _low_span_vectors(c1, c2, cones, rng)][:MAX_VECTORS]
    assert len(intersections) > 50 and len(cases) > 200
    real_flags = ops._displacement_flags
    forced = None              # the case's vector, rebound by the loop below
    built = []                 # the build passes that got it

    def build_on_forced(cones, order, signs):
        # the check direction's leading sign is -1, the build direction's +1
        if signs[0] < 0:
            return real_flags(cones, order, signs)
        built.append(cones)
        return [c.contains_row((1,) + forced) for c in cones]

    monkeypatch.setattr(ops, "_displacement_flags", build_on_forced)
    flipped = 0
    for c1, c2, seed, want, cones, flags, forced in cases:
        built.clear()
        got = ops.stable_intersect(c1, c2, seed)
        assert len(built) == 1
        assert got._cache["displacement_redraws"] == 0
        assert got == want
        flipped += [c.contains_row((1,) + forced) for c in cones] != flags
    assert flipped > 0
