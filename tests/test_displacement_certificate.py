"""The displacement certificate against a stronger genericity condition.

``ops.stable_intersect`` redraws a displacement vector only when it lies on
a facet hyperplane of a candidate cone.  On the stable intersections that
generator seeds 0-59 and all their multidegrees run, vectors inside a
proper span ``Lin(F) + Lin(F')`` of a face pair of meeting facets
(``low_face_spans``, a condition the step does not check) but on no cone
facet are forced as the first draw of both passes.  Each must be accepted
and give the cycle of the seed's own draw, also where it flips a
candidate's flag.
"""

import pytest

from conftest import low_face_spans
from tropdeg import fixtures, ops
from tropdeg import multidegree as md
from tropdeg.multidegree import multidegree, type_vectors

SEEDS = range(60)
#: vectors drawn in each low span: 540 lie on no cone facet, and 86 of them
#: flip a flag; the replay takes about 2 s
DRAWS_PER_SPAN = 2
MAX_VECTORS = 800


@pytest.fixture(scope="module")
def intersections():
    """(c1, c2, seed, cycle, cones, flags of the seed's pass) of every stable
    intersection with a candidate pair that the seeds run."""
    passes = []                # (cones, flags) of every displacement pass
    recorded = []

    def record_flags(cones, m, seed):
        flags, redraws = real_flags(cones, m, seed)
        passes.append((cones, flags))
        return flags, redraws

    def record(c1, c2, seed=0):
        first = len(passes)
        out = real_intersect(c1, c2, seed)
        if first < len(passes) and passes[first][0]:
            recorded.append((c1, c2, seed, out, *passes[first]))
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
             for c1, c2, seed, want, cones, flags in intersections
             for v in _low_span_vectors(c1, c2, cones, rng)][:MAX_VECTORS]
    assert len(intersections) > 50 and len(cases) > 200
    real_vector = ops.Rng.vector
    forced = None              # the case's vector, rebound by the loop below
    served = []                # the streams that got it as their first draw

    def first_forced(stream, m, *args):
        if any(s is stream for s in served):
            return real_vector(stream, m, *args)
        served.append(stream)
        return forced

    monkeypatch.setattr(ops.Rng, "vector", first_forced)
    flipped = 0
    for c1, c2, seed, want, cones, flags, forced in cases:
        served.clear()
        got = ops.stable_intersect(c1, c2, seed)
        assert len(served) == 2
        assert got._cache["displacement_redraws"] == 0
        assert got == want
        flipped += [c.contains_row((1,) + forced) for c in cones] != flags
    assert flipped > 0
