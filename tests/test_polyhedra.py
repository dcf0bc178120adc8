from fractions import Fraction

import pytest

from conftest import coords_in_rows, uninterned
from tropdeg.errors import DimensionMismatchError, EmptyPolyhedronError
from tropdeg.ops import Rng
from tropdeg.polyhedra import (Polyhedron, common_refinement, hyperplane_pool,
                               is_covered)


def test_unit_square_h_to_v():
    sq = Polyhedron.from_hrep(2, ineqs=[(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)])
    assert sq.dim == 2
    assert len(sq.vertices) == 4
    assert sq.rays == () and sq.lineality == ()


def test_halfplane_has_lineality():
    hp = Polyhedron.from_hrep(2, ineqs=[(0, 1, 0)])
    assert hp.rays == ((1, 0),)
    assert hp.lineality == ((0, 1),)
    assert hp.vertices == ((Fraction(0), Fraction(0)),)


def test_cone_v_to_h():
    c = Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1, 0), (0, 1)])
    assert set(c.ineqs) == {(0, 1, 0), (0, 0, 1)}
    assert c.eqs == ()


def test_redundant_generators_removed():
    p = Polyhedron.from_generators(1, vertices=[(0,), (1,), (Fraction(1, 2),)])
    assert p.vertices == ((Fraction(0),), (Fraction(1),))


def test_intersect_examples():
    a = Polyhedron.from_hrep(1, ineqs=[(0, 1)])
    b = Polyhedron.from_hrep(1, ineqs=[(0, -1)])
    point = a.intersect(b)
    assert point.vertices == ((Fraction(0),),) and point.dim == 0

    box = Polyhedron.from_hrep(2, ineqs=[(0, 1, 0), (0, 0, 1), (2, -1, 0), (2, 0, -1)])
    shifted = box.translate((1, 1))
    inter = box.intersect(shifted)
    assert inter.dim == 2
    assert set(inter.vertices) == {(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
                                   (Fraction(2), Fraction(1)), (Fraction(2), Fraction(2))}

    l1 = Polyhedron.from_hrep(2, eqs=[(0, 0, 1)])
    l2 = Polyhedron.from_hrep(2, eqs=[(-1, 0, 1)])
    assert l1.intersect(l2).is_empty

    with pytest.raises(DimensionMismatchError):
        a.intersect(box)


def test_vector_lengths_checked():
    for kwargs in ({"rays": [(1, 0, 0)]}, {"lineality": [(1, 0, 0)]},
                   {"rays": [(0, 0, 0)]}):
        with pytest.raises(DimensionMismatchError):
            Polyhedron.from_generators(2, [(0, 0)], **kwargs)
    point = Polyhedron.point((0, 0))
    for test in (point.contains, point.relint_contains):
        with pytest.raises(DimensionMismatchError):
            test((0, 0, 0))


def test_recession_cone():
    box = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0), (0, 1)])
    rec = box.recession_cone()
    assert rec.dim == 0 and rec.vertices == ((Fraction(0), Fraction(0)),)

    ray = Polyhedron.from_generators(2, vertices=[(1, 1)], rays=[(1, 0)])
    assert ray.recession_cone().rays == ((1, 0),)

    line = Polyhedron.from_generators(2, vertices=[(0, 1)], lineality=[(1, 1)])
    assert line.recession_cone().lineality == ((1, 1),)


def test_relative_interior_point():
    seg = Polyhedron.from_generators(1, vertices=[(0,), (1,)])
    assert seg.relative_interior_point() == (Fraction(1, 2),)

    cone = Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1, 0), (0, 1)])
    p = cone.relative_interior_point()
    assert cone.relint_contains(p)

    pt = Polyhedron.point((3, 4))
    assert pt.relative_interior_point() == (Fraction(3), Fraction(4))

    with pytest.raises(EmptyPolyhedronError):
        Polyhedron.empty(2).relative_interior_point()


def test_relint_deterministic():
    cone = Polyhedron.from_generators(3, vertices=[(0, 0, 0)],
                                      rays=[(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    assert cone.relative_interior_point() == cone.relative_interior_point()


def test_is_covered():
    p02 = Polyhedron.from_generators(1, vertices=[(0,), (2,)])
    p01 = Polyhedron.from_generators(1, vertices=[(0,), (1,)])
    p12 = Polyhedron.from_generators(1, vertices=[(1,), (2,)])
    assert is_covered(p02, [p01, p12])
    assert not is_covered(p02, [p01])
    assert not is_covered(p02, [])

    axis = Polyhedron.from_hrep(2, eqs=[(0, 0, 1)])
    upper = Polyhedron.from_hrep(2, ineqs=[(0, 0, 1)])
    lower = Polyhedron.from_hrep(2, ineqs=[(0, 0, -1)])
    assert is_covered(axis, [upper, lower])
    assert is_covered(p02, [p02])


def test_empty_is_first_class():
    e = Polyhedron.from_hrep(1, ineqs=[(0, 1), (-1, -1)])
    assert e.is_empty and e.dim == -1
    assert not e.contains((0,))
    assert e.intersect(Polyhedron.full_space(1)).is_empty


def test_faces_of_square():
    sq = Polyhedron.from_hrep(2, ineqs=[(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)])
    assert len(sq.facet_faces()) == 4
    assert len(sq.all_faces()) == 9   # itself + 4 edges + 4 vertices


def test_faces_of_linear_space():
    line = Polyhedron.from_generators(2, vertices=[(0, 0)], lineality=[(1, 0)])
    assert line.all_faces() == (line,)


def test_direction_basis_is_saturated():
    p = Polyhedron.from_generators(3, vertices=[(0, 0, 0)], rays=[(2, 2, 0)],
                                   lineality=[(0, 0, 3)])
    dirs = set(p.direction_basis())
    assert len(dirs) == 2
    assert coords_in_rows(sorted(dirs), (1, 1, 0)) is not None
    assert coords_in_rows(sorted(dirs), (0, 0, 1)) is not None


def test_translate_then_back():
    p = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0)], rays=[(0, 1)])
    q = p.translate((Fraction(3, 2), -1)).translate((Fraction(-3, 2), 1))
    assert q == p


def test_recession_cone_translation_invariant():
    rng = Rng(31)
    cases = [
        Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0)], rays=[(0, 1)]),
        Polyhedron.from_generators(3, vertices=[(0, 0, 0)], rays=[(1, 2, 0)],
                                   lineality=[(0, 0, 1)]),
        Polyhedron.from_hrep(2, ineqs=[(0, 1, 0), (1, -1, 1)]),
    ]
    for p in cases:
        for _ in range(5):
            v = rng.vector(p.m, num_bound=9, den_bound=4)
            assert p.translate(v).recession_cone() == p.recession_cone()


def test_product_matches_full_reconstruction():
    seg = Polyhedron.from_generators(1, vertices=[(0,), (1,)])
    ray = Polyhedron.from_generators(1, vertices=[(0,)], rays=[(1,)])
    prod = seg.product(ray)
    ref = Polyhedron.from_generators(
        2, vertices=[(0, 0), (1, 0)], rays=[(0, 1)])
    assert prod == ref
    assert prod.vertices == ref.vertices
    assert prod.rays == ref.rays


def test_linear_image():
    diag = Polyhedron.from_generators(2, vertices=[(0, 0)], lineality=[(1, 1)])
    img = diag.linear_image([(1, 0)], 1)
    assert img.dim == 1 and img.lineality == ((1,),)
    squash = diag.linear_image([(1, -1)], 1)
    assert squash.dim == 0


def test_linear_image_rejects_wrong_row_length():
    diag = Polyhedron.from_generators(2, vertices=[(0, 0)], lineality=[(1, 1)])
    for matrix in ([(1,)], [(1, 0, 0)], [(1, 0), (0,)]):
        with pytest.raises(DimensionMismatchError):
            diag.linear_image(matrix, len(matrix))


def test_roundtrip_membership_agreement():
    """H->V->H preserves membership on seeded rational points."""
    rng = Rng(99)
    cases = [
        Polyhedron.from_hrep(2, ineqs=[(0, 1, 0), (0, 0, 1), (3, -1, -1)]),
        Polyhedron.from_hrep(2, ineqs=[(1, 1, 2)], eqs=[(0, 1, -1)]),
        Polyhedron.from_hrep(3, ineqs=[(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0), (0, 1)]),
        Polyhedron.from_generators(3, vertices=[(0, 0, 0)], rays=[(1, 0, 0)],
                                   lineality=[(0, 1, 1)]),
    ]
    for poly in cases:
        rebuilt = Polyhedron.from_generators(poly.m, poly.vertices, poly.rays,
                                             poly.lineality)
        assert rebuilt == poly
        for _ in range(100):
            pt = rng.vector(poly.m, num_bound=6, den_bound=4)
            assert poly.contains(pt) == rebuilt.contains(pt)
        for v in poly.vertices:
            assert rebuilt.contains(v)


def test_dd_fuzz_membership_consistency():
    """Canonical polyhedra answer membership exactly like the raw input rows."""
    from conftest import eval_row, seeded_points

    rng = Rng(2718281)
    for trial in range(60):
        m = rng.randint(1, 3)
        ineqs = [tuple(rng.randint(-4, 4) for _ in range(m + 1))
                 for _ in range(rng.randint(1, 6))]
        eqs = [tuple(rng.randint(-3, 3) for _ in range(m + 1))
               for _ in range(rng.randint(0, 1))]
        poly = Polyhedron.from_hrep(m, ineqs=ineqs, eqs=eqs)

        def direct(pt):
            return (all(eval_row(r, pt) >= 0 for r in ineqs)
                    and all(eval_row(r, pt) == 0 for r in eqs))

        probes = seeded_points(trial, 30, m, num_bound=6, den_bound=3)
        if not poly.is_empty:
            probes += list(poly.vertices)
            probes.append(poly.relative_interior_point())
        else:
            # an empty canonical polyhedron must mean the rows are infeasible
            assert not any(direct(pt) for pt in probes)
        for pt in probes:
            assert poly.contains(pt) == direct(pt), (trial, pt)


def test_dd_fuzz_generator_side():
    """Points sampled from the generators always satisfy the derived H-rep."""
    rng = Rng(1618)
    for trial in range(40):
        m = rng.randint(1, 3)
        verts = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(m)) for _ in range(rng.randint(1, 3))]
        rays = [tuple(rng.randint(-3, 3) for _ in range(m))
                for _ in range(rng.randint(0, 2))]
        rays = [r for r in rays if any(r)]
        poly = Polyhedron.from_generators(m, verts, rays)
        for _ in range(20):
            # random convex combination plus non-negative ray multiples
            weights = [rng.randint(0, 4) for _ in verts]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            pt = tuple(sum(Fraction(w, total) * v[i] for w, v in zip(weights, verts))
                       for i in range(m))
            for r in rays:
                c = Fraction(rng.randint(0, 5), rng.randint(1, 2))
                pt = tuple(x + c * d for x, d in zip(pt, r))
            assert poly.contains(pt), (trial, pt)


def _random_generators(rng, m):
    verts = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m))
             for _ in range(rng.randint(1, 3))]
    rays = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(0, 2))]
    lin = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(0, 2))]
    return verts, [r for r in rays if any(r)], [l for l in lin if any(l)]


def test_translate_matches_from_generators():
    """Translating a polyhedron with lineality gives the polyhedron of the
    translated vertices: same key, same canonical vertex rows."""
    rng = Rng(5772)
    for trial in range(60):
        m = rng.randint(1, 4)
        verts, rays, lin = _random_generators(rng, m)
        poly = Polyhedron.from_generators(m, verts, rays, lin)
        v = rng.vector(m, 20, 5)
        # fresh pools, so neither result is the other's interned instance
        moved = uninterned(lambda: poly.translate(v))
        want = uninterned(lambda: Polyhedron.from_generators(
            m, [tuple(a + b for a, b in zip(x, v)) for x in poly.vertices],
            poly.rays, poly.lineality))
        assert moved.key == want.key, trial
        assert moved.vertex_rows == want.vertex_rows, trial


def test_plus_span_matches_from_generators():
    rng = Rng(1414)
    for trial in range(60):
        m = rng.randint(1, 4)
        verts, rays, lin = _random_generators(rng, m)
        poly = Polyhedron.from_generators(m, verts, rays, lin)
        span = [tuple(rng.randint(-2, 2) for _ in range(m))
                for _ in range(rng.randint(0, 2))]
        want = uninterned(lambda: Polyhedron.from_generators(
            m, poly.vertices, poly.rays, poly.lineality + tuple(span)))
        got = uninterned(lambda: poly.plus_span(span))
        assert (got.key, got.vertex_rows, got.rays, got.lineality) == \
               (want.key, want.vertex_rows, want.rays, want.lineality), trial
    with pytest.raises(DimensionMismatchError):
        poly.plus_span([(1,) * (m + 1)])


def test_common_refinement_overlap():
    a = Polyhedron.from_generators(1, vertices=[(0,), (2,)])
    b = Polyhedron.from_generators(1, vertices=[(1,), (3,)])
    cells = common_refinement([a, b])
    assert len(cells) == 3
    keys = {tuple(sorted(v[0] for v in c.vertices)) for c in cells}
    assert keys == {(0, 1), (1, 2), (2, 3)}


def _assert_refines(cells):
    """common_refinement(cells) is a complex with the union of the cells,
    and each piece is a cell of the arrangement of the input rows: every
    facet of a piece lies on an input hyperplane that does not contain the
    piece."""
    from tropdeg.cycles import BlockStructure, TropicalCycle, validate_complex

    pieces = common_refinement(cells)
    m, d = cells[0].m, cells[0].dim
    assert all(p.dim == d for p in pieces)
    complex_ = TropicalCycle(BlockStructure((m,)), [(p, 1) for p in pieces])
    assert validate_complex(complex_).ok
    assert all(is_covered(cell, pieces) for cell in cells)
    assert all(is_covered(piece, cells) for piece in pieces)
    pool = hyperplane_pool(cells)
    for p in pieces:
        for f in p.all_faces():
            if f.dim == d - 1:
                assert any(f.evaluate_signs(r) == (False, False)
                           and p.evaluate_signs(r) != (False, False) for r in pool)
    return pieces


def test_common_refinement_three_overlapping_cells():
    a = Polyhedron.from_generators(2, vertices=[(0, 0), (4, 0), (0, 4), (4, 4)])
    b = a.translate((2, 2))
    c = Polyhedron.from_generators(2, vertices=[(1, 1), (5, 1), (3, 5)])
    cells = [a, b, c]
    assert all(p.intersect(q).dim == 2 for p in cells for q in cells)
    assert len(_assert_refines(cells)) > 3


def test_common_refinement_cuts_with_carried_rows():
    # the piece [5,10]x[0,2] of the first square, cut by the third cell,
    # overlaps the piece [5,10]x[0,10] of the second square, which only
    # the first square's cut rows split
    def box(x0, x1, y0, y1):
        return Polyhedron.from_generators(
            2, vertices=[(x0, y0), (x1, y0), (x0, y1), (x1, y1)])

    _assert_refines([box(0, 10, 0, 10), box(5, 15, 0, 10), box(1, 4, 2, 3)])


def test_common_refinement_cells_in_different_planes():
    def triangle(*vertices):
        return Polyhedron.from_generators(3, vertices=vertices)

    crossing = [triangle((-2, -2, 0), (4, -2, 0), (-2, 4, 0)),
                triangle((0, -3, -3), (0, 3, -3), (0, 0, 3)),
                triangle((-3, 0, -2), (3, 0, -2), (0, 0, 4))]
    assert all(p.intersect(q).dim == 1 for p in crossing for q in crossing if p != q)
    assert len(_assert_refines(crossing)) > 3
    rng = Rng(1)
    for _ in range(12):
        cells = []
        while len(cells) < 3:
            p = triangle(*(tuple(rng.randint(-3, 3) for _ in range(3))
                           for _ in range(3)))
            if p.dim == 2:
                cells.append(p)
        _assert_refines(cells)


def test_common_refinement_already_complex():
    a = Polyhedron.from_generators(1, vertices=[(0,), (1,)])
    b = Polyhedron.from_generators(1, vertices=[(1,), (2,)])
    cells = common_refinement([a, b])
    assert sorted(c.key for c in cells) == sorted([a.key, b.key])
