from fractions import Fraction

import pytest

from conftest import fresh, refine_against
from tropdeg import cycles, fixtures
from tropdeg.cycles import (
    BlockStructure,
    TropicalCycle,
    WeightedFacet,
    check_balancing,
    codim1_faces,
    degree0,
    empty_cycle,
    product,
    recession_cycle,
    translate,
    validate_complex,
)
from tropdeg.errors import (
    DimensionMismatchError,
    InputError,
    InvalidComplexError,
    InvariantError,
    UnbalancedCycleError,
    WrongDimensionError,
)
from tropdeg.polyhedra import Polyhedron, is_covered


def line_cycle(m, direction, base=None, weight=1):
    base = base or (0,) * m
    p = Polyhedron.from_generators(m, vertices=[base], lineality=[direction])
    return TropicalCycle(BlockStructure((m,)), [WeightedFacet(p, weight)])


def test_block_sizes_must_be_integral():
    assert BlockStructure((Fraction(2), 1)).blocks == (2, 1)
    with pytest.raises(DimensionMismatchError):
        BlockStructure((1.5, 2))


@pytest.mark.parametrize("weight", [1.5, Fraction(3, 2), "x"])
def test_facet_weights_must_be_integral(weight):
    with pytest.raises(InvalidComplexError):
        WeightedFacet(Polyhedron.point((0, 0)), weight)


def test_facet_weights_are_normalized_to_ints():
    point = Polyhedron.point((0, 0))
    for weight in (Fraction(2), 2.0, True):
        facet = WeightedFacet(point, weight)
        assert type(facet.weight) is int and facet.weight == int(weight)
    # a fractional weight on the standard line would balance at the vertex
    line = fixtures.standard_line()
    with pytest.raises(InvalidComplexError):
        TropicalCycle(line.ambient, [(f.poly, Fraction(3, 2)) for f in line.facets])


def test_validate_passes_on_shared_edge():
    up = Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1, 0), (0, 1)])
    down = Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1, 0), (0, -1)])
    c = TropicalCycle(BlockStructure((2,)), [(up, 1), (down, 1)])
    assert validate_complex(c).ok


def test_validate_rejects_overlap():
    a = Polyhedron.from_generators(2, vertices=[(0, 0), (2, 0), (0, 2)])
    b = Polyhedron.from_generators(2, vertices=[(1, 1), (3, 1), (1, 3)])
    c = TropicalCycle(BlockStructure((2,)), [(a, 1), (b, 1)])
    report = validate_complex(c)
    assert not report.ok and report.bad_pairs == ((0, 1),)


def test_validate_rejects_impure():
    seg = Polyhedron.from_generators(2, vertices=[(5, 5), (6, 5)])
    tri = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0), (0, 1)])
    c = TropicalCycle(BlockStructure((2,)), [(seg, 1), (tri, 1)])
    report = validate_complex(c)
    assert not report.ok and not report.pure


def test_codim1_standard_line():
    records = codim1_faces(fixtures.standard_line())
    assert len(records) == 1
    rec = records[0]
    assert rec.face.dim == 0
    assert sorted(v for _, v in rec.incident) == [(-1, -1), (0, 1), (1, 0)]


def test_codim1_segment():
    seg = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0)])
    c = TropicalCycle(BlockStructure((2,)), [(seg, 1)])
    records = codim1_faces(c)
    assert len(records) == 2


def test_codim1_full_line_has_none():
    assert codim1_faces(line_cycle(2, (1, 0))) == ()


def test_balancing_standard_line_and_bad_weights():
    line = fixtures.standard_line()
    assert check_balancing(line).balanced
    facets = line.facets
    bad = TropicalCycle(line.ambient, [WeightedFacet(facets[0].poly, 1),
                                       WeightedFacet(facets[1].poly, 1),
                                       WeightedFacet(facets[2].poly, 2)])
    report = check_balancing(bad)
    assert not report.balanced and len(report.violations) == 1


def test_balancing_standard_plane():
    plane = fixtures.standard_plane()
    assert len(plane.support_facets) == 6
    assert check_balancing(plane).balanced


def test_codim1_requires_valid_complex():
    a = Polyhedron.from_generators(2, vertices=[(0, 0), (2, 0), (0, 2)])
    b = Polyhedron.from_generators(2, vertices=[(1, 1), (3, 1), (1, 3)])
    c = TropicalCycle(BlockStructure((2,)), [(a, 1), (b, 1)])
    with pytest.raises(InvalidComplexError):
        codim1_faces(c)


def test_degree0():
    assert degree0(empty_cycle(BlockStructure((2,)))) == 0
    pt = TropicalCycle(BlockStructure((1,)), [(Polyhedron.point((0,)), 3)])
    assert degree0(pt) == 3
    two = TropicalCycle(BlockStructure((1,)), [(Polyhedron.point((0,)), 1),
                                               (Polyhedron.point((1,)), 2)])
    assert degree0(two) == 3
    with pytest.raises(WrongDimensionError):
        degree0(fixtures.standard_line())


def test_translate():
    line = fixtures.standard_line()
    assert translate(line, (0, 0)) == line
    moved = translate(line, (1, 1))
    verts = {v for f in moved.support_facets for v in f.poly.vertices}
    assert verts == {(Fraction(1), Fraction(1))}
    assert check_balancing(fresh(moved)).balanced
    assert translate(moved, (-1, -1)) == line
    assert degree0(translate(two_points(), (5, 7))) == degree0(two_points())
    with pytest.raises(DimensionMismatchError):
        translate(line, (1, 2, 3))


def two_points():
    return TropicalCycle(BlockStructure((2,)), [(Polyhedron.point((0, 0)), 1),
                                                (Polyhedron.point((1, 2)), 2)])


def test_product():
    p2 = TropicalCycle(BlockStructure((1,)), [(Polyhedron.point((0,)), 2)])
    p3 = TropicalCycle(BlockStructure((1,)), [(Polyhedron.point((4,)), 3)])
    prod = product(p2, p3)
    assert degree0(prod) == 6
    assert prod.ambient.blocks == (1, 1)

    plane = product(line_cycle(1, (1,)), line_cycle(1, (1,)))
    assert plane.dim == 2 and len(plane.support_facets) == 1

    mixed = product(fixtures.standard_line(), line_cycle(1, (1,)))
    assert mixed.dim == 2 and len(mixed.support_facets) == 3
    assert check_balancing(fresh(mixed)).balanced


def test_product_dims_add():
    line = fixtures.standard_line()
    prod = product(line, line)
    assert prod.dim == line.dim + line.dim


def test_refine_against():
    seg = Polyhedron.from_generators(1, vertices=[(-1,), (1,)])
    c = TropicalCycle(BlockStructure((1,)), [(seg, 1)])
    refined = refine_against(c, [(1,)])
    assert len(refined.support_facets) == 2
    support_ok = is_covered(seg, [f.poly for f in refined.support_facets])
    assert support_ok

    line = fixtures.standard_line()
    missed = refine_against(line, [(1, 1)])
    assert check_balancing(fresh(missed)).balanced
    refined2 = refine_against(line, [(1, -1)])
    assert check_balancing(fresh(refined2)).balanced
    assert degree0(two_points()) == degree0(refine_against(two_points(), [(1, 0)]))


def test_refine_against_rejects_non_integral_covectors():
    line = fixtures.standard_line()
    for covector in ((Fraction(1, 2), 1), (1, 0.5)):
        with pytest.raises(InputError):
            refine_against(line, [covector])
    assert refine_against(line, [(Fraction(4, 2), 1.0)]) == refine_against(line, [(2, 1)])


def test_recession_of_fan_is_identity():
    line = fixtures.standard_line()
    assert recession_cycle(line) == line


def test_recession_of_translated_line():
    moved = translate(fixtures.standard_line(), (1, 1))
    assert recession_cycle(moved) == fixtures.standard_line()


def test_recession_scaled_line():
    c2 = fixtures.scaled_line(2)
    assert check_balancing(c2).balanced
    assert recession_cycle(c2) == c2


def test_recession_idempotent():
    mixed = product(translate(fixtures.standard_line(), (3, 5)), line_cycle(1, (1,)))
    rec = recession_cycle(mixed)
    again = recession_cycle(fresh(rec))
    assert again == rec
    assert check_balancing(fresh(rec)).balanced


def test_recession_rejects_unbalanced():
    facets = fixtures.standard_line().facets
    bad = TropicalCycle(BlockStructure((2,)), [WeightedFacet(facets[0].poly, 1),
                                               WeightedFacet(facets[1].poly, 1),
                                               WeightedFacet(facets[2].poly, 2)])
    with pytest.raises(UnbalancedCycleError):
        recession_cycle(bad)


def test_recession_output_check_is_an_invariant(monkeypatch):
    """An unbalanced recession fan of a balanced input is an internal
    failure, not an unbalanced input."""
    real_refined = cycles.refined_cycle

    def dropping_a_facet(ambient, pieces, weights):
        out = real_refined(ambient, pieces, weights)
        return TropicalCycle(ambient, out.facets[1:])

    monkeypatch.setattr(cycles, "refined_cycle", dropping_a_facet)
    with pytest.raises(InvariantError, match="recession cycle"):
        recession_cycle(translate(fixtures.standard_line(), (1, 1)))


def test_zero_weight_facets_ignored():
    line = fixtures.standard_line()
    padded = TropicalCycle(line.ambient, list(line.facets) +
                           [WeightedFacet(Polyhedron.point((9, 9)), 0)])
    assert padded.dim == 1
    assert check_balancing(padded).balanced
