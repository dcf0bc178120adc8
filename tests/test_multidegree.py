from fractions import Fraction
import contextlib
import gc
import io
import itertools
import json
from types import SimpleNamespace

import pytest

from conftest import (ROOT, chain_power, derived_seed, fixture_path, fresh,
                      iterated_multidegree, transverse_degree_oracle)
from tropdeg import cli, cycfile, fixtures, linalg, ops
from tropdeg.cycles import (
    BlockStructure,
    TropicalCycle,
    WeightedFacet,
    check_balancing,
    degree0,
    product,
    recession_cycle,
    translate,
    validate_complex,
)
from tropdeg.errors import (BadBlockIndexError, DimensionMismatchError,
                            InputError, InvalidComplexError,
                            NonPositiveDivisorError, SeedDependenceError,
                            TypeMismatchError)
from tropdeg.multidegree import (
    DivisorSet,
    _check_type,
    check_submodular,
    divisor_power,
    exchange_property,
    facet_witness,
    msupp,
    multidegree,
    positivity_criterion,
    pullback,
    rank_function,
    standard_hyperplane,
    type_vectors,
)
from tropdeg.ops import Rng, stable_intersect, tropical_hyperplane
from tropdeg.polyhedra import Polyhedron


def diagonal():
    p = Polyhedron.from_generators(2, [(0, 0)], lineality=[(1, 1)])
    return TropicalCycle(BlockStructure((1, 1)), [WeightedFacet(p, 1)])


def full(blocks):
    b = BlockStructure(blocks)
    return TropicalCycle(b, [WeightedFacet(Polyhedron.full_space(b.m), 1)])


def test_multidegree_diagonal():
    assert multidegree(diagonal(), (1, 0), seed=5) == 1
    assert multidegree(diagonal(), (0, 1), seed=6) == 1


def test_multidegree_diagonal_matches_oracle():
    d = diagonal()
    lam = translate(tropical_hyperplane([0, 0]), (3,))
    pb = pullback(lam, 1, d.ambient)
    assert transverse_degree_oracle(d, pb) == 1


def test_multidegree_full_space_is_one():
    assert multidegree(full((2, 1)), (2, 1), seed=1) == 1
    assert multidegree(full((1, 1)), (1, 1), seed=2) == 1


def test_multidegree_example33a_zero():
    assert multidegree(fixtures.example33a(), (1, 1), seed=3) == 0


def test_multidegree_example33b_zero():
    assert multidegree(fixtures.example33b(), (1, 0, 1), seed=4) == 0


def test_multidegree_type_checks():
    with pytest.raises(TypeMismatchError):
        multidegree(diagonal(), (1, 1), seed=0)       # sums to 2, dim is 1
    with pytest.raises(TypeMismatchError):
        multidegree(diagonal(), (2, -1), seed=0)
    with pytest.raises(TypeMismatchError):
        multidegree(full((1, 1)), (2, 0), seed=0)     # n_1 > m_1


def test_type_vector_must_be_integral():
    line = fixtures.standard_line()
    for n in ((1.5,), (Fraction(3, 2),), ("one",)):
        with pytest.raises(TypeMismatchError):
            _check_type(line, n)
    assert _check_type(line, (1.0,)) == _check_type(line, (Fraction(2, 2),)) == (1,)


def test_multidegree_rejects_nonpositive_divisor():
    flat = TropicalCycle(BlockStructure((2,)),
                         [(Polyhedron.from_hrep(2, eqs=[(0, 1, 0)]), 1)])
    divs = DivisorSet(BlockStructure((2,)), (flat,))
    with pytest.raises(NonPositiveDivisorError):
        multidegree(fixtures.standard_line(), (1,), divs, seed=0)


def test_divisor_positivity_is_checked_once(monkeypatch):
    """``is_positive_divisor`` memoizes its verdict on the divisor: a second
    validation of the standard divisors costs no ``rank``."""
    blocks = BlockStructure((2, 1, 3))
    divs = DivisorSet.standard(blocks)
    divs.validate(blocks)
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(rows) or rank(rows))
    divs.validate(blocks)
    multidegree(fixtures.standard_line(), (1,), seed=0)
    assert ranks == []
    # a fresh copy of a divisor is checked again
    assert ops.is_positive_divisor(fresh(divs.divisors[0])) == (True, None)
    assert len(ranks) == 1


def test_nonpositive_divisor_raises_the_same_witness_every_call(tmp_path):
    flat = TropicalCycle(BlockStructure((2,)),
                         [(Polyhedron.from_hrep(2, eqs=[(0, 1, 0)]), 1)])
    divs = DivisorSet(BlockStructure((2,)), (flat,))
    for _ in range(3):
        with pytest.raises(NonPositiveDivisorError,
                           match=r"^divisor 1 is not positive \(witness line \(0, 1\)\)$"):
            divs.validate(divs.blocks)
    path = tmp_path / "flat.cyc"
    cycfile.save(path, flat)
    argv = ["multidegree", str(fixture_path("standard_line")), "--type", "1",
            "--divisor", f"1:{path}"]
    reports = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 2
        reports.append(json.loads(out.getvalue()))
    assert reports[0] == reports[1]
    assert reports[0]["error"] == "divisor 1 is not positive (witness line (0, 1))"


def test_rank_function():
    ranks = rank_function(fixtures.example33b())
    assert ranks.rank([1]) == 2
    assert ranks.rank([3]) == 1
    assert ranks.rank([1, 3]) == 2
    assert ranks.rank([3, 1, 3]) == 2
    assert ranks.rank([]) == 0
    assert rank_function(fixtures.example33a()).rank((1, 1)) == 2
    assert ranks.rank([1, 2, 3]) == fixtures.example33b().dim

    full_ranks = rank_function(full((2, 2)))
    assert full_ranks.rank([1]) == 2 and full_ranks.rank([1, 2]) == 4

    pt = TropicalCycle(BlockStructure((1, 1)), [(Polyhedron.point((0, 0)), 1)])
    pt_ranks = rank_function(pt)
    assert all(r == 0 for _, r in pt_ranks.table)


@pytest.mark.parametrize("name", sorted(fixtures.CORPUS))
def test_rank_table_follows_the_block_subsets(name):
    cycle = fixtures.CORPUS[name]()
    keys = tuple(s for s, _ in rank_function(cycle).table)
    assert keys == ((),) + tuple(cycle.ambient.subsets())


NUMERIC_STRINGS = {
    "block_range": (DimensionMismatchError,
                    lambda: BlockStructure((2, 1)).block_range("1")),
    "coords_of": (DimensionMismatchError,
                  lambda: BlockStructure((2, 1)).coords_of(["2"])),
    "projection_dim": (BadBlockIndexError,
                       lambda: ops.projection_dim(fixtures.example33a(), ["1"])),
    "type_vector": (TypeMismatchError,
                    lambda: positivity_criterion(fixtures.example33b(), ("1", "0", "1"))),
    "exponent": (TypeMismatchError,
                 lambda: divisor_power(standard_hyperplane(2), "2")),
    "seed": (InputError,
             lambda: stable_intersect(fixtures.standard_line(),
                                      fixtures.standard_line(), seed="3")),
    "facet_weight": (InvalidComplexError,
                     lambda: WeightedFacet(Polyhedron.point((0,)), "2")),
    "block_size": (DimensionMismatchError, lambda: BlockStructure(("2",))),
    # the rational entry points: vertices, translations, coefficients
    "vertex": (InputError, lambda: Polyhedron.from_generators(2, [("1", 0)])),
    "point": (InputError, lambda: Polyhedron.point(("1", 0))),
    "cycle_translation": (InputError, lambda: translate(fixtures.standard_line(), ["1", 2])),
    "translation": (InputError, lambda: Polyhedron.point([1, 0]).translate(["x", 0])),
    "containment": (InputError, lambda: Polyhedron.point([1, 0]).contains(["1", 0])),
    "coefficients": (InputError, lambda: tropical_hyperplane(["1/2", 0, 0])),
    # the integer-row entry points: rays, constraint rows, span vectors
    "ray": (InputError, lambda: Polyhedron.from_generators(2, [(0, 0)], rays=[("1", 0)])),
    "constraint_row": (InputError, lambda: Polyhedron.from_hrep(1, ineqs=[("1", True)])),
    "span_vector": (InputError, lambda: Polyhedron.point([0, 0]).plus_span([("1", 0)])),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_STRINGS))
def test_numeric_strings_are_not_numbers(case):
    """A string that ``Fraction`` would parse is refused like any other
    non-number, with the error class of the argument it was passed as."""
    error, call = NUMERIC_STRINGS[case]
    with pytest.raises(error, match="is not numeric"):
        call()


BOOLEANS = {
    "projection_dim": (BadBlockIndexError,
                       lambda: ops.projection_dim(fixtures.example33a(), [True])),
    "block_size": (DimensionMismatchError, lambda: BlockStructure((True, 2))),
    "type_vector": (TypeMismatchError,
                    lambda: positivity_criterion(fixtures.example33b(),
                                                 (True, False, True))),
    "facet_weight": (InvalidComplexError,
                     lambda: WeightedFacet(Polyhedron.point((0,)), True)),
    "vertex": (InputError, lambda: Polyhedron.from_generators(2, [(True, 0)])),
    "cycle_translation": (InputError,
                          lambda: translate(fixtures.standard_line(), [False, 2])),
    "coefficients": (InputError, lambda: tropical_hyperplane([True, 0])),
    "lineality": (InputError,
                  lambda: Polyhedron.from_generators(2, [(0, 0)], lineality=[(True, 0)])),
    "constraint_row": (InputError, lambda: Polyhedron.from_hrep(1, eqs=[(1, True)])),
    "span_vector": (InputError, lambda: Polyhedron.point([0, 0]).plus_span([(0, False)])),
}


@pytest.mark.parametrize("case", sorted(BOOLEANS))
def test_booleans_are_not_numbers(case):
    """``True`` and ``False`` are refused although ``Fraction`` takes them
    for 1 and 0, as ``cycfile.parse_int`` refuses them, with the error
    class of the argument they were passed as."""
    error, call = BOOLEANS[case]
    with pytest.raises(error, match="is not numeric"):
        call()


SCALARS = {
    "point": (InputError, lambda: Polyhedron.point(5)),
    "vertex": (InputError, lambda: Polyhedron.from_generators(2, vertices=[1])),
    "translation": (InputError, lambda: Polyhedron.point((0, 0)).translate(3)),
    "coefficients": (InputError, lambda: tropical_hyperplane(3)),
    "span_vector": (InputError,
                    lambda: ops.minkowski_sum_subspace(fixtures.standard_line(), [1, 0])),
    "matrix_row": (InputError, lambda: Polyhedron.point((0, 0)).linear_image([1, 0])),
    "pushforward_matrix_row": (InputError, lambda: ops.pushforward_linear(
        fixtures.standard_line(), [1, 0], BlockStructure((2,)))),
    "frac_vec": (InputError, lambda: linalg.frac_vec(3)),
    "integral_row": (InputError, lambda: linalg.integral_row(3, InputError, "x")),
    "block_sizes": (DimensionMismatchError, lambda: BlockStructure(3)),
    # a scalar in place of a list of vectors
    "vertices": (InputError, lambda: Polyhedron.from_generators(2, vertices=5)),
    "constraint_rows": (InputError, lambda: Polyhedron.from_hrep(2, ineqs=5)),
    "matrix": (InputError, lambda: Polyhedron.point((0, 0)).linear_image(5)),
    "span_vectors": (InputError,
                     lambda: ops.minkowski_sum_subspace(fixtures.standard_line(), 5)),
    "pushforward_matrix": (InputError, lambda: ops.pushforward_linear(
        fixtures.standard_line(), 5, BlockStructure((2,)))),
}


@pytest.mark.parametrize("case", sorted(SCALARS))
def test_scalars_are_not_vectors(case):
    """A scalar passed where a vector belongs raises the error class of
    the argument it was passed as, not a bare ``TypeError``."""
    error, call = SCALARS[case]
    with pytest.raises(error, match="is not a vector"):
        call()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 1j])
def test_non_finite_entries_are_not_numbers(value):
    """The rational entry points raise ``InputError``, not the bare
    ``OverflowError``, ``ValueError`` or ``TypeError`` of ``Fraction``;
    finite floats are taken exactly."""
    for call in (lambda: tropical_hyperplane([value, 1]),
                 lambda: Polyhedron.from_generators(2, [(value, 0)]),
                 lambda: Polyhedron.point([1, 0]).translate([value, 0]),
                 lambda: Polyhedron.from_generators(2, [(0, 0)], rays=[(value, 0)]),
                 lambda: Polyhedron.from_hrep(1, ineqs=[(value, 1)]),
                 lambda: Polyhedron.point([0, 0]).plus_span([(0, value)])):
        with pytest.raises(InputError, match="is not numeric"):
            call()
    assert Polyhedron.point([0.5, 0]).vertices == ((Fraction(1, 2), Fraction(0)),)
    assert Polyhedron.from_generators(2, [(0, 0)], rays=[(0.5, Fraction(1, 4))]).rays \
        == ((2, 1),)


def test_positivity_criterion():
    res = positivity_criterion(diagonal(), (1, 0))
    assert res.holds and res.facet_witness is not None

    block_pt = TropicalCycle(BlockStructure((1, 1)),
                             [(Polyhedron.from_generators(2, [(0, 0)], lineality=[(0, 1)]), 1)])
    res = positivity_criterion(block_pt, (1, 0))
    assert not res.holds and res.violating_subset == (1,)


def test_criterion_caveat_on_example33a():
    g = fixtures.example33a()
    res = positivity_criterion(g, (1, 1))
    assert res.holds                      # ranks satisfy the bound
    assert multidegree(g, (1, 1), seed=7) == 0   # yet the degree vanishes
    assert "translation-admissible" in res.caveat
    assert res.facet_witness is None      # no single facet witnesses it


def test_necessity_direction_on_examples():
    """criterion false => multidegree zero, admissible or not."""
    for cyc, seed in ((fixtures.example33a(), 11), (fixtures.example33b(), 12)):
        ranks = rank_function(cyc)
        for n in type_vectors(cyc):
            res = positivity_criterion(cyc, n, ranks)
            if not res.holds:
                assert multidegree(cyc, n, seed=seed) == 0


def test_msupp_full_space():
    assert msupp(full((2, 1))) == {(2, 1)}


def test_msupp_diagonal():
    assert msupp(diagonal()) == {(1, 0), (0, 1)}
    assert msupp(diagonal(), mode="bruteforce", seed=3) == {(1, 0), (0, 1)}


def test_msupp_example33a_divergence():
    g = fixtures.example33a()
    assert msupp(g) == {(1, 1), (2, 0), (0, 2)}
    assert msupp(g, mode="bruteforce", seed=5) == {(2, 0), (0, 2)}


def test_check_submodular():
    assert check_submodular(rank_function(full((2, 2))))[0]
    assert check_submodular(rank_function(diagonal()))[0]

    from tropdeg.multidegree import RankFunction
    broken = RankFunction(2, (((), 0), ((1,), 1), ((2,), 1), ((1, 2), 3)))
    ok, witness = check_submodular(broken)
    assert not ok and witness == ((1,), (2,))


def test_exchange_property():
    assert exchange_property({(1, 0), (0, 1)})
    assert exchange_property([[1, 0], [0, 1]])
    assert exchange_property({(2, 0), (1, 1), (0, 2)})
    assert not exchange_property({(2, 0), (0, 2)})   # the example33a bruteforce set


def test_facet_witness():
    f = facet_witness(full((2, 1)), (2, 1))
    assert f is not None and f.poly.dim == 3

    prod = product(fixtures.standard_line(), fixtures.standard_line(),
                   blocks=BlockStructure((2, 2)))
    f = facet_witness(prod, (1, 1))
    assert f is not None

    assert facet_witness(fixtures.example33a(), (1, 1)) is None


def test_facet_witness_implies_criterion():
    cases = [(full((2, 1)), (2, 1)), (diagonal(), (1, 0)), (diagonal(), (0, 1))]
    for cyc, n in cases:
        if facet_witness(cyc, n) is not None:
            assert positivity_criterion(cyc, n).holds


def test_divisor_choice_invariance():
    """Positivity of the multidegree does not depend on the positive divisor.

    Every value is also checked against the iterated chain of intersections.
    """
    g = diagonal()
    custom = DivisorSet(g.ambient, (tropical_hyperplane([1, -1]),
                                    tropical_hyperplane([0, 2])))
    for n in ((1, 0), (0, 1)):
        assert _agree(g, n, seed=8) == _agree(g, n, custom, seed=9) == 1

    prod = product(fixtures.standard_line(), fixtures.standard_line(),
                   blocks=BlockStructure((2, 2)))
    coord = DivisorSet(prod.ambient, (fixtures.coordinate_hyperplanes(2),
                                      fixtures.coordinate_hyperplanes(2)))
    shifted = DivisorSet(prod.ambient, (tropical_hyperplane([0, 1, -2]),
                                        tropical_hyperplane([3, 0, 1])))
    for n in type_vectors(prod):
        values = [_agree(prod, n, divs, seed=s)
                  for divs, s in ((None, 10), (coord, 11), (shifted, 12))]
        assert (values[0] > 0) == (values[1] > 0) == (values[2] > 0)
    assert _agree(prod, (1, 1), coord, seed=13) == 4


def test_divisor_replacement_checks_the_block_index():
    blocks = BlockStructure((1, 2))
    divs = DivisorSet.standard(blocks)
    custom = tropical_hyperplane([0, 1, -2])
    assert divs.replaced(2, custom).divisors == (divs.divisors[0], custom)
    for i in (0, -1, 3, 1.5):
        with pytest.raises(BadBlockIndexError):
            divs.replaced(i, custom)


def test_divisor_set_must_fit_the_cycle(monkeypatch):
    """A divisor set with a divisor missing, or over other blocks, is refused
    before any intersection, with a message naming the set."""
    generated = fixtures.generate_admissible(0)
    short = DivisorSet(generated.ambient, (standard_hyperplane(1),))
    ex33a = fixtures.example33a()
    other_blocks = DivisorSet.standard(BlockStructure((1, 1)))
    monkeypatch.setattr(ops, "stable_intersect", None)
    for cycle, n, divs in ((generated, (0, 1), short),
                           (ex33a, type_vectors(ex33a)[0], other_blocks)):
        with pytest.raises(DimensionMismatchError, match="divisor set"):
            multidegree(cycle, n, divs)


def test_divisor_of_the_wrong_dimension_is_a_dimension_mismatch():
    """A divisor that does not live in its block's space is a dimension
    mismatch, not a non-positive divisor."""
    blocks = BlockStructure((2,))
    divs = DivisorSet(blocks, (standard_hyperplane(1),))
    message = r"divisor 1 lives in R\^1, block has R\^2"
    with pytest.raises(DimensionMismatchError, match=message):
        divs.validate(blocks)
    with pytest.raises(DimensionMismatchError, match=message):
        multidegree(fixtures.standard_line(), (1,), divs)


def test_pullback_checks_block_and_divisor():
    blocks = BlockStructure((2, 1))
    plane = standard_hyperplane(2)
    assert pullback(plane, 1, blocks).ambient == blocks
    # one block too: the divisor over (1, 1) is pulled back to R^2 as one block
    one = pullback(fixtures.diagonal_11(), 1, BlockStructure((2,)))
    assert one.ambient == BlockStructure((2,))
    assert one.support_facets == fixtures.diagonal_11().support_facets
    for b in (0, 3, -1, 1.5, Fraction(3, 2)):
        with pytest.raises(BadBlockIndexError):
            pullback(plane, b, blocks)
    with pytest.raises(DimensionMismatchError, match="block 2"):
        pullback(plane, 2, blocks)


def test_divisor_power_checks_the_exponent():
    """A ``bool`` raises, though ``True == 1``."""
    h = standard_hyperplane(2)
    with pytest.raises(TypeMismatchError, match="is not numeric"):
        divisor_power(h, True)
    assert divisor_power(h, 1.0) is divisor_power(h, 1) is h
    for n in (-1, -5, 1.5, Fraction(1, 2), True, False, [1], {}):
        with pytest.raises(TypeMismatchError):
            divisor_power(h, n)


def test_type_vectors_enumeration():
    assert set(type_vectors(full((2, 1)))) == {(2, 1)}
    assert set(type_vectors(diagonal())) == {(1, 0), (0, 1)}


def _type_vectors_oracle(blocks, dim):
    """The hand-written recursion ``type_vectors`` replaced."""
    if dim is None:
        return []

    def rec(i, remaining):
        if i == len(blocks) - 1:
            if remaining <= blocks[i]:
                yield (remaining,)
            return
        for v in range(min(remaining, blocks[i]) + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    return list(rec(0, dim))


def test_type_vectors_order_is_pinned():
    """Same list, same order as the recursion, on all 738 (blocks, dim)
    cases with at most 3 blocks of size at most 4, dim None included."""
    cases = 0
    for k in (1, 2, 3):
        for blocks in itertools.product(range(1, 5), repeat=k):
            for dim in [None, *range(sum(blocks) + 1)]:
                stand_in = SimpleNamespace(dim=dim, ambient=BlockStructure(blocks))
                assert type_vectors(stand_in) == _type_vectors_oracle(blocks, dim)
                cases += 1
    assert cases == 738
    assert type_vectors(fixtures.example33b()) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert type_vectors(diagonal()) == [(0, 1), (1, 0)]


def test_pullback_carries_marks():
    lam = translate(tropical_hyperplane([0, 0, 0]), (1, 2))
    assert check_balancing(lam).balanced
    pb = pullback(lam, 2, BlockStructure((1, 2)))
    assert pb._cache["valid"].ok and pb._cache["balance"].balanced
    assert validate_complex(fresh(pb)).ok
    assert check_balancing(fresh(pb)).balanced

    unchecked = pullback(fresh(tropical_hyperplane([0, 0, 0])), 2, BlockStructure((1, 2)))
    assert "valid" not in unchecked._cache and "balance" not in unchecked._cache


def _marks(cycle):
    return (getattr(cycle._cache.get("valid"), "ok", None),
            getattr(cycle._cache.get("balance"), "balanced", None))


def _nested(parts, blocks):
    """The product of ``parts`` over ``blocks`` by binary products folded
    from the left, only the last one reblocked; one part stays as it is."""
    out = parts[0]
    for i, part in enumerate(parts[1:], 2):
        out = product(out, part, blocks=blocks if i == len(parts) else None)
    return out


def _same_product(parts, blocks):
    flat, nested = product(*parts, blocks=blocks), _nested(parts, blocks)
    assert flat.ambient == blocks
    assert (flat.key, flat.ambient, _marks(flat)) == \
           (nested.key, nested.ambient, _marks(nested))
    return flat


def test_nary_product_matches_nested_binary_products():
    """``L_n`` for every type vector of generator seeds 0-59, the pullback
    of each standard hyperplane, and products of shipped fixtures."""
    for s in range(60):
        cycle = fixtures.generate_admissible(s)
        blocks = cycle.ambient
        divs = DivisorSet.standard(blocks).divisors
        for n in type_vectors(cycle):
            lin = _same_product([divisor_power(d, e) for d, e in zip(divs, n)], blocks)
            assert _marks(lin) == (True, True)
        for i, d in enumerate(divs, 1):
            parts = [d if j == i else divisor_power(e, 0) for j, e in enumerate(divs, 1)]
            assert pullback(d, i, blocks) == _same_product(parts, blocks)

    line, diag, lines = fixtures.standard_line(), fixtures.diagonal_11(), fixtures.parallel_lines()
    check_balancing(line)
    for blocks in (BlockStructure((2, 1, 1, 2)), BlockStructure((6,)), BlockStructure((3, 3))):
        _same_product([line, diag, lines], blocks)
    assert product(line, diag, lines) == product(product(line, diag), lines)
    for kwargs in ({}, {"blocks": BlockStructure((1,))}):
        with pytest.raises(DimensionMismatchError):
            product(**kwargs)
    with pytest.raises(DimensionMismatchError):
        product(line, diag, blocks=BlockStructure((2, 1)))


def test_standard_divisors_built_once():
    a = DivisorSet.standard(BlockStructure((2, 1)))
    b = DivisorSet.standard(BlockStructure((1, 2)))
    assert a.divisors[0] is b.divisors[1] and a.divisors[1] is b.divisors[0]
    assert a.divisors[0] == tropical_hyperplane([0, 0, 0])


def test_divisor_power():
    line = fixtures.standard_line()
    assert divisor_power(line, 0).support_facets[0].poly == Polyhedron.full_space(2)
    assert divisor_power(line, 1) == line
    point = divisor_power(line, 2)
    assert point.dim == 0 and degree0(point) == 1
    assert divisor_power(fixtures.standard_line(), 2) is point
    assert degree0(divisor_power(fixtures.coordinate_hyperplanes(2), 2)) == 2
    assert degree0(divisor_power(fixtures.standard_plane(), 3)) == 1
    for power in (divisor_power(line, 0), point):
        assert power._cache["valid"].ok and power._cache["balance"].balanced
        assert validate_complex(fresh(power)).ok
        assert check_balancing(fresh(power)).balanced


def test_divisor_power_continues_from_the_cached_power(monkeypatch):
    """With Lambda^2 memoized on the divisor, Lambda^3 is one more stable
    intersection."""
    plane = fixtures.coordinate_hyperplanes(3)
    square = divisor_power(plane, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = ops.stable_intersect
    monkeypatch.setattr(ops, "stable_intersect", counting)
    cube = divisor_power(plane, 3)
    assert calls == [(square, plane)]
    assert cube.dim == 0 and degree0(cube) == 6


@pytest.mark.parametrize("b", range(1, 6))
def test_standard_powers_match_the_chain(b):
    """The closed-form powers of the standard hyperplane in R^b are the
    chain's cycles, with its valid and balanced verdicts; past n = b both
    are empty."""
    h = standard_hyperplane(b)
    for n in range(b + 2):
        power, chain = divisor_power(h, n), chain_power(h, n)
        assert (power.key, power.ambient) == (chain.key, chain.ambient)
        assert power.is_empty == (n > b)
        if n <= b:
            assert _marks(power) == _marks(chain) == (True, True)


@pytest.mark.parametrize("b", range(1, 6))
def test_translated_hyperplane_powers_match_the_chain(b):
    """Powers 2 to b + 1 of hyperplanes with rational apexes, in closed
    form, are the chain's cycles, with its valid and balanced verdicts;
    past n = b both are empty."""
    rng = Rng(3301 + b)
    for _ in range(4):
        h = tropical_hyperplane(rng.vector(b + 1, num_bound=40, den_bound=6))
        for n in range(2, b + 2):
            power, chain = divisor_power(h, n), chain_power(h, n)
            assert (power.key, power.ambient) == (chain.key, chain.ambient)
            assert power.is_empty == (n > b)
            if n <= b:
                assert _marks(power) == _marks(chain) == (True, True)


def test_only_other_divisors_take_the_chain(monkeypatch):
    """Tropical hyperplanes, standard or translated, also read from a
    file, need no stable intersection for any power; other divisors take
    n - 1 of them for Lambda^n."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = ops.stable_intersect
    monkeypatch.setattr(ops, "stable_intersect", counting)
    # fresh copies of the cached standard hyperplanes, with no powers memoized
    standard = [fresh(standard_hyperplane(b)) for b in range(1, 5)]
    standard += [cycfile.load(fixture_path(name)) for name in ("standard_line", "standard_plane")]
    standard += [tropical_hyperplane([0, 1, 2, 3]), tropical_hyperplane([Fraction(1, 2), -3, 0]),
                 cycfile.load(ROOT / "tests" / "translated_line.cyc")]
    for divisor in standard:
        for n in range(divisor.m + 2):
            divisor_power(divisor, n)
    assert calls == []
    for divisor in (fixtures.coordinate_hyperplanes(3), fixtures.coordinate_hyperplanes(2),
                    fixtures.scaled_line(2)):
        calls.clear()
        power = divisor_power(divisor, divisor.m)
        assert len(calls) == divisor.m - 1
        assert power == chain_power(divisor, divisor.m)


def test_divisor_powers_live_on_their_divisor():
    """Powers are memoized on their divisor and freed with it: building 40
    translated ``coordinate_hyperplanes(2)`` and their squares, then
    dropping them, leaves no more ``TropicalCycle`` alive than before."""
    def live_cycles():
        gc.collect()
        return sum(isinstance(o, TropicalCycle) for o in gc.get_objects())

    base = fixtures.coordinate_hyperplanes(2)
    standard_hyperplane(2)      # cached once; the closed-form test reads it
    before = live_cycles()
    for a in range(1, 41):
        divisor = translate(base, (a, 0))
        square = divisor_power(divisor, 2)
        assert degree0(square) == 2 and divisor_power(divisor, 2) is square
    del divisor, square
    assert live_cycles() == before


# --- differential tests against the iterated chain of intersections --------

def test_derived_seed_must_be_integral():
    """The oracle's second seed rejects non-integral seeds like ``Rng``."""
    for seed in (1.5, Fraction(3, 2), "x"):
        with pytest.raises(InputError):
            derived_seed(seed, 101)
    assert derived_seed(Fraction(3), 101) == derived_seed(3, 101)


def _agree(cycle, n, divs=None, seed=0):
    value = multidegree(cycle, n, divs, seed=seed)
    assert value == iterated_multidegree(cycle, n, divs, seed=seed), (cycle, n)
    return value


def test_matches_iterated_on_examples():
    for cyc, seed in ((fixtures.example33a(), 11), (fixtures.example33b(), 12)):
        for n in type_vectors(cyc):
            _agree(cyc, n, seed=seed)


def test_matches_iterated_on_generated_cycles():
    for seed in range(20):
        cycle = fixtures.generate_admissible(seed)
        for n in type_vectors(cycle):
            _agree(cycle, n, seed=seed)


def test_invariant_under_translation_and_recession():
    """A multidegree is the degree of a stable intersection with a fan, so
    it does not change when the cycle is translated by a rational vector or
    replaced by its recession fan."""
    items = positive = 0
    for seed in range(20):
        cycle = fixtures.generate_admissible(seed)
        shift = ops.Rng(seed).vector(cycle.m, num_bound=7, den_bound=3)
        moved = (translate(cycle, shift), recession_cycle(cycle))
        for n in type_vectors(cycle):
            want = multidegree(cycle, n, seed=seed)
            assert [multidegree(c, n, seed=seed) for c in moved] == [want, want]
            items += 1
            positive += want > 0
    assert (items, positive) == (40, 21)


def test_matches_iterated_on_points():
    pts = TropicalCycle(BlockStructure((1, 2)),
                        [(Polyhedron.point((0, 1, 2)), 2),
                         (Polyhedron.point((1, 0, Fraction(1, 2))), 3)])
    assert _agree(pts, (0, 0), seed=3) == 5


def test_matches_iterated_on_empty_intersection():
    g = fixtures.example33a()
    lin = product(fixtures.standard_line(), fixtures.standard_line(),
                  blocks=BlockStructure((2, 2)))
    assert stable_intersect(g, lin, seed=4).is_empty
    assert _agree(g, (1, 1), seed=4) == 0


def _second_seed_disagrees(monkeypatch):
    """Flip every flag of the check pass of each stable intersection, the
    pass under the seed's direction, which follows the build pass."""
    original = ops._displacement_flags
    passes = []

    def disagreeing(cones, order, signs):
        flags = original(cones, order, signs)
        passes.append(signs)
        if len(passes) % 2 == 0:
            assert signs[0] == -1
            flags = [not f for f in flags]
        else:
            assert set(signs) == {1}
        return flags

    monkeypatch.setattr(ops, "_displacement_flags", disagreeing)


def test_seed_dependence_surfaces(monkeypatch):
    _second_seed_disagrees(monkeypatch)
    with pytest.raises(SeedDependenceError):
        multidegree(diagonal(), (1, 0), seed=5)


def test_generator_checks_both_seeds(monkeypatch):
    """Generator seed 0 builds a cycle through a stable intersection that is
    not empty, so a disagreeing second seed surfaces."""
    fixtures.generate_admissible(0)
    _second_seed_disagrees(monkeypatch)
    with pytest.raises(SeedDependenceError):
        fixtures.generate_admissible(0)
