"""Cycle files: JSON text with exact rationals as strings.

{"blocks": [m1, ..., mk],
 "facets": [{"vertices": [[rat, ...], ...],
             "rays": [[int, ...], ...],
             "lineality": [[int, ...], ...],
             "weight": non-negative int}, ...]}

Rationals are written "p/q" (or bare integers); rays and lineality are
integer vectors, normalized on load.  Any other key is an error.
Serialization is canonical, so parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cycles import BlockStructure, TropicalCycle, WeightedFacet
from .errors import DimensionMismatchError, InputError
from .polyhedra import Polyhedron


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from exc
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def parse_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"not an integer: {value!r}")
    return value


def rational_str(value: Fraction):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _json_list(value, what) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _known_keys(obj, known, what) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(f"{what}: unknown keys {unknown}, want {list(known)}")


def _vectors(entry, key, parse, idx) -> list:
    vecs = _json_list(entry.get(key, []), f'facet {idx}: "{key}"')
    return [[parse(x) for x in _json_list(v, f"facet {idx}: {key} entry")]
            for v in vecs]


def cycle_from_dict(data) -> TropicalCycle:
    if not isinstance(data, dict):
        raise InputError("cycle file must contain a JSON object")
    _known_keys(data, ("blocks", "facets"), "cycle file")
    if "blocks" not in data:
        raise InputError('missing "blocks"')
    sizes = tuple(parse_int(b) for b in _json_list(data["blocks"], '"blocks"'))
    try:
        blocks = BlockStructure(sizes)
    except DimensionMismatchError as exc:
        raise InputError(str(exc)) from exc
    m = blocks.m
    facets = []
    for idx, entry in enumerate(_json_list(data.get("facets", []), '"facets"')):
        if not isinstance(entry, dict):
            raise InputError(f"facet {idx} must be a JSON object, got {entry!r}")
        _known_keys(entry, ("vertices", "rays", "lineality", "weight"),
                    f"facet {idx}")
        verts = _vectors(entry, "vertices", parse_rational, idx)
        rays = _vectors(entry, "rays", parse_int, idx)
        lin = _vectors(entry, "lineality", parse_int, idx)
        weight = parse_int(entry.get("weight", 1))
        if weight < 0:
            raise InputError(f"facet {idx}: negative weight {weight}")
        for vec in verts + rays + lin:
            if len(vec) != m:
                raise InputError(
                    f"facet {idx}: vector length {len(vec)} != blocks sum {m}")
        if not verts:
            raise InputError(f"facet {idx}: needs at least one vertex")
        poly = Polyhedron.from_generators(m, verts, rays, lin)
        facets.append(WeightedFacet(poly, weight))
    return TropicalCycle(blocks, facets)


def facet_to_dict(facet: WeightedFacet) -> dict:
    p = facet.poly
    return {
        "vertices": [[rational_str(x) for x in v] for v in p.vertices],
        "rays": [list(r) for r in p.rays],
        "lineality": [list(l) for l in p.lineality],
        "weight": facet.weight,
    }


def cycle_to_dict(cycle: TropicalCycle) -> dict:
    return {"blocks": list(cycle.ambient.blocks),
            "facets": [facet_to_dict(f) for f in cycle.facets]}


def loads(text: str) -> TropicalCycle:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    return cycle_from_dict(data)


def dumps(cycle: TropicalCycle) -> str:
    return json.dumps(cycle_to_dict(cycle), indent=1, sort_keys=True) + "\n"


def loads_bytes(raw: bytes, source) -> TropicalCycle:
    """Parse the raw bytes of a cycle file; ``source`` names it in errors."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source}: not UTF-8 text: {exc}") from exc
    return loads(text)


def load(path) -> TropicalCycle:
    with open(path, "rb") as fh:
        return loads_bytes(fh.read(), path)


def save(path, cycle: TropicalCycle) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cycle))
