"""Exact rational polyhedra with canonical dual descriptions.

A polyhedron in R^m is stored in both representations at once:

* H-rep: homogenized integer rows ``(c0, c1, ..., cm)`` meaning
  ``c0 + c . x >= 0`` (inequalities) or ``== 0`` (equalities).  Equalities
  are kept in RREF-canonical form; inequality normals are reduced modulo
  the equality space, scaled primitive, and sorted, so the H-rep of a
  point set is unique and drives equality/hashing.
* V-rep: sorted vertex rows, primitive rays, and an RREF-canonical
  lineality basis.  A vertex v (a point of a minimal face, reduced modulo
  the lineality) is the primitive integer row ``(d, d*v)`` with ``d > 0``
  that double description produces; ``vertices`` gives the ``Fraction``
  points.

Points are rows: a point x is handled as an integer row ``(d, d*x)`` with
``d > 0``, so the sign of ``vdot(row, point_row)`` is that of ``c0 + c.x``
and containment is a set of integer sign tests.  ``interior_row`` is the
sum of the vertex rows and the rays, a strictly positive combination of
every generator and hence a point of the relative interior.  The
``Fraction`` entry points (``contains``, ``relint_contains``,
``relative_interior_point``) clear or restore one denominator around them.

Every nonempty constructor ends in ``_canonical``, the one canonicalizer
of rows and generators, and builds in one of three ways:

* a cut (H->V, ``_cut``, canonicalized by ``_cut_canonical``): the
  double description of a polyhedron's homogenization cone continues
  from its stored generators and their tight sets with only the added
  rows (``intersect``, ``split``, and ``from_hrep`` on the full space);
* a hull (V->H, ``_from_generator_rows``): one double description of
  the generators; ``plus_span`` continues it from the polyhedron's own
  facet and equality rows, the dual cone's rays and lineality, with
  only the span's rows (``_dual_start``);
* a read-off, with no conversion: ``face`` and ``recession_cone`` take
  their generators off the polyhedron's own, and ``translate``,
  ``product`` and ``full_space`` map rows and generators.

The other side is read off tight bitmasks (``_hrep``, ``_split``): the
masks that ``dual_description`` returns, transposed where rows and
generators swap roles (zero rows and generators take no bit and are
dropped before it), or, for the read-offs, ``_tight_mask``.
``_facet_masks`` holds a polyhedron's own incidence and checks that each
row is facet-defining.  ``_canonical`` interns the result:
a point set has one key however it was built.  Constructors hand it raw
rows and generators, as the double description accepts redundant ones
(Fukuda-Prodon 1996).  The key is read off the canonical rows alone, so
the pool is consulted before the generators are canonicalized, and a
point set built before costs no generator work.  The empty polyhedron is
a first-class value.

Covering builds no refinement: ``is_covered`` subtracts the cover's cells
from the target one by one, split only by crossing rows (``regiondiff``,
Baotic 2005).  It is exact: a piece left over meets the cell in a nowhere
dense set, and the union of the later cells is closed.

The face condition of a complex builds no intersection:
``meets_off_faces`` cuts one cell by the other's rows and reads the
result off the tight bitmasks of that cut.  The rows tight on the
intersection pick the smallest face of each cell that contains it, and
sign tests of the other cell's rows on that face's stored generators say
whether the intersection is that face.

Polyhedra are immutable; the per-instance caches and the intern pool are
memoization only, so concurrent re-computation is benign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_, mul

from . import linalg
from .errors import DimensionMismatchError, EmptyPolyhedronError, InputError, InvariantError
from .linalg import (
    IntVec,
    Vec,
    _divide_gcd,
    frac_vec,
    int_kernel,
    int_row,
    is_zero_vec,
    reduce_mod,
    rref,
    vdot,
    vneg,
    vector_entries,
    vscale,
)

HomRow = IntVec  # length m+1: (c0, c1, ..., cm)


# ---------------------------------------------------------------------------
# double description on a homogeneous cone
# ---------------------------------------------------------------------------

def dual_description(dim: int, constraints, start=None):
    """Extreme rays and lineality basis of {x in R^dim : c.x >= 0 / == 0}.

    ``constraints`` is a sequence of (integer row, is_equality) pairs.  The
    incremental double description with the combinatorial adjacency test;
    all arithmetic on integers.

    ``start``, if given, is the state after earlier constraints: a tuple
    ``((ray, tight-bitmask), ...)``, the lineality basis and the number of
    constraints the masks run over (``Polyhedron._cut``).  The loop
    continues from it instead of from all of R^dim; the cone is then the
    start cone cut by ``constraints``.  The adjacency test only needs the
    masks over some H-description of the start cone.

    Returns ``(rays, lineality, masks)``: a ray's mask is the exact set of
    rows zero on it, bit ``j`` for the j-th start row, then one bit per
    constraint in order.  A zero row takes no bit, so a caller that reads
    the masks hands in nonzero rows, as canonical rows are.
    """
    if start is None:
        lin: list[IntVec] = [tuple(r) for r in linalg.identity_rows(dim)]
        rays: list[list] = []   # [vector, tight-bitmask over processed constraints]
        n_done = 0
    else:
        start_rays, start_lin, n_done = start
        lin = list(start_lin)
        rays = [[vec, mask] for vec, mask in start_rays]
    prior_mask = (1 << n_done) - 1

    for row, is_eq in constraints:
        c = tuple(row)
        if is_zero_vec(c):
            continue
        bit = 1 << n_done
        pivot = next((l for l in lin if vdot(c, l) != 0), None)
        if pivot is not None:
            lin.remove(pivot)
            s0 = vdot(c, pivot)
            if s0 < 0:
                pivot = vneg(pivot)
                s0 = -s0
            new_lin = []
            for l in lin:
                s = vdot(c, l)
                if s != 0:
                    l = _divide_gcd([s0 * a - s * b for a, b in zip(l, pivot)])
                new_lin.append(l)
            lin = new_lin
            new_rays = []
            for vec, mask in rays:
                s = vdot(c, vec)
                if s != 0:
                    vec = tuple(s0 * a - s * b for a, b in zip(vec, pivot))
                    if is_zero_vec(vec):
                        continue
                    vec = _divide_gcd(vec)
                new_rays.append([vec, mask | bit])
            rays = _dedupe(new_rays)
            if not is_eq:
                rays.append([pivot, prior_mask])
        else:
            pos, zero, neg = [], [], []
            for vec, mask in rays:
                s = vdot(c, vec)
                if s > 0:
                    pos.append([vec, mask, s])
                elif s < 0:
                    neg.append([vec, mask, s])
                else:
                    zero.append([vec, mask | bit])
            combos = []
            for vp, mp, sp in pos:
                for vn, mn, sn in neg:
                    t = mp & mn
                    if not _adjacent(t, rays, vp, vn):
                        continue
                    w = tuple(sp * a - sn * b for a, b in zip(vn, vp))
                    if is_zero_vec(w):
                        continue
                    combos.append([_divide_gcd(w), t | bit])
            keep = zero if is_eq else [[v, m] for v, m, _ in pos] + zero
            rays = _dedupe(keep + combos)
        n_done += 1
        prior_mask |= bit
    return [r[0] for r in rays], lin, [r[1] for r in rays]


def _dedupe(rays):
    seen = set()
    out = []
    for item in rays:
        if item[0] not in seen:
            seen.add(item[0])
            out.append(item)
    return out


def _adjacent(t, rays, vp, vn) -> bool:
    for vec, mask, *_ in rays:
        if vec is vp or vec is vn:
            continue
        if t & mask == t:
            return False
    return True


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    __slots__ = ("m", "eqs", "ineqs", "vertex_rows", "rays", "lineality",
                 "is_empty", "_cache")

    #: canonical instances by H-rep key, so face/lattice caches are shared
    _interned: dict = {}

    def __init__(self, *, m, eqs, ineqs, vertex_rows, rays, lineality, is_empty):
        self.m = m
        self.eqs = eqs
        self.ineqs = ineqs
        self.vertex_rows = vertex_rows
        self.rays = rays
        self.lineality = lineality
        self.is_empty = is_empty
        self._cache: dict = {}

    def _intern(self) -> "Polyhedron":
        return Polyhedron._interned.setdefault(self.key, self)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, m: int) -> "Polyhedron":
        pooled = Polyhedron._interned.get((m, "empty"))
        if pooled is not None:
            return pooled
        return cls(m=m, eqs=(), ineqs=(), vertex_rows=(), rays=(), lineality=(),
                   is_empty=True)._intern()

    @classmethod
    def from_hrep(cls, m: int, ineqs=(), eqs=()) -> "Polyhedron":
        """Polyhedron {x : c0 + c.x >= 0 for ineqs, == 0 for eqs}; zero
        rows hold everywhere and are dropped, as they take no mask bit."""
        rows = lambda given: [r for r in _given_rows(given, m + 1, "constraint row") if any(r)]
        return cls.full_space(m)._cut_canonical(rows(eqs), rows(ineqs))

    @classmethod
    def from_generators(cls, m: int, vertices=(), rays=(), lineality=()) -> "Polyhedron":
        """Polyhedron conv(vertices) + cone(rays) + span(lineality).

        At least one vertex is required for a nonempty result.
        """
        rows = [_point_row(v, m, "vertex")
                for v in vector_entries(vertices, InputError, "vertices")]
        ray_vecs = _given_rows(rays, m, "ray")
        lin_vecs = _given_rows(lineality, m, "lineality vector")
        return cls._from_generator_rows(m, rows, ray_vecs, lin_vecs)

    @classmethod
    def _from_generator_rows(cls, m, vert_rows, rays, lineality, start=None) -> "Polyhedron":
        """``from_generators`` on integer vertex rows ``(d, d*v)``, ``d > 0``,
        and integer ray and lineality tuples, canonical or not.

        One V->H conversion gives the facets of the homogenization cone;
        they meet in its lineality, so a generator tight on all of them is
        a lineality vector (never a vertex row, of height d > 0).  Both
        incidences are read off the conversion's masks: a dual ray's mask
        holds the generators tight on it, and its transpose each
        generator's tight dual rays.  Zero rays and lineality vectors take
        no mask bit and are dropped; duplicate and parallel generators,
        and vertex rows that differ by a lineality vector, pass ``_split``
        alike and meet in ``_canonical``.  ``start``, a polyhedron with
        these vertex rows and rays, adds its own lineality: its
        ``_dual_start`` already holds the generators (bits ``0`` to
        ``len(gens) - 1``) and is zero on that lineality, so the
        conversion continues from it with the given lineality rows alone.
        """
        if not vert_rows:
            return cls.empty(m)
        rays = [r for r in rays if any(r)]
        lineality = [l for l in lineality if any(l)]
        gens = [*vert_rows, *((0,) + r for r in rays)]
        constraints = [((0,) + l, True) for l in lineality]
        if start is None:
            constraints += [(g, False) for g in gens]
            first = len(lineality)     # the generators' first mask bit
        else:
            lineality = (*start.lineality, *lineality)
            start = start._dual_start()
            first = 0
        dual_rays, dual_lin, masks = dual_description(m + 1, constraints, start=start)
        full = (1 << len(gens)) - 1
        facets, eqs = _hrep(dual_rays, dual_lin, [mask >> first & full for mask in masks],
                            full, (1 << len(vert_rows)) - 1)
        flat, extreme = _split(gens, _transpose(masks, range(first, first + len(gens))),
                               (1 << len(dual_rays)) - 1)
        return _canonical(m, facets, eqs, [g for g in extreme if g[0] > 0],
                          [g[1:] for g in extreme if g[0] == 0],
                          [*lineality, *(g[1:] for g in flat)])

    @classmethod
    def point(cls, coords) -> "Polyhedron":
        coords = frac_vec(coords, "point")
        return cls.from_generators(len(coords), vertices=[coords])

    @classmethod
    def full_space(cls, m: int) -> "Polyhedron":
        return _canonical(m, (), (), [(1,) + (0,) * m], (), linalg.identity_rows(m))

    # -- canonical identity --------------------------------------------------

    @property
    def key(self):
        if self.is_empty:
            return (self.m, "empty")
        return (self.m, self.eqs, self.ineqs)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron.empty({self.m})"
        return (f"Polyhedron(m={self.m}, dim={self.dim}, "
                f"#eq={len(self.eqs)}, #ineq={len(self.ineqs)}, "
                f"#V={len(self.vertex_rows)}, #R={len(self.rays)}, "
                f"#L={len(self.lineality)})")

    # -- basic geometry -------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return self.m - len(self.eqs)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertex rows divided by their heights, as sorted points."""
        return tuple(sorted(_row_point(r) for r in self.vertex_rows))

    def _sign_test(self, row: HomRow, strict: bool) -> bool:
        return (not self.is_empty
                and all(vdot(r, row) == 0 for r in self.eqs)
                and all(vdot(r, row) > 0 if strict else vdot(r, row) >= 0
                        for r in self.ineqs))

    def contains_row(self, row: HomRow) -> bool:
        """Whether the point with integer row ``(d, d*x)``, ``d > 0``, lies
        in the polyhedron; for a ray row ``(0, r)``, whether ``r`` is in
        the recession cone."""
        return self._sign_test(row, strict=False)

    def relint_contains_row(self, row: HomRow) -> bool:
        """The same for the relative interior."""
        return self._sign_test(row, strict=True)

    def contains(self, point) -> bool:
        return self.contains_row(_point_row(point, self.m))

    def relint_contains(self, point) -> bool:
        return self.relint_contains_row(_point_row(point, self.m))

    def direction_basis(self) -> tuple[IntVec, ...]:
        """Saturated lattice basis of Lin(P) (== Lin(P) spanning rows)."""
        if "dirs" not in self._cache:
            if self.is_empty:
                self._cache["dirs"] = ()
            else:
                homog = [r[1:] for r in self.eqs]
                self._cache["dirs"] = int_kernel(homog, self.m)
        return self._cache["dirs"]

    def interior_row(self) -> HomRow:
        """A relative interior point as an integer row ``(d, d*x)``, ``d > 0``:
        the sum of the vertex rows and the rays, which is strictly positive
        on every inequality that is not tight on the whole polyhedron."""
        if self.is_empty:
            raise EmptyPolyhedronError("relative interior of the empty set")
        return int_row([sum(col) for col in zip(*self._gens())])

    def relative_interior_point(self) -> Vec:
        return _row_point(self.interior_row())

    # -- derived polyhedra ----------------------------------------------------

    def _gens(self) -> tuple[HomRow, ...]:
        """The generators of the homogenization cone that the masks run
        over: the vertex rows, then the rays ``(0, r)``."""
        return self.vertex_rows + tuple((0,) + r for r in self.rays)

    def _facet_masks(self) -> tuple[int, ...]:
        """The cached tight bitmask of each facet row over ``_gens``, the
        one incidence of this nonempty polyhedron that its start states,
        faces and ridges read.

        As the faces of the homogenization cone are ordered like their
        tight sets (Fukuda-Prodon 1996), a row is facet-defining exactly
        when its tight set holds a vertex row, is not everything and lies
        in no other row's; else InvariantError."""
        masks = self._cache.get("facet_masks")
        if masks is None:
            gens = self._gens()
            masks = tuple(_tight_mask(r, gens) for r in self.ineqs)
            full, verts = (1 << len(gens)) - 1, (1 << len(self.vertex_rows)) - 1
            if len(set(masks)) < len(masks) or any(
                    t == full or not t & verts or any(t & u == t for u in masks if u != t)
                    for t in masks):
                raise InvariantError("inequality is not facet-defining")
            self._cache["facet_masks"] = masks
        return masks

    def _dd_start(self):
        """The cached start state of this nonempty polyhedron's double
        description: ``_gens`` with their tight bitmasks over ``x0 >= 0``
        (bit 0, tight on the rays) and the facet rows (bits ``1`` to
        ``len(ineqs)``, the transpose of ``_facet_masks``), the lineality
        ``(0, l)``, and the row count."""
        start = self._cache.get("dd_start")
        if start is None:
            gens = self._gens()
            n = len(self.vertex_rows)
            masks = _transpose(self._facet_masks(), range(len(gens)))
            start = self._cache["dd_start"] = (
                tuple((g, mask << 1 | (i >= n)) for i, (g, mask) in enumerate(zip(gens, masks))),
                tuple((0,) + l for l in self.lineality),
                1 + len(self.ineqs))
        return start

    def _dual_start(self):
        """The cached start state of the double description of this
        nonempty polyhedron's dual cone: the facet rows, and ``x0 >= 0``
        (tight on the rays) when it is a facet (rays and lineality span
        ``dim`` dimensions), with their tight bitmasks over ``_gens``; the
        equality rows as the lineality; the generator count."""
        start = self._cache.get("dual_start")
        if start is None:
            rows = tuple(zip(self.ineqs, self._facet_masks()))
            n, n_gens = len(self.vertex_rows), len(self.vertex_rows) + len(self.rays)
            if linalg.rank(self.rays + self.lineality) == self.dim:
                rows += (((1,) + (0,) * self.m, (1 << n_gens) - (1 << n)),)
            start = self._cache["dual_start"] = (rows, self.eqs, n_gens)
        return start

    def _cut(self, eqs, ineqs):
        """The generators of this nonempty polyhedron's homogenization cone
        cut by more equality and inequality rows: the double description
        continued from ``_dd_start``, which ``dual_description`` copies.

        Returns the rays, of heights ``>= 0``, the lineality, of height
        ``0``, and each ray's tight bitmask: the start state's bits, then
        one bit per added row, equalities first.  The cut is empty when no
        ray has a positive height."""
        out = dual_description(
            self.m + 1, [(r, True) for r in eqs] + [(r, False) for r in ineqs],
            start=self._dd_start())
        if any(r[0] < 0 for r in out[0]) or any(l[0] != 0 for l in out[1]):
            raise InvariantError("homogenization generator with negative height")
        return out

    def _cut_canonical(self, eqs, ineqs) -> "Polyhedron":
        """The polyhedron of ``_cut`` by nonzero rows: its vertex rows, rays
        and lineality, and the H-rep ``_hrep`` of the joint rows, whose
        tight masks over the rays are the transpose of the rays' masks at
        the bits of the facet rows and the added inequalities."""
        gen_rays, gen_lin, masks = self._cut(eqs, ineqs)
        verts = sum(1 << i for i, r in enumerate(gen_rays) if r[0] > 0)
        if not verts:
            return Polyhedron.empty(self.m)
        n_p, n_e = len(self.ineqs), len(eqs)
        bits = [*range(1, 1 + n_p), *range(1 + n_p + n_e, 1 + n_p + n_e + len(ineqs))]
        facets, all_eqs = _hrep(self.ineqs + tuple(ineqs), self.eqs + tuple(eqs),
                                _transpose(masks, bits), (1 << len(gen_rays)) - 1, verts)
        return _canonical(self.m, facets, all_eqs, [r for r in gen_rays if r[0] > 0],
                          [r[1:] for r in gen_rays if r[0] == 0],
                          [l[1:] for l in gen_lin])

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection: this polyhedron cut by the other's rows; empty
        without a double description when ``quickly_disjoint`` separates
        the pair."""
        if self.m != other.m:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.m} vs {other.m}")
        if self.is_empty or other.is_empty or quickly_disjoint(self, other):
            return Polyhedron.empty(self.m)
        return self._cut_canonical(other.eqs, other.ineqs)

    def recession_cone(self) -> "Polyhedron":
        """{d : c.d >= 0 for ineqs, == 0 for eqs}, with no double
        description: the origin, the rays and the lineality generate it,
        and its H-rep is ``_hrep`` of the rows with ``c0`` set to 0."""
        if self.is_empty:
            raise EmptyPolyhedronError("recession cone of the empty set")
        origin = (1,) + (0,) * self.m
        gens = (origin,) + tuple((0,) + r for r in self.rays)
        rows = [(0,) + r[1:] for r in self.ineqs]
        facets, eqs = _hrep(rows, [(0,) + r[1:] for r in self.eqs],
                            [_tight_mask(r, gens) for r in rows], (1 << len(gens)) - 1, 1)
        return _canonical(self.m, facets, eqs, [origin], self.rays, self.lineality)

    def translate(self, v) -> "Polyhedron":
        d, *dv = _point_row(v, self.m, "translation vector")     # (d, d*v), d > 0
        if self.is_empty:
            return self
        # c0 + c.(x - v) >= 0 scaled by d
        shift = lambda rows: [(d * r[0] - vdot(r[1:], dv),) + tuple(d * c for c in r[1:])
                              for r in rows]
        # the row (d*e, d*e*(x + v)) of x + v for a vertex row (e, e*x)
        verts = [(d * r[0],) + tuple(d * a + r[0] * b for a, b in zip(r[1:], dv))
                 for r in self.vertex_rows]
        return _canonical(self.m, shift(self.ineqs), shift(self.eqs), verts,
                          self.rays, self.lineality)

    def plus_span(self, basis) -> "Polyhedron":
        """Minkowski sum with the linear span of the given vectors: the
        same generators with the vectors added to the lineality, a hull
        continued from this polyhedron's own rows (``_dual_start``) with
        the span's rows alone."""
        lin = [_given_row(b, self.m, "span vector") for b in basis]
        if self.is_empty:
            return self
        return Polyhedron._from_generator_rows(self.m, self.vertex_rows, self.rays,
                                               lin, start=self)

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product, coordinates of ``other`` appended after self's."""
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.m + other.m)
        a, b = self.m, other.m
        rows = lambda mine, theirs: ([r + (0,) * b for r in mine] +
                                     [r[:1] + (0,) * a + r[1:] for r in theirs])
        vecs = lambda mine, theirs: ([r + (0,) * b for r in mine] +
                                     [(0,) * a + r for r in theirs])
        verts = [vscale(r2[0], r1) + vscale(r1[0], r2[1:])
                 for r1 in self.vertex_rows for r2 in other.vertex_rows]
        return _canonical(a + b, rows(self.ineqs, other.ineqs), rows(self.eqs, other.eqs),
                          verts, vecs(self.rays, other.rays),
                          vecs(self.lineality, other.lineality))

    def linear_image(self, matrix) -> "Polyhedron":
        """Image under x -> matrix @ x, in R^len(matrix) (matrix given as
        rows of length m).

        A rational matrix is allowed: the images are taken to their
        ``int_row``.  A string, ``bool`` or non-finite entry raises
        ``InputError``.
        """
        matrix = [_check_len(row, self.m, "matrix row")
                  for row in vector_entries(matrix, InputError, "matrix")]
        m_out = len(matrix)
        if not all(type(e) is int for row in matrix for e in row):
            matrix = [frac_vec(row, "matrix row") for row in matrix]
        if self.is_empty:
            return Polyhedron.empty(m_out)
        apply = lambda x: [vdot(row, x) for row in matrix]
        verts = [int_row([r[0]] + apply(r[1:])) for r in self.vertex_rows]
        rays = [r2 for r2 in (int_row(apply(r)) for r in self.rays) if not is_zero_vec(r2)]
        lin = [l2 for l2 in (int_row(apply(l)) for l in self.lineality)
               if not is_zero_vec(l2)]
        return Polyhedron._from_generator_rows(m_out, verts, rays, lin)

    def face(self, ineq_row: HomRow) -> "Polyhedron":
        """The face where a valid inequality (one of ``ineqs``) is tight,
        with no double description: the generators in its tight mask
        ``t``, the lineality, and ``_hrep`` of the rows with ``ineq_row``
        among the equalities, their masks over the face's generators being
        ``_facet_masks`` cut to ``t``."""
        n = len(self.vertex_rows)
        t = _tight_mask(ineq_row, self._gens())
        verts = t & ((1 << n) - 1)
        if not verts:
            return Polyhedron.empty(self.m)
        facets, eqs = _hrep(self.ineqs, self.eqs + (tuple(ineq_row),),
                            [u & t for u in self._facet_masks()], t, verts)
        return _canonical(self.m, facets, eqs,
                          [g for i, g in enumerate(self.vertex_rows) if t >> i & 1],
                          [r for i, r in enumerate(self.rays, n) if t >> i & 1],
                          self.lineality)

    def facet_faces(self) -> tuple["Polyhedron", ...]:
        """Codimension-1 faces (one per irredundant inequality); a row that
        is not facet-defining raises InvariantError (``_facet_masks``)."""
        if "facets" not in self._cache:
            self._cache["facets"] = tuple(self.face(row) for row in self.ineqs)
        return self._cache["facets"]

    def all_faces(self) -> tuple["Polyhedron", ...]:
        """All nonempty faces, including the polyhedron itself.

        ``src/`` no longer calls it: the face condition reads tight masks
        (``meets_off_faces``).  The tests' oracles and ``bench/layertrace``
        keep it until the benchmark stops tracing it."""
        seen = {self.key: self}
        frontier = [self]
        while frontier:
            nxt = []
            for f in frontier:
                for g in f.facet_faces():
                    if g.key not in seen:
                        seen[g.key] = g
                        nxt.append(g)
            frontier = nxt
        return tuple(sorted(seen.values(), key=lambda p: p.key))

    # -- splitting ------------------------------------------------------------

    def evaluate_signs(self, row: HomRow):
        """(has_positive, has_negative) of c0 + c.x over the polyhedron."""
        has_pos = has_neg = False
        for g in self.vertex_rows:
            s = vdot(row, g)
            has_pos |= s > 0
            has_neg |= s < 0
        c = row[1:]
        for r in self.rays:
            s = sum(map(mul, c, r))
            has_pos |= s > 0
            has_neg |= s < 0
        for l in self.lineality:
            if sum(map(mul, c, l)):
                has_pos = has_neg = True
        return has_pos, has_neg

    def split(self, row: HomRow) -> list["Polyhedron"]:
        """The pieces ``row >= 0`` and ``row <= 0``, both of the polyhedron's
        dimension, when the hyperplane row crosses it; else ``[self]``."""
        if not all(self.evaluate_signs(row)):
            return [self]
        return [self._cut_canonical((), (signed,)) for signed in (row, vneg(row))]


# ---------------------------------------------------------------------------
# canonicalization helpers
# ---------------------------------------------------------------------------

def _check_len(vec, n, what="vector") -> tuple:
    """The vector as a tuple of length n; a scalar raises ``InputError``."""
    vec = vector_entries(vec, InputError, what)
    if len(vec) != n:
        raise DimensionMismatchError(f"{what} of length {len(vec)}, expected {n}")
    return vec


def _given_row(vec, n, what) -> IntVec:
    """``int_row`` of a rational vector of length n given to an entry
    point; a string, ``bool`` or non-finite entry raises ``InputError``.
    A tuple of ints is checked by one type scan, as ``int_row`` does."""
    vec = _check_len(vec, n, what)
    if all(type(e) is int for e in vec):
        return _divide_gcd(vec)
    return int_row(frac_vec(vec, what))


def _given_rows(vecs, n, what) -> list:
    """``_given_row`` of each vector of a sequence given to an entry point;
    a scalar in place of the sequence raises ``InputError``."""
    return [_given_row(v, n, what) for v in vector_entries(vecs, InputError, what + "s")]


def _point_row(point, m, what="point") -> HomRow:
    """The integer row ``(d, d*x)``, ``d > 0``, of a rational point of R^m;
    a string, ``bool`` or non-finite entry raises ``InputError``."""
    return int_row((1, *frac_vec(_check_len(point, m, what), what)))


def _row_point(row: HomRow) -> Vec:
    """The point of an integer row ``(d, d*x)``, ``d > 0``."""
    return tuple(Fraction(x, row[0]) for x in row[1:])


def _canon_eqs(rows) -> tuple[HomRow, ...]:
    """RREF-canonical basis of a row space (equalities or lineality); on
    rows that already are ``rref`` output, ``rref`` eliminates nothing."""
    return tuple(rref(rows)[0])


def _canon_ineqs(rows, eqs) -> tuple[HomRow, ...]:
    out = set()
    for row in rows:
        r = reduce_mod(eqs, row)
        if is_zero_vec(r[1:]):
            continue   # trivial after reduction
        out.add(r)
    return tuple(sorted(out))


def _tight_mask(x, ys) -> int:
    """Bit ``j`` set for each ``ys[j]`` on which the row or generator x is
    zero."""
    return sum(1 << j for j, y in enumerate(ys) if vdot(x, y) == 0)


def _transpose(masks, bits) -> list[int]:
    """For each bit position ``b`` of ``bits``, the mask with bit ``i`` set
    for each ``masks[i]`` that holds bit ``b``: rows' masks over generators
    from generators' masks over rows, or back."""
    return [sum(1 << i for i, mask in enumerate(masks) if mask >> b & 1) for b in bits]


def _split(rows, masks, full):
    """(rows whose tight mask is ``full``, the other rows whose masks are
    maximal among the other rows'; the first rows' set is everything and
    would hide every facet).  For rows nonnegative on a cone and their
    tight masks over its generators these are the implicit equalities and
    the facet rows, as faces of a cone are ordered like their tight sets
    (Fukuda-Prodon 1996); with rows and generators swapped, the lineality
    and the extreme generators."""
    rest = {t for t in masks if t != full}
    maximal = {t for t in rest if not any(t & u == t and t != u for u in rest)}
    return ([r for r, t in zip(rows, masks) if t == full],
            [r for r, t in zip(rows, masks) if t in maximal])


def _hrep(ineqs, eqs, masks, full, verts) -> tuple[list[HomRow], list[HomRow]]:
    """(facet rows, equality rows) of a nonempty polyhedron from its rows,
    their tight masks over the generators of its homogenization, ``full``
    the mask of all generators and ``verts`` that of the vertex rows: the
    ``_split`` facets tight on a vertex row, as one tight on rays only
    bounds the face at infinity, and the given and implicit equalities;
    ``_canonical`` canonicalizes both."""
    implicit, maximal = _split(list(zip(ineqs, masks)), masks, full)
    return [r for r, t in maximal if t & verts], list(eqs) + [r for r, _ in implicit]


def _canon_generators(vert_rows, rays, lineality):
    lin = _canon_eqs(lineality)
    rays_c = sorted({r for r in (reduce_mod(lin, x) for x in rays)
                     if not is_zero_vec(r)})
    lin_rows = [(0,) + l for l in lin]
    verts_c = sorted({reduce_mod(lin_rows, r) for r in vert_rows})
    return tuple(verts_c), tuple(rays_c), lin


def _canonical(m, facets, eqs, vert_rows, rays, lineality) -> Polyhedron:
    """The interned instance of the nonempty polyhedron with these facet
    rows, equality rows, extreme vertex rows ``(d, d*v)``, ``d > 0``, rays
    and spanning lineality vectors; rows and generators need not be
    canonical, and every nonempty constructor ends here.  The rows alone
    make the key, so the pool is consulted before the generators are
    canonicalized, and a hit returns the pooled instance."""
    eqs = _canon_eqs(eqs)
    ineqs = _canon_ineqs(facets, eqs)
    pooled = Polyhedron._interned.get((m, eqs, ineqs))
    if pooled is not None:
        return pooled
    vert_rows, rays, lineality = _canon_generators(vert_rows, rays, lineality)
    return Polyhedron(m=m, eqs=eqs, ineqs=ineqs, vertex_rows=vert_rows, rays=rays,
                      lineality=lineality, is_empty=False)._intern()


# ---------------------------------------------------------------------------
# covering and refinement
# ---------------------------------------------------------------------------

def _separates(row: HomRow, p: Polyhedron, sign: int = 1) -> bool:
    """Whether ``sign * row`` is negative on the whole of p, a polyhedron
    in the row's ambient space (``quickly_disjoint`` checks the lengths
    that ``vdot`` would)."""
    for g in p.vertex_rows:
        if sign * sum(map(mul, row, g)) >= 0:
            return False
    c = row[1:]
    for r in p.rays:
        if sign * sum(map(mul, c, r)) > 0:
            return False
    for l in p.lineality:
        if sum(map(mul, c, l)):
            return False
    return True


def quickly_disjoint(a: Polyhedron, b: Polyhedron) -> bool:
    """Cheap sufficient test for nonempty a and b being disjoint; the
    prefilter of ``Polyhedron.intersect``.

    Looks for a constraint of one polyhedron that is strictly violated on
    the other, by integer dot products with the other's stored vertex
    rows, rays and lineality.  An equality row is scanned once, with the
    sign that its first vertex row gives it.  True means the intersection
    is empty; False decides nothing.
    """
    if a.m != b.m:
        raise ValueError(f"quickly_disjoint of polyhedra in R^{a.m} and R^{b.m}")
    for p, q in ((a, b), (b, a)):
        for row in p.ineqs:
            if _separates(row, q):
                return True
        for row in p.eqs:
            if _separates(row, q, -1 if sum(map(mul, row, q.vertex_rows[0])) > 0 else 1):
                return True
    return False


def _face_inside(p: Polyhedron, tight: int, q: Polyhedron) -> bool:
    """Whether the face of p on which the facet rows of the bitmask
    ``tight`` are tight lies in q.  ``tight`` is over p's ``_dd_start``
    rows; the face is generated by the start generators whose masks
    contain it and by p's lineality, so the test is a set of sign tests of
    q's rows on them."""
    gens, lin, _ = p._dd_start()
    if any(vdot(r, l) for l in lin for r in q.eqs + q.ineqs):
        return False
    return all(q.contains_row(g) for g, mask in gens if mask & tight == tight)


def meets_off_faces(p: Polyhedron, q: Polyhedron) -> bool:
    """Whether ``p & q`` is nonempty and not a face of both, without
    building it: read off the tight masks of ``p._cut`` by q's rows.

    A row is tight on ``F = p & q`` exactly when it is tight on every ray
    of the cut (the lineality is tight on every row), so the AND ``t`` of
    the masks gives the facet rows of p and of q tight on F.  As the faces
    of a polyhedron are ordered like their tight sets (Fukuda-Prodon
    1996), the smallest face of p containing F is the one where p's rows
    in ``t`` are tight, and F is a face of p exactly when that face lies
    in q; likewise for q.  q's inequality bits follow p's start rows and
    q's equalities in ``t`` and are shifted to q's start positions.
    """
    if p.m != q.m:
        raise DimensionMismatchError(f"ambient dimensions differ: {p.m} vs {q.m}")
    if p.is_empty or q.is_empty or quickly_disjoint(p, q):
        return False
    rays, _, masks = p._cut(q.eqs, q.ineqs)
    if not any(r[0] > 0 for r in rays):
        return False
    t = reduce(and_, masks)
    n_p = 1 + len(p.ineqs)
    return not (_face_inside(p, t & ((1 << n_p) - 2), q)
                and _face_inside(q, (t >> (n_p + len(q.eqs))) << 1, p))


def offending_pairs(polys) -> list[tuple[int, int]]:
    """Index pairs ``i < j``, in loop order, of cells that are equal or
    that ``meets_off_faces``: the face condition of a complex, in which
    each cell is listed once."""
    return [(i, j) for (i, a), (j, b) in combinations(enumerate(polys), 2)
            if a.key == b.key or meets_off_faces(a, b)]


def common_refinement(cells) -> list[tuple[Polyhedron, tuple[int, ...]]]:
    """Refine cells of one dimension until every pairwise intersection is a
    common face (``offending_pairs`` of the pieces is empty); returns the
    ``(piece, sources)`` pairs sorted by piece key.

    In transverse position the input already is a complex and no cell is
    touched; otherwise only cells in offending pairs are split, round
    after round until no cuts remain.  Each cell carries the input rows
    (equalities and facet rows of the given cells) that cut it out, and an
    offending pair is cut only by each other's carried rows, so every piece
    is a cell of the arrangement of the input rows.  If neither cut split
    the pair, both cells would be sign cells of the union of their rows and
    their intersection a common face; so every round splits a cell, and
    the finite arrangement bounds the rounds.

    ``sources``, the ascending indices of the input cells a piece was cut
    from, travel with the rows: equal cells and pieces of one key merge
    theirs, and both halves of a split inherit them.  They are the cells
    that contain the piece, as the cells have one dimension: a piece P in
    a cell B has a relative interior point in a piece Q cut from B, the
    common face of P and Q holds it, so P lies in Q and equals it by
    dimension.  (A segment inside a square is not cut from it.)
    """
    out: dict = {}
    rows: dict = {}
    sources: dict = {}
    for i, cell in enumerate(cells):
        out.setdefault(cell.key, cell)
        rows.setdefault(cell.key, set()).update(cell.eqs + cell.ineqs)
        sources.setdefault(cell.key, set()).add(i)
    current = sorted(out.values(), key=lambda p: p.key)
    while True:
        bad = offending_pairs(current)
        if not bad:
            return [(p, tuple(sorted(sources[p.key]))) for p in current]
        cuts: dict = {}
        for ia, ib in bad:
            cuts.setdefault(ia, set()).update(rows[current[ib].key])
            cuts.setdefault(ib, set()).update(rows[current[ia].key])
        out, carried, inherited = {}, {}, {}
        for idx, cell in enumerate(current):
            cut = cuts.get(idx, set())
            pieces = [cell]
            for row in sorted(r for r in cut if all(cell.evaluate_signs(r))):  # crossing the cell
                pieces = [q for piece in pieces for q in piece.split(row)]
            for piece in pieces:
                out.setdefault(piece.key, piece)
                carried.setdefault(piece.key, set()).update(rows[cell.key], cut)
                inherited.setdefault(piece.key, set()).update(sources[cell.key])
        rows, sources = carried, inherited
        current = sorted(out.values(), key=lambda p: p.key)


def is_covered(target: Polyhedron, cover) -> bool:
    """Exact test for target being a subset of the union of the cover, by
    subtraction over a worklist of (piece, first cell to test) pairs.  A
    cell is skipped when it is empty, ``quickly_disjoint`` from the piece,
    or meets it in lower dimension (an equality is nonzero on it, or an
    inequality is negative somewhere and positive nowhere on it), which is
    tested before any split; each inequality crossing the piece splits off
    the ``row <= 0`` side for the next cell, and the rest of the piece is
    tested again by the cell's later rows."""
    cover = list(cover)
    if any(p.m != target.m for p in cover):
        raise DimensionMismatchError("cover member in a different ambient space")
    work = [] if target.is_empty else [(target, 0)]
    while work:
        t, first = work.pop()
        for i, cell in enumerate(cover[first:], first):
            if (cell.is_empty or quickly_disjoint(t, cell)
                    or any(any(t.evaluate_signs(e)) for e in cell.eqs)):
                continue
            signs = [t.evaluate_signs(row) for row in cell.ineqs]
            if any(neg and not pos for pos, neg in signs):
                continue                        # t meets the cell in lower dimension
            for row in (row for row, (_, neg) in zip(cell.ineqs, signs) if neg):
                has_pos, has_neg = t.evaluate_signs(row)
                if has_neg and not has_pos:
                    break                       # so does the rest of t
                if has_neg:
                    t, outside = t.split(row)
                    work.append((outside, i + 1))
            else:
                break                           # t lies in the cell
        else:
            return False                        # no cell covers t
    return True
