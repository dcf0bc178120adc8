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

H->V and V->H conversion run the double description method on the
homogenization cone, entirely in integer arithmetic.  Faces skip the
H->V step: a face's extreme generators are the polyhedron's own
generators tight on it, so only its H-rep is computed.  The empty
polyhedron is a first-class value.

Polyhedra are immutable; the per-instance caches and the intern pool are
memoization only, so concurrent re-computation is benign.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    InvariantError,
)
from .linalg import (
    IntVec,
    Vec,
    frac_vec,
    int_kernel,
    int_row,
    is_zero_vec,
    primitive,
    reduce_mod,
    rref,
    sign_normalized,
    vdot,
    vneg,
    vscale,
)

HomRow = IntVec  # length m+1: (c0, c1, ..., cm)


def eval_dir(row, direction):
    """c . d for a direction vector."""
    return sum(c * x for c, x in zip(row[1:], direction, strict=True))


# ---------------------------------------------------------------------------
# double description on a homogeneous cone
# ---------------------------------------------------------------------------

def dual_description(dim: int, constraints) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x in R^dim : c.x >= 0 / == 0}.

    ``constraints`` is a sequence of (integer row, is_equality) pairs.  The
    incremental double description with the combinatorial adjacency test;
    all arithmetic on integers.
    """
    lin: list[IntVec] = [tuple(r) for r in linalg.identity_rows(dim)]
    rays: list[list] = []   # [vector, tight-bitmask over processed constraints]
    n_done = 0
    prior_mask = 0

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
                    l = int_row([s0 * a - s * b for a, b in zip(l, pivot)])
                new_lin.append(l)
            lin = new_lin
            new_rays = []
            for vec, mask in rays:
                s = vdot(c, vec)
                if s != 0:
                    vec = tuple(s0 * a - s * b for a, b in zip(vec, pivot))
                    if is_zero_vec(vec):
                        continue
                    vec = int_row(vec)
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
                    combos.append([int_row(w), t | bit])
            keep = zero if is_eq else [[v, m] for v, m, _ in pos] + zero
            rays = _dedupe(keep + combos)
        n_done += 1
        prior_mask |= bit
    return [r[0] for r in rays], lin


def homogenized_constraints(m, ineqs, eqs):
    """Double description input for {x in R^m : ineqs >= 0, eqs == 0}:
    the equalities, then ``x0 >= 0``, then the inequalities."""
    x0 = (1,) + (0,) * m
    return [(r, True) for r in eqs] + [(x0, False)] + \
           [(r, False) for r in ineqs]


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
        return cls(m=m, eqs=(), ineqs=(), vertex_rows=(), rays=(), lineality=(),
                   is_empty=True)._intern()

    @classmethod
    def from_hrep(cls, m: int, ineqs=(), eqs=()) -> "Polyhedron":
        """Polyhedron {x : c0 + c.x >= 0 for ineqs, == 0 for eqs}."""
        ineq_rows, eq_rows = [], []
        for row in ineqs:
            r = int_row(row)
            _check_len(r, m + 1, "constraint row")
            if is_zero_vec(r[1:]):
                if r[0] < 0:
                    return cls.empty(m)
                continue
            ineq_rows.append(r)
        for row in eqs:
            r = int_row(row)
            _check_len(r, m + 1, "constraint row")
            if is_zero_vec(r[1:]):
                if r[0] != 0:
                    return cls.empty(m)
                continue
            eq_rows.append(r)
        gen_rays, gen_lin = dual_description(
            m + 1, homogenized_constraints(m, ineq_rows, eq_rows))
        return cls._from_cone_output(m, gen_rays, gen_lin)

    @classmethod
    def from_generators(cls, m: int, vertices=(), rays=(), lineality=()) -> "Polyhedron":
        """Polyhedron conv(vertices) + cone(rays) + span(lineality).

        At least one vertex is required for a nonempty result.
        """
        rows = [_point_row(v, m, "vertex") for v in vertices]
        ray_vecs = [primitive(r) for r in rays
                    if not is_zero_vec(_check_len(r, m, "ray"))]
        lin_vecs = [primitive(l) for l in lineality
                    if not is_zero_vec(_check_len(l, m, "lineality vector"))]
        return cls._from_generator_rows(m, rows, ray_vecs, lin_vecs)

    @classmethod
    def _from_generator_rows(cls, m, vert_rows, rays, lineality) -> "Polyhedron":
        """``from_generators`` on vertex rows ``(d, d*v)``, ``d > 0``."""
        if not vert_rows:
            return cls.empty(m)
        ineqs, eqs = cls._hrep_from_generators(
            m, *_canon_generators(vert_rows, rays, lineality))
        # second pass makes the generator side irredundant and canonical
        gen_rays, gen_lin = dual_description(
            m + 1, homogenized_constraints(m, ineqs, eqs))
        poly = cls._from_cone_output(m, gen_rays, gen_lin, hrep=(ineqs, eqs))
        if poly.is_empty:
            raise InvariantError("generator input produced an empty polyhedron")
        return poly

    @classmethod
    def point(cls, coords) -> "Polyhedron":
        coords = frac_vec(coords)
        return cls.from_generators(len(coords), vertices=[coords])

    @classmethod
    def full_space(cls, m: int) -> "Polyhedron":
        basis = tuple(tuple(r) for r in linalg.identity_rows(m))
        return cls(m=m, eqs=(), ineqs=(), vertex_rows=((1,) + (0,) * m,),
                   rays=(), lineality=basis, is_empty=False)._intern()

    @classmethod
    def _from_cone_output(cls, m, gen_rays, gen_lin, hrep=None) -> "Polyhedron":
        if any(r[0] < 0 for r in gen_rays):
            raise InvariantError("homogenization ray with negative height")
        if any(l[0] != 0 for l in gen_lin):
            raise InvariantError("homogenization lineality with nonzero height")
        verts = [r for r in gen_rays if r[0] > 0]
        if not verts:
            return cls.empty(m)
        vert_rows, rays_c, lin_c = _canon_generators(
            verts, [r[1:] for r in gen_rays if r[0] == 0], [l[1:] for l in gen_lin])
        if hrep is None:
            ineqs, eqs = cls._hrep_from_generators(m, vert_rows, rays_c, lin_c)
        else:
            ineqs, eqs = hrep
        return cls(m=m, eqs=eqs, ineqs=ineqs, vertex_rows=vert_rows,
                   rays=rays_c, lineality=lin_c, is_empty=False)._intern()

    @staticmethod
    def _hrep_from_generators(m, vert_rows, rays, lineality):
        constraints = [((0,) + tuple(l), True) for l in lineality]
        constraints += [(g, False) for g in vert_rows]
        constraints += [((0,) + tuple(r), False) for r in rays]
        dual_rays, dual_lin = dual_description(m + 1, constraints)
        eq_rows = [row for row in dual_lin if not is_zero_vec(row[1:])]
        eqs = _canon_eqs(eq_rows)
        ineq_rows = [row for row in dual_rays if not is_zero_vec(row[1:])]
        ineqs = _canon_ineqs(ineq_rows, eqs)
        return ineqs, eqs

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
        in the polyhedron."""
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
        gens = self.vertex_rows + tuple((0,) + r for r in self.rays)
        return int_row([sum(col) for col in zip(*gens)])

    def relative_interior_point(self) -> Vec:
        return _row_point(self.interior_row())

    # -- derived polyhedra ----------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection from the joint H-rep; empty without a double
        description when ``quickly_disjoint`` separates the pair."""
        if self.m != other.m:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.m} vs {other.m}")
        if self.is_empty or other.is_empty or quickly_disjoint(self, other):
            return Polyhedron.empty(self.m)
        return Polyhedron.from_hrep(self.m,
                                    ineqs=self.ineqs + other.ineqs,
                                    eqs=self.eqs + other.eqs)

    def recession_cone(self) -> "Polyhedron":
        if self.is_empty:
            raise EmptyPolyhedronError("recession cone of the empty set")
        if "recession" not in self._cache:
            ineqs = [(0,) + r[1:] for r in self.ineqs]
            eqs = [(0,) + r[1:] for r in self.eqs]
            self._cache["recession"] = Polyhedron.from_hrep(self.m, ineqs, eqs)
        return self._cache["recession"]

    def translate(self, v) -> "Polyhedron":
        if self.is_empty:
            return self
        v = tuple(v)
        if len(v) != self.m:
            raise DimensionMismatchError(
                f"translation vector of length {len(v)} in R^{self.m}")
        d, *dv = _point_row(v, self.m)     # (d, d*v), d > 0
        # c0 + c.(x - v) >= 0 scaled by d
        shifted = [(d * r[0] - vdot(r[1:], dv),) + tuple(d * c for c in r[1:])
                   for r in self.eqs + self.ineqs]
        eqs = _canon_eqs(shifted[:len(self.eqs)])
        ineqs = _canon_ineqs(shifted[len(self.eqs):], eqs)
        # (e, e*s), e > 0, for the residual s of v modulo the lineality
        e, *es = reduce_mod([(0,) + l for l in self.lineality], (d, *dv))
        verts = sorted(int_row((e * r[0],) + tuple(e * a + r[0] * b
                                                   for a, b in zip(r[1:], es)))
                       for r in self.vertex_rows)
        return Polyhedron(m=self.m, eqs=eqs, ineqs=ineqs,
                          vertex_rows=tuple(verts), rays=self.rays,
                          lineality=self.lineality, is_empty=False)._intern()

    def plus_span(self, basis) -> "Polyhedron":
        """Minkowski sum with the linear span of the given vectors: the
        same generators with the vectors added to the lineality."""
        if self.is_empty:
            return self
        lin = [_check_len(tuple(b), self.m, "span vector") for b in basis]
        return Polyhedron._from_generator_rows(self.m, self.vertex_rows, self.rays,
                                               self.lineality + tuple(lin))

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product, coordinates of ``other`` appended after self's."""
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.m + other.m)
        a, b = self.m, other.m
        eqs = [(r[0],) + r[1:] + (0,) * b for r in self.eqs] + \
              [(r[0],) + (0,) * a + r[1:] for r in other.eqs]
        ineqs = [(r[0],) + r[1:] + (0,) * b for r in self.ineqs] + \
                [(r[0],) + (0,) * a + r[1:] for r in other.ineqs]
        eqs_c = _canon_eqs(eqs)
        ineqs_c = tuple(sorted(ineqs))
        verts = tuple(sorted(
            int_row(vscale(r2[0], r1) + vscale(r1[0], r2[1:]))
            for r1 in self.vertex_rows for r2 in other.vertex_rows))
        rays = tuple(sorted([r + (0,) * b for r in self.rays] +
                            [(0,) * a + r for r in other.rays]))
        lin = _canon_eqs([l + (0,) * b for l in self.lineality] +
                         [(0,) * a + l for l in other.lineality])
        return Polyhedron(m=a + b, eqs=eqs_c, ineqs=ineqs_c, vertex_rows=verts,
                          rays=rays, lineality=lin, is_empty=False)._intern()

    def linear_image(self, matrix, m_out: int) -> "Polyhedron":
        """Image under x -> matrix @ x (matrix given as m_out rows of length m).

        The matrix is applied through each row's nonzero entries; the
        coordinate projections it serves here have one per row.
        """
        if any(len(row) != self.m for row in matrix):
            raise DimensionMismatchError(f"matrix row length is not {self.m}")
        if self.is_empty:
            return Polyhedron.empty(m_out)
        sparse = [[(j, c) for j, c in enumerate(row) if c] for row in matrix]
        apply = lambda x: tuple(sum(c * x[j] for j, c in row) for row in sparse)
        verts = [(r[0],) + apply(r[1:]) for r in self.vertex_rows]
        rays = [r2 for r2 in (apply(r) for r in self.rays) if not is_zero_vec(r2)]
        lin = [l2 for l2 in (apply(l) for l in self.lineality) if not is_zero_vec(l2)]
        return Polyhedron._from_generator_rows(m_out, verts, rays, lin)

    def face(self, ineq_row: HomRow) -> "Polyhedron":
        """The face where a valid inequality (one of ``ineqs``) is tight.

        Read off the generators: the face is spanned by the vertices and
        rays on the hyperplane plus the lineality, so only its H-rep needs
        a double description.
        """
        tight = [g for g in self.vertex_rows if vdot(ineq_row, g) == 0]
        tight += [(0,) + r for r in self.rays if eval_dir(ineq_row, r) == 0]
        lin = [(0,) + l for l in self.lineality]
        return Polyhedron._from_cone_output(self.m, tight, lin)

    def facet_faces(self) -> tuple["Polyhedron", ...]:
        """Codimension-1 faces (one per irredundant inequality)."""
        if "facets" not in self._cache:
            faces = []
            for row in self.ineqs:
                f = self.face(row)
                if f.is_empty or f.dim != self.dim - 1:
                    raise InvariantError("inequality is not facet-defining")
                faces.append(f)
            self._cache["facets"] = tuple(faces)
        return self._cache["facets"]

    def all_faces(self) -> tuple["Polyhedron", ...]:
        """All nonempty faces, including the polyhedron itself."""
        if "faces" not in self._cache:
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
            self._cache["faces"] = tuple(sorted(seen.values(), key=lambda p: p.key))
        return self._cache["faces"]

    # -- splitting ------------------------------------------------------------

    def evaluate_signs(self, row: HomRow):
        """(has_positive, has_negative) of c0 + c.x over the polyhedron."""
        has_pos = has_neg = False
        for g in self.vertex_rows:
            s = vdot(row, g)
            has_pos |= s > 0
            has_neg |= s < 0
        for r in self.rays:
            s = eval_dir(row, r)
            has_pos |= s > 0
            has_neg |= s < 0
        for l in self.lineality:
            if eval_dir(row, l) != 0:
                has_pos = has_neg = True
        return has_pos, has_neg

    def split(self, row: HomRow) -> list["Polyhedron"]:
        """Pieces of the same dimension on both sides of the hyperplane row."""
        has_pos, has_neg = self.evaluate_signs(row)
        if not (has_pos and has_neg):
            return [self]
        out = []
        for signed in (row, tuple(-x for x in row)):
            piece = Polyhedron.from_hrep(self.m, ineqs=self.ineqs + (signed,),
                                         eqs=self.eqs)
            if not piece.is_empty and piece.dim == self.dim:
                out.append(piece)
        return out


# ---------------------------------------------------------------------------
# canonicalization helpers
# ---------------------------------------------------------------------------

def _check_len(vec, n, what="vector"):
    """The vector, after checking that it has length n."""
    if len(vec) != n:
        raise DimensionMismatchError(f"{what} of length {len(vec)}, expected {n}")
    return vec


def _point_row(point, m, what="point") -> HomRow:
    """The integer row ``(d, d*x)``, ``d > 0``, of a rational point of R^m."""
    return int_row((1, *_check_len(tuple(point), m, what)))


def _row_point(row: HomRow) -> Vec:
    """The point of an integer row ``(d, d*x)``, ``d > 0``."""
    return tuple(Fraction(x, row[0]) for x in row[1:])


def _canon_eqs(rows) -> tuple[HomRow, ...]:
    """RREF-canonical basis of a row space (equalities or lineality)."""
    return tuple(rref(rows)[0])


def _canon_ineqs(rows, eqs) -> tuple[HomRow, ...]:
    out = set()
    for row in rows:
        r = reduce_mod(eqs, row)
        if is_zero_vec(r[1:]):
            continue   # trivial after reduction
        out.add(r)
    return tuple(sorted(out))


def _canon_generators(vert_rows, rays, lineality):
    lin = _canon_eqs(lineality)
    rays_c = sorted({r for r in (reduce_mod(lin, x) for x in rays)
                     if not is_zero_vec(r)})
    lin_rows = [(0,) + l for l in lin]
    verts_c = sorted({reduce_mod(lin_rows, r) for r in vert_rows})
    return tuple(verts_c), tuple(rays_c), lin


# ---------------------------------------------------------------------------
# covering and refinement
# ---------------------------------------------------------------------------

def hyperplane_pool(polys) -> list[HomRow]:
    """Deduplicated constraint hyperplanes (equalities and facet rows)."""
    seen = set()
    out = []
    for p in polys:
        for row in p.eqs + p.ineqs:
            h = sign_normalized(row)
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def refine_by_hyperplanes(cell: Polyhedron, rows) -> list[Polyhedron]:
    """Subdivide a cell by hyperplanes, keeping pieces of the cell's dimension."""
    cutting = []
    for row in rows:
        has_pos, has_neg = cell.evaluate_signs(row)
        if has_pos and has_neg:
            cutting.append(row)
    pieces = [cell]
    for row in cutting:
        nxt = []
        for p in pieces:
            nxt.extend(p.split(row))
        pieces = nxt
    return pieces


def face_key_set(poly: Polyhedron) -> frozenset:
    if "face_keys" not in poly._cache:
        poly._cache["face_keys"] = frozenset(f.key for f in poly.all_faces())
    return poly._cache["face_keys"]


def _separates(row: HomRow, p: Polyhedron) -> bool:
    """Whether ``row`` is negative on the whole of p."""
    return (all(vdot(row, g) < 0 for g in p.vertex_rows)
            and all(eval_dir(row, r) <= 0 for r in p.rays)
            and all(eval_dir(row, l) == 0 for l in p.lineality))


def quickly_disjoint(a: Polyhedron, b: Polyhedron) -> bool:
    """Cheap sufficient test for nonempty a and b being disjoint; the
    prefilter of ``Polyhedron.intersect``.

    Looks for a constraint of one polyhedron that is strictly violated on
    the other, by integer dot products with the other's stored vertex
    rows, rays and lineality.  True means the intersection is empty;
    False decides nothing.
    """
    for p, q in ((a, b), (b, a)):
        for row in p.ineqs:
            if _separates(row, q):
                return True
        for row in p.eqs:
            if _separates(row, q) or _separates(vneg(row), q):
                return True
    return False


def common_refinement(cells) -> list[Polyhedron]:
    """Refine same-dimension cells until every pairwise intersection is a
    common face.

    In transverse position the input already is a complex and no cell is
    touched; otherwise only cells with offending overlaps are split, round
    after round until no cuts remain.  Each cell carries the input rows
    (equalities and facet rows of the given cells) that cut it out, and an
    offending pair is cut only by each other's carried rows, so every piece
    is a cell of the arrangement of the input rows.  If neither cut split
    the pair, both cells would be sign cells of the union of their rows and
    their intersection a common face; so every round splits a cell, and
    the finite arrangement bounds the rounds.
    """
    out: dict = {}
    rows: dict = {}
    for cell in cells:
        out.setdefault(cell.key, cell)
        rows.setdefault(cell.key, set()).update(cell.eqs + cell.ineqs)
    current = sorted(out.values(), key=lambda p: p.key)
    while True:
        cuts: dict = {}
        for ia in range(len(current)):
            for ib in range(ia + 1, len(current)):
                a, b = current[ia], current[ib]
                inter = a.intersect(b)
                if inter.is_empty:
                    continue
                if inter.key in face_key_set(a) and inter.key in face_key_set(b):
                    continue
                cuts.setdefault(ia, set()).update(rows[b.key])
                cuts.setdefault(ib, set()).update(rows[a.key])
        if not cuts:
            return current
        out, carried = {}, {}
        for idx, cell in enumerate(current):
            cut = cuts.get(idx, set())
            for piece in refine_by_hyperplanes(cell, sorted(cut)):
                out.setdefault(piece.key, piece)
                carried.setdefault(piece.key, set()).update(rows[cell.key], cut)
        rows = carried
        current = sorted(out.values(), key=lambda p: p.key)


def is_covered(target: Polyhedron, cover) -> bool:
    """Exact test for target being a subset of the union of the cover."""
    cover = list(cover)
    for p in cover:
        if p.m != target.m:
            raise DimensionMismatchError("cover member in a different ambient space")
    if target.is_empty:
        return True
    pool = []
    for row in hyperplane_pool(cover):
        has_pos, has_neg = target.evaluate_signs(row)
        if has_pos and has_neg:
            pool.append(row)
    for cell in refine_by_hyperplanes(target, pool):
        row = cell.interior_row()
        if not any(p.contains_row(row) for p in cover):
            return False
    return True
