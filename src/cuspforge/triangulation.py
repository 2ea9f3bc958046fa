"""Ideal triangulations as face-gluing data.

A triangulation is a disjoint union of tetrahedra, vertices labelled 0..3,
with every face glued to another face by a vertex permutation.  Face ``f`` of
a tetrahedron is the face opposite vertex ``f``; a gluing of face ``(t, f)``
is recorded as a permutation of {0,1,2,3} carrying the vertices of ``t`` into
the target tetrahedron (so the permutation sends ``f`` to the target face
index).  From this data we derive edge classes, vertex links, the incidence
index used by the angle-structure machinery, and new triangulations via
2-3 moves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

# The six edges of a tetrahedron as sorted vertex pairs, in the fixed order
# used everywhere (incidence entries, angle vectors, reports).
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_POSITION = {p: k for k, p in enumerate(VERTEX_PAIRS)}


def opposite_pair(pair):
    """The complementary vertex pair (the opposite edge in a tetrahedron)."""
    a, b = pair
    return tuple(v for v in range(4) if v not in (a, b))


def _invert(perm):
    inv = [0, 0, 0, 0]
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def _compose(p, q):
    """Permutation p after q: (p o q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(4))


class TriangulationError(ValueError):
    """Invalid gluing data."""


class ParseError(TriangulationError):
    """Malformed gluing-format text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Triangulation:
    """Immutable validated face-gluing data.

    ``gluings`` maps each (tet, face) to (target tet, permutation); the
    target face is the image of the face index under the permutation.
    """

    def __init__(self, n_tets, gluings, label=None):
        if n_tets < 1:
            raise TriangulationError("need at least one tetrahedron")
        self.n_tets = int(n_tets)
        self.gluings = {key: (int(t2), tuple(perm))
                        for key, (t2, perm) in gluings.items()}
        self.label = label
        self._validate()

    def _validate(self):
        for t in range(self.n_tets):
            for f in range(4):
                if (t, f) not in self.gluings:
                    raise TriangulationError("unglued face (%d, %d)" % (t, f))
        if len(self.gluings) != 4 * self.n_tets:
            extra = set(self.gluings) - {(t, f) for t in range(self.n_tets)
                                         for f in range(4)}
            raise TriangulationError("gluing for nonexistent face %r"
                                     % (sorted(extra)[0],))
        for (t, f), (t2, perm) in self.gluings.items():
            if not 0 <= t2 < self.n_tets:
                raise TriangulationError(
                    "gluing of (%d, %d) targets nonexistent tetrahedron %d"
                    % (t, f, t2))
            if sorted(perm) != [0, 1, 2, 3]:
                raise TriangulationError(
                    "non-bijective permutation %r at face (%d, %d)"
                    % (perm, t, f))
            f2 = perm[f]
            if (t2, f2) == (t, f):
                raise TriangulationError(
                    "face (%d, %d) glued to itself" % (t, f))
            back_t, back_perm = self.gluings[(t2, f2)]
            if back_t != t or back_perm != _invert(perm):
                raise TriangulationError(
                    "non-involutive gluing at face (%d, %d)" % (t, f))

    def target(self, t, f):
        """(target tet, target face, permutation) for face (t, f)."""
        t2, perm = self.gluings[(t, f)]
        return t2, perm[f], perm

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.n_tets == other.n_tets
                and self.gluings == other.gluings)

    def __repr__(self):
        name = self.label or "<unnamed>"
        return "Triangulation(%s, %d tets)" % (name, self.n_tets)


@dataclass(frozen=True)
class EdgeClass:
    id: int
    members: tuple  # of (tet, vertex pair)

    @property
    def degree(self):
        return len(self.members)


@dataclass(frozen=True)
class VertexLink:
    id: int
    euler_characteristic: int
    orientable: bool
    corners: tuple  # of (tet, vertex)


@dataclass(frozen=True)
class IncidenceIndex:
    """Deterministic indexing of the (tet, edge) slots of a triangulation.

    ``entries[i]`` is the i-th slot (tet, vertex pair), ordered
    lexicographically by tet then by VERTEX_PAIRS position.  ``triples`` are
    the per-vertex index triples (four per tetrahedron), ``opposite[i]`` the
    slot of the complementary edge in the same tetrahedron, ``edge_of[i]``
    the edge-class id, and ``edges[e]`` the slots belonging to class ``e``.
    """

    n_tets: int
    entries: tuple
    triples: tuple
    opposite: tuple
    edge_of: tuple
    edges: tuple

    @property
    def size(self):
        return len(self.entries)

    def slot(self, tet, pair):
        return 6 * tet + PAIR_POSITION[tuple(sorted(pair))]


# ---------------------------------------------------------------------------
# Parsing and formatting

_GLUE_RE = re.compile(r"glue\s+(\d+)\s+(\d+)\s+(\d+)\s+([0-3]{4})$")


def parse_triangulation(text, label=None):
    """Parse gluing-format text (see the .tri format in the README)."""
    lines = text.splitlines()
    content = []
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            content.append((ln, stripped))
    if not content:
        raise ParseError("empty file")
    ln, header = content[0]
    if header != "tri 1":
        raise ParseError("expected format line 'tri 1'", ln)
    if len(content) < 2:
        raise ParseError("missing 'tets <N>' line", ln)
    ln, tets_line = content[1]
    m = re.match(r"tets\s+(\d+)$", tets_line)
    if not m:
        raise ParseError("expected 'tets <N>', got %r" % tets_line, ln)
    n_tets = int(m.group(1))
    gluings = {}
    for ln, line in content[2:]:
        m = _GLUE_RE.match(line)
        if not m:
            raise ParseError("expected 'glue <t> <f> <t'> <perm>', got %r"
                             % line, ln)
        t, f, t2 = int(m.group(1)), int(m.group(2)), int(m.group(3))
        perm = tuple(int(c) for c in m.group(4))
        if not 0 <= t < n_tets:
            raise ParseError("tetrahedron index %d out of range" % t, ln)
        if not 0 <= f < 4:
            raise ParseError("face index %d out of range" % f, ln)
        if (t, f) in gluings:
            raise ParseError("duplicate gluing for face (%d, %d)" % (t, f), ln)
        gluings[(t, f)] = (t2, perm)
    try:
        return Triangulation(n_tets, gluings, label=label)
    except ParseError:
        raise
    except TriangulationError as exc:
        raise ParseError(str(exc)) from exc


def format_triangulation(tri, comment=None):
    """Serialize back to gluing-format text."""
    out = []
    if comment:
        out.append("# " + comment)
    out.append("tri 1")
    out.append("tets %d" % tri.n_tets)
    for t in range(tri.n_tets):
        for f in range(4):
            t2, perm = tri.gluings[(t, f)]
            out.append("glue %d %d %d %s"
                       % (t, f, t2, "".join(str(v) for v in perm)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Derived combinatorics

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return groups


def edge_classes(tri):
    """Partition the 6 * n_tets (tet, vertex pair) slots into edge orbits."""
    slots = [(t, p) for t in range(tri.n_tets) for p in VERTEX_PAIRS]
    uf = _UnionFind(slots)
    for (t, f), (t2, perm) in tri.gluings.items():
        verts = [v for v in range(4) if v != f]
        for a, b in combinations(verts, 2):
            image = tuple(sorted((perm[a], perm[b])))
            uf.union((t, (a, b)), (t2, image))
    groups = sorted(uf.classes().values(),
                    key=lambda g: min((t, PAIR_POSITION[p]) for t, p in g))
    return [EdgeClass(i, tuple(sorted(g, key=lambda s: (s[0], PAIR_POSITION[s[1]]))))
            for i, g in enumerate(groups)]


def _link_side_pairs(tri):
    """Glued pairs of link-triangle sides, with their endpoint maps.

    The link triangle of corner (t, v) has one side on each face f != v of t;
    the side on face f joins the corner's intersections with edges {v, u1},
    {v, u2} where {u1, u2} = {0..3} \\ {v, f}.  A face gluing carries sides to
    sides by the vertex permutation.
    """
    pairs = []
    seen = set()
    for (t, f), (t2, perm) in tri.gluings.items():
        f2 = perm[f]
        for v in range(4):
            if v == f:
                continue
            side_a = (t, v, f)
            side_b = (t2, perm[v], f2)
            if side_a in seen or side_b in seen:
                continue
            seen.add(side_a)
            seen.add(side_b)
            pairs.append((side_a, side_b, perm))
    return pairs


def vertex_links(tri):
    """One VertexLink per vertex class: Euler characteristic, orientability."""
    corners = [(t, v) for t in range(tri.n_tets) for v in range(4)]
    vert_uf = _UnionFind(corners)
    # corners of link triangles: (t, v, u) with u != v
    tri_corners = [(t, v, u) for t, v in corners for u in range(4) if u != v]
    corner_uf = _UnionFind(tri_corners)
    for (t, f), (t2, perm) in tri.gluings.items():
        for v in range(4):
            if v == f:
                continue
            vert_uf.union((t, v), (t2, perm[v]))
            for u in range(4):
                if u not in (v, f):
                    corner_uf.union((t, v, u), (t2, perm[v], perm[u]))

    side_pairs = _link_side_pairs(tri)

    # Orientation: reference cyclic order of each link triangle is its three
    # u-labels ascending; two triangles glued along a side are compatibly
    # oriented iff the side is traversed in opposite directions.
    def side_direction(t, v, f):
        labels = sorted(u for u in range(4) if u != v)
        ends = [u for u in labels if u != f]
        i, j = labels.index(ends[0]), labels.index(ends[1])
        if (i + 1) % 3 == j:
            return ends[0], ends[1]
        return ends[1], ends[0]

    adjacency = {}
    for (ta, va, fa), (tb, vb, fb), perm in side_pairs:
        a_dir = side_direction(ta, va, fa)
        b_dir = side_direction(tb, vb, fb)
        mapped = (perm[a_dir[0]], perm[a_dir[1]])
        # same direction after mapping -> orientations must differ
        flip = 1 if mapped == b_dir else -1
        adjacency.setdefault((ta, va), []).append(((tb, vb), flip))
        adjacency.setdefault((tb, vb), []).append(((ta, va), flip))

    groups = sorted(vert_uf.classes().values(), key=min)
    links = []
    for i, group in enumerate(groups):
        group = sorted(group)
        f_count = len(group)
        e_count = sum(1 for (sa, sb, _) in side_pairs if sa[:2] in set(group))
        v_count = len({corner_uf.find((t, v, u))
                       for t, v in group for u in range(4) if u != v})
        chi = v_count - e_count + f_count
        # 2-color BFS over the triangle adjacency with flip constraints
        orientable = True
        sign = {}
        for start in group:
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                cur = stack.pop()
                for nbr, flip in adjacency.get(cur, ()):
                    want = sign[cur] * flip * -1  # flip=-1: same sign
                    if nbr in sign:
                        if sign[nbr] != want:
                            orientable = False
                    else:
                        sign[nbr] = want
                        stack.append(nbr)
        links.append(VertexLink(i, chi, orientable, tuple(group)))
    return links


def is_cusped(tri):
    """True when every vertex link has Euler characteristic zero."""
    return all(link.euler_characteristic == 0 for link in vertex_links(tri))


def incidence(tri):
    """The deterministic incidence index of a valid triangulation."""
    entries = tuple((t, p) for t in range(tri.n_tets) for p in VERTEX_PAIRS)
    triples = []
    for t in range(tri.n_tets):
        for v in range(4):
            triples.append(frozenset(
                6 * t + PAIR_POSITION[tuple(sorted((v, u)))]
                for u in range(4) if u != v))
    opposite = tuple(
        6 * t + PAIR_POSITION[opposite_pair(p)] for t, p in entries)
    classes = edge_classes(tri)
    edge_of = [None] * len(entries)
    edges = []
    for cls in classes:
        members = tuple(6 * t + PAIR_POSITION[p] for t, p in cls.members)
        edges.append(members)
        for slot in members:
            edge_of[slot] = cls.id
    return IncidenceIndex(tri.n_tets, entries, tuple(triples), opposite,
                          tuple(edge_of), tuple(edges))


# ---------------------------------------------------------------------------
# 2-3 move

def pachner_23(tri, face):
    """Replace the two tetrahedra sharing ``face`` by three around a new edge.

    ``face`` is a (tet, face index) pair; the move requires the face to be
    shared by two distinct tetrahedra.
    """
    t0, f0 = face
    if not (0 <= t0 < tri.n_tets and 0 <= f0 < 4):
        raise TriangulationError("invalid face (%d, %d)" % (t0, f0))
    t1, f1, perm01 = tri.target(t0, f0)
    if t1 == t0:
        raise TriangulationError(
            "unsupported self-gluing: face (%d, %d) is glued to the same "
            "tetrahedron" % (t0, f0))

    u = sorted(v for v in range(4) if v != f0)       # equator labels in t0
    v_img = [perm01[x] for x in u]                   # their labels in t1

    # New tetrahedron N_i has labels 0 = apex of t0 (vertex f0),
    # 1 = apex of t1 (vertex f1), 2 = equator u[i+1], 3 = equator u[i+2].
    # phi[i]: N_i labels -> t0 labels;  psi[i]: N_i labels -> t1 labels.
    phi = []
    psi = []
    for i in range(3):
        a, b = u[(i + 1) % 3], u[(i + 2) % 3]
        phi.append((f0, u[i], a, b))
        psi.append((v_img[i], f1, perm01[a], perm01[b]))

    # Renumbering: untouched tets keep their order, new tets at the end.
    keep = [t for t in range(tri.n_tets) if t not in (t0, t1)]
    renum = {t: i for i, t in enumerate(keep)}
    new_base = len(keep)

    # Old external boundary faces of the bipyramid -> (new tet, label map
    # old-tet-labels -> new-tet-labels).
    boundary = {}
    for i in range(3):
        boundary[(t0, u[i])] = (new_base + i, _invert(phi[i]))
        boundary[(t1, v_img[i])] = (new_base + i, _invert(psi[i]))

    gluings = {}

    def reglue(new_t, new_f, old_t, old_f, to_old):
        """Install the gluing for new face (new_t, new_f), which replaces the
        old face (old_t, old_f); to_old maps new labels to old labels."""
        tgt, tgt_perm = tri.gluings[(old_t, old_f)]
        tgt_f = tgt_perm[old_f]
        if (tgt, tgt_f) in boundary:
            new_tgt, to_new = boundary[(tgt, tgt_f)]
            gluings[(new_t, new_f)] = (new_tgt,
                                       _compose(to_new, _compose(tgt_perm, to_old)))
        else:
            gluings[(new_t, new_f)] = (renum[tgt], _compose(tgt_perm, to_old))

    for i in range(3):
        # internal faces around the new central edge
        j = (i + 1) % 3
        gluings[(new_base + i, 2)] = (new_base + j, (0, 1, 3, 2))
        gluings[(new_base + j, 3)] = (new_base + i, (0, 1, 3, 2))
        # external faces: label 1 face came from t0, label 0 face from t1
        reglue(new_base + i, 1, t0, u[i], phi[i])
        reglue(new_base + i, 0, t1, v_img[i], psi[i])

    for t in keep:
        for f in range(4):
            tgt, perm = tri.gluings[(t, f)]
            tgt_f = perm[f]
            if (tgt, tgt_f) in boundary:
                new_tgt, to_new = boundary[(tgt, tgt_f)]
                gluings[(renum[t], f)] = (new_tgt, _compose(to_new, perm))
            elif tgt in (t0, t1):
                raise TriangulationError(
                    "gluing of (%d, %d) targets the move face" % (t, f))
            else:
                gluings[(renum[t], f)] = (renum[tgt], perm)

    label = None
    if tri.label:
        label = "%s+23" % tri.label
    return Triangulation(tri.n_tets + 1, gluings, label=label)
