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
from itertools import combinations, permutations

# The six edges of a tetrahedron as sorted vertex pairs, in the fixed order
# used everywhere (incidence slots, angle vectors, reports).
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

    Slot 6 t + k is edge VERTEX_PAIRS[k] of tetrahedron t.  ``edge_of[i]``
    is the edge-class id of slot i, and ``edges[e]`` the slots of class e.
    """

    n_tets: int
    edge_of: tuple
    edges: tuple

    @property
    def size(self):
        return 6 * self.n_tets


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
    """Union-find over the integers 0..size-1."""

    def __init__(self, size):
        self.parent = list(range(size))

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


def _edge_slot_classes(tri):
    """Edge classes as ascending lists of slot ids 6 t + k, ordered by their
    least slot."""
    uf = _UnionFind(6 * tri.n_tets)
    for (t, f), (t2, perm) in tri.gluings.items():
        verts = [v for v in range(4) if v != f]
        for a, b in combinations(verts, 2):
            image = tuple(sorted((perm[a], perm[b])))
            uf.union(6 * t + PAIR_POSITION[(a, b)],
                     6 * t2 + PAIR_POSITION[image])
    groups = {}
    for s in range(6 * tri.n_tets):
        groups.setdefault(uf.find(s), []).append(s)
    return list(groups.values())


def edge_classes(tri):
    """Partition the 6 * n_tets (tet, vertex pair) slots into edge orbits."""
    return [EdgeClass(i, tuple((s // 6, VERTEX_PAIRS[s % 6]) for s in g))
            for i, g in enumerate(_edge_slot_classes(tri))]


# The parity of each permutation of 0..3: 1 when it has an odd number of
# inversions.
_ODD = {perm: sum(perm[i] > perm[j] for i, j in combinations(range(4), 2)) % 2
        for perm in permutations(range(4))}


def vertex_links(tri):
    """One VertexLink per vertex class: Euler characteristic, orientability.

    The link of a class is a closed surface made of the corner triangles
    (t, v) of the class.  Every side is glued to exactly one other side, so
    E = 3F/2 and chi = V - F/2, where V counts the classes of edge ends
    (t, v, u).  A corner triangle is oriented by its tetrahedron, and a
    gluing keeps two orientations compatible exactly when its permutation is
    odd, so one 2-colouring search per class decides orientability.
    """
    n = tri.n_tets
    ends = _UnionFind(16 * n)  # edge end (t, v, u) is 16 t + 4 v + u
    for (t, f), (t2, perm) in tri.gluings.items():
        for v in range(4):
            for u in range(4):
                if u != v and f not in (u, v):
                    ends.union(16 * t + 4 * v + u,
                               16 * t2 + 4 * perm[v] + perm[u])
    sign = {}
    links = []
    for start in range(4 * n):
        if start in sign:
            continue
        # one search per class, from its least corner 4 t + v, so the
        # classes come out in order of their least corners
        sign[start] = 1
        stack, group, orientable = [start], [], True
        while stack:
            c = stack.pop()
            group.append(c)
            t, v = divmod(c, 4)
            for f in range(4):
                if f == v:
                    continue
                t2, perm = tri.gluings[(t, f)]
                nbr = 4 * t2 + perm[v]
                want = sign[c] if _ODD[perm] else -sign[c]
                if nbr not in sign:
                    sign[nbr] = want
                    stack.append(nbr)
                elif sign[nbr] != want:
                    orientable = False
        group.sort()
        v_count = len({ends.find(4 * c + u)
                       for c in group for u in range(4) if u != c % 4})
        links.append(VertexLink(len(links), v_count - len(group) // 2,
                                orientable,
                                tuple(divmod(c, 4) for c in group)))
    return links


def is_cusped(tri):
    """True when every vertex link has Euler characteristic zero."""
    return all(link.euler_characteristic == 0 for link in vertex_links(tri))


def incidence(tri):
    """The deterministic incidence index of a valid triangulation."""
    edges = [tuple(g) for g in _edge_slot_classes(tri)]
    edge_of = [None] * (6 * tri.n_tets)
    for e, members in enumerate(edges):
        for slot in members:
            edge_of[slot] = e
    return IncidenceIndex(tri.n_tets, tuple(edge_of), tuple(edges))


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
