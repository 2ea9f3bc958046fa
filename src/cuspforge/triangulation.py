"""Ideal triangulations as face-gluing data.

A triangulation is a disjoint union of tetrahedra, vertices labelled 0..3,
with every face glued to another face by a vertex permutation.  Face ``f`` of
a tetrahedron is the face opposite vertex ``f``; a gluing of face ``(t, f)``
is recorded as a permutation of {0,1,2,3} carrying the vertices of ``t`` into
the target tetrahedron (so the permutation sends ``f`` to the target face
index).  A triangulation holds this data as two (n, 4) integer arrays: the
target tetrahedron of each face, and its permutation as a row of ``PERMS``;
parsing fills them from text, and a 2-3 move edits them.

From these arrays we derive edge classes, vertex links, and the incidence
index used by the angle-structure machinery.
Edge classes and vertex links are the connected components of graphs whose
edges the gluings give, face by face; one labeller, ``_classes``, finds them
whole arrays at a time by min-label hooking and pointer jumping (Shiloach and
Vishkin, "An O(log n) parallel connectivity algorithm", J. Algorithms 3,
1982).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

# The six edges of a tetrahedron as sorted vertex pairs, in the fixed order
# used everywhere (incidence slots, angle vectors, reports).
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# The 24 permutations of 0..3 in lexicographic order.  A gluing's
# permutation is held as its row here; _INVERSE is the row of the inverse,
# _COMPOSE[a, b] the row of PERMS[a] o PERMS[b], _ODD is 1 for the odd
# permutations, and _DIGITS_ROW finds the row from the decimal value of the
# permutation's four digits ("1032" -> 1032), -1 where those digits are no
# permutation.
PERMS = np.array(list(permutations(range(4))))
_DIGITS = (1000, 100, 10, 1)
_DIGITS_ROW = np.full(3334, -1)
_DIGITS_ROW[PERMS @ _DIGITS] = np.arange(24)
_INVERSE = _DIGITS_ROW[np.argsort(PERMS, axis=1) @ _DIGITS]
_COMPOSE = _DIGITS_ROW[PERMS[:, PERMS] @ _DIGITS]
_ODD = np.triu(PERMS[:, :, None] > PERMS[:, None, :], 1).sum(axis=(1, 2)) % 2

# The two graphs whose components are the edge classes and the vertex
# classes.  Each face f of a tetrahedron holds six nodes of either graph,
# numbered locally _*_LOCAL[f], and a gluing by permutation p carries them
# to the nodes _*_IMAGE[p, f] of the target tetrahedron.
#
# Edge end (t, v, u), the end at v of the edge vu of tetrahedron t, is node
# 16 t + 4 v + u; face f holds the ends with v, u != f, and p carries (v, u)
# to (p[v], p[u]).
_V, _U = np.moveaxis([[(v, u) for v in range(4) for u in range(4)
                       if len({f, v, u}) == 3] for f in range(4)], 2, 0)
_END_LOCAL = 4 * _V + _U
_END_IMAGE = 4 * PERMS[:, _V] + PERMS[:, _U]
# Signed corner (t, v, s), the corner triangle at vertex v of tetrahedron t
# with sign s in {0, 1}, is node 8 t + 2 v + s; face f holds the corners
# v != f.  A corner triangle is oriented by its tetrahedron, and a gluing
# keeps two orientations compatible exactly when it is odd, so an even
# permutation flips the sign.
_W, _S = np.moveaxis([[(v, s) for v in range(4) if v != f for s in (0, 1)]
                      for f in range(4)], 2, 0)
_CORNER_LOCAL = 2 * _W + _S
_CORNER_IMAGE = 2 * PERMS[:, _W] + (_S ^ (1 - _ODD[:, None, None]))
# The two ends (a, b) and (b, a) of slot k, edge VERTEX_PAIRS[k] = (a, b).
_SLOT_ENDS = np.array([(4 * a + b, 4 * b + a) for a, b in VERTEX_PAIRS])


def opposite_pair(pair):
    """The complementary vertex pair (the opposite edge in a tetrahedron)."""
    a, b = pair
    return tuple(v for v in range(4) if v not in (a, b))


class TriangulationError(ValueError):
    """Invalid gluing data.  ``fault`` is (4 t + f, kind) when face (t, f)
    is the first whose gluing is invalid, kind indexing ``_FAULTS``."""

    def __init__(self, message, fault=None):
        super().__init__(message)
        self.fault = fault


class ParseError(TriangulationError):
    """Malformed gluing-format text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# What _first_fault finds wrong with a gluing, by its kind 1..4.
_FAULTS = (None,
           "gluing of (%(t)d, %(f)d) targets nonexistent tetrahedron %(t2)d",
           "non-bijective permutation %(perm)r at face (%(t)d, %(f)d)",
           "face (%(t)d, %(f)d) glued to itself",
           "non-involutive gluing at face (%(t)d, %(f)d)")


def _first_fault(target, perm):
    """(4 t + f, kind) of the first face (t, f) whose gluing is invalid, or
    None.  ``target`` and ``perm`` hold each face's target tetrahedron and
    permutation row, face 4 t + f at index 4 t + f; a row of -1 stands for
    a non-bijective permutation, as is any row outside PERMS."""
    face = np.arange(len(target))
    bad_target = (target < 0) | (target >= len(target) // 4)
    bad_perm = (perm < 0) | (perm >= len(PERMS))
    ok = ~(bad_target | bad_perm)
    p = np.where(ok, perm, 0)
    back = 4 * np.where(ok, target, 0) + PERMS[p, face % 4]
    kind = np.select(
        [bad_target, bad_perm, ok & (back == face),
         ok & ((target[back] != face // 4) | (perm[back] != _INVERSE[p]))],
        [1, 2, 3, 4])
    first = np.flatnonzero(kind)
    if not first.size:
        return None
    return int(first[0]), int(kind[first[0]])


def _fault_message(face, kind, t2, perm):
    t, f = divmod(face, 4)
    return _FAULTS[kind] % dict(t=t, f=f, t2=t2, perm=perm)


def _first_unglued(n_tets, glued):
    """The first face (t, f) not in ``glued``, or None; it is among the
    first len(glued) + 1 faces, so the search never runs past the input."""
    for face in range(min(len(glued) + 1, 4 * n_tets)):
        if divmod(face, 4) not in glued:
            return divmod(face, 4)
    return None


class Triangulation:
    """Immutable validated face-gluing data.

    ``face_tet[t, f]`` is the tetrahedron that face (t, f) is glued to, and
    ``face_perm[t, f]`` the row of ``PERMS`` holding the gluing's
    permutation; the target face is the image of f under it.  The
    constructor copies both (n, 4) integer arrays and checks every gluing.
    """

    def __init__(self, face_tet, face_perm, label=None):
        face_tet = np.array(face_tet, dtype=np.int64)
        face_perm = np.array(face_perm, dtype=np.int64)
        if face_tet.shape != face_perm.shape or face_tet.shape[1:] != (4,):
            raise TriangulationError("face_tet and face_perm need one shape "
                                     "(n, 4), got %r and %r"
                                     % (face_tet.shape, face_perm.shape))
        if not len(face_tet):
            raise TriangulationError("need at least one tetrahedron")
        target, perm = face_tet.reshape(-1), face_perm.reshape(-1)
        fault = _first_fault(target, perm)
        if fault is not None:
            face, kind = fault
            raise TriangulationError(_fault_message(
                face, kind, int(target[face]), int(perm[face])), fault)
        self.n_tets = len(face_tet)
        self.face_tet, self.face_perm = face_tet, face_perm
        face_tet.flags.writeable = face_perm.flags.writeable = False
        self.label = label

    @cached_property
    def _end_labels(self):
        """The _classes labels of the edge ends; both the edge classes and
        the vertex links are read from them."""
        return _face_graph(self, 16, _END_LOCAL, _END_IMAGE)

    @property
    def gluings(self):
        """The gluings as a fresh dict (t, f) -> (target tet, permutation
        tuple).  Nothing in the package reads it; perfbench's tests compare
        their own parser against it."""
        perms = map(tuple, PERMS[self.face_perm.reshape(-1)].tolist())
        return {divmod(face, 4): glued for face, glued in
                enumerate(zip(self.face_tet.reshape(-1).tolist(), perms))}

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and np.array_equal(self.face_tet, other.face_tet)
                and np.array_equal(self.face_perm, other.face_perm))

    def __repr__(self):
        name = self.label or "<unnamed>"
        return "Triangulation(%s, %d tets)" % (name, self.n_tets)


@dataclass(frozen=True)
class VertexLink:
    id: int
    euler_characteristic: int
    orientable: bool
    corners: tuple  # of (tet, vertex)


@dataclass(frozen=True, eq=False)  # an array field has no truth value
class IncidenceIndex:
    """Deterministic indexing of the (tet, edge) slots of a triangulation.

    Slot 6 t + k is edge VERTEX_PAIRS[k] of tetrahedron t.  ``edge_of[i]``
    is the edge-class id of slot i (an integer array), and ``edges[e]`` the
    slots of class e.
    """

    n_tets: int
    edge_of: np.ndarray
    edges: tuple

    @property
    def size(self):
        return 6 * self.n_tets


# ---------------------------------------------------------------------------
# Parsing and formatting

_GLUE_RE = re.compile(r"glue\s+(\d+)\s+(\d+)\s+(\d+)\s+([0-3]{4})$")


def _check_lines(glue, n_tets):
    """Check (line number, line) glue lines one at a time, in order: the
    indices are in range and no face is glued twice.  Returns the set of
    glued faces."""
    glued = set()
    for ln, line in glue:
        t, f = (int(x) for x in _GLUE_RE.match(line).group(1, 2))
        if not 0 <= t < n_tets:
            raise ParseError("tetrahedron index %d out of range" % t, ln)
        if not 0 <= f < 4:
            raise ParseError("face index %d out of range" % f, ln)
        if (t, f) in glued:
            raise ParseError("duplicate gluing for face (%d, %d)" % (t, f), ln)
        glued.add((t, f))
    return glued


def parse_triangulation(text, label=None):
    """Parse gluing-format text (see the .tri format in the README).

    Errors name their line; an unglued face names the ``tets`` line."""
    content = [(ln, stripped)
               for ln, raw in enumerate(text.splitlines(), start=1)
               if (stripped := raw.split("#", 1)[0].strip())]
    if not content:
        raise ParseError("empty file")
    ln, header = content[0]
    if header != "tri 1":
        raise ParseError("expected format line 'tri 1'", ln)
    if len(content) < 2:
        raise ParseError("missing 'tets <N>' line", ln)
    tets_ln, tets_line = content[1]
    m = re.match(r"tets\s+(\d+)$", tets_line)
    if not m:
        raise ParseError("expected 'tets <N>', got %r" % tets_line, tets_ln)
    n_tets = int(m.group(1))
    glue = content[2:]
    for i, (ln, line) in enumerate(glue):
        if not _GLUE_RE.match(line):
            _check_lines(glue[:i], n_tets)  # an earlier line's error first
            raise ParseError("expected 'glue <t> <f> <t'> <perm>', got %r"
                             % line, ln)
    # Only with 4 n lines can every face be glued; past this check, arrays
    # sized by the header are no larger than the input.
    valid = len(glue) == 4 * n_tets > 0
    if valid:
        t, f, t2, digits = _glue_rows(glue).T
        face = 4 * t + f
        valid = ((t < n_tets).all() and (f < 4).all()
                 and (np.bincount(face, minlength=4 * n_tets) == 1).all())
    if not valid:
        # a line error comes first; with 4 n lines there is one
        glued = _check_lines(glue, n_tets)
        if n_tets < 1:
            raise ParseError("need at least one tetrahedron", tets_ln)
        raise ParseError("unglued face (%d, %d)"
                         % _first_unglued(n_tets, glued), tets_ln)
    target = np.empty(4 * n_tets, dtype=np.int64)
    perm = np.empty_like(target)
    target[face] = t2
    perm[face] = _DIGITS_ROW[digits]
    try:
        return Triangulation(target.reshape(-1, 4), perm.reshape(-1, 4),
                             label)
    except TriangulationError as err:
        # name the line, with the target and digits as written there
        bad, kind = err.fault
        ln, line = glue[np.flatnonzero(face == bad)[0]]
        t2, digits = _GLUE_RE.match(line).group(3, 4)
        raise ParseError(_fault_message(bad, kind, int(t2),
                                        tuple(map(int, digits))), ln) from None


def _glue_rows(glue):
    """The integers of the glue lines, one (t, f, t', perm digits) row per
    line; an index too large for int64 reads as 2**62."""
    tokens = " ".join(line for _, line in glue).split()
    del tokens[::5]  # the "glue" keywords
    try:
        rows = np.array(tokens, dtype=np.int64)
    except OverflowError:
        rows = np.array([min(int(x), 1 << 62) for x in tokens])
    return rows.reshape(-1, 4)


def format_triangulation(tri, comment=None):
    """Serialize back to gluing-format text."""
    out = []
    if comment:
        out.append("# " + comment)
    out.append("tri 1")
    out.append("tets %d" % tri.n_tets)
    perms = PERMS[tri.face_perm.reshape(-1)].tolist()
    out.extend("glue %d %d %d %d%d%d%d" % (*divmod(face, 4), t2, *perm)
               for face, (t2, perm)
               in enumerate(zip(tri.face_tet.reshape(-1).tolist(), perms)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Derived combinatorics

def _classes(size, a, b):
    """Label each node 0..size-1 of the graph with edges (a[i], b[i]) by the
    least node of its connected component.

    Each round hooks every root onto the least root it shares an edge with,
    then jumps pointers until every node points at a root, and drops the
    edges whose ends now share one.  A label never exceeds its node and
    only decreases, so when no edge is left each component's root is its
    least node.
    """
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        live = la != lb
        if not live.any():
            return label
        a, b, la, lb = a[live], b[live], la[live], lb[live]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def _face_graph(tri, width, local, image):
    """_classes over the nodes width t + i, i < width, where every face
    (t, f) glued to t2 by permutation row p joins width t + local[f] to
    width t2 + image[p, f]."""
    a = width * np.arange(tri.n_tets)[:, None, None] + local
    b = width * tri.face_tet[:, :, None] + image[tri.face_perm, np.arange(4)]
    return _classes(width * tri.n_tets, a.ravel(), b.ravel())


def _edge_of(tri):
    """The edge class of each slot 6 t + k, classes numbered by least slot.

    A slot's two ends lie in one class of edge ends when the edge is glued
    to itself reversed, else in a class and its mirror image; either way the
    smaller label of the two names the slot's class.  That label is the end
    (a, b), a < b, of the class's least slot, so the labels sort as the
    least slots do.
    """
    ends = tri._end_labels.reshape(-1, 16)
    slot = ends[:, _SLOT_ENDS].min(axis=2).ravel()
    return np.unique(slot, return_inverse=True)[1]


def _members(ids):
    """The ascending positions holding each id, for ids 0..k-1."""
    order = np.argsort(ids, kind="stable").tolist()
    stops = np.cumsum(np.bincount(ids)).tolist()
    return [order[i:j] for i, j in zip([0] + stops, stops)]


def vertex_links(tri):
    """One VertexLink per vertex class: Euler characteristic, orientability.

    The link of a class is a closed surface made of the corner triangles
    (t, v) of the class.  Every side is glued to exactly one other side, so
    E = 3F/2 and chi = V - F/2, where V counts the classes of edge ends
    (t, v, u).  Each corner comes in two signs, and the signed corners of a
    class fall into one class of the signed graph when the link is
    non-orientable, or two when it is orientable; the least corner among
    them names the class, so links come out in order of their least
    corners.
    """
    signed = _face_graph(tri, 8, _CORNER_LOCAL, _CORNER_IMAGE).reshape(-1, 2)
    least, link_of = np.unique(signed.min(axis=1) // 2, return_inverse=True)
    ends = tri._end_labels
    roots = np.flatnonzero(ends == np.arange(len(ends)))
    roots = roots[roots % 4 != roots // 4 % 4]  # no end (t, v, v)
    chi = (np.bincount(link_of[roots // 4], minlength=len(least))
           - np.bincount(link_of) // 2)
    orientable = signed[least, 0] != signed[least, 1]
    return [VertexLink(i, int(chi[i]), bool(orientable[i]),
                       tuple(divmod(c, 4) for c in corners))
            for i, corners in enumerate(_members(link_of))]


def incidence(tri):
    """The deterministic incidence index of a valid triangulation."""
    edge_of = _edge_of(tri)
    edge_of.flags.writeable = False
    return IncidenceIndex(tri.n_tets, edge_of,
                          tuple(map(tuple, _members(edge_of))))


# ---------------------------------------------------------------------------
# 2-3 move

def pachner_23(tri, face):
    """Replace the two tetrahedra sharing ``face`` by three around a new edge.

    ``face`` is a (tet, face index) pair; the move requires the face to be
    shared by two distinct tetrahedra.  The other tetrahedra keep their
    order and vertex labels, and the three new ones N_0, N_1, N_2 come last.
    With t0 = tet, f0 = face index, t1 its neighbour across the face and u
    the other vertices of t0 in order, N_i has vertices 0 = f0 of t0, 1 =
    the vertex of t1 off the face, 2 = u[i + 1] and 3 = u[i + 2] (indices
    mod 3).  Its faces 2 and 3 are glued inside the bipyramid around the
    new edge 01, and its faces 1 and 0 are the bipyramid's faces that t0
    and t1 hold opposite u[i].
    """
    t0, f0 = face
    n = tri.n_tets
    if not (0 <= t0 < n and 0 <= f0 < 4):
        raise TriangulationError("invalid face (%d, %d)" % (t0, f0))
    t1 = int(tri.face_tet[t0, f0])
    if t1 == t0:
        raise TriangulationError(
            "unsupported self-gluing: face (%d, %d) is glued to the same "
            "tetrahedron" % (t0, f0))
    p01 = PERMS[tri.face_perm[t0, f0]]
    u = np.array([v for v in range(4) if v != f0])
    new = n - 2 + np.arange(3)
    # home[t, f]: the tetrahedron of the result that holds old face (t, f),
    # and the row of the map from the old tetrahedron's labels to its own
    keep = np.isin(np.arange(n), (t0, t1), invert=True)
    home_tet = np.full((n, 4), -1)
    home_tet[keep] = np.arange(n - 2)[:, None]
    home_perm = np.zeros((n, 4), dtype=np.int64)  # row 0 is the identity
    # vertices 0..3 of N_i are f0, u[i], u[i + 1], u[i + 2] in t0's labels
    # and, through p01, u[i], f0, u[i + 1], u[i + 2] in t1's
    to_t0 = np.stack([np.full(3, f0), u, np.roll(u, -1), np.roll(u, -2)], 1)
    to_t1 = p01[to_t0[:, [1, 0, 2, 3]]]
    home_tet[t0, u] = home_tet[t1, p01[u]] = new
    home_perm[t0, u] = _INVERSE[_DIGITS_ROW[to_t0 @ _DIGITS]]
    home_perm[t1, p01[u]] = _INVERSE[_DIGITS_ROW[to_t1 @ _DIGITS]]
    # every face but the two sides of the move face keeps its gluing, carried
    # to the homes of both its sides
    target, perm = tri.face_tet.reshape(-1), tri.face_perm.reshape(-1)
    home_tet, home_perm = home_tet.reshape(-1), home_perm.reshape(-1)
    old = np.setdiff1d(np.arange(4 * n), (4 * t0 + f0, 4 * t1 + p01[f0]))
    back = 4 * target[old] + PERMS[perm[old], old % 4]
    at = 4 * home_tet[old] + PERMS[home_perm[old], old % 4]
    out_tet = np.empty(4 * n + 4, dtype=np.int64)
    out_perm = np.empty_like(out_tet)
    out_tet[at] = home_tet[back]
    out_perm[at] = _COMPOSE[home_perm[back],
                            _COMPOSE[perm[old], _INVERSE[home_perm[old]]]]
    # face 2 of N_i is face 3 of N_(i + 1), by the permutation 0132
    out_tet[4 * new + 2] = np.roll(new, -1)
    out_tet[4 * new + 3] = np.roll(new, 1)
    out_perm[4 * new + 2] = out_perm[4 * new + 3] = _DIGITS_ROW[132]
    label = "%s+23" % tri.label if tri.label else None
    return Triangulation(out_tet.reshape(-1, 4), out_perm.reshape(-1, 4),
                         label)
