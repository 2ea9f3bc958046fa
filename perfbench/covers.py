"""Benchmark inputs: fixed triangulations and seeded cyclic covers.

Everything here is independent of cuspforge: triangulations are plain
gluing dictionaries ``{(tet, face): (target tet, permutation)}`` parsed from
the same ``.tri`` text format, and every combinatorial fact the benchmark
relies on (edge classes, cusps, connectivity, orientability) is computed by
breadth-first search over the gluings.
"""

from __future__ import annotations

import random
from itertools import combinations

# Figure-eight knot complement, as in data/fig8.tri.
FIG8_TEXT = """\
tri 1
tets 2
glue 0 0 1 0132
glue 0 1 1 1230
glue 0 2 1 2310
glue 0 3 1 2103
glue 1 0 0 0132
glue 1 1 0 3201
glue 1 2 0 3012
glue 1 3 0 2103
"""

# pachner_23(pachner_23(fig8, (0, 0)), (0, 1)): a geometric 4-tetrahedron
# triangulation of the figure-eight complement with edge degrees 5, 9, 7, 3.
# Unlike fig8 itself, its max-min-slack start is not the maximizer, so the
# solver has real work to do on it and on its covers.
GEO4_TEXT = """\
tri 1
tets 4
glue 0 0 3 0312
glue 0 1 1 3102
glue 0 2 2 1203
glue 0 3 2 3021
glue 1 0 3 1230
glue 1 1 0 2130
glue 1 2 2 0132
glue 1 3 3 0132
glue 2 0 0 2013
glue 2 1 0 1320
glue 2 2 3 0132
glue 2 3 1 0132
glue 3 0 0 0231
glue 3 1 1 3012
glue 3 2 1 0132
glue 3 3 2 0132
"""
GEO4_DEGREES = (3, 5, 7, 9)

# fig8 after two 2-3 moves with edge degrees 2, 12, 7, 3: an empty interior
# and a maximizer with flat tetrahedra.  SLSQP from random starts reaches
# 1.71, and no angle structure exceeds the hyperbolic volume of fig8.
DEGENERATE_TEXT = """\
tri 1
tets 4
glue 0 0 2 1023
glue 0 1 1 3012
glue 0 2 3 2310
glue 0 3 3 2310
glue 1 0 0 1230
glue 1 1 2 3012
glue 1 2 2 0132
glue 1 3 3 0132
glue 2 0 1 1230
glue 2 1 0 1023
glue 2 2 3 0132
glue 2 3 1 0132
glue 3 0 0 3201
glue 3 1 0 3201
glue 3 2 1 0132
glue 3 3 2 0132
"""

# Integer 1-cocycle on the face pairings of GEO4, one value per pairing
# (t, f) < (t', f') in sorted order.  It sums to zero around every edge
# class, so every edge lifts to n edges of the same degree, and it gives a
# connected n-fold cover for every n.
GEO4_COCYCLE = (1, -1, 0, -1, -1, 0, 0, 0)

# Slot order of angle vectors: tetrahedra in index order, then these edges.
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
ORDERING = "tet-lex;edges=01,02,03,12,13,23"


class GluingError(ValueError):
    """Malformed or inconsistent gluing data."""


def parse(text):
    """(n_tets, gluings) from ``.tri`` text."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or lines[0] != ["tri", "1"] or lines[1][0] != "tets":
        raise GluingError("missing 'tri 1' / 'tets N' header")
    n = int(lines[1][1])
    gluings = {}
    for ln in lines[2:]:
        if len(ln) != 5 or ln[0] != "glue":
            raise GluingError("bad line %r" % " ".join(ln))
        t, f, t2 = int(ln[1]), int(ln[2]), int(ln[3])
        if (t, f) in gluings:
            raise GluingError("face (%d, %d) glued twice" % (t, f))
        gluings[(t, f)] = (t2, tuple(int(c) for c in ln[4]))
    validate(n, gluings)
    return n, gluings


def format_tri(n, gluings):
    out = ["tri 1", "tets %d" % n]
    for t in range(n):
        for f in range(4):
            t2, perm = gluings[(t, f)]
            out.append("glue %d %d %d %s" % (t, f, t2, "".join(map(str, perm))))
    return "\n".join(out) + "\n"


def _invert(perm):
    inv = [0] * 4
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def validate(n, gluings):
    """Raise GluingError unless every face is glued exactly once by a
    bijection to another face and the gluings come in inverse pairs."""
    faces = {(t, f) for t in range(n) for f in range(4)}
    if set(gluings) != faces:
        raise GluingError("glued faces do not match the %d tetrahedra" % n)
    for (t, f), (t2, perm) in gluings.items():
        if not 0 <= t2 < n or sorted(perm) != [0, 1, 2, 3]:
            raise GluingError("bad gluing at face (%d, %d)" % (t, f))
        f2 = perm[f]
        if (t2, f2) == (t, f) or gluings[(t2, f2)] != (t, _invert(perm)):
            raise GluingError("gluing at face (%d, %d) is not an involution"
                              % (t, f))


def _orbits(nodes, neighbours):
    """Breadth-first orbits of ``nodes`` under the ``neighbours`` relation."""
    seen = set()
    orbits = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for cur in orbit:
            for nxt in neighbours(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    orbit.append(nxt)
        orbits.append(orbit)
    return orbits


def edge_classes(n, gluings):
    """Edge orbits as lists of slots ``6 t + k`` (k indexes VERTEX_PAIRS)."""
    def neighbours(slot):
        t, (a, b) = slot
        for f in range(4):
            if f not in (a, b):
                t2, perm = gluings[(t, f)]
                yield t2, tuple(sorted((perm[a], perm[b])))

    nodes = [(t, p) for t in range(n) for p in VERTEX_PAIRS]
    return [[6 * t + VERTEX_PAIRS.index(p) for t, p in orbit]
            for orbit in _orbits(nodes, neighbours)]


def components(n, gluings):
    return _orbits(range(n), lambda t: (gluings[(t, f)][0] for f in range(4)))


def cusps(n, gluings):
    """The Euler characteristic of the link of each vertex class.

    The link of a cusp is the surface made of the corner triangles (t, v);
    its edges are the glued triangle sides and its vertices the orbits of
    edge ends (t, v, u), u != v.
    """
    def corner_nbrs(item):
        t, v = item
        for f in range(4):
            if f != v:
                t2, perm = gluings[(t, f)]
                yield t2, perm[v]

    def end_nbrs(item):
        t, v, u = item
        for f in range(4):
            if f not in (v, u):
                t2, perm = gluings[(t, f)]
                yield t2, perm[v], perm[u]

    corners = [(t, v) for t in range(n) for v in range(4)]
    out = []
    for group in _orbits(corners, corner_nbrs):
        ends = [(t, v, u) for t, v in group for u in range(4) if u != v]
        vertices = len(_orbits(ends, end_nbrs))
        triangles = len(group)
        out.append(vertices - 3 * triangles // 2 + triangles)
    return out


def _parity(perm):
    return sum(1 for i, j in combinations(range(4), 2) if perm[i] > perm[j]) % 2


def orientable(n, gluings):
    """True when the tetrahedra can be oriented so every gluing reverses
    the face orientation (each gluing permutation odd after reorienting)."""
    sign = {0: 1}
    todo = [0]
    while todo:
        t = todo.pop()
        for f in range(4):
            t2, perm = gluings[(t, f)]
            want = sign[t] * (1 if _parity(perm) else -1)
            if t2 not in sign:
                sign[t2] = want
                todo.append(t2)
            elif sign[t2] != want:
                return False
    return True


def face_pairings(gluings):
    """Face pairs (t, f) < (t', f') in sorted order."""
    return sorted(((t, f), (t2, perm[f])) for (t, f), (t2, perm)
                  in gluings.items() if (t, f) < (t2, perm[f]))


def cyclic_cover(n_base, gluings, cocycle, n):
    """The n-fold cyclic cover: sheet k of tetrahedron t is k * n_base + t,
    and each gluing moves from sheet k to sheet k + (cocycle value)."""
    shift = {}
    for (a, b), c in zip(face_pairings(gluings), cocycle, strict=True):
        shift[a], shift[b] = c, -c
    cover = {}
    for k in range(n):
        for (t, f), (t2, perm) in gluings.items():
            k2 = (k + shift[(t, f)]) % n
            cover[(k * n_base + t, f)] = (k2 * n_base + t2, perm)
    return n * n_base, cover


def relabel(n, gluings, rng):
    """Permute the tetrahedra and relabel each one's vertices at random."""
    order = list(range(n))
    rng.shuffle(order)
    sigma = []
    for _ in range(n):
        s = [0, 1, 2, 3]
        rng.shuffle(s)
        sigma.append(tuple(s))
    out = {}
    for (t, f), (t2, perm) in gluings.items():
        s, s2 = sigma[t], sigma[t2]
        inv = _invert(s)
        new_perm = tuple(s2[perm[inv[i]]] for i in range(4))
        out[(order[t], s[f])] = (order[t2], new_perm)
    return n, out


def self_check(n, gluings, base_degrees, fold):
    """Assert the cover is a valid, connected, one-cusped triangulation
    whose edges are ``fold`` lifts of each base edge, degrees preserved."""
    validate(n, gluings)
    degrees = sorted(len(c) for c in edge_classes(n, gluings))
    expected = sorted(d for d in base_degrees for _ in range(fold))
    if degrees != expected:
        raise GluingError("edge degrees %s, expected %s" % (degrees, expected))
    if len(components(n, gluings)) != 1:
        raise GluingError("cover is disconnected")
    if cusps(n, gluings) != [0]:
        raise GluingError("cover is not one torus-or-Klein-bottle cusp")


def cover_text(fold, seed):
    """Self-checked ``.tri`` text of a relabeled fold-fold cover of GEO4."""
    n, cover = cyclic_cover(*parse(GEO4_TEXT), GEO4_COCYCLE, fold)
    n, cover = relabel(n, cover, random.Random(seed))
    self_check(n, cover, GEO4_DEGREES, fold)
    return format_tri(n, cover)
