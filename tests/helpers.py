"""Independent oracles used by the test suite.

Everything here deliberately avoids the library code paths it checks:
quadrature instead of the series kernel, breadth-first orbit enumeration
instead of the library's array labeller, explicit surface assembly for
links, point-to-point hyperbolic distances for decorated edge lengths,
box-bounded linear programs over a slot system built from those orbits and
the vertex triples for the shape of the angle polytope, and dense
least-squares solves in angle coordinates for the certificate's multipliers
and the Newton step.
"""

import math
import warnings
from itertools import combinations, product

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import null_space
from scipy.optimize import linprog

from cuspforge.triangulation import PERMS


def lobachevsky_quadrature(theta):
    """Adaptive quadrature of the defining integral of the Lobachevsky
    function on [0, theta]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda u: -np.log(np.abs(2.0 * np.sin(u))),
                      0.0, theta, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def face_lists(tri):
    """The gluings of ``tri`` as nested lists read from its face arrays:
    face (t, f) is glued to tetrahedron targets[t][f] by the permutation
    perms[t][f], which carries vertex v to perms[t][f][v]."""
    return tri.face_tet.tolist(), PERMS[tri.face_perm].tolist()


def orbit_edge_classes(tri):
    """Edge orbits by breadth-first search over the gluing-induced maps."""
    slots = [(t, p) for t in range(tri.n_tets)
             for p in combinations(range(4), 2)]
    neighbors = {s: set() for s in slots}
    targets, perms = face_lists(tri)
    for t, f in product(range(tri.n_tets), range(4)):
        t2, perm = targets[t][f], perms[t][f]
        verts = [v for v in range(4) if v != f]
        for a, b in combinations(verts, 2):
            image = tuple(sorted((perm[a], perm[b])))
            neighbors[(t, (a, b))].add((t2, image))
            neighbors[(t2, image)].add((t, (a, b)))
    seen = set()
    orbits = []
    for s in slots:
        if s in seen:
            continue
        frontier = [s]
        orbit = set()
        while frontier:
            cur = frontier.pop()
            if cur in orbit:
                continue
            orbit.add(cur)
            frontier.extend(neighbors[cur] - orbit)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def _orbit(start, nbrs):
    """The breadth-first orbit of ``start`` under the neighbour map."""
    todo, seen = [start], {start}
    while todo:
        cur = todo.pop()
        for nxt in nbrs(cur):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def corner_classes(tri):
    """The vertex classes as sorted lists of corners (t, v), in order of
    their least corners: orbits of the corners across the glued faces."""
    targets, perms = face_lists(tri)

    def neighbors(item):
        t, v = item
        return [(targets[t][f], perms[t][f][v]) for f in range(4) if f != v]

    seen = set()
    classes = []
    for c in ((t, v) for t in range(tri.n_tets) for v in range(4)):
        if c not in seen:
            group = _orbit(c, neighbors)
            seen |= group
            classes.append(sorted(group))
    return classes


def assemble_links(tri):
    """Vertex links by explicit surface assembly.

    Returns a list of (chi, n_triangles, orientable) per vertex class, in
    order of each class's least corner, computed from scratch: triangles are
    corners (t, v), edges are glued side pairs, vertices are breadth-first
    orbits of triangle corners.  Orientability comes from side directions:
    each triangle is first traversed along its labels u != v in ascending
    cyclic order, and two triangles glued along a side are compatibly
    oriented when they traverse that side in opposite directions.
    """
    targets, perms = face_lists(tri)

    def corner_neighbors(item):
        t, v, u = item
        out = []
        for f in range(4):
            if f in (v, u):
                continue
            t2, perm = targets[t][f], perms[t][f]
            out.append((t2, perm[v], perm[u]))
        return out

    def direction(v, x, y):
        """+1 when the side x -> y of a triangle at vertex v follows the
        ascending cyclic order of its labels, -1 otherwise."""
        labels = sorted(u for u in range(4) if u != v)
        return 1 if labels[(labels.index(x) + 1) % 3] == y else -1

    def oriented(group):
        # relative orientation of each triangle against its label order;
        # a side x -> y is traversed direction * orientation
        orient = {group[0]: 1}
        todo = [group[0]]
        while todo:
            t, v = todo.pop()
            for f in range(4):
                if f == v:
                    continue
                x, y = [u for u in range(4) if u not in (v, f)]
                t2, perm = targets[t][f], perms[t][f]
                other = (t2, perm[v])
                want = -orient[(t, v)] * direction(v, x, y) \
                    * direction(perm[v], perm[x], perm[y])
                if other not in orient:
                    orient[other] = want
                    todo.append(other)
                elif orient[other] != want:
                    return False
        return True

    results = []
    for group in corner_classes(tri):
        faces = len(group)
        sides = set()
        for t, v in group:
            for f in range(4):
                if f == v:
                    continue
                t2, perm = targets[t][f], perms[t][f]
                sides.add(frozenset([(t, v, f), (t2, perm[v], perm[f])]))
        edges = len(sides)
        corner_set = {(t, v, u) for t, v in group for u in range(4) if u != v}
        vertex_orbits = set()
        done = set()
        for item in corner_set:
            if item in done:
                continue
            o = _orbit(item, corner_neighbors)
            done |= o
            vertex_orbits.add(o)
        chi = len(vertex_orbits) - edges + faces
        results.append((chi, faces, oriented(group)))
    return results


def halfspace_distance(p1, p2):
    """Hyperbolic distance between points ((x, y), h) of upper half-space,
    with x+iy the boundary coordinate and h > 0 the height."""
    (z1, h1), (z2, h2) = p1, p2
    num = abs(z1 - z2) ** 2 + (h1 - h2) ** 2
    return math.acosh(1.0 + num / (2.0 * h1 * h2))


def decorated_edge_length_oracle(p, q, dp, dq):
    """Signed horosphere distance along the geodesic between boundary points
    p, q with horosphere diameters dp, dq, via explicit intersection points.

    The geodesic is the semicircle of radius R = |q - p| / 2; the horosphere
    at p (Euclidean sphere of diameter dp tangent at p) meets it at the
    half-angle parameter tan(phi/2) = 2R / dp measured from q's side.
    """
    r_big = abs(q - p) / 2.0
    m = (p + q) / 2.0
    u = (q - p) / abs(q - p)

    def intersection(vertex, diam):
        # angle on the semicircle measured from the opposite endpoint
        phi = 2.0 * math.atan2(2.0 * r_big, diam)
        direction = u if vertex == p else -u
        return (m + r_big * math.cos(phi) * direction,
                r_big * math.sin(phi))

    a = intersection(p, dp)
    b = intersection(q, dq)
    dist = halfspace_distance(a, b)
    overlap = abs(q - p) ** 2 < dp * dq  # horospheres intersect
    return -dist if overlap else dist


def aitken_limit(values):
    """Aitken extrapolation of a sequence tending to a limit."""
    d1 = values[1] - values[0]
    d2 = values[2] - values[1]
    if d2 == d1:
        return values[2]
    return values[2] - d2 * d2 / (d2 - d1)


# The six edges of a tetrahedron in slot order, and the slot of the edge
# opposite each one.
PAIRS = list(combinations(range(4), 2))
OPPOSITE = [PAIRS.index(tuple(sorted(set(range(4)) - set(p)))) for p in PAIRS]


def slot_system(tri):
    """The closure's equalities over the 6n slots as a dense (a_eq, b_eq):
    one row per vertex of each tetrahedron, whose three edges sum to pi,
    then one row per edge orbit, whose slots sum to 2 pi."""
    n = tri.n_tets
    orbits = orbit_edge_classes(tri)
    a_eq = np.zeros((4 * n + len(orbits), 6 * n))
    for t in range(n):
        for v in range(4):
            for k, pair in enumerate(PAIRS):
                if v in pair:
                    a_eq[4 * t + v, 6 * t + k] = 1.0
    for e, orbit in enumerate(orbits):
        for t, pair in orbit:
            a_eq[4 * n + e, 6 * t + PAIRS.index(pair)] = 1.0
    b_eq = np.repeat([np.pi, 2.0 * np.pi], [4 * n, len(orbits)])
    return a_eq, b_eq


def null_directions(tri):
    """Orthonormal columns spanning the homogeneous solutions of the slot
    system."""
    return null_space(slot_system(tri)[0])


def closure_status(a_eq, b_eq):
    """"empty-closure", "empty-interior" or "ok" for {A x = b, 0 <= x <= pi}:
    a feasibility program with box bounds, then a max-min-slack one."""
    n = a_eq.shape[1]
    feasible = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                       bounds=[(0.0, np.pi)] * n, method="highs")
    if feasible.status != 0:
        return "empty-closure"
    # variables (x, s): maximize s with s <= x_i and s <= pi - x_i
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.vstack([np.hstack([-np.eye(n), np.ones((n, 1))]),
                      np.hstack([np.eye(n), np.ones((n, 1))])])
    b_ub = np.concatenate([np.zeros(n), np.full(n, np.pi)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  A_eq=np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))]),
                  b_eq=b_eq, bounds=[(0.0, np.pi)] * n + [(None, None)],
                  method="highs")
    return "ok" if -res.fun > 1e-9 else "empty-interior"


def fixed_slots(a_eq, b_eq):
    """Slots constant over the closure, from the range of each coordinate
    (two box-bounded linear programs per slot)."""
    n = a_eq.shape[1]
    out = set()
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        lo, hi = (linprog(sign * c, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0.0, np.pi)] * n, method="highs").fun
                  for sign in (1.0, -1.0))
        if lo + hi > -1e-9:
            out.add(i)
    return out


def angle_matrix(tri):
    """The closure's equality rows over the 3n angles as a dense array.
    Angle 3 t + k of tetrahedron t is carried by its slots k and 5 - k.
    There is one row per tetrahedron, summing its angles, then one per edge
    orbit, where each slot of an angle in the orbit adds 1."""
    n = tri.n_tets
    orbits = orbit_edge_classes(tri)
    a = np.zeros((n + len(orbits), 3 * n))
    for t in range(n):
        a[t, 3 * t:3 * t + 3] = 1.0
    for e, orbit in enumerate(orbits):
        for t, pair in orbit:
            k = PAIRS.index(pair)
            a[n + e, 3 * t + min(k, OPPOSITE[k])] += 1.0
    return a


def lstsq_certificate(tri, p, tol=1e-8):
    """The least-squares KKT fit at slot vector p by a dense solve over
    ``angle_matrix``, each angle the mean of its two slots.  Returns the
    minimum-norm multipliers fitting -log(2 sin theta) over the angles
    strictly inside (tol, pi - tol), the fitted values (angle, value) on the
    other angles, and the largest residual on the free ones."""
    a = angle_matrix(tri)
    six = np.asarray(p, dtype=float).reshape(tri.n_tets, 6)
    theta = 0.5 * (six[:, :3] + six[:, OPPOSITE[:3]]).ravel()
    free = (theta > tol) & (theta < np.pi - tol)
    g = -np.log(2.0 * np.sin(theta[free]))
    a_free = a[:, free]
    if free.any():
        lam = np.linalg.lstsq(a_free.T, g, rcond=None)[0]
    else:
        lam = np.zeros(a.shape[0])
    residual = float(np.max(np.abs(a_free.T @ lam - g), initial=0.0))
    fitted = a.T @ lam
    active = tuple((int(i), float(fitted[i])) for i in np.flatnonzero(~free))
    return lam, active, residual


def dense_newton_step(tri, face, ang):
    """The Newton step of ``face`` (an ``optimizer._Face``, for its curved
    and linear tetrahedra) at angles ``ang``, by a dense minimum-norm
    least-squares solve of the bordered system over ``angle_matrix``:
    [[M_c H^-1 M_c^T, M_z], [M_z^T, 0]] (lam, z) = (2 pi - A ang +
    M_c H^-1 g, 0), with H the volume's Hessian in the (A, B) of each curved
    tetrahedron, inverted as a matrix.  Returns the direction, the edge-row
    normal A^T lam, the slope -r H^-1 r and the residual max |r|, where
    r = M_c^T lam - g."""
    n = tri.n_tets
    a_edge = angle_matrix(tri)[n:]
    m = a_edge.reshape(-1, n, 3)
    c, lin = face.curved, face.linear
    m_c = np.hstack([m[:, c, 0] - m[:, c, 2], m[:, c, 1] - m[:, c, 2]])
    m_z = m[:, lin, face.p] - m[:, lin, face.q]
    x, y, z = ang[c].T
    g = np.concatenate([np.log(np.sin(z) / np.sin(x)),
                        np.log(np.sin(z) / np.sin(y))])
    k = c.size
    hess = np.zeros((2 * k, 2 * k))
    i = np.arange(k)
    hess[i, i] = -(1.0 / np.tan(x) + 1.0 / np.tan(z))
    hess[k + i, k + i] = -(1.0 / np.tan(y) + 1.0 / np.tan(z))
    hess[i, k + i] = hess[k + i, i] = -1.0 / np.tan(z)
    h_inv = np.linalg.inv(hess)
    n_edges, n_lin = m_z.shape
    kkt = np.block([[m_c @ h_inv @ m_c.T, m_z],
                    [m_z.T, np.zeros((n_lin, n_lin))]])
    rhs = np.concatenate([2.0 * np.pi - a_edge @ ang.ravel()
                          + m_c @ h_inv @ g, np.zeros(n_lin)])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    lam = sol[:n_edges]
    r = m_c.T @ lam - g
    d_ab = h_inv @ r
    d = np.zeros_like(ang)
    d[c, 0], d[c, 1] = d_ab[:k], d_ab[k:]
    d[c, 2] = -d_ab[:k] - d_ab[k:]
    d[lin, face.p] = sol[n_edges:]
    d[lin, face.q] = -sol[n_edges:]
    return d, a_edge.T @ lam, -float(r @ d_ab), float(np.max(np.abs(r),
                                                            initial=0.0))
