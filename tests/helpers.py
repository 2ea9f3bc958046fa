"""Independent oracles used by the test suite.

Everything here deliberately avoids the library code paths it checks:
quadrature instead of the series kernel; breadth-first orbits instead of
the library's array labeller, with the edge classes and each vertex link's
Euler characteristic from the benchmark's ``perfbench/covers.py`` (which
shares no code with the library, reached through ``gluings_of``) and each
link's orientability from side directions; point-to-point hyperbolic
distances for decorated edge lengths; box-bounded linear programs over a
slot system built from those orbits and the vertex triples for the shape
of the angle polytope; and dense least-squares solves in angle coordinates
for the certificate's multipliers and the Newton step.  The sampled
checks, which score all their samples in one array pass, are checked
against per-sample loops over the same draws.
"""

import json
import math
import warnings
from itertools import combinations

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import null_space
from scipy.optimize import linprog

from cuspforge import lobachevsky, optimizer, polytope
from cuspforge.triangulation import PERMS

import covers


def angles_text(x):
    """Slot vector ``x`` as the text of an angle file: the documented object
    with the ordering and the angles, which ``polytope.angles_from_json``
    reads."""
    return json.dumps({"ordering": polytope.ORDERING_CONVENTION,
                       "angles": [float(v) for v in x]})


def lobachevsky_quadrature(theta):
    """Adaptive quadrature of the defining integral of the Lobachevsky
    function on [0, theta]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda u: -np.log(np.abs(2.0 * np.sin(u))),
                      0.0, theta, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def gluings_of(tri):
    """``tri`` as the gluing data of ``perfbench/covers.py``, read from its
    face arrays: (n, {(t, f): (t2, perm)}), face (t, f) glued to
    tetrahedron t2 by the tuple perm, which carries vertex v to perm[v]."""
    perms = PERMS[tri.face_perm].tolist()
    return tri.n_tets, {(t, f): (t2, tuple(perms[t][f]))
                        for t, row in enumerate(tri.face_tet.tolist())
                        for f, t2 in enumerate(row)}


def edge_orbits(tri):
    """The edge orbits of ``covers.edge_classes`` as ascending slot lists,
    in order of their least slots."""
    return [sorted(o) for o in covers.edge_classes(*gluings_of(tri))]


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
    _, gluings = gluings_of(tri)

    def neighbors(item):
        t, v = item
        return [(gluings[t, f][0], gluings[t, f][1][v])
                for f in range(4) if f != v]

    seen = set()
    classes = []
    for c in ((t, v) for t in range(tri.n_tets) for v in range(4)):
        if c not in seen:
            group = _orbit(c, neighbors)
            seen |= group
            classes.append(sorted(group))
    return classes


def assemble_links(tri):
    """Vertex links by surface assembly.

    Returns a list of (chi, n_triangles, orientable) per vertex class, in
    order of each class's least corner.  The triangles are the corners
    (t, v) of the class, and chi is ``covers.cusps``'.  Orientability comes
    from side directions: each triangle is first traversed along its labels
    u != v in ascending cyclic order, and two triangles glued along a side
    are compatibly oriented when they traverse that side in opposite
    directions.
    """
    n, gluings = gluings_of(tri)

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
                t2, perm = gluings[t, f]
                other = (t2, perm[v])
                want = -orient[(t, v)] * direction(v, x, y) \
                    * direction(perm[v], perm[x], perm[y])
                if other not in orient:
                    orient[other] = want
                    todo.append(other)
                elif orient[other] != want:
                    return False
        return True

    return [(chi, len(group), oriented(group)) for chi, group in zip(
        covers.cusps(n, gluings), corner_classes(tri), strict=True)]


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
    orbits = edge_orbits(tri)
    a_eq = np.zeros((4 * n + len(orbits), 6 * n))
    for t in range(n):
        for v in range(4):
            for k, pair in enumerate(PAIRS):
                if v in pair:
                    a_eq[4 * t + v, 6 * t + k] = 1.0
    for e, orbit in enumerate(orbits):
        a_eq[4 * n + e, orbit] = 1.0
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
    orbits = edge_orbits(tri)
    a = np.zeros((n + len(orbits), 3 * n))
    for t in range(n):
        a[t, 3 * t:3 * t + 3] = 1.0
    for e, orbit in enumerate(orbits):
        for s in orbit:
            a[n + e, 3 * (s // 6) + min(s % 6, OPPOSITE[s % 6])] += 1.0
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


def dense_newton_step(tri, face, ang, rhs, shift, barrier=False):
    """The Newton step of ``face`` (an ``optimizer._Face``, for its curved
    and linear tetrahedra) at angles ``ang``, by a dense minimum-norm
    least-squares solve of the bordered system over ``angle_matrix``:
    [[M_c H^-1 M_c^T - shift, M_z], [M_z^T, 0]] (x, z) = rhs, plus
    M_c H^-1 g on the edge rows with ``barrier``.  H, inverted as a matrix,
    is the Hessian in (A, B) of each curved tetrahedron that ang does not
    flatten: of its volume, or of sum log theta with ``barrier``, whose
    gradient is then g.  Returns x and the angles' change, H^-1 (M_c^T x -
    g) on the curved tetrahedra and z on the linear ones' p."""
    n = tri.n_tets
    a_edge = angle_matrix(tri)[n:]
    m = a_edge.reshape(-1, n, 3)
    c = face.curved[np.all(ang[face.curved] > 0.0, axis=1)]
    lin = face.linear
    m_c = np.hstack([m[:, c, 0] - m[:, c, 2], m[:, c, 1] - m[:, c, 2]])
    m_z = m[:, lin, face.p] - m[:, lin, face.q]
    x, y, z = ang[c].T
    if barrier:  # second derivatives of log theta, and the gradient
        second = [-1.0 / t ** 2 for t in (x, y, z)]
        g = np.concatenate([1.0 / x - 1.0 / z, 1.0 / y - 1.0 / z])
    else:  # of the Lobachevsky function, -cot theta
        second = [-1.0 / np.tan(t) for t in (x, y, z)]
        g = np.zeros(2 * c.size)
    k = c.size
    hess = np.zeros((2 * k, 2 * k))
    i = np.arange(k)
    hess[i, i] = second[0] + second[2]
    hess[k + i, k + i] = second[1] + second[2]
    hess[i, k + i] = hess[k + i, i] = second[2]
    h_inv = np.linalg.inv(hess)
    n_edges, n_lin = m_z.shape
    kkt = np.block([[m_c @ h_inv @ m_c.T - shift * np.eye(n_edges), m_z],
                    [m_z.T, np.zeros((n_lin, n_lin))]])
    full = np.zeros(n_edges + n_lin)
    full[:rhs.size] = rhs
    full[:n_edges] += m_c @ h_inv @ g
    sol = np.linalg.lstsq(kkt, full, rcond=None)[0]
    d_ab = h_inv @ (m_c.T @ sol[:n_edges] - g)
    d = np.zeros_like(ang)
    d[c, 0], d[c, 1] = d_ab[:k], d_ab[k:]
    d[c, 2] = -d_ab[:k] - d_ab[k:]
    d[lin, face.p] = sol[n_edges:]
    return sol[:n_edges], d


def interior_status(sys_):
    """``closure_status`` from ``polytope.interior_point``: the interior of
    the closure is empty when its minimal face fixes a slot."""
    found = polytope.interior_point(sys_)
    if found is None:
        return "empty-closure"
    return "empty-interior" if found[1] else "ok"


def dominance_reference(sys_, p, n_samples, seed):
    """``optimizer.dominance_check``'s report from one sample at a time:
    the same draws, then each sample's volume and one-sided derivative limit
    on their own, with the verdict and the worst values updated per sample.
    A sample farther than 1e-4 (max norm) must have less volume than p, a
    nearer one at most 1e-10 more, and no limit may exceed 1e-10; the
    worst limit is None when one is +inf."""
    samples = polytope.sample_closure_points(
        sys_, np.random.default_rng(seed), n_samples,
        polytope.to_slots(optimizer.minimal_face(sys_)[1]))
    vp = lobachevsky.volume(p)
    ok, worst_gap, worst_dir, informative = True, None, -math.inf, 0
    for q in samples:
        gap = vp - lobachevsky.volume(q)
        far = float(np.max(np.abs(q - p))) > 1e-4
        if far:
            informative += 1
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
        limit = lobachevsky.boundary_derivative_limit(p, q)
        worst_dir = max(worst_dir, limit)
        ok = ok and (gap > 0.0 if far else gap >= -1e-10) and limit <= 1e-10
    return optimizer.DominanceReport(
        ok, worst_gap, None if worst_dir == math.inf else worst_dir,
        informative)


def entropy_reference(rng, samples):
    """The lemma suite's ``entropy_lhs_max`` from one sample at a time: x, y
    uniform in [0, 10), a, b in [0, 3), and c up to 2 above
    log(e^a + e^b)."""
    worst = -math.inf
    for _ in range(samples):
        x, y = rng.uniform(0.0, 10.0, size=2)
        a, b = rng.uniform(0.0, 3.0, size=2)
        c = math.log(math.exp(a) + math.exp(b)) + rng.uniform(0.0, 2.0)
        worst = max(worst, lobachevsky.entropy_inequality(x, y, a, b, c))
    return worst
