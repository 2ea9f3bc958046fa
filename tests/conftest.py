import itertools
import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from cuspforge import optimizer, polytope, triangulation  # noqa: E402

from helpers import face_lists  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# Two tetrahedra glued by the identity along all four faces: six edge
# classes of degree two and four spherical vertex links, so the angle
# equalities are inconsistent with the box (empty closure).
DOUBLED_TEXT = "tri 1\ntets 2\n" + "".join(
    "glue %d %d %d 0123\n" % (t, f, 1 - t) for t in range(2) for f in range(4))

# One tetrahedron with faces 0-1 and 2-3 self-identified through the
# involution (1 0 3 2).
SELF_GLUED_TEXT = "tri 1\ntets 1\n" + "".join(
    "glue 0 %d 0 1032\n" % f for f in range(4))


# A geometric four-tetrahedron triangulation of the figure-eight knot
# complement, in a labeling on which the ascent from the LP's point took
# four more steps than on most others.
GEO4_TEXT = "tri 1\ntets 4\n" + "".join(
    "glue %s\n" % g for g in (
        "0 0 2 2130", "0 1 1 1320", "0 2 3 3210", "0 3 1 1032",
        "1 0 3 0132", "1 1 2 1023", "1 2 0 1032", "1 3 0 3021",
        "2 0 1 1023", "2 1 3 1230", "2 2 0 3102", "2 3 3 2103",
        "3 0 1 0132", "3 1 0 3210", "3 2 2 3012", "3 3 2 2103"))
# Sheet shifts of GEO4_TEXT's face pairings, in sorted order, summing to
# zero around each of its four edge classes: every cyclic cover is
# unbranched, and its volume is the fold times the fig8 volume.
GEO4_COCYCLE = (-1, 1, -1, 0, 1, -1, 1, 0)


@pytest.fixture(scope="session")
def fig8_path():
    return os.path.join(DATA_DIR, "fig8.tri")


@pytest.fixture(scope="session")
def fig8(fig8_path):
    with open(fig8_path) as fh:
        return triangulation.parse_triangulation(fh.read(), label="fig8")


@pytest.fixture(scope="session")
def fig8_idx(fig8):
    return triangulation.incidence(fig8)


@pytest.fixture(scope="session")
def fig8_sys(fig8_idx):
    return polytope.build_constraints(fig8_idx)


@pytest.fixture(scope="session")
def fig8_center(fig8_sys):
    """The regular point: every angle pi/3."""
    return np.full(fig8_sys.dim, np.pi / 3.0)


@pytest.fixture(scope="session")
def fig8_optimum(fig8_sys):
    res = optimizer.maximize_volume(fig8_sys)
    assert res.status == "converged"
    return res


@pytest.fixture(scope="session")
def doubled():
    return triangulation.parse_triangulation(DOUBLED_TEXT, label="doubled")


@pytest.fixture(scope="session")
def self_glued():
    return triangulation.parse_triangulation(SELF_GLUED_TEXT,
                                             label="self-glued")


@pytest.fixture(scope="session")
def degenerate4_path():
    return os.path.join(DATA_DIR, "degenerate4.tri")


@pytest.fixture(scope="session")
def degenerate4_sys(degenerate4_path):
    with open(degenerate4_path) as fh:
        tri = triangulation.parse_triangulation(fh.read())
    return polytope.build_constraints(triangulation.incidence(tri))


@pytest.fixture(scope="session")
def flatten3_path():
    return os.path.join(DATA_DIR, "flatten3.tri")


@pytest.fixture(scope="session")
def chain141_path(fig8, tmp_path_factory):
    """Property chain 141: its ascent pins a tetrahedron flat, and the
    restart's face needs the pinned LP."""
    path = tmp_path_factory.mktemp("chains") / "chain141.tri"
    path.write_text(triangulation.format_triangulation(property_chain(fig8,
                                                                      141)))
    return str(path)


@pytest.fixture(scope="session")
def gieseking_path():
    return os.path.join(DATA_DIR, "gieseking.tri")


@pytest.fixture(scope="session")
def gieseking(gieseking_path):
    with open(gieseking_path) as fh:
        return triangulation.parse_triangulation(fh.read(), label="gieseking")


@pytest.fixture()
def doubled_path(tmp_path):
    path = tmp_path / "doubled.tri"
    path.write_text(DOUBLED_TEXT)
    return str(path)


def load_data(name):
    """The triangulation ``data/<name>.tri``."""
    with open(os.path.join(DATA_DIR, name + ".tri")) as fh:
        return triangulation.parse_triangulation(fh.read(), label=name)


def flat_pins(*big):
    """Slot -> angle pins making tetrahedron t flat with angle big[t] at pi;
    slot k of a tetrahedron carries angle (0, 1, 2, 2, 1, 0)[k]."""
    return {6 * t + k: np.pi * ((0, 1, 2, 2, 1, 0)[k] == b)
            for t, b in enumerate(big) for k in range(6)}


def movable_faces(tri):
    """The faces (t, f), in order, shared by two distinct tetrahedra: those
    a 2-3 move applies to."""
    return [tuple(face) for face in np.argwhere(
        tri.face_tet != np.arange(tri.n_tets)[:, None]).tolist()]


def movable_face(tri):
    """First face shared by two distinct tetrahedra (2-3 move applicable)."""
    faces = movable_faces(tri)
    if not faces:
        raise AssertionError("no movable face")
    return faces[0]


def movable_chain(tri, n_moves):
    """``tri`` after ``n_moves`` 2-3 moves, each on its first movable face."""
    for _ in range(n_moves):
        tri = triangulation.pachner_23(tri, movable_face(tri))
    return tri


def random_chain(tri, rng, n_moves):
    """``tri`` after ``n_moves`` 2-3 moves, each on a face drawn by ``rng``
    among those shared by two distinct tetrahedra."""
    for _ in range(n_moves):
        tri = triangulation.pachner_23(tri, rng.choice(movable_faces(tri)))
    return tri


def property_chain(fig8, seed):
    """The seeded random chain of the property test: up to six 2-3 moves
    from fig8."""
    rng = random.Random(seed)
    return random_chain(fig8, rng, rng.randrange(7))


def from_gluings(n_tets, gluings, label=None):
    """The triangulation of ``n_tets`` tetrahedra with ``gluings``, a dict
    (t, f) -> (target tet, permutation as a sequence), through its .tri text
    and ``parse_triangulation``, which validates it."""
    return triangulation.parse_triangulation(
        "tri 1\ntets %d\n" % n_tets + "".join(
            "glue %d %d %d %s\n" % (t, f, t2, "".join(map(str, perm)))
            for (t, f), (t2, perm) in sorted(gluings.items())), label=label)


def relabel(tri, rng):
    """``tri`` with its tetrahedra permuted and the vertices of each one
    relabeled, both drawn by ``rng``."""
    order = rng.sample(range(tri.n_tets), tri.n_tets)
    sigma = [rng.sample(range(4), 4) for _ in range(tri.n_tets)]
    targets, perms = face_lists(tri)
    gluings = {}
    for t, f in itertools.product(range(tri.n_tets), range(4)):
        t2, perm = targets[t][f], perms[t][f]
        s, s2 = sigma[t], sigma[t2]
        gluings[(order[t], s[f])] = (
            order[t2], [s2[perm[s.index(w)]] for w in range(4)])
    return from_gluings(tri.n_tets, gluings, label=tri.label)


def cyclic_cover(tri, cocycle, fold):
    """The ``fold``-fold cyclic cover of ``tri``: sheet k of tetrahedron t is
    k n + t, and crossing the i-th face pairing (t, f) < (t', f'), in sorted
    order, moves from sheet k to sheet k + cocycle[i] mod fold (back across
    it, to k - cocycle[i]).  The cover is unbranched when the cocycle sums
    to zero around every edge class."""
    n = tri.n_tets
    targets, perms = face_lists(tri)
    faces = list(itertools.product(range(n), range(4)))
    pairs = sorted(((t, f), (targets[t][f], perms[t][f][f]))
                   for t, f in faces
                   if (t, f) < (targets[t][f], perms[t][f][f]))
    shift = {}
    for (face, back), c in zip(pairs, cocycle, strict=True):
        shift[face], shift[back] = c, -c
    gluings = {}
    for k in range(fold):
        for t, f in faces:
            k2 = (k + shift[(t, f)]) % fold
            gluings[(k * n + t, f)] = (k2 * n + targets[t][f], perms[t][f])
    return from_gluings(fold * n, gluings, label=tri.label)
