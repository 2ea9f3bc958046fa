import functools
import json
import os
import random
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the benchmark's combinatorics, perfbench/covers.py
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench"))

from cuspforge import cli, optimizer, polytope, triangulation  # noqa: E402

import covers  # noqa: E402
from helpers import gluings_of  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# The volume of the figure-eight knot complement, 3 Cl_2(2 pi / 3), from
# mpmath's Clausen function, as the benchmark's oracle computes it: the
# double 2.0298832128193072.
with mpmath.workdps(30):
    V8 = float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3))

# The exit code of each solve status; lemmas exits 5 when a check fails,
# and every other report exits 0.
SOLVE_EXIT = {"converged": 0, "empty-closure": 3, "stalled": 4,
              "iteration-cap": 4}


@functools.cache
def _validator():
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(DATA_DIR, os.pardir, "docs",
                           "report_schema.json")) as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_schema(report):
    """Validate ``report`` against docs/report_schema.json."""
    _validator().validate(report)


def run_cli(capsys, *argv):
    """``cuspforge argv`` in process, as (exit code, report): the one gate
    of every report.  Stdout must be strict JSON (no NaN or Infinity),
    valid against the schema, with the exit code the report calls for and
    nothing on stderr.  A usage or input error, exit 2, prints nothing on
    stdout, and its stderr takes the report's place."""
    try:
        code = cli.main(list(map(str, argv)))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    if code == cli.EXIT_PARSE:
        assert out == ""
        return code, err
    report = json.loads(out, parse_constant=pytest.fail)  # NaN, Infinity
    validate_schema(report)
    res = report["results"]
    expected = (SOLVE_EXIT[res["status"]] if report["command"] == "solve"
                else cli.EXIT_SUITE_FAILURE if res.get("failing") else 0)
    assert (code, err) == (expected, "")
    return code, report


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
# complement: the benchmark's covers.GEO4_TEXT relabeled by covers.relabel
# with random.Random(108), written out so that it stays fixed.  It was kept
# as a labeling on which a solver since removed took more steps than on
# most others.
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
        return triangulation.parse_triangulation(fh.read())


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
def fig8_face_point():
    """A point of the relative interior of the face of the fig8 closure on
    which tetrahedron 0 is flat with angle 1 at pi: tetrahedron 1 then has
    angles (pi - 2 s, s, s), here at s = (pi - 1) / 2."""
    return polytope.to_slots([0.0, np.pi, 0.0, 1.0, (np.pi - 1.0) / 2.0,
                              (np.pi - 1.0) / 2.0])


@pytest.fixture(scope="session")
def fig8_tol_point():
    """A fig8 closure point whose angle 0 is exactly ``BOUNDARY_TOL``: no
    slot of it is at a bound."""
    eps = polytope.BOUNDARY_TOL
    return polytope.to_slots([eps, (np.pi - eps) / 2.0, (np.pi - eps) / 2.0,
                              np.pi / 4.0, np.pi / 8.0 + 0.75 * eps,
                              5.0 * np.pi / 8.0 - 0.75 * eps])


@pytest.fixture(scope="session")
def fig8_optimum(fig8_sys):
    res = optimizer.maximize_volume(fig8_sys)
    assert res.status == "converged"
    return res


@pytest.fixture(scope="session")
def doubled():
    return triangulation.parse_triangulation(DOUBLED_TEXT)


@pytest.fixture(scope="session")
def self_glued():
    return triangulation.parse_triangulation(SELF_GLUED_TEXT)


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
    """Property chain 141: its minimal face has linear tetrahedra, an
    angle at 0 and the other two free, so the dual runs on that face."""
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
        return triangulation.parse_triangulation(fh.read())


@pytest.fixture()
def doubled_path(tmp_path):
    path = tmp_path / "doubled.tri"
    path.write_text(DOUBLED_TEXT)
    return str(path)


def load_data(name):
    """The triangulation ``data/<name>.tri``."""
    with open(os.path.join(DATA_DIR, name + ".tri")) as fh:
        return triangulation.parse_triangulation(fh.read())


def flat_point(*big):
    """The slot vector with every tetrahedron t flat, its angle big[t] at
    pi and the other two at 0."""
    angles = np.zeros((len(big), 3))
    angles[np.arange(len(big)), big] = np.pi
    return polytope.to_slots(angles)


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


def from_gluings(n_tets, gluings):
    """The triangulation of ``n_tets`` tetrahedra with ``gluings``, a dict
    (t, f) -> (target tet, permutation as a sequence), through its .tri text
    (``covers.format_tri``) and ``parse_triangulation``, which validates
    it."""
    return triangulation.parse_triangulation(covers.format_tri(n_tets,
                                                               gluings))


def random_gluing(rng, n_tets):
    """Faces paired at random, each pair glued by a random permutation."""
    faces = [(t, f) for t in range(n_tets) for f in range(4)]
    rng.shuffle(faces)
    gluings = {}
    for (t, f), (t2, f2) in zip(faces[::2], faces[1::2]):
        p = [f2] + rng.sample([i for i in range(4) if i != f2], 3)
        p[0], p[f] = p[f], p[0]
        gluings[(t, f)] = (t2, tuple(p))
        gluings[(t2, f2)] = (t, tuple(p.index(i) for i in range(4)))
    return from_gluings(n_tets, gluings)


def relabel(tri, rng):
    """``tri`` with its tetrahedra permuted and the vertices of each one
    relabeled, both shuffled by ``rng`` (``covers.relabel``)."""
    return from_gluings(*covers.relabel(*gluings_of(tri), rng))


def cyclic_cover(tri, cocycle, fold):
    """The ``fold``-fold cyclic cover of ``tri`` (``covers.cyclic_cover``):
    sheet k of tetrahedron t is k n + t, and crossing the i-th face pairing
    (t, f) < (t', f'), in sorted order, moves from sheet k to sheet
    k + cocycle[i] mod fold (back across it, to k - cocycle[i]).  The cover
    is unbranched when the cocycle sums to zero around every edge class."""
    return from_gluings(*covers.cyclic_cover(*gluings_of(tri), cocycle,
                                             fold))
