"""Gluing data, parsing, derived combinatorics, and the 2-3 move."""

import random
from itertools import permutations, product

import numpy as np
import pytest

from cuspforge import optimizer, polytope
from cuspforge import triangulation as tr

from conftest import (GEO4_COCYCLE, GEO4_TEXT, SELF_GLUED_TEXT, cyclic_cover,
                      from_gluings, load_data, movable_chain, movable_face,
                      movable_faces, random_gluing, relabel)
from helpers import assemble_links, corner_classes, orbit_edge_classes


# ---------------------------------------------------------------------------
# parsing

def test_parse_format_roundtrip(fig8):
    text = tr.format_triangulation(fig8, comment="roundtrip")
    again = tr.parse_triangulation(text)
    assert again == fig8


def test_parse_ignores_comments_and_blank_lines():
    text = "# header comment\n\ntri 1\ntets 2  # trailing\n" + "\n".join(
        "glue %d %d %d 0123" % (t, f, 1 - t)
        for t in range(2) for f in range(4)) + "\n"
    tri = tr.parse_triangulation(text)
    assert tri.n_tets == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("tri 2\ntets 1\n", "tri 1"),
    ("tri 1\n", "tets"),
    ("tri 1\ntets 1\nglue 0 0\n", "glue"),
    ("tri 1\ntets 1\nglue 0 4 0 1032\n", "face index"),
    ("tri 1\ntets 1\nglue 1 0 0 1032\n", "out of range"),
    ("tri 1\ntets 1\nglue 0 0 0 1032\nglue 0 0 0 1032\n", "duplicate"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(tr.ParseError, match=fragment):
        tr.parse_triangulation(text)


def test_parse_error_carries_line_number():
    text = "tri 1\ntets 1\n# fine\nglue 0 0 bogus\n"
    with pytest.raises(tr.ParseError) as exc:
        tr.parse_triangulation(text)
    assert exc.value.line == 4


# SELF_GLUED_TEXT's gluings with face f on line 6 - f, so that a face's
# line differs from its place in (t, f) order.
SELF_GLUED_LINES = ["glue 0 %d 0 1032" % f for f in range(4)]


@pytest.mark.parametrize("face,glue,line,message", [
    (1, "glue 0 1 0 1023", 6, "non-involutive gluing at face (0, 0)"),
    (2, "glue 0 2 5 1032", 4,
     "gluing of (0, 2) targets nonexistent tetrahedron 5"),
    (0, "glue 0 0 0 0123", 6, "face (0, 0) glued to itself"),
    (0, "glue 0 0 0 0012", 6,
     "non-bijective permutation (0, 0, 1, 2) at face (0, 0)"),
])
def test_parse_validation_errors_name_their_line(face, glue, line, message):
    lines = list(SELF_GLUED_LINES)
    lines[face] = glue
    text = "tri 1\ntets 1\n" + "\n".join(reversed(lines)) + "\n"
    with pytest.raises(tr.ParseError) as exc:
        tr.parse_triangulation(text)
    assert exc.value.line == line
    assert str(exc.value) == "line %d: %s" % (line, message)


def test_parse_reports_an_earlier_line_before_a_malformed_one():
    text = "tri 1\ntets 1\nglue 3 0 0 1032\nglue 0 1 zero\n"
    with pytest.raises(tr.ParseError, match="out of range") as exc:
        tr.parse_triangulation(text)
    assert exc.value.line == 3


def test_huge_tetrahedron_count_is_unglued_not_allocated():
    # arrays sized by the header would need terabytes
    text = "tri 1\ntets 1000000000000\nglue 0 0 0 1032\nglue 0 1 0 1032\n"
    with pytest.raises(tr.ParseError, match="unglued face \\(0, 2\\)") as exc:
        tr.parse_triangulation(text)
    assert exc.value.line == 2


def test_parse_index_beyond_int64():
    big = 10 ** 30
    lines = list(SELF_GLUED_LINES)
    lines[0] = "glue 0 0 %d 1032" % big
    text = "tri 1\ntets 1\n" + "\n".join(lines) + "\n"
    with pytest.raises(tr.ParseError,
                       match="targets nonexistent tetrahedron %d" % big):
        tr.parse_triangulation(text)
    text = "tri 1\ntets 1\nglue %d 0 0 1032\n" % big
    with pytest.raises(tr.ParseError, match="index %d out of range" % big):
        tr.parse_triangulation(text)


# SELF_GLUED_TEXT as arrays, its permutation 1032 being row 7 of PERMS;
# each case below breaks one gluing.
SELF_GLUED_TET, SELF_GLUED_PERM = [[0] * 4], [[7] * 4]


@pytest.mark.parametrize("face,tet,row,message", [
    (2, 5, 7, "gluing of (0, 2) targets nonexistent tetrahedron 5"),
    (0, 0, -1, "non-bijective permutation -1 at face (0, 0)"),
    (0, 0, 24, "non-bijective permutation 24 at face (0, 0)"),
    (0, 0, 0, "face (0, 0) glued to itself"),
    (1, 0, 6, "non-involutive gluing at face (0, 0)"),  # 1023
], ids=["bad-target", "non-bijective", "row-out-of-range", "self-glued",
        "non-involutive"])
def test_constructor_rejects_each_fault(face, tet, row, message):
    face_tet, face_perm = np.array(SELF_GLUED_TET), np.array(SELF_GLUED_PERM)
    assert tr.Triangulation(face_tet, face_perm) \
        == tr.parse_triangulation(SELF_GLUED_TEXT)
    face_tet[0, face], face_perm[0, face] = tet, row
    with pytest.raises(tr.TriangulationError) as exc:
        tr.Triangulation(face_tet, face_perm)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# edge classes and vertex links

def _slot_orbits(tri):
    """The oracle's edge orbits as ascending slot lists, by least slot."""
    return sorted(sorted(6 * t + tr.VERTEX_PAIRS.index(pair) for t, pair in o)
                  for o in orbit_edge_classes(tri))


def _is_cusped(tri):
    return all(l.euler_characteristic == 0 for l in tr.vertex_links(tri))


def test_fig8_edge_classes(fig8):
    edges = tr.incidence(fig8).edges
    assert [len(e) for e in edges] == [6, 6]
    assert [list(e) for e in edges] == _slot_orbits(fig8)


def test_fig8_vertex_link_is_a_torus(fig8):
    links = tr.vertex_links(fig8)
    assert len(links) == 1
    assert links[0].euler_characteristic == 0
    assert links[0].orientable
    assert len(links[0].corners) == 8
    assert _is_cusped(fig8)
    assert assemble_links(fig8) == [(0, 8, True)]


def test_doubled_combinatorics(doubled):
    edges = tr.incidence(doubled).edges
    assert [len(e) for e in edges] == [2] * 6
    assert [list(e) for e in edges] == _slot_orbits(doubled)
    links = tr.vertex_links(doubled)
    assert [l.euler_characteristic for l in links] == [2, 2, 2, 2]
    assert not _is_cusped(doubled)
    assert sorted(assemble_links(doubled)) == [(2, 2, True)] * 4


def test_self_glued_matches_oracles(self_glued):
    assert [list(e) for e in tr.incidence(self_glued).edges] \
        == _slot_orbits(self_glued)
    links = tr.vertex_links(self_glued)
    assert sorted((l.euler_characteristic, len(l.corners), l.orientable)
                  for l in links) == sorted(assemble_links(self_glued))


def test_gieseking_link_is_a_klein_bottle(gieseking):
    links = tr.vertex_links(gieseking)
    assert len(links) == 1
    assert links[0].euler_characteristic == 0
    assert not links[0].orientable
    assert links[0].corners == tuple((0, v) for v in range(4))
    assert _is_cusped(gieseking)
    assert assemble_links(gieseking) == [(0, 4, False)]
    assert tr.incidence(gieseking).edges == (tuple(range(6)),)


def one_tetrahedron_gluings():
    """All 108 valid gluings of one tetrahedron: three pairings of its four
    faces, six permutations carrying each face onto its partner."""
    perms = list(permutations(range(4)))
    for pairing in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        options = [[p for p in perms if p[f] == f2] for f, f2 in pairing]
        for chosen in product(*options):
            gluings = {}
            for (f, f2), p in zip(pairing, chosen):
                gluings[(0, f)] = (0, p)
                gluings[(0, f2)] = (0, tuple(p.index(i) for i in range(4)))
            yield from_gluings(1, gluings)


def _check_against_oracles(tris):
    """Check links and edge classes, and their order, against the oracles;
    returns how many of the triangulations have a non-orientable link."""
    non_orientable = 0
    for tri in tris:
        links = tr.vertex_links(tri)
        # link l is the l-th vertex class by least corner
        assert [(l.euler_characteristic, len(l.corners), l.orientable)
                for l in links] == assemble_links(tri)
        assert [list(l.corners) for l in links] == corner_classes(tri)
        non_orientable += not all(l.orientable for l in links)
        # edge class e is the e-th orbit by least slot
        orbits = _slot_orbits(tri)
        idx = tr.incidence(tri)
        assert [list(e) for e in idx.edges] == orbits
        assert idx.n_edges == len(orbits)
        assert idx.edge_of.tolist() == [e for _, e in sorted(
            (s, e) for e, slots in enumerate(orbits) for s in slots)]
    return non_orientable


def test_links_and_edges_match_oracles_on_one_tetrahedron_gluings():
    tris = list(one_tetrahedron_gluings())
    assert len({tr.format_triangulation(tri) for tri in tris}) == 108
    assert _check_against_oracles(tris) > 0


def test_links_and_edges_match_oracles_on_random_gluings():
    rng = random.Random(5)
    tris = [random_gluing(rng, 2 + k % 2) for k in range(300)]
    assert _check_against_oracles(tris) > 0


def disjoint_union(tris):
    """The tetrahedra of ``tris`` side by side, numbered in turn."""
    gluings, base = {}, 0
    for tri in tris:
        for t, f in product(range(tri.n_tets), range(4)):
            gluings[(base + t, f)] = (base + int(tri.face_tet[t, f]),
                                      tr.PERMS[tri.face_perm[t, f]])
        base += tri.n_tets
    return from_gluings(base, gluings)


def test_links_and_edges_match_oracles_on_larger_random_gluings():
    # random gluings of 8-40 tetrahedra: mostly one non-orientable link of
    # very negative Euler characteristic; unions of three have several
    # components
    rng = random.Random(14)
    tris = [random_gluing(rng, rng.randint(8, 40)) for _ in range(30)]
    unions = [disjoint_union(tris[k:k + 3]) for k in range(0, 30, 3)]
    assert _check_against_oracles(tris + unions) > 0
    assert all(len(tr.vertex_links(tri)) >= 3 for tri in unions)


def test_links_and_edges_match_oracles_on_a_large_cover():
    base = tr.parse_triangulation(GEO4_TEXT)
    tri = relabel(cyclic_cover(base, GEO4_COCYCLE, 128), random.Random(2))
    assert tri.n_tets == 512
    assert _check_against_oracles([tri]) == 0
    assert len(tr.incidence(tri).edges) == 512


# ---------------------------------------------------------------------------
# incidence

def test_incidence_slot_order(fig8, fig8_idx):
    # slot 6 t + k is edge VERTEX_PAIRS[k] of tetrahedron t
    assert fig8_idx.size == 12
    for orbit in orbit_edge_classes(fig8):
        slots = [6 * t + tr.VERTEX_PAIRS.index(p) for t, p in orbit]
        assert {fig8_idx.edge_of[s] for s in slots} == {fig8_idx.edge_of[
            slots[0]]}
        assert sorted(slots) == list(fig8_idx.edges[fig8_idx.edge_of[
            slots[0]]])


def test_incidence_edge_partition(fig8_idx):
    assert sorted(s for members in fig8_idx.edges for s in members) \
        == list(range(12))
    for slot in range(12):
        assert slot in fig8_idx.edges[fig8_idx.edge_of[slot]]


# ---------------------------------------------------------------------------
# 2-3 move

def test_pachner_23_counts_and_links(fig8):
    moved = tr.pachner_23(fig8, movable_face(fig8))
    assert moved.n_tets == 3
    assert len(tr.incidence(moved).edges) == 3
    before = sorted(l.euler_characteristic for l in tr.vertex_links(fig8))
    after = sorted(l.euler_characteristic for l in tr.vertex_links(moved))
    assert before == after


def test_pachner_23_result_revalidates(fig8):
    moved = tr.pachner_23(fig8, movable_face(fig8))
    # construction re-runs full validation; also survive a text roundtrip
    again = tr.parse_triangulation(tr.format_triangulation(moved))
    assert again == moved


def test_pachner_23_rejects_self_glued_face(self_glued):
    with pytest.raises(tr.TriangulationError, match="self-gluing"):
        tr.pachner_23(self_glued, (0, 0))


def test_pachner_23_preserves_maximal_volume(fig8, fig8_sys, fig8_optimum):
    moved = tr.pachner_23(fig8, movable_face(fig8))
    sys2 = polytope.build_constraints(tr.incidence(moved))
    res = optimizer.maximize_volume(sys2)
    assert res.status == "converged"
    assert abs(res.volume - fig8_optimum.volume) < 1e-7


def test_five_move_chain(fig8):
    tri = fig8
    for _ in range(5):
        tri = tr.pachner_23(tri, movable_face(tri))
    assert tri.n_tets == 7
    links_before = sorted(l.euler_characteristic
                          for l in tr.vertex_links(fig8))
    links_after = sorted(l.euler_characteristic for l in tr.vertex_links(tri))
    assert links_before == links_after
    assert len(tr.incidence(tri).edges) == 7


def test_three_first_face_moves_give_flatten3(fig8):
    # flatten3.tri was written from these moves: any change of labeling in
    # the move shows here
    assert movable_chain(fig8, 3) == load_data("flatten3")


def _random_gluings():
    rng = random.Random(23)
    return [random_gluing(rng, rng.randint(4, 12)) for _ in range(20)]


def test_pachner_23_adds_one_degree_three_edge_and_keeps_links(fig8):
    tris = [fig8, tr.parse_triangulation(GEO4_TEXT)] + _random_gluings()
    non_orientable = moves = 0
    for tri in tris:
        orbits = orbit_edge_classes(tri)
        links = sorted((chi, orientable)
                       for chi, _, orientable in assemble_links(tri))
        non_orientable += not all(o for _, o in links)
        for face in movable_faces(tri):
            moved = tr.pachner_23(tri, face)
            moves += 1
            n = moved.n_tets
            assert n == tri.n_tets + 1
            after = orbit_edge_classes(moved)
            assert len(after) == len(orbits) + 1
            # the new edge 01 of the three new tetrahedra
            assert frozenset((t, (0, 1)) for t in range(n - 3, n)) in after
            assert sorted((chi, orientable) for chi, _, orientable
                          in assemble_links(moved)) == links
    assert non_orientable > 10
    assert moves > 200
