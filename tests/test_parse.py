"""Parsing: one whole-text pass reads every layout of the .tri grammar, and
a line scan builds the error of every text the pass refuses.

Each case checks against an oracle it builds itself: a layout variant must
parse to the triangulation its canonical text was written from, and a
fault's message and line follow from the edit that made it."""

import os
import random

import pytest

from cuspforge import triangulation as tr

from conftest import (DATA_DIR, DOUBLED_TEXT, GEO4_COCYCLE, GEO4_TEXT,
                      SELF_GLUED_TEXT, cyclic_cover, load_data, movable_face,
                      random_gluing)

DATA = ("fig8", "degenerate4", "flatten3", "gieseking", "moves272")
FOLDS = (1, 3, 16, 48, 64)  # covers of 4 to 256 tetrahedra


@pytest.fixture(scope="module")
def corpus():
    """(triangulation, canonical text) of the data files but moves272, whose
    272 tetrahedra would slow every case, 30 random gluings of 2-12
    tetrahedra and covers of 4-256 tetrahedra."""
    rng = random.Random(18)
    geo4 = tr.parse_triangulation(GEO4_TEXT)
    tris = ([load_data(name) for name in DATA[:4]]
            + [random_gluing(rng, rng.randint(2, 12)) for _ in range(30)]
            + [cyclic_cover(geo4, GEO4_COCYCLE, fold) for fold in FOLDS])
    return [(tri, tr.format_triangulation(tri)) for tri in tris]


def outcome(text):
    """What parse_triangulation makes of ``text``: the arrays, or the error
    message and its line."""
    try:
        tri = tr.parse_triangulation(text)
    except tr.ParseError as err:
        return str(err), err.line
    return arrays(tri)


def arrays(tri):
    return tri.face_tet.tolist(), tri.face_perm.tolist()


def error(message, line):
    return "line %d: %s" % (line, message), line


def _edit_line(text, rng, edit):
    """``text`` with one glue line, drawn by ``rng``, replaced by
    ``edit(fields)`` of its fields [t, f, t', digits]."""
    lines = text.split("\n")
    i = rng.randrange(2, len(lines) - 1)
    lines[i] = edit(lines[i].split()[1:])
    return "\n".join(lines)


# Layouts other than the one format_triangulation writes; each parses to
# the same triangulation.
VARIANTS = {
    "leading-comment": lambda text, rng: "# a comment\n" + text,
    "trailing-comment": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue %s  # a comment" % " ".join(g)),
    "comment-on-every-line": lambda text, rng: text.replace("\n", "#c\n"),
    "spaced-comment-on-every-line": lambda text, rng: text.replace(
        "\n", "  # c\n"),
    "blank-lines": lambda text, rng: (
        "\n" + text.replace("\n", "\n\n", 2) + "\n"),
    "whitespace-lines": lambda text, rng: text.replace("\n", "\n \t\n"),
    "tabs": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue\t" + "\t".join(g)),
    "runs-of-spaces": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue  " + "   ".join(g)),
    "trailing-spaces": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue %s  " % " ".join(g)),
    "crlf": lambda text, rng: text.replace("\n", "\r\n"),
    "cr": lambda text, rng: text.replace("\n", "\r"),
    "no-final-newline": lambda text, rng: text[:-1],
    "leading-zero": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue %s %s 0%s %s" % tuple(g)),
    "index-of-25-digits": lambda text, rng: _edit_line(
        text, rng, lambda g: "glue %025d %s %025d %s" % (int(g[0]), g[1],
                                                         int(g[2]), g[3])),
}


# Faults: each takes a triangulation, its canonical text and an rng, and
# returns the broken text with the message and line it must raise.  Face k
# is on line k + 3 of canonical text.

def _broken(tri, text, rng, edit):
    """``text`` with the line of a face k, drawn by ``rng``, replaced by
    ``edit(t, f, t', digits)``; returns it with k."""
    k = rng.randrange(4 * tri.n_tets)
    t, f = divmod(k, 4)
    lines = text.split("\n")
    lines[k + 2] = edit(t, f, int(tri.face_tet[t, f]),
                        "".join(map(str, tr.PERMS[tri.face_perm[t, f]])))
    return "\n".join(lines), k


def _gluing_fault(tri, text, rng, edit, message):
    """A glue line whose gluing ``edit`` breaks.  The error is ``message``
    of face k on its line, unless the face glued to k comes first in face
    order: that face no longer has k glued back, and its error names it."""
    broken, k = _broken(tri, text, rng, edit)
    t, f = divmod(k, 4)
    partner = 4 * int(tri.face_tet[t, f]) + int(
        tr.PERMS[tri.face_perm[t, f], f])
    if k < partner:
        return (broken, *error(message % dict(t=t, f=f), k + 3))
    return (broken, *error("non-involutive gluing at face (%d, %d)"
                           % divmod(partner, 4), partner + 3))


def _other_permutation(t, f, t2, digits):
    # the other permutation with the same image of f: the target face stays
    # and only the inverse pair breaks
    rest = [d for i, d in enumerate(digits) if i != f]
    rest[0], rest[1] = rest[1], rest[0]
    rest.insert(f, digits[f])
    return "glue %d %d %d %s" % (t, f, t2, "".join(rest))


def _target(value):
    """The fault of a glue line whose target is ``value``, or the number of
    tetrahedra when ``value`` is None."""
    def fault(tri, text, rng):
        t2 = value or tri.n_tets
        return _gluing_fault(
            tri, text, rng,
            lambda t, f, _, d: "glue %d %d %d %s" % (t, f, t2, d),
            "gluing of (%%(t)d, %%(f)d) targets nonexistent tetrahedron %d"
            % t2)
    return fault


def _tet_out_of_range(value):
    """The fault of a glue line whose tetrahedron is ``value``, or the
    number of tetrahedra when ``value`` is None."""
    def fault(tri, text, rng):
        t = value or tri.n_tets
        broken, k = _broken(tri, text, rng, lambda _, f, t2, d:
                            "glue %d %d %d %s" % (t, f, t2, d))
        return (broken, *error("tetrahedron index %d out of range" % t,
                               k + 3))
    return fault


def _face_out_of_range(tri, text, rng):
    broken, k = _broken(tri, text, rng,
                        lambda t, f, t2, d: "glue %d 4 %d %s" % (t, t2, d))
    return (broken, *error("face index 4 out of range", k + 3))


def _duplicate_face(tri, text, rng):
    # the line of face k names face k2 instead; the later of the two lines
    # is the duplicate
    broken, k = _broken(tri, text, rng, lambda t, f, t2, d:
                        "glue %d %d %d %s" % (t, (f + 1) % 4, t2, d))
    k2 = k - k % 4 + (k + 1) % 4
    return (broken, *error("duplicate gluing for face (%d, %d)"
                           % divmod(k2, 4), max(k, k2) + 3))


def _repeated_line(tri, text, rng):
    lines = text.split("\n")
    k = rng.randrange(1, 4 * tri.n_tets)
    lines[k + 2] = lines[k + 1]
    return ("\n".join(lines), *error("duplicate gluing for face (%d, %d)"
                                     % divmod(k - 1, 4), k + 3))


def _unglued_face(tri, text, rng):
    lines = text.split("\n")
    k = rng.randrange(4 * tri.n_tets)
    del lines[k + 2]
    return ("\n".join(lines),
            *error("unglued face (%d, %d)" % divmod(k, 4), 2))


def _broken_line(tri, text, rng):
    broken, k = _broken(tri, text, rng, lambda t, f, t2, d:
                        "glue %d %d\n%d %s" % (t, f, t2, d))
    return (broken, *error("expected 'glue <t> <f> <t'> <perm>', got "
                           "'glue %d %d'" % divmod(k, 4), k + 3))


def _after_a_comment(fault):
    """``fault`` in the text after a comment line, which moves its line."""
    def shifted(tri, text, rng):
        broken, message, line = fault(tri, text, rng)
        return ("# a comment\n" + broken,
                *error(message.split(": ", 1)[1], line + 1))
    return shifted


FAULTS = {
    "tet-out-of-range": _tet_out_of_range(None),
    "tet-index-beyond-int64": _tet_out_of_range(10 ** 30),
    "face-out-of-range": _face_out_of_range,
    "index-beyond-int64": _target(10 ** 30),
    "index-of-18-digits": _target(10 ** 17),
    "duplicate-face": _duplicate_face,
    "repeated-line": _repeated_line,
    "unglued-face": _unglued_face,
    "bad-target": _target(None),
    "not-a-permutation": lambda tri, text, rng: _gluing_fault(
        tri, text, rng, lambda t, f, t2, d: "glue %d %d %d 0012" % (t, f, t2),
        "non-bijective permutation (0, 0, 1, 2) at face (%(t)d, %(f)d)"),
    "self-glued": lambda tri, text, rng: _gluing_fault(
        tri, text, rng, lambda t, f, t2, d: "glue %d %d %d 0123" % (t, f, t),
        "face (%(t)d, %(f)d) glued to itself"),
    "non-involutive": lambda tri, text, rng: _gluing_fault(
        tri, text, rng, _other_permutation,
        "non-involutive gluing at face (%(t)d, %(f)d)"),
    "broken-line": _broken_line,
    "broken-line-after-a-comment": _after_a_comment(_broken_line),
    "no-tetrahedra": lambda tri, text, rng: (
        "tri 1\ntets 0\n", *error("need at least one tetrahedron", 2)),
    "empty": lambda tri, text, rng: ("", "empty file", None),
    "other-format": lambda tri, text, rng: (
        text.replace("tri 1", "tri 2", 1),
        *error("expected format line 'tri 1'", 1)),
    "no-tets-line": lambda tri, text, rng: (
        "tri 1\n", *error("missing 'tets <N>' line", 1)),
    "malformed-tets-line": lambda tri, text, rng: (
        text.replace("tets %d" % tri.n_tets, "tets x", 1),
        *error("expected 'tets <N>', got 'tets x'", 2)),
}


def test_canonical_text_parses_to_its_triangulation(corpus):
    for tri, text in corpus:
        assert outcome(text) == arrays(tri)
    # the repr gives the tetrahedron count
    tri, text = corpus[0]
    assert repr(tr.parse_triangulation(text)) == (
        "Triangulation(%d tets)" % tri.n_tets)


@pytest.mark.parametrize("variant", VARIANTS)
def test_other_layouts_parse_as_the_line_parser(corpus, variant):
    rng = random.Random(variant)
    for tri, text in corpus:
        changed = VARIANTS[variant](text, rng)
        assert changed != text
        assert outcome(changed) == arrays(tri)


@pytest.mark.parametrize("fault", FAULTS)
def test_faults_raise_as_the_line_parser(corpus, fault):
    rng = random.Random(fault)
    for tri, text in corpus:
        broken, message, line = FAULTS[fault](tri, text, rng)
        assert outcome(broken) == (message, line)


def test_faces_glued_twice_never_reach_the_constructor(monkeypatch, corpus):
    # with as many lines as faces, a face glued twice leaves another one
    # unset in the arrays, holding whatever their memory held; the pass
    # refuses the text before it builds them
    built = []
    monkeypatch.setattr(tr, "Triangulation", lambda *args: built.append(args))
    for fault in ("duplicate-face", "repeated-line"):
        rng = random.Random(fault)
        for tri, text in corpus:
            broken, message, line = FAULTS[fault](tri, text, rng)
            assert outcome(broken) == (message, line)
    assert built == []


# fig8's text with its glue lines in reverse face order, so that face k is
# on line 10 - k and face order differs from line order.
FIG8_REVERSED = ["tri 1", "tets 2"] + [
    "glue 1 3 0 2103", "glue 1 2 0 3012", "glue 1 1 0 3201", "glue 1 0 0 0132",
    "glue 0 3 1 2103", "glue 0 2 1 2310", "glue 0 1 1 1230", "glue 0 0 1 0132"]


def _fig8_with(*edits):
    lines = list(FIG8_REVERSED)
    for line, glue in edits:
        if glue is None:
            del lines[line - 1]
        else:
            lines[line - 1] = glue
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edits,message,line", [
    # a line's range and duplicate checks come before a later syntax error
    (((5, "glue 7 1 0 3201"), (8, "glue 0 3")),
     "tetrahedron index 7 out of range", 5),
    (((5, "glue 1 0 0 0132"), (8, "glue 0 3")),
     "duplicate gluing for face (1, 0)", 6),
    # and a syntax error before a later line's
    (((5, "glue 1 1"), (8, "glue 0 9 1 2103")),
     "expected 'glue <t> <f> <t'> <perm>', got 'glue 1 1'", 5),
    # a syntax error before no tetrahedra; with none, the first glue line
    # is out of range
    (((2, "tets 0"), (3, "glue 1 3")),
     "expected 'glue <t> <f> <t'> <perm>', got 'glue 1 3'", 3),
    (((2, "tets 0"), (10, "glue 0 0 1 013")),
     "tetrahedron index 1 out of range", 3),
    # a syntax error before an unglued face
    (((10, None), (9, "glue 0 1 1 12 30")),
     "expected 'glue <t> <f> <t'> <perm>', got 'glue 0 1 1 12 30'", 9),
    # an unglued face before a gluing fault
    (((10, None), (3, "glue 1 3 0 0012")), "unglued face (0, 0)", 2),
    # of two gluing faults, the first in face order, on its own line
    (((3, "glue 1 3 2 2103"), (9, "glue 0 1 1 1203")),
     "non-involutive gluing at face (0, 1)", 9),
    (((3, "glue 1 3 5 2103"), (10, "glue 0 0 0 0123")),
     "face (0, 0) glued to itself", 10),
    (((3, "glue 1 3 0 0012"), (10, "glue 0 0 5 0132")),
     "gluing of (0, 0) targets nonexistent tetrahedron 5", 10),
    (((3, "glue 1 3 5 2103"), (10, "glue 0 0 1 0012")),
     "non-bijective permutation (0, 0, 1, 2) at face (0, 0)", 10),
])
def test_two_faults_report_by_precedence(edits, message, line):
    assert outcome(_fig8_with()) == arrays(load_data("fig8"))
    assert outcome(_fig8_with(*edits)) == error(message, line)


def test_written_text_takes_the_whole_text_pass(monkeypatch, corpus):
    # no valid text reaches the line scan: the canonical text of the corpus
    # and of 2-3 moves, every layout variant of it and the data files
    # parse in the whole-text pass
    def refuse(text, fault):
        raise AssertionError("line scan reached on a valid text")

    # gieseking, one tetrahedron, has no face a 2-3 move applies to
    moved = [tr.pachner_23(tri, movable_face(tri)) for tri, _ in corpus[:3]]
    tris = moved + [tr.parse_triangulation(text)
                    for text in (GEO4_TEXT, DOUBLED_TEXT, SELF_GLUED_TEXT)]
    cases = corpus + [(tri, tr.format_triangulation(tri)) for tri in tris]
    rng = random.Random(22)
    cases += [(tri, variant(text, rng)) for tri, text in cases
              for variant in VARIANTS.values()]
    data = []
    for name in DATA:
        with open(os.path.join(DATA_DIR, name + ".tri")) as fh:
            data.append(fh.read())
    monkeypatch.setattr(tr, "_parse_error", refuse)
    for tri, text in cases:
        assert outcome(text) == arrays(tri)
    for text in data:
        # the oracle: the file is canonical text after its comment lines
        written = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("#"))
        assert tr.format_triangulation(tr.parse_triangulation(text)) \
            == written
