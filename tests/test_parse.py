"""The two parse paths: the whole-text pass over the canonical layout, and
the line parser that reads every other layout and names every error.

Each input is parsed both by ``parse_triangulation`` and by the line parser
alone; the results, or the error messages and their lines, must agree."""

import random

import pytest

from cuspforge import triangulation as tr

from conftest import (DOUBLED_TEXT, GEO4_COCYCLE, GEO4_TEXT, SELF_GLUED_TEXT,
                      cyclic_cover, load_data, movable_face, random_gluing)

# a numpy conversion warning fails these tests
pytestmark = pytest.mark.filterwarnings("error")

DATA = ("fig8", "degenerate4", "flatten3", "gieseking")
FOLDS = (1, 3, 16, 48, 64)  # covers of 4 to 256 tetrahedra


@pytest.fixture(scope="module")
def corpus():
    """Canonical text of the data files, 30 random gluings of 2-12
    tetrahedra and covers of 4-256 tetrahedra."""
    rng = random.Random(18)
    geo4 = tr.parse_triangulation(GEO4_TEXT)
    tris = ([load_data(name) for name in DATA]
            + [random_gluing(rng, rng.randint(2, 12)) for _ in range(30)]
            + [cyclic_cover(geo4, GEO4_COCYCLE, fold) for fold in FOLDS])
    return [tr.format_triangulation(tri) for tri in tris]


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the arrays and the label, or the
    error message and its line."""
    try:
        tri = parse(text, label="input")
    except tr.ParseError as err:
        return str(err), err.line
    return tri.face_tet.tolist(), tri.face_perm.tolist(), tri.label


def _glue_lines(text):
    lines = text.split("\n")
    return lines, range(2, len(lines) - 1)


def _edit_line(text, rng, edit):
    """``text`` with one glue line, drawn by ``rng``, replaced by
    ``edit(fields, n_tets)`` of its fields [t, f, t', digits]."""
    lines, glue = _glue_lines(text)
    i = rng.choice(glue)
    n_tets = int(lines[1].split()[1])
    lines[i] = edit(lines[i].split()[1:], n_tets)
    return "\n".join(lines)


# Layouts the whole-text pass does not read; each still parses.
VARIANTS = {
    "leading-comment": lambda text, rng: "# a comment\n" + text,
    "trailing-comment": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s  # a comment" % " ".join(g)),
    "blank-lines": lambda text, rng: text.replace("\n", "\n\n", 2) + "\n",
    "tabs": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue\t" + "\t".join(g)),
    "runs-of-spaces": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue  " + "   ".join(g)),
    "trailing-spaces": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s  " % " ".join(g)),
    "crlf": lambda text, rng: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text, rng: text[:-1],
    "leading-zero": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s %s 0%s %s" % tuple(g)),
}


def _swap_face(fields, n_tets):
    t, f, t2, digits = fields
    return "glue %s %d %s %s" % (t, (int(f) + 1) % 4, t2, digits)


def _non_involutive(fields, n_tets):
    # the other permutation with the same image of f, so the target face
    # stays and only the inverse pair breaks
    t, f, t2, digits = fields
    f = int(f)
    rest = [d for i, d in enumerate(digits) if i != f]
    rest[0], rest[1] = rest[1], rest[0]
    rest.insert(f, digits[f])
    return "glue %s %d %s %s" % (t, f, t2, "".join(rest))


def _self_glued(fields, n_tets):
    t, f, _, _ = fields
    return "glue %s %s %s 0123" % (t, f, t)


def _drop_line(text, rng):
    lines, glue = _glue_lines(text)
    del lines[rng.choice(glue)]
    return "\n".join(lines)


def _repeat_line(text, rng):
    lines, glue = _glue_lines(text)
    i = rng.choice(glue[1:] or glue)
    lines[i] = lines[i - 1]
    return "\n".join(lines)


def _break_line(text, rng):
    return _edit_line(text, rng, lambda g, n: "glue %s %s\n%s %s" % tuple(g))


# Faults in canonical text; each raises the line parser's error.
FAULTS = {
    "tet-out-of-range": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %d %s %s %s" % (n, *g[1:])),
    "face-out-of-range": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s 4 %s %s" % (g[0], *g[2:])),
    "index-beyond-int64": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s %s %d %s" % (g[0], g[1], 10 ** 30,
                                                      g[3])),
    "index-of-18-digits": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s %s %d %s" % (g[0], g[1], 10 ** 17,
                                                      g[3])),
    "duplicate-face": lambda text, rng: _edit_line(text, rng, _swap_face),
    "repeated-line": _repeat_line,
    "unglued-face": _drop_line,
    "bad-target": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s %s %d %s" % (g[0], g[1], n, g[3])),
    "not-a-permutation": lambda text, rng: _edit_line(
        text, rng, lambda g, n: "glue %s %s %s 0012" % tuple(g[:3])),
    "self-glued": lambda text, rng: _edit_line(text, rng, _self_glued),
    "non-involutive": lambda text, rng: _edit_line(
        text, rng, _non_involutive),
    "broken-line": _break_line,
    "no-tetrahedra": lambda text, rng: "tri 1\ntets 0\n",
}
# the faults the whole-text pattern itself refuses; it lets every other one
# through to the checks after it
PATTERN_FAULTS = {"index-beyond-int64", "broken-line"}


def test_canonical_text_matches_the_line_parser(corpus):
    for text in corpus:
        assert tr._CANONICAL_RE.fullmatch(text)
        assert outcome(tr.parse_triangulation, text) \
            == outcome(tr._parse_lines, text)


@pytest.mark.parametrize("variant", VARIANTS)
def test_other_layouts_parse_as_the_line_parser(corpus, variant):
    rng = random.Random(variant)
    for text in corpus:
        changed = VARIANTS[variant](text, rng)
        assert not tr._CANONICAL_RE.fullmatch(changed)
        expected = outcome(tr._parse_lines, changed)
        assert expected == outcome(tr._parse_lines, text)  # it parses
        assert outcome(tr.parse_triangulation, changed) == expected


@pytest.mark.parametrize("fault", FAULTS)
def test_faults_raise_as_the_line_parser(corpus, fault):
    rng = random.Random(fault)
    for text in corpus:
        broken = FAULTS[fault](text, rng)
        assert (not tr._CANONICAL_RE.fullmatch(broken)) \
            == (fault in PATTERN_FAULTS)
        message, line = expected = outcome(tr._parse_lines, broken)
        assert isinstance(message, str) and isinstance(line, int)
        assert outcome(tr.parse_triangulation, broken) == expected


def test_written_text_takes_the_whole_text_pass(monkeypatch, corpus):
    # the writer and the whole-text pattern stay in step: every text that
    # format_triangulation writes, also after a 2-3 move, parses without
    # the line parser
    def refuse(text, label=None):
        raise AssertionError("line parser reached on canonical text")

    # gieseking, one tetrahedron, has no face a 2-3 move applies to
    tris = [load_data(name) for name in DATA[:3]]
    tris = [tr.pachner_23(tri, movable_face(tri)) for tri in tris] + [
        tr.parse_triangulation(text)
        for text in (GEO4_TEXT, DOUBLED_TEXT, SELF_GLUED_TEXT)]
    texts = corpus + [tr.format_triangulation(tri) for tri in tris]
    expected = [outcome(tr._parse_lines, text) for text in texts]
    monkeypatch.setattr(tr, "_parse_lines", refuse)
    for text, want in zip(texts, expected):
        assert tr._CANONICAL_RE.fullmatch(text)
        assert outcome(tr.parse_triangulation, text) == want
