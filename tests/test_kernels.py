"""The Lobachevsky kernel behind volume and volume_gradient, and the column
forms of the per-tetrahedron passes.

Values per tetrahedron are combined column by column, never reduced over
an axis of length 2 or 3.  Each parity test below keeps the reduction that
a column form replaced as its reference, and requires the same bits.
"""

import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import cuspforge
from cuspforge import lobachevsky as lob
from cuspforge import optimizer, polytope
from cuspforge import triangulation as tr

from conftest import load_data

DATA_NAMES = ("fig8", "degenerate4", "gieseking", "flatten3", "moves272")


def test_backend_reported():
    # one NumPy implementation; the benchmark records this constant
    assert cuspforge.KERNEL_BACKEND == "pure"


def test_neg_log_2sin_diverges_at_multiples_of_pi():
    g = lob.volume_gradient(np.array([-np.pi, 2.0 * np.pi, 3.0 * np.pi]))
    assert np.all(np.isposinf(g))


def test_volume_half_sum_matches_direct_sum():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, np.pi, size=60)
    assert lob.volume(x) == 0.5 * float(np.sum(lob.lobachevsky(x)))


def test_volume_of_a_batch_is_one_per_row():
    # a float for one vector, and for a stacked batch each row's volume, to
    # the bit
    rows = np.random.default_rng(10).uniform(0.0, np.pi, size=(5, 24))
    assert isinstance(lob.volume(rows[0]), float)
    batch = lob.volume(rows)
    assert batch.shape == (5,)
    assert batch.tolist() == [lob.volume(x) for x in rows]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def triangle_rows(w):
    """``optimizer._triangle`` with each row reduced over its axis."""
    side = np.exp(w.min(axis=1, keepdims=True) - w)
    s = 0.5 * side.sum(axis=1, keepdims=True)
    u = s - side
    u[u <= optimizer._ROUNDING * s] = 0.0
    ang = 2.0 * np.arctan2(np.sqrt(u.prod(axis=1, keepdims=True) / s), u)
    big = np.arange(3) == u.argmin(axis=1)[:, None]
    rest = np.where(big, 0.0, ang)
    return np.where(big, np.pi - rest.sum(axis=1, keepdims=True), rest)


def triangle_inputs(rng, n):
    """n rows of w, each of one kind: a generic triangle, a flat one, one
    with a slack within ``_ROUNDING`` of s, one with tied sides, or one
    with a NaN."""
    w = rng.normal(0.0, 1.5, (n, 3))
    x = rng.uniform(0.05, 0.95, n)
    tiny = rng.uniform(-2.0, 2.0, n) * optimizer._ROUNDING
    kinds = rng.integers(0, 6, n)
    w[kinds == 1] += [0.0, 3.0, 3.0]  # a side beyond the others' sum
    # sides 1, x and 1 - x, the first within rounding of the others' sum
    near = np.column_stack([np.zeros(n), -np.log(x), -np.log1p(-x + tiny)])
    w[kinds == 2] = near[kinds == 2]
    w[kinds == 3] = w[kinds == 3, :1]  # equilateral: a three-way tie
    w[kinds == 4, 1] = w[kinds == 4, 0]  # two equal sides
    w[kinds == 5, rng.integers(0, 3)] = np.nan
    return rng.permuted(w, axis=1)


@pytest.mark.parametrize("n", [1, 4, 32, 256])
def test_triangle_columns_match_row_reductions(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        w = triangle_inputs(rng, n)
        assert same_bits(optimizer._triangle(w), triangle_rows(w))
    # every kind of row in one draw, and each side of the flat test
    w = triangle_inputs(np.random.default_rng(0), 256)
    ang = optimizer._triangle(w)
    assert np.isnan(ang).any() and (ang == 0.0).any()


def data_system(name):
    return polytope.build_constraints(tr.incidence(load_data(name)))


def dual_rows(face, y, p):
    """``_Face.dual`` with w summed over each angle's two edge rows."""
    w = y[face.ends].sum(axis=2)
    if face.fixed:
        ang = face.base.copy()
        ang[face.curved] = triangle_rows(w[face.curved])
        ang[face.linear, face.p], ang[face.linear, face.q] = p, np.pi - p
    else:
        ang = triangle_rows(w)
    half = lob.volume(ang.ravel())
    return ang, 2.0 * (np.pi * y.sum() + half) - np.vdot(w, ang), 2.0 * half


@pytest.mark.parametrize("name", DATA_NAMES)
def test_face_dual_columns_match_row_sums(name):
    sys_ = data_system(name)
    rng = np.random.default_rng(len(name))
    for face in (optimizer._Face(sys_), optimizer.minimal_face(sys_)[0]):
        for scale in (0.0, 0.3, 3.0):
            y = scale * rng.standard_normal(face.b_edge.size)
            p = rng.uniform(0.0, np.pi, face.linear.size)
            for got, want in zip(face.dual(y, p), dual_rows(face, y, p)):
                assert same_bits(got, want)


def fit_rows(sys_, x):
    """``certify``'s fit with each angle's three rows summed over its row
    of ``LinearSystem.rows``: the multipliers, step count, residual and the
    fitted values on the angles at a bound."""
    theta = polytope.to_angles(x)
    flat = polytope.classify_membership(sys_, x).flat
    free = np.ones(theta.size, dtype=bool)
    free[polytope.angle_of(list(flat))] = False
    g = 2.0 * lob.volume_gradient(theta)
    pick = slice(None) if free.all() else free
    rows = sys_.rows[pick]

    def scatter(v):
        return np.bincount(rows.ravel(), np.repeat(v, 3), sys_.b.size)

    rhs = scatter(g[pick])
    lam, iters = optimizer._minres(
        lambda y: scatter(y[rows].sum(axis=1)), rhs,
        optimizer._RELATIVE_STOP * np.linalg.norm(rhs))
    fitted = lam[sys_.rows].sum(axis=1)
    residual = float(np.max(np.abs(fitted[pick] - g[pick]), initial=0.0))
    return lam, iters, residual, fitted[~free]


@pytest.mark.parametrize("name", DATA_NAMES)
def test_certify_fit_columns_match_row_sums(name):
    sys_ = data_system(name)
    x = optimizer.maximize_volume(sys_).point
    cert = optimizer.certify(sys_, x)
    lam, iters, residual, active = fit_rows(sys_, x)
    assert same_bits(cert.multipliers, lam)
    assert cert.fit_iterations == iters
    assert same_bits(cert.gradient_residual, residual)
    assert same_bits([v for _, v in cert.active_multipliers], active)
    # the masked fit runs where a slot is at a bound
    assert bool(active.size) == (name in ("degenerate4", "flatten3",
                                          "moves272"))


class CountedMinimum:
    """``np.minimum`` that counts the calls of its ``at``: one per round of
    ``_classes``."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args):
        return np.minimum(*args)

    def at(self, *args):
        self.rounds += 1
        return np.minimum.at(*args)


def classes_compressing(size, a, b):
    """The labeller that drops each edge once its ends share a root, and
    its round count."""
    label, rounds = np.arange(size), 0
    while True:
        la, lb = label[a], label[b]
        live = la != lb
        if not live.any():
            return label, rounds
        a, b, la, lb = a[live], b[live], la[live], lb[live]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        rounds += 1
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def random_graph(rng):
    """A graph on shuffled nodes: random edges on the first part, a few
    long cycles through the next, and the rest isolated."""
    size = int(rng.integers(1, 400))
    order = rng.permutation(size)
    cut = np.sort(rng.integers(0, size + 1, 2))
    part, ring = order[:cut[0]], order[cut[0]:cut[1]]
    m = int(rng.integers(0, 2 * part.size + 1))
    ends = [rng.choice(part, m)], [rng.choice(part, m)]
    for cycle in np.array_split(ring, rng.integers(1, 4)):
        ends[0].append(cycle)
        ends[1].append(np.roll(cycle, -1))
    a, b = np.concatenate(ends[0]), np.concatenate(ends[1])
    flip = rng.random(a.size) < 0.5
    return size, np.where(flip, b, a), np.where(flip, a, b)


def test_classes_hooking_every_edge_matches_compressing(monkeypatch):
    counted = CountedMinimum()
    monkeypatch.setattr(tr, "np", SimpleNamespace(**{**vars(np),
                                                     "minimum": counted}))
    rng = np.random.default_rng(27)
    isolated = slow = 0
    for _ in range(300):
        size, a, b = random_graph(rng)
        want, rounds = classes_compressing(size, a, b)
        counted.rounds = 0
        got = tr._classes(size, a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert counted.rounds == rounds
        touched = np.zeros(size, bool)
        touched[a], touched[b] = True, True
        isolated += not touched.all()
        slow += rounds >= 4  # as a long cycle takes
    assert isolated and slow


# The .tri grammar before its quantifiers turned possessive.
OLD_GLUE = "glue[ \t]+[0-9]+[ \t]+[0-9]+[ \t]+[0-9]+[ \t]+[0-3]{4}"
OLD_TEXT_RE = re.compile(
    "[ \t\r\n]*tri 1[ \t]*[\r\n][ \t\r\n]*tets[ \t]+[0-9]+"
    "(?:[ \t]*[\r\n][ \t\r\n]*%s)*[ \t\r\n]*" % OLD_GLUE)


def fuzzed_text(rng):
    """A .tri-like text: random blanks, tabs, line ends, blank lines and
    comments around its fields, sometimes a 5-digit permutation, trailing
    junk, and a few characters inserted or deleted, some of them line ends,
    which joins two lines."""
    def blank(least=0):
        return "".join(rng.choice(" \t") for _ in range(
            rng.randrange(least, 3)))

    def end():  # a comment on one line in three
        comment = rng.choice(["#c", "# x 1\t", "", "", "", ""])
        text = blank() + comment + rng.choice(["\n", "\r\n", "\r"])
        return text + "".join(rng.choice(["\n", "\r\n", "\r", " \n", "\t\r"])
                              for _ in range(rng.randrange(0, 2)))

    def number():
        return rng.choice(["0", "1", "3", "07", "12", "999"])

    lines = [blank() + "tri 1" + blank(), "tets" + blank(1) + number()]
    for _ in range(rng.randrange(0, 6)):
        perm = "".join(rng.choice("0123") for _ in range(4))
        if rng.random() < 0.15:
            perm += rng.choice("0123456789")
        lines.append(blank() + "glue" + "".join(
            blank(1) + number() for _ in range(3)) + blank(1) + perm + blank())
    text = rng.choice(["", "\n", " \r\n"]) + "".join(
        line + end() for line in lines)
    if rng.random() < 0.2:
        text += rng.choice(["x", "glue", "\f", "5", "tets 1", "0132"])
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randrange(len(text) + 1)
        ends = [j for j, c in enumerate(text) if c in "\r\n"]
        if rng.random() < 0.4:
            text = (text[:i] + rng.choice(" \t\r\n0123456789gluetris#x")
                    + text[i:])
        else:  # a deletion, half of them of a line end
            i = rng.choice(ends) if ends and rng.random() < 0.5 else i
            text = text[:i] + text[i + 1:]
    return text


def test_possessive_grammar_accepts_what_the_old_one_did():
    rng = random.Random(27)
    verdicts = set()
    for _ in range(4000):
        text = tr._COMMENT_RE.sub("", fuzzed_text(rng))
        old = OLD_TEXT_RE.fullmatch(text) is not None
        assert (tr._TEXT_RE.fullmatch(text) is not None) == old, repr(text)
        verdicts.add(old)
        for line in re.split("\r\n?|\n", text):
            line = line.strip(" \t")
            assert ((re.fullmatch(tr._GLUE, line) is None)
                    == (re.fullmatch(OLD_GLUE, line) is None)), repr(line)
    assert verdicts == {True, False}
