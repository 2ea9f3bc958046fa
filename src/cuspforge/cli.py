"""Command-line front end.

Subcommands: solve, certify, dominate, segment, lambda, volume, lemmas,
move23, check.  Every report is one JSON envelope on stdout; the
``results`` payload is deterministic for fixed inputs, flags and seed, while
``timings`` are informational only.  ``solve --starts k`` reports the run
from y = 0 and adds every start's volume and status, and the spread of the
converged ones, as ``multi_start``.

One dispatcher, ``main``, runs every subcommand.  It alone makes the timer;
reads each input file once, hashing the bytes it read; builds the
triangulation, its incidence and constraints, and the angle vectors when
the command takes a ``path``; and prints the envelope.  A command
``cmd_*(args, built, timer)`` returns its ``results`` and exit code, and
writes nothing but ``move23``'s output file.  numpy's floating-point
warnings are off while a command runs: a huge or non-finite angle shows in
the report or the error line, never as a warning on stderr.

Exit codes: 0 ok, 2 parse/usage error, a failed LP or an input too large
to allocate, 3 empty closure, 4 not converged (iteration cap or stall),
5 lemma suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import lobachevsky, optimizer, polytope, triangulation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY_CLOSURE = 3
EXIT_NOT_CONVERGED = 4
EXIT_SUITE_FAILURE = 5

# The largest |theta| that ``lambda`` takes.  The kernel reduces theta
# modulo the float pi, which is 1.2e-16 short of pi, so its error grows with
# the number of periods: up to 512 it stays below 6.4e-13 against an exact
# reduction (worst near a multiple of pi), and at 1e15 the value is wrong
# in its second digit.
LAMBDA_MAX_THETA = 512.0


def _default_seed():
    """The seed that ``CUSPFORGE_SEED`` sets, by ``--seed``'s rule."""
    text = os.environ.get("CUSPFORGE_SEED", "0")
    try:
        return _at_least(0)(text)
    except ValueError:
        rule = "an integer"
    except argparse.ArgumentTypeError:
        rule = "a non-negative integer"
    raise ValueError("CUSPFORGE_SEED must be %s, got %r" % (rule, text))


def _at_least(low):
    """argparse type for an integer of at least ``low``: 1 for sample, start
    and iteration counts, since a sampled check over zero samples passes
    vacuously and a solve with zero iterations reports no residual; 0 for
    seeds, since numpy's generator rejects a negative one."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        return value
    return integer


def _positive_float(text):
    """argparse type for tolerances: no residual falls below a zero,
    negative or NaN tolerance, so the solve would run to its cap."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            "must be finite and positive, got %s" % text)
    return value


class _Timer(dict):
    """The milliseconds of each timed phase, by name."""

    @contextlib.contextmanager
    def time(self, name):
        t0 = time.perf_counter()
        yield
        self[name] = round(1000.0 * (time.perf_counter() - t0), 3)


def _plain(value):
    """``json.dump``'s hook: numpy scalars and arrays as Python ones."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


def _read(path, inputs):
    """The text of ``path``, decoded as ``open(path)`` decodes it; records
    the sha256 of the bytes read in ``inputs``."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _build(args, timer, inputs):
    """The triangulation at ``args.path``, its incidence and constraints,
    then the angle vectors of the files the command names, in usage order.
    An unreadable triangulation is a parse error."""
    with timer.time("parse"):
        try:
            text = _read(args.path, inputs)
        except OSError as exc:
            raise triangulation.ParseError(str(exc))
        tri = triangulation.parse_triangulation(
            text, label=os.path.basename(args.path))
    with timer.time("incidence"):
        idx = triangulation.incidence(tri)
    with timer.time("constraints"):
        sys_ = polytope.build_constraints(idx)
    points = [polytope.angles_from_json(_read(getattr(args, name), inputs),
                                        sys_.dim)
              for name in ("angles", "p", "q") if name in args]
    return tri, idx, sys_, points


# ---------------------------------------------------------------------------
# subcommands: (args, built, timer) -> (results, exit code), where built is
# _build's (tri, idx, sys, points) for a command with a path, else None

def cmd_solve(args, built, timer):
    _, _, sys_, _ = built
    with timer.time("maximize"):
        probe = optimizer.uniqueness_probe(
            sys_, args.starts, seed=args.seed, tol=args.tol,
            max_iter=args.max_iter)
    res = probe.results[0]
    if res.status == "empty-closure":
        return {"status": res.status}, EXIT_EMPTY_CLOSURE
    # the one classification of the point; a run that stopped off the
    # equalities has no certificate
    membership = polytope.classify_membership(sys_, res.point)
    with timer.time("certify"):
        cert = None if membership.kind == "infeasible" else optimizer.certify(
            sys_, res.point)
    classes = list(membership.tetrahedra)
    tol = optimizer.COMPLETE_TOL
    candidate = (res.status == "converged" and cert is not None
                 and cert.signs_ok and cert.gradient_residual < tol
                 and "invalid" not in classes
                 and all(abs(m) <= tol for _, m, _ in cert.margins))
    results = {
        "status": res.status,
        "volume": res.volume,
        "volume_upper": res.volume_upper,
        "gap": res.volume_upper - res.volume,
        "point": res.point,
        "ordering": polytope.ORDERING_CONVENTION,
        "iterations": res.iterations,
        "inner_iterations": res.inner_iterations,
        "kkt_residual": res.kkt_residual,
        "flat_tets": [t for t, c in enumerate(classes) if c == "flat"],
        "active_set": sorted(membership.flat),
        "tetrahedra": classes,
        "certificate": None if cert is None else {
            "gradient_residual": cert.gradient_residual,
            "signs_ok": cert.signs_ok,
            "margins": cert.margins,
        },
        "candidate_complete": candidate,
    }
    if membership.kind == "infeasible":
        results["equality_violation"] = membership.equality_violation
    if args.starts > 1:
        results["multi_start"] = {
            "n_starts": args.starts,
            "max_spread": probe.max_spread,
            "volumes": probe.volumes,
            "statuses": probe.statuses,
        }
    return results, (EXIT_OK if res.status == "converged"
                     else EXIT_NOT_CONVERGED)


def cmd_certify(args, built, timer):
    _, _, sys_, (p,) = built
    with timer.time("certify"):
        cert = optimizer.certify(sys_, p)
    return vars(cert), EXIT_OK


def cmd_dominate(args, built, timer):
    _, _, sys_, (p,) = built
    with timer.time("dominate"):
        rep = optimizer.dominance_check(sys_, p, args.samples, seed=args.seed)
    return {**vars(rep), "samples": args.samples}, EXIT_OK


def cmd_volume(args, built, timer):
    _, _, sys_, (x,) = built
    membership = polytope.classify_membership(sys_, x)
    with timer.time("volume"):
        vol = lobachevsky.volume(x)
    return {"volume": vol, "membership": membership.kind,
            "flat_slots": sorted(membership.flat)}, EXIT_OK


def cmd_lambda(args, built, timer):
    if not math.isfinite(args.theta):
        raise ValueError("theta must be finite, got %r" % args.theta)
    if abs(args.theta) > LAMBDA_MAX_THETA:
        raise ValueError("|theta| must be at most %g, got %r"
                         % (LAMBDA_MAX_THETA, args.theta))
    with timer.time("eval"):
        value = lobachevsky.lobachevsky(args.theta)
    return {"theta": args.theta, "lambda": value}, EXIT_OK


def cmd_segment(args, built, timer):
    _, _, sys_, (p, q) = built
    memberships = [polytope.classify_membership(sys_, x) for x in (p, q)]
    for name, membership in zip("pq", memberships):
        if membership.kind == "infeasible":
            raise ValueError("%s is not in the closure (violation %g)"
                             % (name, membership.equality_violation))
    with timer.time("segment"):
        t = np.arange(1, args.samples + 1) / (args.samples + 1)
        results = {
            "derivative_limit": lobachevsky.boundary_derivative_limit(
                p, q, memberships[0].flat),
            "t": t,
            "volume": 0.5 * lobachevsky.lobachevsky(
                polytope.segment(p, q, t)).sum(axis=1),
            "derivative": lobachevsky.segment_derivative(p, q, t),
        }
    return results, EXIT_OK


def cmd_lemmas(args, built, timer):
    from . import geometry  # only this command needs it

    worst = geometry.suite(np.random.default_rng(args.seed), args.samples,
                           timer.time)
    checks = {
        "cosine_law": worst["cosine_law_residual"] < 1e-10,
        "edge_length_sum": worst["edge_length_sum_residual"] < 1e-10,
        "length_identity": worst["length_identity_spread"] < 1e-9,
        "triangle_inequality": worst["triangle_slack_min"] >= -1e-12,
        "sine_ratio": worst["sine_ratio_rel_spread"] < 1e-9,
        "entropy": worst["entropy_lhs_max"] <= 1e-12,
    }
    failing = sorted(k for k, ok in checks.items() if not ok)
    results = {"samples": args.samples, "worst": worst, "passed": checks,
               "failing": failing}
    return results, EXIT_SUITE_FAILURE if failing else EXIT_OK


def cmd_move23(args, built, timer):
    tri, idx, _, _ = built
    with timer.time("move"):
        moved = triangulation.pachner_23(tri, (args.tet, args.face))
    with open(args.out, "w") as fh:
        fh.write(triangulation.format_triangulation(
            moved, comment="2-3 move on face (%d, %d) of %s"
            % (args.tet, args.face, os.path.basename(args.path))))
    return {
        "before": {"tets": tri.n_tets, "edge_classes": idx.n_edges},
        "after": {"tets": moved.n_tets,
                  "edge_classes": triangulation.incidence(moved).n_edges},
        "out": args.out,
    }, EXIT_OK


def cmd_check(args, built, timer):
    tri, idx, _, _ = built
    with timer.time("combinatorics"):
        links = triangulation.vertex_links(tri)
    return {
        "tets": tri.n_tets,
        "edge_classes": [{"id": e, "degree": degree} for e, degree
                         in enumerate(np.bincount(idx.edge_of).tolist())],
        "vertex_links": [{
            "id": l.id,
            "euler_characteristic": l.euler_characteristic,
            "orientable": l.orientable,
        } for l in links],
        "is_cusped": all(l.euler_characteristic == 0 for l in links),
        "incidence_size": idx.size,
        "triples": 4 * tri.n_tets,
    }, EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspforge",
        description="Angle structures and volume maximization on ideal "
                    "triangulated cusped 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    # every argument once; a subcommand names its own, in usage order
    table = {
        "path": {}, "angles": {}, "p": {}, "q": {}, "out": {},
        "theta": {"type": float}, "tet": {"type": int}, "face": {"type": int},
        "--tol": {"type": _positive_float, "default": optimizer.DEFAULT_TOL},
        "--max-iter": {"type": _at_least(1),
                       "default": optimizer.DEFAULT_MAX_ITER},
        "--seed": {"type": _at_least(0), "default": _default_seed()},
        "--starts": {"type": _at_least(1), "default": 1},
        "--samples": {"type": _at_least(1), "default": 1000},
    }

    def add(name, fn, help, *arguments, **defaults):
        p = sub.add_parser(name, help=help)
        for argument in arguments:
            p.add_argument(argument, **table[argument])
        p.set_defaults(fn=fn, **defaults)

    add("solve", cmd_solve, "maximize volume over the closure",
        "path", "--tol", "--max-iter", "--seed", "--starts")
    add("certify", cmd_certify, "KKT certificate at a point",
        "path", "angles", "--seed")
    add("dominate", cmd_dominate, "sampled dominance check",
        "path", "angles", "--samples", "--seed")
    add("segment", cmd_segment, "volume and derivative along a segment",
        "path", "p", "q", "--samples", samples=50)
    add("lambda", cmd_lambda, "evaluate the Lobachevsky function "
        "(|theta| <= %g)" % LAMBDA_MAX_THETA, "theta")
    add("volume", cmd_volume, "volume of an angle vector", "path", "angles")
    add("lemmas", cmd_lemmas, "run the geometry sampling suites",
        "--samples", "--seed")
    add("move23", cmd_move23, "apply a 2-3 move and write the result",
        "path", "tet", "face", "out")
    add("check", cmd_check, "parse and report combinatorics", "path")
    return parser


def main(argv=None):
    """The one dispatcher.  The envelope's command, input hashes and seed
    come from the parsed arguments; a command without ``--seed`` records
    ``CUSPFORGE_SEED``'s."""
    try:
        args = build_parser().parse_args(argv)
        timer, inputs = _Timer(), {}
        with np.errstate(all="ignore"):
            built = _build(args, timer, inputs) if "path" in args else None
            results, code = args.fn(args, built, timer)
        json.dump({
            "command": args.command,
            "inputs": inputs,
            "seed": args.seed if "seed" in args else _default_seed(),
            "results": results,
            "timings_ms": timer,
        }, sys.stdout, indent=2, sort_keys=True, default=_plain)
        sys.stdout.write("\n")
        return code
    except triangulation.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError, MemoryError) as exc:
        # a TriangulationError is a ValueError; numpy raises MemoryError for
        # an array too large to allocate
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
