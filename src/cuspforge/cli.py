"""Command-line front end.

Subcommands: solve, certify, dominate, segment, lambda, volume, lemmas,
move23, check.  Every report is one JSON envelope on stdout; the
``results`` payload is deterministic for fixed inputs, flags and seed, while
``timings`` are informational only.  ``solve --starts k`` reports the run
from y = 0 and adds every start's volume and status, and the spread of the
converged ones, as ``multi_start``.

Exit codes: 0 ok, 2 parse/usage error or a failed LP, 3 empty closure,
4 not converged (iteration cap or stall), 5 lemma suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _default_seed():
    text = os.environ.get("CUSPFORGE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError("CUSPFORGE_SEED must be an integer, got %r"
                         % text) from None


def _positive_int(text):
    """argparse type for sample, start and iteration counts: a sampled check
    over zero samples passes vacuously, and a solve with zero iterations
    reports no residual."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _positive_float(text):
    """argparse type for tolerances: no residual falls below a zero,
    negative or NaN tolerance, so the solve would run to its cap."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            "must be finite and positive, got %s" % text)
    return value


class _Timer:
    def __init__(self):
        self.phases = {}

    @contextlib.contextmanager
    def time(self, name):
        t0 = time.perf_counter()
        yield
        self.phases[name] = round(1000.0 * (time.perf_counter() - t0), 3)


def _plain(value):
    """``json.dump``'s hook: numpy scalars and arrays as Python ones."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


def _emit(args, results, timer):
    """The report envelope: command, input hashes and seed come from the
    parsed arguments; a command without ``--seed`` records
    ``CUSPFORGE_SEED``'s."""
    inputs = [getattr(args, name) for name in ("path", "angles", "p", "q")
              if name in args]
    report = {
        "command": args.command,
        "inputs": {path: _sha256(path) for path in inputs},
        "seed": args.seed if "seed" in args else _default_seed(),
        "results": results,
        "timings_ms": timer.phases,
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True, default=_plain)
    sys.stdout.write("\n")


def _load_triangulation(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise triangulation.ParseError(str(exc))
    return triangulation.parse_triangulation(
        text, label=os.path.basename(path))


def _load_angles(path, expected_size):
    with open(path) as fh:
        return polytope.angles_from_json(fh.read(), expected_size)


def _build(path, timer):
    with timer.time("parse"):
        tri = _load_triangulation(path)
    with timer.time("incidence"):
        idx = triangulation.incidence(tri)
    with timer.time("constraints"):
        sys_ = polytope.build_constraints(idx)
    return tri, idx, sys_


# ---------------------------------------------------------------------------
# subcommands

def cmd_solve(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    with timer.time("maximize"):
        probe = None
        if args.starts > 1:
            probe = optimizer.uniqueness_probe(
                sys_, args.starts, seed=args.seed, tol=args.tol,
                max_iter=args.max_iter)
            res = probe.results[0]
        else:
            res = optimizer.maximize_volume(
                sys_, tol=args.tol, max_iter=args.max_iter)
    if res.status == "empty-closure":
        _emit(args, {"status": res.status}, timer)
        return EXIT_EMPTY_CLOSURE
    # a run that stopped off the equalities has no certificate
    membership = polytope.classify_membership(sys_, res.point)
    with timer.time("certify"):
        cert = None if membership.kind == "infeasible" else optimizer.certify(
            sys_, res.point, fixed=res.face_fixed)
    with timer.time("classify"):
        classes = optimizer.classify_tetrahedra(res.point)
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
        "flat_tets": list(res.flat_tets),
        "active_set": sorted(res.active_set),
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
    if probe is not None:
        results["multi_start"] = {
            "n_starts": args.starts,
            "max_spread": probe.max_spread,
            "volumes": probe.volumes,
            "statuses": probe.statuses,
        }
    _emit(args, results, timer)
    return EXIT_OK if res.status == "converged" else EXIT_NOT_CONVERGED


def cmd_certify(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    p = _load_angles(args.angles, sys_.dim)
    with timer.time("certify"):
        cert = optimizer.certify(sys_, p)
    results = {
        "membership": cert.membership,
        "gradient_residual": cert.gradient_residual,
        "signs_ok": cert.signs_ok,
        "margins": cert.margins,
        "fit_iterations": cert.fit_iterations,
        "multipliers": cert.multipliers,
        "active_multipliers": [[i, v] for i, v in cert.active_multipliers],
    }
    _emit(args, results, timer)
    return EXIT_OK


def cmd_dominate(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    p = _load_angles(args.angles, sys_.dim)
    with timer.time("dominate"):
        rep = optimizer.dominance_check(sys_, p, args.samples, seed=args.seed)
    results = {
        "all_dominated": rep.all_dominated,
        "worst_gap": rep.worst_gap,
        "worst_directional": rep.worst_directional,
        "samples": args.samples,
        "informative_samples": rep.informative_samples,
    }
    _emit(args, results, timer)
    return EXIT_OK


def cmd_volume(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    x = _load_angles(args.angles, sys_.dim)
    membership = polytope.classify_membership(sys_, x)
    with timer.time("volume"):
        vol = lobachevsky.volume(x)
    results = {
        "volume": vol,
        "membership": membership.kind,
        "flat_slots": sorted(membership.flat),
    }
    _emit(args, results, timer)
    return EXIT_OK


def cmd_lambda(args):
    if not math.isfinite(args.theta):
        raise ValueError("theta must be finite, got %r" % args.theta)
    if abs(args.theta) > LAMBDA_MAX_THETA:
        raise ValueError("|theta| must be at most %g, got %r"
                         % (LAMBDA_MAX_THETA, args.theta))
    timer = _Timer()
    with timer.time("eval"):
        value = lobachevsky.lobachevsky(args.theta)
    results = {"theta": args.theta, "lambda": value}
    _emit(args, results, timer)
    return EXIT_OK


def cmd_segment(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    p = _load_angles(args.p, sys_.dim)
    q = _load_angles(args.q, sys_.dim)
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
    _emit(args, results, timer)
    return EXIT_OK


def cmd_lemmas(args):
    from . import geometry  # only this command needs it

    timer = _Timer()
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
    results = {
        "samples": args.samples,
        "worst": worst,
        "passed": checks,
        "failing": sorted(k for k, ok in checks.items() if not ok),
    }
    _emit(args, results, timer)
    return EXIT_OK if all(checks.values()) else EXIT_SUITE_FAILURE


def cmd_move23(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    with timer.time("move"):
        moved = triangulation.pachner_23(tri, (args.tet, args.face))
    with open(args.out, "w") as fh:
        fh.write(triangulation.format_triangulation(
            moved, comment="2-3 move on face (%d, %d) of %s"
            % (args.tet, args.face, os.path.basename(args.path))))
    results = {
        "before": {"tets": tri.n_tets, "edge_classes": idx.n_edges},
        "after": {"tets": moved.n_tets,
                  "edge_classes": triangulation.incidence(moved).n_edges},
        "out": args.out,
    }
    _emit(args, results, timer)
    return EXIT_OK


def cmd_check(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    with timer.time("combinatorics"):
        links = triangulation.vertex_links(tri)
    results = {
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
    }
    _emit(args, results, timer)
    return EXIT_OK


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
        "--max-iter": {"type": _positive_int,
                       "default": optimizer.DEFAULT_MAX_ITER},
        "--seed": {"type": int, "default": _default_seed()},
        "--starts": {"type": _positive_int, "default": 1},
        "--samples": {"type": _positive_int, "default": 1000},
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except triangulation.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (triangulation.TriangulationError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
