"""Command-line front end.

Subcommands: solve, certify, dominate, segment, lambda, volume, lemmas,
move23, check.  Reports are JSON on stdout (segment emits CSV); the
``results`` payload is deterministic for fixed inputs, flags and seed, while
``timings`` are informational only.

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


def _jsonable(value):
    """``value`` with numpy scalars and arrays turned into Python ones."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _emit(command, inputs, seed, results, timer):
    report = {
        "command": command,
        "inputs": {path: _sha256(path) for path in inputs},
        "seed": seed,
        "results": _jsonable(results),
        "timings_ms": timer.phases,
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
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
            res = max(probe.results, key=lambda r: r.volume)
        else:
            res = optimizer.maximize_volume(
                sys_, tol=args.tol, max_iter=args.max_iter)
    if res.status == "empty-closure":
        _emit("solve", [args.path], args.seed, {"status": res.status}, timer)
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
        }
    _emit("solve", [args.path], args.seed, results, timer)
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
    _emit("certify", [args.path, args.angles], args.seed, results, timer)
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
    _emit("dominate", [args.path, args.angles], args.seed, results, timer)
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
    _emit("volume", [args.path, args.angles], _default_seed(), results, timer)
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
    _emit("lambda", [], _default_seed(), results, timer)
    return EXIT_OK


def cmd_segment(args):
    timer = _Timer()
    tri, idx, sys_ = _build(args.path, timer)
    p = _load_angles(args.p, sys_.dim)
    q = _load_angles(args.q, sys_.dim)
    memberships = [polytope.classify_membership(sys_, x) for x in (p, q)]
    for name, membership in zip("pq", memberships):
        if membership.kind == "infeasible":
            print("error: %s is not in the closure (violation %g)"
                  % (name, membership.equality_violation), file=sys.stderr)
            return EXIT_PARSE
    limit = lobachevsky.boundary_derivative_limit(p, q, memberships[0].flat)
    t = np.arange(1, args.samples + 1) / (args.samples + 1)
    f = 0.5 * lobachevsky.lobachevsky(polytope.segment(p, q, t)).sum(axis=1)
    fp = lobachevsky.segment_derivative(p, q, t)
    out = sys.stdout
    out.write("# one-sided derivative limit at t=0+: %.17g\n" % limit)
    out.write("t,f,fprime\n")
    for row in zip(t, f, fp):
        out.write("%.17g,%.17g,%.17g\n" % row)
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
    _emit("lemmas", [], args.seed, results, timer)
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
    _emit("move23", [args.path], _default_seed(), results, timer)
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
    _emit("check", [args.path], _default_seed(), results, timer)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspforge",
        description="Angle structures and volume maximization on ideal "
                    "triangulated cusped 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("solve", cmd_solve, help="maximize volume over the closure")
    p.add_argument("path")
    p.add_argument("--tol", type=_positive_float,
                   default=optimizer.DEFAULT_TOL)
    p.add_argument("--max-iter", type=_positive_int,
                   default=optimizer.DEFAULT_MAX_ITER)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--starts", type=_positive_int, default=1)

    p = add("certify", cmd_certify, help="KKT certificate at a point")
    p.add_argument("path")
    p.add_argument("angles")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="recorded in the report; certify draws no samples")

    p = add("dominate", cmd_dominate, help="sampled dominance check")
    p.add_argument("path")
    p.add_argument("angles")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=_default_seed())

    p = add("segment", cmd_segment,
            help="CSV of volume and derivative along a segment")
    p.add_argument("path")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--samples", type=_positive_int, default=50)

    p = add("lambda", cmd_lambda, help="evaluate the Lobachevsky function "
            "(|theta| <= %g)" % LAMBDA_MAX_THETA)
    p.add_argument("theta", type=float)

    p = add("volume", cmd_volume, help="volume of an angle vector")
    p.add_argument("path")
    p.add_argument("angles")

    p = add("lemmas", cmd_lemmas, help="run the geometry sampling suites")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=_default_seed())

    p = add("move23", cmd_move23, help="apply a 2-3 move and write the result")
    p.add_argument("path")
    p.add_argument("tet", type=int)
    p.add_argument("face", type=int)
    p.add_argument("out")

    p = add("check", cmd_check, help="parse and report combinatorics")
    p.add_argument("path")

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
