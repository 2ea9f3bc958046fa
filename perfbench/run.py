"""cuspforge benchmark: CLI latency and exact-oracle solves on fig8 covers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):

- cli-small: a fixed cycle of ten ``python -m cuspforge.cli`` calls on
  2-4 tetrahedron inputs.  Interpreter start and imports dominate, so it
  shows startup work; it is the only workload that reaches ``geometry``
  and the closure sampler.  The degenerate ROADMAP 1(b) fixture's solve,
  which fails at present, runs once after the measured passes; its verdict
  is the detail line's ``known_defects`` and is not part of the result.
- cover-small: the in-process solve pipeline on 104 seeded relabelings of
  n-fold covers (4-32 tetrahedra) of a geometric fig8 triangulation, so the
  solver loop and the Lobachevsky kernels dominate.
- cover-large: the same pipeline on 192- and 256-tetrahedron covers, so
  the dense linear algebra dominates.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  The run repeats the workload's fixed op list
(a pass) for as long as another pass fits in --seconds; every op is checked
against an oracle that does not use cuspforge.  BLAS runs on one thread.

Times are reported in nominal-host seconds: right after each set-up process
and each op, the run times a fixed reference computation for a tenth of the
measured time and scales that time by how fast the reference ran (see
hostspeed.py); cover-large's ops use a dense LAPACK reference.  This
cancels the drift in host speed that a shared machine shows within and
between runs.  The raw times are in the detail line.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 untraced and traced passes alternate, the per-layer metrics come
from the traced ones, the spans are written to .perfbench/spans-NAME.json,
and the overhead is the traced minus the untraced pass time.  The line
before the result records the environment, the op count, op_p90_s, the
failed fraction, the largest volume error, the failure reasons and the
verdicts of the known-bad ops.

Exit codes: 0 with a result line; 2 when the checkout has no cuspforge
sources; 1 when set-up fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# Time spent on the host-speed reference after each op, as a share of the
# op's own time.
REFERENCE_SHARE = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-small", "cover-small", "cover-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's set-up and exit (used to "
                             "time set-up in a fresh process)")
    return parser.parse_args(argv)


def setup(workload, seed, workdir):
    """Everything before timing: import, inputs, oracle and one warm-up op.
    Returns the measured ops and the known-bad ones."""
    from workloads import WORKLOADS, Env
    env = Env(ROOT, workdir)
    ops, warmup, known_bad = WORKLOADS[workload](env, seed)
    run_pass([warmup], None, None)  # a failure shows in the measured ops
    return ops, known_bad


def time_setup(args, speed):
    """Median scaled wall time of fresh processes doing the set-up, and the
    raw median."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.join(HERE, "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-only"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        scaled.append(raw[-1] * speed.scale(REFERENCE_SHARE * raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class OpResult:
    op: object
    wall: float  # raw seconds
    scaled: float  # nominal-host seconds
    out: object
    verdict: object


@dataclass
class Pass:
    traced: bool
    results: list

    @property
    def wall(self):
        """Scaled time of the op list (checks and reference excluded)."""
        return sum(r.scaled for r in self.results)


def run_pass(ops, tracer, speed):
    """Run every op once, in order; only op.run is timed.  Each op's time is
    scaled by the reference run after it, or kept raw when ``speed`` is
    None.  Tracing is on only around op.run, so neither the checks nor the
    reference land in the trace."""
    from workloads import Verdict
    p = Pass(tracer is not None, [])
    for op in ops:
        t0 = time.perf_counter()
        out = None
        try:
            if tracer is None:
                out = op.run(None)
            else:
                tracer.install()
                try:
                    with tracer.span("op"):
                        out = op.run(tracer)
                finally:
                    tracer.uninstall()
            wall = time.perf_counter() - t0
            verdict = op.check(out)
        except Exception as exc:  # an op failure is a result, not a crash
            wall = time.perf_counter() - t0
            verdict = Verdict("%s: %s" % (type(exc).__name__, exc))
        scale = speed.scale(REFERENCE_SHARE * wall) if speed else 1.0
        p.results.append(OpResult(op, wall, wall * scale, out, verdict))
    return p


def measure(ops, seconds, tracer, speed):
    """Whole passes while the next one is expected to fit in ``seconds``.

    Without a tracer every pass is untraced; with one, passes alternate
    untraced/traced and there is at least one of each."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tracer if traced else None, speed))
        last = time.perf_counter() - t0
        if tracer is not None and len(passes) < 2:
            continue
        if time.perf_counter() - start + last > seconds:
            return passes


def summarize(passes, in_process):
    """End-to-end metrics of the untraced passes and the detail record."""
    untraced = [p for p in passes if not p.traced]
    results = [r for p in untraced for r in p.results]
    passed = sum(1 for r in results if r.verdict.error is None)
    if in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = max(r.out.maxrss_kib for r in results if r.out is not None)
    scaled = [r.scaled for r in results]
    raw = [r.wall for r in results]
    metrics = {
        "wall_s": (statistics.median(p.wall for p in untraced), "s"),
        "ops_per_s": (passed / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    vol_errs = [r.verdict.vol_err for r in results
                if r.verdict.vol_err is not None]
    failures = {}
    for r in (r for p in passes for r in p.results):
        if r.verdict.error:
            key = "%s: %s" % (r.op.name, r.verdict.error)
            failures[key] = failures.get(key, 0) + 1
    detail = {
        "passes": len(untraced),
        "ops": len(results),
        "op_p90_s": statistics.quantiles(scaled, n=10)[8]
        if len(scaled) >= 100 else None,
        "fail_frac": (len(results) - passed) / len(results),
        "vol_rel_err_max": max(vol_errs) if vol_errs else None,
        "failures": failures,
        "raw": {"op_p50_s": statistics.median(raw),
                "op_p90_s": statistics.quantiles(raw, n=10)[8]
                if len(raw) >= 100 else None,
                "pass_walls_s": [sum(r.wall for r in p.results)
                                 for p in untraced]},
    }
    return metrics, detail


def report_metrics(results):
    """Per-layer metrics that the CLI's own reports give: startup (wall
    minus the report's phase times), phases, and the lemma suites, in
    nominal-host seconds per op."""
    startup, phases, lemmas = [], [], []
    for r in results:
        try:
            timings = json.loads(r.out.stdout)["timings_ms"]
        except (AttributeError, ValueError, KeyError, TypeError):
            continue  # no report to read (in-process op or failed call)
        scale = r.scaled / r.wall
        total = sum(timings.values()) / 1000.0
        startup.append((r.out.wall - total) * scale)
        phases.append(total * scale)
        lemmas.append((timings.get("geometry", 0.0)
                       + timings.get("entropy", 0.0)) / 1000.0 * scale
                      if r.op.name == "lemmas" else 0.0)

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    return {"cli.startup_s": mean(startup), "cli.phases_s": mean(phases),
            "geometry.lemmas_s": mean(lemmas)}


def environment():
    import numpy
    import scipy
    import cuspforge
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": cuspforge.KERNEL_BACKEND,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpus": os.cpu_count(),
    }


def layer_report(passes, tracer, n_ops):
    """Per-layer metrics: spans of the traced passes, the CLI's own reports
    from the untraced ones, and the tracing overhead, per op.  Span times
    are scaled by the median scale of the traced ops."""
    from spans import layer_metrics
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    scale = statistics.median(r.scaled / r.wall
                              for p in traced for r in p.results)
    layer = {name: value * scale if name.endswith("_s") else value
             for name, value in layer_metrics(
                 tracer.spans, n_ops * len(traced)).items()}
    layer.update(report_metrics([r for p in untraced for r in p.results]))
    layer["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced)) / n_ops
    metrics = {name: (value, "s/op" if name.endswith("_s") else "count/op")
               for name, value in layer.items()}
    metrics["optimizer.evals_per_iter"] = (layer["optimizer.evals_per_iter"],
                                           "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cuspforge",
                                       "__init__.py")):
        print("error: no cuspforge sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=args.workload + "-",
                                     dir=base) as workdir:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        from hostspeed import HostSpeed
        from spans import Tracer
        from workloads import DENSE_REFERENCE, IN_PROCESS
        speed = HostSpeed()
        setup_s, raw_setup_s = time_setup(args, speed)
        if args.workload in DENSE_REFERENCE:
            speed = HostSpeed(dense=True)
        ops, known_bad = setup(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        passes = measure(ops, args.seconds, tracer, speed)
        probe = run_pass(known_bad, None, None)
    metrics, detail = summarize(passes, args.workload in IN_PROCESS)
    metrics["setup_s"] = (setup_s, "s")
    detail["raw"]["setup_s"] = raw_setup_s
    if tracer is not None:
        metrics = layer_report(passes, tracer, len(ops))
        tracer.dump(os.path.join(base, "spans-%s.json" % args.workload))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  env=environment(),
                  known_defects={r.op.name: r.verdict.error or "passes"
                                 for r in probe.results})
    print(json.dumps({"detail": detail}))
    all_results = [r for p in passes for r in p.results]
    failed = sum(1 for r in all_results if r.verdict.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
