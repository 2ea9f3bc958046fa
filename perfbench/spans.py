"""In-memory spans around cuspforge's public functions, and the per-layer
metrics derived from them.

Tracing patches module attributes from outside: every public function of
the six cuspforge modules, plus the numpy/scipy calls that ``polytope`` and
``optimizer`` make (the ``linalg`` layer).  Nothing under ``src/`` changes.
A span is ``[name, start, end, parent index, extra]``; ``extra`` holds the
array size for Lobachevsky calls and the iteration count for
``maximize_volume``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

MODULES = ("triangulation", "polytope", "lobachevsky", "geometry",
           "optimizer", "cli")
LINALG = (("numpy.linalg", "lstsq"), ("scipy.linalg", "null_space"),
          ("scipy.optimize", "linprog"))
LAYERS = MODULES + ("linalg",)

_SLOT_COUNTED = ("lobachevsky.lobachevsky", "lobachevsky.volume",
                 "lobachevsky.volume_gradient",
                 "lobachevsky.boundary_derivative_limit")


def _extra(name, args, result):
    if name in _SLOT_COUNTED:
        return getattr(args[0], "size", 1)
    if name == "optimizer.maximize_volume":
        return result.iterations
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, 0)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, extra):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = extra
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, _extra(name, args, result)
                            if result is not None else 0)
        return traced

    def install(self):
        """Wrap the public functions of every layer; uninstall() restores
        the originals."""
        targets = []
        for short in MODULES:
            mod = importlib.import_module("cuspforge." + short)
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets.append((mod, attr, "%s.%s" % (short, attr)))
        for modname, attr in LINALG:
            targets.append((importlib.import_module(modname), attr,
                            "linalg." + attr))
        for mod, attr, name in targets:
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def graft(self, child_spans):
        """Append spans recorded by a child process under the open span.

        perf_counter is CLOCK_MONOTONIC on Linux, so child times are on the
        same clock as ours."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, t0, t1, p, extra in child_spans:
            self.spans.append([name, t0, t1, base + p if p >= 0 else parent,
                               extra])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans, n_ops):
    """Per-op layer metrics from a span list (see BENCHMARK.json)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    in_max = [False] * n
    layer_totals = {}
    totals = {}
    counts = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    slots = 0
    iterations = 0
    evals_in_max = 0
    for i, (name, _, _, parent, extra) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            in_max[i] = in_max[parent] or spans[parent][0] == \
                "optimizer.maximize_volume"
        layer = name.split(".", 1)[0]
        parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else ""
        counts[name] = counts.get(name, 0) + 1
        if layer != parent_layer:
            # outermost span of its layer: count its time once
            layer_totals[layer] = layer_totals.get(layer, 0.0) + dur[i]
        if name != (spans[parent][0] if parent >= 0 else ""):
            totals[name] = totals.get(name, 0.0) + dur[i]
        if name in _SLOT_COUNTED:
            slots += extra
        if name == "optimizer.maximize_volume":
            iterations += extra
        if name == "lobachevsky.volume" and in_max[i]:
            evals_in_max += 1
    maximize_self = 0.0
    for i, (name, *_rest) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += dur[i] - child_time[i]
        if name == "optimizer.maximize_volume":
            maximize_self += dur[i] - child_time[i]

    def t(name):
        return totals.get(name, 0.0) / n_ops

    def c(name):
        return counts.get(name, 0) / n_ops

    out = {
        "triangulation.parse_s": t("triangulation.parse_triangulation"),
        "triangulation.incidence_s": t("triangulation.incidence"),
        "triangulation.vertex_links_s": t("triangulation.vertex_links"),
        "polytope.build_constraints_s": t("polytope.build_constraints"),
        "polytope.interior_point_s": t("polytope.interior_point"),
        "polytope.sample_closure_points_s":
            t("polytope.sample_closure_points"),
        "linalg.lstsq_s": t("linalg.lstsq"),
        "linalg.lstsq_calls": c("linalg.lstsq"),
        "linalg.null_space_s": t("linalg.null_space"),
        "linalg.null_space_calls": c("linalg.null_space"),
        "linalg.linprog_s": t("linalg.linprog"),
        "linalg.linprog_calls": c("linalg.linprog"),
        "lobachevsky.kernel_s": layer_totals.get("lobachevsky", 0.0) / n_ops,
        "lobachevsky.volume_calls": c("lobachevsky.volume"),
        "lobachevsky.gradient_calls": c("lobachevsky.volume_gradient"),
        "lobachevsky.boundary_limit_calls":
            c("lobachevsky.boundary_derivative_limit"),
        "lobachevsky.slots": slots / n_ops,
        "optimizer.maximize_s": t("optimizer.maximize_volume"),
        "optimizer.maximize_self_s": maximize_self / n_ops,
        "optimizer.iterations": iterations / n_ops,
        "optimizer.evals_per_iter":
            evals_in_max / iterations if iterations else 0.0,
        "optimizer.certify_s": t("optimizer.certify"),
        "optimizer.classify_s": t("optimizer.classify_tetrahedra"),
        "optimizer.dominance_s": t("optimizer.dominance_check"),
        "cli.import_s": t("startup.import"),
        "trace.op_s": t("op"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = self_time[layer] / n_ops
    return out
