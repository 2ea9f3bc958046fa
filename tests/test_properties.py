"""Seeded property test over random 2-3 move chains from fig8.

Random chains quickly lose their interior, and then their closure, so they
cover the degenerate polytopes: empty closure, empty interior, flat and
invalid tetrahedra at the maximizer.  Every chain triangulates fig8, so the
complete structure's volume is known exactly.
"""

import numpy as np
import pytest

from cuspforge import optimizer, polytope
from cuspforge import lobachevsky as lob
from cuspforge import triangulation as tr

from conftest import V8, property_chain, run_cli
from helpers import closure_status, interior_status, slot_system


@pytest.mark.parametrize("seed", range(16))
def test_random_chain(seed, fig8, tmp_path, capsys):
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(tr.incidence(tri))
    expected = closure_status(*slot_system(tri))

    ip = polytope.interior_point(sys_)
    res = optimizer.maximize_volume(sys_)
    assert interior_status(sys_) == expected
    assert (res.status == "empty-closure") == (expected == "empty-closure")

    path = tmp_path / "chain.tri"
    path.write_text(tr.format_triangulation(tri))
    # the gate holds the exit code to the status
    report = run_cli(capsys, "solve", path)[1]["results"]
    assert report["status"] == res.status
    if expected == "empty-closure":
        return
    assert res.status == "converged"
    if report["candidate_complete"]:
        assert abs(res.volume - V8) <= 1e-9
    if not report["certificate"]["signs_ok"]:
        return
    # the closed-form certificate against the sampled oracle; not
    # all_dominated, whose strict gap fails on closures of volume 0
    point, fixed = ip
    samples = polytope.sample_closure_points(
        sys_, np.random.default_rng(seed), 100, start=point)
    assert max(lob.volume(q) for q in samples) <= res.volume + 1e-12
    dom = optimizer.dominance_check(sys_, res.point, 100, seed=seed)
    assert dom.worst_directional <= 1e-10
    if len(fixed) < sys_.dim:
        # the minimal face is not a point: no sample is vacuous
        assert min(np.max(np.abs(q - point)) for q in samples) > 1e-6
