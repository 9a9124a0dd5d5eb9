"""Fast tests of the benchmark: every workload at a tiny size, and each
output check shown to catch a corrupted answer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hullkit as hk
import oracles
import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_tiny(name, trace, tmp_path):
    result, detail = workloads.run(name, seed=5, seconds=0, trace=trace, size="tiny",
                                   out_dir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["rounds"] == 1
    kind = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.getsize(detail["trace_file"]) > 0
        assert result["metrics"]["trace.round_s"]["value"] > 0


def test_same_seed_same_inputs():
    a = workloads.make_workload("contains-band", 3, "tiny")
    b = workloads.make_workload("contains-band", 3, "tiny")
    assert np.array_equal(a._hull(2).points, b._hull(2).points)
    qa = [op.run().inside for op in a.make_round(2)]
    qb = [op.run().inside for op in b.make_round(2)]
    assert qa == qb and qa.count(True) == len(qa) // 2


def test_tracer_restores_the_program():
    before = (hk.queries.contains, hk.queries.lp_solve, hk.VRep.__post_init__)
    tracer = Tracer().install()
    assert hk.queries.lp_solve is not before[1]
    tracer.uninstall()
    assert (hk.queries.contains, hk.queries.lp_solve, hk.VRep.__post_init__) == before


def _hull():
    return hk.random_point_set(30, 3, seed=11)


def test_flipped_membership_label_is_caught():
    v = _hull()
    pts = np.array(v.points)
    q = pts.mean(axis=0)
    res = hk.contains(v, q)
    oracles.check_membership(pts, q, res, True)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_membership(pts, q, res, False)
    flipped = hk.MembershipResult(False, separator=hk.Hyperplane(np.array([1.0, 0, 0]), 1.0))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_membership(pts, q, flipped)
    far = pts.max(axis=0) + 1.0
    out = hk.contains(v, far)
    oracles.check_membership(pts, far, out, False)
    wrong_side = hk.MembershipResult(False, separator=hk.Hyperplane(
        -out.separator.normal, float(np.max(pts @ -out.separator.normal))))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_membership(pts, far, wrong_side)


def test_dropped_facet_is_caught():
    v = _hull()
    pts = np.array(v.points)
    h = hk.vrep_to_hrep(v).hrep
    oracles.check_facets(pts, h.normals, h.offsets)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_facets(pts, h.normals[1:], h.offsets[1:])
    with pytest.raises(oracles.CheckFailed):
        oracles.check_facets(pts, h.normals, h.offsets + 0.05)


def test_shifted_objective_is_caught():
    oracles.check_minimum(221.0 + 1e-4, True, 221.0)
    oracles.check_minimum(221.0 + 1e-2, False, 221.0)  # the solver said it stopped early
    for shifted, converged in ((221.0 + 1e-2, True), (221.0 - 1e-2, False)):
        with pytest.raises(oracles.CheckFailed):
            oracles.check_minimum(shifted, converged, 221.0)


def test_model_file_with_a_halfspace_removed_is_caught(tmp_path):
    ds = hk.synth_engine_dataset(2, 4)
    key, rows = hk.group_by_operating_point(ds)[0]
    model = hk.build_boundary_model(rows, range(4), prune=True, op_point_key=key)
    model = model.with_cached_hrep(hk.vrep_to_hrep(model.vrep).hrep)
    path = tmp_path / "model.json"
    hk.save_model(model, path)
    workloads._check_roundtrip(model, hk.load_model(path))
    doc = json.loads(path.read_text())
    del doc["cached_hrep"]["halfspaces"][0]
    path.write_text(json.dumps(doc))
    loaded = hk.load_model(path)  # accepted by the program's own validation
    with pytest.raises(oracles.CheckFailed):
        workloads._check_roundtrip(model, loaded)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "contains-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_vertex_oracle_survives_highs_numerical_trouble():
    # HiGHS's default and dual-simplex solvers report numerical difficulties
    # on this point; the interior-point solver decides it.
    ds = hk.synth_engine_dataset(workloads._seed(305, 6, 7), 9)
    key, rows = hk.group_by_operating_point(ds)[6]
    model = hk.build_boundary_model(rows, range(9), prune=True, op_point_key=key)
    z = workloads._normalized_inputs(model, rows)
    assert oracles.is_vertex(z, 124) is True


def test_facet_check_accepts_a_near_coplanar_merge():
    # Two Qhull simplices of this hull differ by 5e-8; hullkit merges them.
    ds = hk.synth_engine_dataset(workloads._seed(406, 6, 2), 4)
    key, rows = hk.group_by_operating_point(ds)[4]
    model = hk.build_boundary_model(rows, range(4), prune=True, op_point_key=key)
    pts = np.array(model.vrep.points)
    h = hk.vrep_to_hrep(model.vrep).hrep
    assert h.n_halfspaces == len(oracles.qhull_facets(pts)[1]) - 1
    oracles.check_facets(pts, h.normals, h.offsets)
