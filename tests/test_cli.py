import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hullkit
from hullkit import VRep, load_hrep, load_vrep, save_vrep

FIG_QUAD = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [1.0, 1.0], [0.0, 1.0]])


# The sources this suite imports, so the CLI runs them without an install.
SRC = os.path.dirname(os.path.dirname(hullkit.__file__))


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "hullkit", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_random(tmp_path):
    out = str(tmp_path / "pts.vrep.json")
    code, stdout, _ = run_cli("gen", "random", "--m", "50", "--n", "5",
                              "--seed", "7", "--out", out)
    assert code == 0
    assert stdout.split() == ["random", "50", "5", "7", out]
    assert load_vrep(out).n_points == 50


def test_gen_cube_writes_both_files(tmp_path):
    base = str(tmp_path / "cube3")
    code, stdout, _ = run_cli("gen", "cube", "--n", "3", "--out", base)
    assert code == 0
    assert load_vrep(base + ".vrep.json").n_points == 8
    assert load_hrep(base + ".hrep.json").n_halfspaces == 6


def test_gen_engine_csv(tmp_path):
    out = str(tmp_path / "engine.csv")
    code, stdout, _ = run_cli("gen", "engine", "--inputs", "9", "--seed", "1",
                              "--out", out)
    assert code == 0
    assert "engine 875 9 1" in stdout
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 876  # header + rows


def test_gen_usage_error():
    code, _, _ = run_cli("gen", "sphere")
    assert code == 2


def test_convert_and_contains(tmp_path):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    code, stdout, _ = run_cli("convert", vpath)
    assert code == 0
    assert stdout.startswith("facets 4 ")
    words = stdout.split()
    counters = {k: int(words[words.index(k) + 1])
                for k in ("candidates", "ridges", "refit", "slivers", "merged")}
    assert counters["refit"] - counters["slivers"] - counters["merged"] == 4
    hrep = load_hrep(vpath + ".hrep.json")
    assert hrep.n_halfspaces == 4

    code, stdout, _ = run_cli("contains", vpath, "--query", "1,1",
                              "--query", "5,5", "--query", "1.5,1", "--query", "5,6")
    assert code == 0
    lines = [line.split() for line in stdout.strip().splitlines()]
    assert [words[0] for words in lines] == ["inside", "outside", "inside", "outside"]
    assert all(len(words) == 3 and words[1].endswith("us") for words in lines)
    # The first inside answer takes an LP and both far outside ones Gilbert
    # steps; the repeated inside answer is settled by the LP's basis.
    assert [words[2] for words in lines] == ["lp", "steps", "basis", "steps"]


def test_contains_cube_queries(tmp_path):
    base = str(tmp_path / "cube3")
    run_cli("gen", "cube", "--n", "3", "--out", base)
    code, stdout, _ = run_cli("contains", base + ".vrep.json",
                              "--query", "0.5,0.5,0.5", "--query", "2,0,0")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("inside")
    assert lines[1].startswith("outside")


def test_contains_dimension_error(tmp_path):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    code, _, stderr = run_cli("contains", vpath, "--query", "1,1,1")
    assert code == 2


def test_contains_queries_csv_header_and_malformed_row(tmp_path):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    good = tmp_path / "good.csv"
    good.write_text("x,y\n1,1\n5,5\n")
    code, stdout, _ = run_cli("contains", vpath, "--queries-csv", str(good))
    assert code == 0
    assert [l.split()[0] for l in stdout.strip().splitlines()] == ["inside", "outside"]

    # A non-numeric, wrong-width or non-finite row stops the run before any
    # answer is printed.
    for row in ("1,oops", "0.1,0.2,0.3", "nan,1"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y\n1,1\n{row}\n5,5\n")
        code, stdout, stderr = run_cli("contains", vpath, "--queries-csv", str(bad))
        assert code == 3, row
        assert "line 3" in stderr, row
        assert stdout == "", row


def test_contains_missing_file():
    code, _, _ = run_cli("contains", "/nonexistent/file.json", "--query", "1,1")
    assert code == 3


def test_vertices(tmp_path):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    code, stdout, _ = run_cli("vertices", vpath)
    assert code == 0
    assert "extreme 4 of 5: [0, 1, 2, 4]" in stdout
    words = stdout.split()
    certified = int(words[words.index("certified") + 1])
    lp = int(words[words.index("lp") + 1])
    assert certified + lp == 5
    assert lp >= 1  # the interior point (1, 1) needs an LP
    pruned = load_vrep(vpath + ".pruned.json")
    assert pruned.n_points == 4


def test_optimize_vrep_route(tmp_path):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    code, stdout, _ = run_cli("optimize", "--vrep", vpath, "--target", "1,1",
                              "--route", "both")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("vrep objective")
    assert lines[1].startswith("hrep objective")
    assert float(lines[0].split()[2]) <= 1e-4  # target (1,1) is interior
    for line in lines:
        assert line.split()[-2] == "gap"
        assert 0.0 <= float(line.split()[-1]) <= 1e-6


def test_optimize_requires_one_source(tmp_path):
    code, _, _ = run_cli("optimize", "--target", "1,1")
    assert code == 2


def test_bench_conversion_cli(tmp_path):
    out = str(tmp_path / "table.csv")
    code, _, _ = run_cli("bench-conversion", "--grid", "30x3", "--seeds", "2",
                         "--out", out)
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "m,n,seed,metric,value,unit,timed_out"
    assert any("conversion_time_s" in line for line in lines[1:])
    assert any("facet_count" in line for line in lines[1:])


def test_bench_membership_cli_markdown():
    code, stdout, _ = run_cli("bench-membership", "--grid", "30x3",
                              "--seeds", "1", "--queries", "6",
                              "--format", "markdown")
    assert code == 0
    assert stdout.startswith("| m | n | seed |")


def test_bench_conversion_bad_grid():
    code, _, _ = run_cli("bench-conversion", "--grid", "oops")
    assert code == 2


def test_bench_conversion_out_of_caps():
    code, _, _ = run_cli("bench-conversion", "--grid", "600x3")
    assert code == 2


def test_unwritable_output_is_io_error(tmp_path):
    code, _, _ = run_cli("bench-conversion", "--grid", "20x2", "--seeds", "1",
                         "--out", "/nonexistent/dir/table.csv")
    assert code == 3


def test_model_workflow_via_cli(tmp_path):
    from hullkit import build_boundary_model, group_by_operating_point, \
        save_model, synth_engine_dataset
    ds = synth_engine_dataset(1, 4)
    key, block = group_by_operating_point(ds)[0]
    model = build_boundary_model(block, (0, 1, 2, 3), name="op0", op_point_key=key)
    mpath = str(tmp_path / "model.json")
    save_model(model, mpath)
    inside = ",".join(str(float(c)) for c in block[:, :4].mean(axis=0))
    # leading negative coordinates require the --query=... form
    code, stdout, _ = run_cli("contains", mpath, f"--query={inside}")
    assert code == 0
    assert stdout.startswith("inside")


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from hullkit import cli

    def fail(*args):
        raise ArithmeticError("simplex exceeded 10 pivots")

    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    monkeypatch.setattr(cli, "contains", fail)
    assert cli.main(["contains", vpath, "--query", "1,1"]) == 4
    assert capsys.readouterr().err.startswith("error:")


def _triangle_model(**fields):
    """A model document of the unit triangle with its cached H-rep, updated
    by ``fields``."""
    r = 2.0 ** -0.5
    doc = {
        "schema_version": 1, "name": "m", "input_columns": [0, 1],
        "op_point_key": [], "pruned": False, "normalization": [[0, 1]] * 2,
        "vrep": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]},
        "cached_hrep": {"dim": 2, "halfspaces": [
            {"normal": [-1, 0], "offset": 0}, {"normal": [0, -1], "offset": 0},
            {"normal": [r, r], "offset": r}]},
        "validation_queries": [[0.2, 0.2], [2.0, 2.0]]}
    doc.update(fields)
    return json.dumps(doc)


BAD_FILES = {
    "missing-field": '{"dim": 2}',
    "model-hrep-dims-disagree": _triangle_model(cached_hrep={"dim": 3, "halfspaces": [
        {"normal": [-1, 0, 0], "offset": 0}, {"normal": [0, -1, 0], "offset": 0},
        {"normal": [0, 0, -1], "offset": 0}, {"normal": [3 ** -0.5] * 3, "offset": 3 ** -0.5}]}),
    "model-nan-validation-query": _triangle_model(validation_queries=[[0.2, None]]),
    "model-short-validation-query": _triangle_model(validation_queries=[[0.2]]),
    "model-dims-disagree": json.dumps({
        "schema_version": 1, "name": "m", "input_columns": [0, 1, 2],
        "op_point_key": [], "pruned": False, "normalization": [[0, 1]] * 3,
        "vrep": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}, "cached_hrep": None}),
    "model-nan-scale": json.dumps({
        "schema_version": 1, "name": "m", "input_columns": [0, 1],
        "op_point_key": [], "pruned": False, "normalization": [[0, float("nan")], [0, 1]],
        "vrep": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}, "cached_hrep": None}),
    "model-zero-scale": json.dumps({
        "schema_version": 1, "name": "m", "input_columns": [0, 1],
        "op_point_key": [], "pruned": False, "normalization": [[0, 0], [0, 1]],
        "vrep": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}, "cached_hrep": None}),
    "nan": '{"dim": 2, "points": [[0, NaN], [1, 1]]}',
    "not-an-object": "[1, 2]",
    "not-json": "not json",
    "wrong-type": '{"dim": 2, "points": "abc"}',
    "wrong-width": '{"dim": 3, "points": [[0, 0], [1, 1]]}',
}
COMMANDS = {
    "convert": ("convert", "{}"),
    "contains": ("contains", "{}", "--query", "0,0"),
    "vertices": ("vertices", "{}"),
    "optimize-model": ("optimize", "--model", "{}", "--target", "0,0"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("bad", sorted(BAD_FILES))
def test_malformed_input_file_is_io_error(tmp_path, bad, command):
    path = tmp_path / "bad.json"
    path.write_text(BAD_FILES[bad])
    code, _, stderr = run_cli(*(arg.format(path) for arg in COMMANDS[command]))
    assert code == 3
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command", ("convert", "contains", "vertices"))
def test_seed_is_only_accepted_where_it_is_read(tmp_path, command):
    vpath = str(tmp_path / "quad.vrep.json")
    save_vrep(VRep(FIG_QUAD), vpath)
    code, _, stderr = run_cli(command, vpath, "--seed", "1")
    assert code == 2
    assert "--seed" in stderr


@pytest.mark.parametrize("kind", ("cube", "cross"))
def test_gen_without_a_seed_rejects_seed(tmp_path, kind):
    base = str(tmp_path / kind)
    code, _, stderr = run_cli("gen", kind, "--n", "2", "--seed", "5", "--out", base)
    assert code == 2
    assert "--seed" in stderr
    code, stdout, _ = run_cli("gen", kind, "--n", "2", "--out", base)
    assert code == 0
    assert stdout.split()[:3] == [kind, "4", "2"]
