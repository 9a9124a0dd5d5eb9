import json

import numpy as np
import pytest

from hullkit import DegenerateError, ParseError, SchemaError, TooFewPoints, \
    build_boundary_model, group_by_operating_point, load_csv, load_model, \
    save_csv, save_model, synth_bsfc_objective, synth_engine_dataset, \
    vrep_to_hrep
from hullkit.boundary import Dataset
from oracles import central_difference


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_well_formed(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n5.5,-6\n")
    ds = load_csv(path)
    assert ds.column_names == ("a", "b")
    assert ds.rows.shape == (3, 2)
    assert ds.op_point_columns == ()


def test_load_csv_bad_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,abc\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 3
    assert err.value.column == 2
    assert "abc" in str(err.value)


def test_load_csv_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ParseError, match="missing header"):
        load_csv(path)


def test_load_csv_rejects_nan(tmp_path):
    path = _write(tmp_path, "a,b\n1,nan\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/nowhere.csv")


def test_group_by_operating_point_two_keys():
    rows = np.array([[1.0, 10.0, 100.0],
                     [2.0, 20.0, 200.0],
                     [3.0, 10.0, 100.0]])
    ds = Dataset(("x", "SPEED", "BTQ"), rows, (1, 2))
    groups = group_by_operating_point(ds)
    assert len(groups) == 2
    np.testing.assert_array_equal(groups[0][0], [10.0, 100.0])
    assert groups[0][1].shape[0] == 2
    assert groups[1][1].shape[0] == 1


def test_group_by_single_key():
    rows = np.array([[1.0, 10.0], [2.0, 10.0]])
    ds = Dataset(("x", "SPEED"), rows, (1,))
    groups = group_by_operating_point(ds)
    assert len(groups) == 1
    assert groups[0][1].shape[0] == 2


def test_synth_dataset_shape_and_grouping():
    ds = synth_engine_dataset(1, 4)
    assert ds.rows.shape == (875, 7)
    assert ds.column_names == ("MAINSOI", "FUELPRESS", "VGTPOS", "EGRPOS",
                               "SPEED", "BTQ", "BSFC")
    groups = group_by_operating_point(ds)
    assert len(groups) == 7
    assert all(g[1].shape[0] == 125 for g in groups)


def test_synth_dataset_deterministic():
    a = synth_engine_dataset(5, 7)
    b = synth_engine_dataset(5, 7)
    np.testing.assert_array_equal(a.rows, b.rows)
    c = synth_engine_dataset(6, 7)
    assert not np.array_equal(a.rows, c.rows)


def test_synth_dataset_nine_input_columns():
    ds = synth_engine_dataset(1, 9)
    assert ds.column_names[:9] == ("MAINSOI", "FUELPRESS", "VGTPOS", "EGRPOS",
                                   "MAINFUEL", "EGRMF", "AFR", "VGTSPEED",
                                   "PEAKPRESS")
    assert ds.rows.shape == (875, 12)
    with pytest.raises(ValueError):
        synth_engine_dataset(1, 5)


def test_build_model_from_synth_block():
    ds = synth_engine_dataset(1, 4)
    key, block = group_by_operating_point(ds)[0]
    model = build_boundary_model(block, (0, 1, 2, 3), name="op0", op_point_key=key)
    assert model.vrep.dim == 4
    assert model.vrep.n_points <= 125
    assert np.all(np.abs(model.vrep.points) <= 1.0 + 1e-9)
    # normalization round trip on training rows
    raw = block[:5, :4]
    for row in raw:
        back = model.denormalize(model.normalize(row))
        np.testing.assert_allclose(back, row, atol=1e-12)


def test_build_model_prune_triangle():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    rng = np.random.default_rng(3)
    combos = rng.dirichlet(np.full(3, 2.0), 10) @ tri
    rows = np.vstack([tri, combos])
    model = build_boundary_model(rows, (0, 1), prune=True)
    assert model.pruned
    assert model.vrep.n_points == 3


def test_build_model_dedup_and_too_few():
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(TooFewPoints):
        build_boundary_model(rows, (0, 1))
    # A row within DISTINCT_EPS of an earlier one is dropped, not rejected.
    near = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e-13, 0.0]])
    for normalize in (True, False):
        model = build_boundary_model(near, (0, 1), normalize=normalize)
        assert model.vrep.n_points == 3


def test_build_model_degenerate():
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegenerateError):
        build_boundary_model(rows, (0, 1), normalize=False)


def test_membership_in_raw_units():
    ds = synth_engine_dataset(2, 4)
    key, block = group_by_operating_point(ds)[0]
    model = build_boundary_model(block, (0, 1, 2, 3), op_point_key=key)
    inside_point = block[:, :4].mean(axis=0)
    assert model.contains(inside_point).inside
    far_point = block[:, :4].max(axis=0) * 3.0 + 10.0
    assert not model.contains(far_point).inside


def test_pruned_model_answers_match_unpruned():
    ds = synth_engine_dataset(3, 4)
    key, block = group_by_operating_point(ds)[2]
    full = build_boundary_model(block, (0, 1, 2, 3), op_point_key=key)
    pruned = build_boundary_model(block, (0, 1, 2, 3), prune=True, op_point_key=key)
    assert pruned.vrep.n_points < full.vrep.n_points
    rng = np.random.default_rng(8)
    lo = block[:, :4].min(axis=0)
    hi = block[:, :4].max(axis=0)
    for _ in range(50):
        q = lo + rng.uniform(-0.2, 1.2, 4) * (hi - lo)
        assert full.contains(q).inside == pruned.contains(q).inside


def test_bsfc_objective_gradient_and_determinism():
    f = synth_bsfc_objective(1, 4, 0)
    g = synth_bsfc_objective(1, 4, 0)
    rng = np.random.default_rng(4)
    ds = synth_engine_dataset(1, 4)
    block = group_by_operating_point(ds)[0][1]
    for _ in range(5):
        x = block[int(rng.integers(0, 125)), :4]
        assert f.eval(x) == g.eval(x)
        fd = central_difference(f.eval, x, h=1e-4 * (1 + np.abs(x).max()))
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(f.grad(x) - fd).max() / denom <= 1e-5


def test_bsfc_column_tracks_bowl_within_noise():
    ds = synth_engine_dataset(1, 4)
    key, block = group_by_operating_point(ds)[0]
    f = synth_bsfc_objective(1, 4, 0)
    clean = np.array([f.eval(row[:4]) for row in block])
    resid = block[:, 6] - clean
    spread = clean.max() - clean.min()
    assert np.abs(resid).max() <= 5.0 * 0.01 * spread  # 5 sigma


def test_save_load_round_trip(tmp_path):
    ds = synth_engine_dataset(4, 4)
    key, block = group_by_operating_point(ds)[1]
    model = build_boundary_model(block, (0, 1, 2, 3), name="op1", op_point_key=key)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.name == model.name
    assert loaded.input_columns == model.input_columns
    assert loaded.pruned == model.pruned
    np.testing.assert_array_equal(loaded.op_point_key, model.op_point_key)
    np.testing.assert_array_equal(loaded.vrep.points, model.vrep.points)
    assert loaded.normalization == model.normalization
    # membership answers agree on seeded queries
    rng = np.random.default_rng(11)
    lo = block[:, :4].min(axis=0)
    hi = block[:, :4].max(axis=0)
    for _ in range(50):
        q = lo + rng.uniform(-0.2, 1.2, 4) * (hi - lo)
        assert model.contains(q).inside == loaded.contains(q).inside


def test_cached_hrep_survives_round_trip(tmp_path):
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    model = build_boundary_model(tri, (0, 1), name="tri")
    hrep = vrep_to_hrep(model.vrep).hrep
    cached = model.with_cached_hrep(hrep)
    assert cached.cached_hrep is not None
    assert len(cached.validation_queries) > 0
    path = str(tmp_path / "cached.json")
    save_model(cached, path)
    loaded = load_model(path)
    assert loaded.cached_hrep is not None
    np.testing.assert_array_equal(loaded.cached_hrep.normals, hrep.normals)


@pytest.mark.parametrize("change", ["shrink-all", "grow-one"])
def test_cached_hrep_that_misfits_the_points_is_rejected(tmp_path, change):
    # Shrinking every offset puts vertices outside; growing one leaves a
    # half-space that touches no vertex. The box probes alone accept both.
    ds = synth_engine_dataset(1, 4)
    key, block = group_by_operating_point(ds)[0]
    model = build_boundary_model(block, (0, 1, 2, 3), prune=True, op_point_key=key)
    model = model.with_cached_hrep(vrep_to_hrep(model.vrep).hrep)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    halfspaces = doc["cached_hrep"]["halfspaces"]
    for h in halfspaces if change == "shrink-all" else halfspaces[:1]:
        h["offset"] += -0.05 if change == "shrink-all" else 0.05
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


def test_truncated_file_never_partial(tmp_path):
    ds = synth_engine_dataset(4, 4)
    key, block = group_by_operating_point(ds)[1]
    model = build_boundary_model(block, (0, 1, 2, 3), op_point_key=key)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    text = open(path).read()
    truncated = str(tmp_path / "broken.json")
    open(truncated, "w").write(text[: len(text) // 2])
    with pytest.raises((ParseError, SchemaError)):
        load_model(truncated)


def test_schema_version_mismatch(tmp_path):
    path = str(tmp_path / "bad.json")
    json.dump({"schema_version": 99}, open(path, "w"))
    with pytest.raises(SchemaError):
        load_model(path)


def test_csv_round_trip_preserves_values(tmp_path):
    ds = synth_engine_dataset(7, 4)
    path = str(tmp_path / "engine.csv")
    save_csv(ds, path)
    back = load_csv(path)
    assert back.column_names == ds.column_names
    assert back.op_point_columns == ds.op_point_columns  # SPEED/BTQ detected
    np.testing.assert_array_equal(back.rows, ds.rows)
