"""The equality rule: types that hold an array compare and hash by identity,
and the certificate cache that ``contains`` keeps per hull lives and dies with
the hull object."""

import copy
import dataclasses
import gc

import numpy as np
import pytest

import hullkit as hk
from hullkit import queries

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _model():
    key, rows = hk.group_by_operating_point(hk.synth_engine_dataset(1, 4))[0]
    return hk.build_boundary_model(rows, range(4), op_point_key=key)


def _quadratic(dim):
    return hk.Objective(dim=dim, eval=lambda x: float(x @ x), grad=lambda x: 2 * x)


# One instance of every type that holds an array, directly or through a field.
IDENTITY_TYPES = {
    "Hyperplane": lambda: hk.Hyperplane(np.array([1.0, 0.0]), 1.0),
    "LpProblem": lambda: hk.queries.membership_problem(SQUARE, [0.5, 0.5]),
    "LpOutcome": lambda: hk.lp_solve(hk.queries.membership_problem(SQUARE, [0.5, 0.5])),
    "VRep": lambda: hk.VRep(np.eye(3)),
    "HRep": lambda: hk.unit_cube(2)[1],
    "ConversionReport": lambda: hk.vrep_to_hrep(hk.VRep(SQUARE)),
    "Weights": lambda: hk.Weights(np.array([0.5, 0.5])),
    "MembershipResult": lambda: hk.contains(hk.VRep(SQUARE), [0.5, 0.5]),
    "SolveResult": lambda: hk.solve_vrep(_quadratic(2), [], hk.VRep(SQUARE + 1.0)),
    "Dataset": lambda: hk.Dataset(("a", "b"), np.eye(2), ()),
    "BoundaryModel": _model,
}


@pytest.mark.parametrize("name", sorted(IDENTITY_TYPES))
def test_array_types_compare_and_hash_by_identity(name):
    a = IDENTITY_TYPES[name]()
    assert type(a).__name__ == name
    assert a == a
    assert a != copy.copy(a)
    assert a != IDENTITY_TYPES[name]()  # built again from the same values
    assert isinstance(hash(a), int)
    assert a in [a]
    assert {a: 1}[a] == 1


def test_every_array_dataclass_uses_the_identity_rule():
    exported = [getattr(hk, name) for name in hk.__all__]
    classes = [c for c in exported if dataclasses.is_dataclass(c)]
    identity = {c.__name__ for c in classes if not c.__dataclass_params__.eq}
    assert identity == set(IDENTITY_TYPES)
    for cls in classes:  # a field annotated with an array type, not a callable
        types = [str(f.type) for f in dataclasses.fields(cls)]
        holds_array = any(not t.startswith("Callable") and
                          ("ndarray" in t or any(name in t for name in IDENTITY_TYPES))
                          for t in types)
        assert holds_array == (cls.__name__ in identity), cls.__name__


def test_plain_value_types_keep_value_equality():
    row = dict(m=10, n=3, seed=1, metric_name="t", value=0.5, unit="s")
    assert hk.BenchRow(**row) == hk.BenchRow(**row)
    assert hk.SolveOptions() == hk.SolveOptions(max_iters=500)
    assert hk.SolveOptions() != hk.SolveOptions(max_iters=5)
    f = _quadratic(2)
    assert hk.Objective(2, f.eval, f.grad) == f


def test_certificate_store_lets_go_of_a_dropped_hull():
    gc.collect()
    before = len(queries._CACHES)
    v = hk.random_point_set(20, 3, seed=1)
    hk.contains(v, np.zeros(3))
    assert len(queries._CACHES) == before + 1
    del v
    gc.collect()
    assert len(queries._CACHES) == before


def test_replaced_model_shares_its_hulls_certificates():
    model = _model()
    renamed = dataclasses.replace(model, name="x")
    assert renamed.vrep is model.vrep
    raw = model.denormalize(model.vrep.points.mean(axis=0))
    assert model.contains(raw).source == "lp"
    assert queries._certificates(renamed.vrep) is queries._certificates(model.vrep)
    assert renamed.contains(raw).source == "basis"
