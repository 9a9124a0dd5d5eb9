"""The benchmark's traced run rebinds hullkit functions and methods by name
(``perfbench/tracing.py``). These tests fail as soon as a rename or a removed
hook would break that run. The tracing module is loaded by file path, so the
benchmark's directory never goes on ``sys.path``: it has its own ``oracles``
module, which would shadow the one next to these tests."""

import importlib
import importlib.util
import pathlib
import sys

import hullkit
import hullkit.cli  # noqa: F401  (the tracer rebinds names in every loaded module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded hullkit module and class, by owner."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "hullkit" or name.startswith("hullkit."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def test_every_traced_name_resolves():
    tracing = _tracing()
    for mod, fname in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"hullkit.{mod}"), fname)), fname
    for mod, cls_name, meth, _ in tracing.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"hullkit.{mod}"), cls_name)
        assert callable(vars(cls).get(meth)), f"{cls_name}.{meth}"


def test_install_then_uninstall_restores_every_binding():
    tracer = _tracing().Tracer()
    before = _bindings()
    tracer.install()
    try:
        during = _bindings()
        rebound = [key for key, value in before.items() if during[key] is not value]
        assert ("hullkit.queries", "contains") in rebound
        assert ("hullkit.polytope", "VRep", "__post_init__") in rebound
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert hullkit.VRep([[0.0, 1.0]]).n_points == 1
    assert not tracer.spans
