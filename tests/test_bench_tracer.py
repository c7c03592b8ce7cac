"""The benchmark's tracer still fits the package it wraps.

``bench/tracer.py`` wraps volldp functions and methods by name for the
per-layer metrics of ``bench/run.py --trace 1``.  The tests of the
benchmark itself live outside the tier-1 suite, so this test loads the
tracer (it imports only the standard library) and checks that every name
it traces exists, is wrapped by ``install`` and is put back by
``uninstall``.
"""

import importlib
import importlib.util
import pathlib
import sys

_TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("volldp_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    """Every attribute of the loaded volldp modules and of their classes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "volldp" or name.startswith("volldp.")):
            continue
        for attr, value in vars(module).items():
            state[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    state[name, attr, key] = member
    return state


def test_tracer_wraps_every_target_and_restores_it():
    for name in ("volldp.cli", "volldp.config"):  # the CLI layer's targets
        importlib.import_module(name)
    tracer_module = _load_tracer()
    before = _attributes()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = _attributes()
    finally:
        tracer.uninstall()
    for _, module_name, cls_name, attrs in tracer_module._TARGETS:
        for attr in attrs:
            key = (module_name, attr) if cls_name is None else (
                module_name, cls_name, attr)
            assert key in before, f"traced name {key} does not exist"
            assert during[key] is not before[key], f"{key} not wrapped"
    after = _attributes()
    assert after.keys() == before.keys()
    changed = sorted(str(key) for key, value in before.items()
                     if after[key] is not value)
    assert changed == []
