"""Every benchmark workload still runs and passes its gates on the package.

``bench/workloads.py`` reads the package the way a user does: CLI commands
on pinned INI files, config records such as ``len(cfg.schedule)``, and
library calls by name.  The tests of the benchmark itself live outside the
tier-1 suite, so this test loads the workloads module (it imports only the
standard library at the top) and runs each workload at its ``tiny`` size
in-process through its own ``setup``, ``run`` and ``check``.
"""

import importlib.util
import pathlib

import pytest

_WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("volldp_bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _load_workloads()


@pytest.mark.parametrize("name", sorted(_MODULE.WORKLOADS))
def test_workload_passes_its_gates_at_tiny_size(name, tmp_path):
    workload = _MODULE.WORKLOADS[name]
    inputs = workload.setup(1, "tiny", str(tmp_path))
    outcome = workload.check(inputs, workload.run(inputs))
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.notes
