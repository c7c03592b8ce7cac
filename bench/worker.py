"""One experiment in a fresh interpreter: set up, run, check, report.

``run.py`` starts this script once per repetition, with the BLAS/OpenMP
thread variables already in the environment, and reads the JSON object it
writes to ``--result``::

    python3 bench/worker.py --workload ldp_tilted --seed 1 --size full \
        --work-dir DIR --result FILE [--trace] [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from run import ROOT, THREAD_VARS
from tracer import Tracer
from workloads import WORKLOADS


def _require_checkout_source() -> None:
    import volldp

    src = os.path.realpath(os.path.join(ROOT, "src"))
    found = os.path.realpath(volldp.__file__)
    if not found.startswith(src + os.sep):
        raise SystemExit(f"volldp imported from {found}, not from {src}")


def _blas_threads():
    """Threads the numpy OpenBLAS pool actually uses, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = perf_counter()
    inputs = workload.setup(args.seed, args.size, args.work_dir)
    report = {"setup_s": perf_counter() - start}
    _require_checkout_source()

    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            raw = workload.run(inputs)
        except Exception as exc:  # the experiment failed; check() counts it
            traceback.print_exc()
            raw = exc
        finally:
            wall_s = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.check(inputs, raw)
        report.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            work=outcome.work,
            health=outcome.health,
            notes=outcome.notes,
            bytes_written=workload.bytes_written(inputs),
        )
        if tracer is not None:
            report["per_layer"] = tracer.per_layer()
    report["environment"] = environment()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
