"""volldp benchmark: three pinned experiments, end-to-end and per-layer metrics.

Run from the repository root; volldp is imported from ``src/``::

    python3 bench/run.py --workload ldp_tilted --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1        # every workload, one after another

Each repetition of a workload is one experiment in a fresh interpreter
(``worker.py``), started with one BLAS/OpenMP thread, as a single
closed-loop caller: the next experiment starts when the previous one has
ended.  Repetitions continue while the next one is expected to end within
``--seconds``; the run reports medians over them.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (experiment time
after set-up), ``setup_s`` (``import volldp`` plus building the inputs,
median of at least three set-ups), ``peak_rss_mb`` and ``throughput``
(paths per second on the Monte Carlo workloads, solves per second on
``rate_surface``).  ``--trace 1`` alternates traced and untraced
repetitions and reports the per-layer metrics from spans recorded around
volldp's public functions, plus ``trace.overhead``.  Every repetition is
checked against its workload's gates; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("ldp_tilted", "short_time_fou", "rate_surface")
MONTE_CARLO = ("ldp_tilted", "short_time_fou")
# BLAS pools are sized when numpy loads, so the cap must be in the
# environment before the interpreter starts.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s"}

PER_LAYER = {
    "kernels.layer_s": "s",
    "gaussian.layer_s": "s",
    "model.layer_s": "s",
    "ratefn.layer_s": "s",
    "asymptotics.layer_s": "s",
    "cli.layer_s": "s",
    "kernels.eval_s": "s",
    "kernels.eval_calls": "count",
    "kernels.eval_points": "count",
    "gaussian.discretize_s": "s",
    "gaussian.discretize_calls": "count",
    "gaussian.discretize_hit_ratio": "ratio",
    "gaussian.normals_s": "s",
    "gaussian.normals_drawn": "count",
    "gaussian.normals_bytes_computed": "B",
    "gaussian.convolve_s": "s",
    "gaussian.convolve_calls": "count",
    "gaussian.convolve_paths": "count",
    "gaussian.draw_s": "s",
    "model.euler_s": "s",
    "model.path_steps": "count",
    "model.coeff_s": "s",
    "model.coeff_points": "count",
    "ratefn.solve_s": "s",
    "ratefn.solves": "count",
    "ratefn.iterations": "count",
    "ratefn.grad_evals": "count",
    "ratefn.spread_warnings": "count",
    "asymptotics.estimate_s": "s",
    "asymptotics.report_s": "s",
    "asymptotics.hit_ratio": "ratio",
    "asymptotics.max_rel_se": "ratio",
    "asymptotics.slope_rel_gap": "ratio",
    "asymptotics.paired_max_sup": "1",
    "asymptotics.min_ks_p": "1",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
}
# Outcome health values reported per layer; 0 where the workload has no
# such estimator.
HEALTH = ("max_rel_se", "slope_rel_gap", "paired_max_sup", "min_ks_p")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def _run_worker(name, seed, size, work_dir, deadline, trace=False, setup_only=False):
    """One repetition in a fresh interpreter; returns the worker's report."""
    os.makedirs(work_dir)
    result = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", name, "--seed", str(seed), "--size", size,
           "--work-dir", work_dir, "--result", result]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"{name}: no time left for another repetition")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as handle:
        report = json.load(handle)
    shutil.rmtree(work_dir)
    return report


def measure(name, seed, seconds, trace, size, work_root, deadline):
    """Repetitions of one workload for about ``seconds``; their reports."""
    start = perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 0
        reps.append(_run_worker(name, seed, size,
                                os.path.join(work_root, f"rep{len(reps)}"),
                                deadline, trace=traced))
        elapsed = perf_counter() - start
        needs_pair = trace and len(reps) < 2
        if not needs_pair and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while not trace and len(setups) < SETUP_SAMPLES:
        report = _run_worker(name, seed, size,
                             os.path.join(work_root, f"setup{len(setups)}"),
                             deadline, setup_only=True)
        setups.append(report["setup_s"])
    return reps, setups


def end_to_end(reps, setups) -> dict:
    """Medians over the untraced repetitions and the set-ups."""
    plain = [r for r in reps if "per_layer" not in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "throughput": statistics.median(r["work"] / r["wall_s"] for r in plain),
    }


def per_layer(reps, wall_s) -> dict:
    """Medians over the traced repetitions."""
    traced = [r for r in reps if "per_layer" in r]
    values = {}
    for key in PER_LAYER:
        metric = key.split(".")[1]
        if key == "trace.overhead":
            value = statistics.median(r["wall_s"] for r in traced) / wall_s - 1.0
        elif key == "cli.bytes_written":
            value = statistics.median(r["bytes_written"] for r in traced)
        elif key.startswith("asymptotics.") and metric in HEALTH:
            value = statistics.median(r["health"].get(metric, 0.0) for r in traced)
        else:
            value = statistics.median(r["per_layer"][key] for r in traced)
        values[key] = value
    return values


def summarize(reps, setups, trace):
    """The result object of one workload run."""
    values = end_to_end(reps, setups)
    units = END_TO_END
    if trace:
        values, units = per_layer(reps, values["wall_s"]), PER_LAYER
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def describe(name, reps, setups, result) -> list:
    """Human-readable lines: every metric by name with its unit."""
    e2e = end_to_end(reps, setups)
    plain = [r for r in reps if "per_layer" not in r]
    fields = [(k, e2e[k], END_TO_END[k]) for k in ("wall_s", "setup_s", "peak_rss_mb")]
    rate = "paths_per_s" if name in MONTE_CARLO else "solves_per_s"
    fields.append((rate, e2e["throughput"], "1/s"))
    if name == "ldp_tilted":
        rel_se = statistics.median(r["health"]["max_rel_se"] for r in plain)
        fields.append(("tts_2pct_s", e2e["wall_s"] * (rel_se / 0.02) ** 2, "s"))
    fields.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
    lines = [f"{name}: " + "  ".join(f"{k} = {v:.6g} {u}" for k, v, u in fields),
             f"{name}: medians of {len(plain)} timed repetitions (wall_s "
             + ", ".join(f"{r['wall_s']:.3f}" for r in plain)
             + f") and {len(setups)} set-ups"]
    if "per_layer" in reps[0]:
        layers = {k: m["value"] for k, m in result["metrics"].items()
                  if k.endswith(".layer_s")}
        lines.append(f"{name}: largest self-time layer = "
                     f"{max(layers, key=layers.get).split('.')[0]}")
        for key, m in result["metrics"].items():
            lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    for r in reps:
        lines.extend(f"{name}: gate failed: {note}" for note in r.get("notes", ()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "volldp", "__init__.py")):
        print(f"error: no volldp sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = os.path.join(BENCH_DIR, f"_work{os.getpid()}")
    results = {}
    deadline = perf_counter() + RUN_LIMIT_S * len(names)
    environment = None
    try:
        for name in names:
            reps, setups = measure(name, args.seed, args.seconds, bool(args.trace),
                                   args.size, os.path.join(work_root, name), deadline)
            results[name] = summarize(reps, setups, bool(args.trace))
            environment = environment or reps[0]["environment"]
            for line in describe(name, reps, setups, results[name]):
                print(line)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("# environment: " + json.dumps(environment, sort_keys=True))
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
