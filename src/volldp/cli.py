"""Command-line driver: deterministic experiments from a flat config file.

Subcommands

* ``kernel-table``   -- dump K(t, s) on the grid nodes, one CSV per factor
* ``simulate``       -- Euler paths of the log-price process (long CSV)
* ``rate``           -- minimize a pathwise rate functional
* ``terminal-rate``  -- minimize the terminal rate at a point z
* ``verify-ldp``     -- tail probabilities across a noise sweep + slope fit
* ``short-time``     -- two-route short-time diagnostic
* ``selftest``       -- run the built-in property battery

Every run writes its artifacts atomically (temp file, then rename) into the
output directory together with ``manifest.json`` (config hash, seed,
package version, command, overrides, ``threads_effective``, the
worker-pool size of ``verify-ldp`` and ``short-time``, 1 for commands
without a pool, ``status``, the run's ``warnings`` as a list of
``{category, message}``, and the environment: ``python``, ``numpy`` and
``scipy`` versions, ``blas`` and ``platform``) so results can be
reproduced bit-identically.  Each warning is still printed to stderr, once
the run ends.
All numbers are printed with 17 significant digits.
Exit codes: 0 success, otherwise the failing error category (CONFIG 2,
DOMAIN 3, VALIDATION 4, NUMERIC 5, INTERNAL 6).  A failure prints one line,
``error[CATEGORY]: message``; an exception that is not a package error
(``LinAlgError``, ``MemoryError``, ...) is INTERNAL.  Once the output
directory exists the manifest is written on failure too, with ``status``
"error" and the error's category and message.
Imports are module-level, where the package import has loaded them already;
the selftest battery, which nothing else loads, is imported when it runs.
"""

import argparse
import json
import math
import os
import platform
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import scipy

from . import __version__
from .asymptotics import (
    TerminalHalfSpace, estimate_tail_prob, ldp_slope, pool_size,
    short_time_report,
)
from .config import load_config
from .errors import ConfigurationError, VolldpError
from .kernels import eval_lower_triangle
from .model import Scaling, _require_finite, euler_paths_array
from .ratefn import CameronMartinPath, i_uncorrelated, i_z, i_z_m, terminal_rate

_EXIT_CODES = {
    "CONFIG": 2,
    "DOMAIN": 3,
    "VALIDATION": 4,
    "NUMERIC": 5,
    "INTERNAL": 6,
}

def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header, table) -> None:
    """One row per row of the 2-D float array ``table``, each cell 17 digits.

    One ``%`` pass over all cells writes the bytes of
    ``format(float(v), ".17g")`` per cell.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    line = ",".join(("%.17g",) * cols) + "\n"
    body = (line * rows) % tuple(table.ravel().tolist())
    _atomic_write(path, ",".join(header) + "\n" + body)


def _write_json(path: str, payload: dict) -> None:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(path, text + "\n")


def _fields(record, *omit) -> dict:
    """The fields of the dataclass ``record`` but ``omit``, by name (nested
    records as dicts): a JSON artifact names each value as its record does."""
    return {k: v for k, v in asdict(record).items() if k not in omit}


def environment() -> dict:
    """The versions and platform that ``manifest.json`` records.

    ``blas`` is "<name> <version>" of the BLAS numpy was built with.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_kernel_table(cfg, out_dir: str) -> None:
    nodes = cfg.grid.nodes
    n = nodes.size
    tt, ss = np.meshgrid(nodes, nodes, indexing="ij")
    below = np.tri(n, n, -1, dtype=bool)  # s < t; K vanishes elsewhere
    for ell, kernel in enumerate(cfg.bank, start=1):
        values = np.zeros((n, n))
        values[below] = eval_lower_triangle(kernel, nodes, 0.0, lag=1)[:, 0]
        _write_csv(
            os.path.join(out_dir, f"kernel_{ell}.csv"),
            ("t", "s", "value"),
            np.column_stack((tt.ravel(), ss.ravel(), values.ravel())),
        )


def _cmd_simulate(cfg, out_dir: str) -> None:
    opts = cfg.simulate
    # One draw feeds both files so drivers.csv holds the B and Bhat that
    # produced paths.csv, row for row.
    paths = euler_paths_array(
        cfg.coeffs, cfg.bank, cfg.grid, Scaling.small_noise(opts.epsilon),
        opts.n_paths, cfg.seed,
    )
    _require_finite(paths.values[:, -1])
    d, p = cfg.coeffs.d, cfg.coeffs.p
    nodes = cfg.grid.nodes
    # one row per (path, node), path-major
    ids = np.repeat(np.arange(opts.n_paths), nodes.size)
    times = np.tile(nodes, opts.n_paths)
    header = ("path_id", "t") + tuple(f"z_{i + 1}" for i in range(d))
    _write_csv(
        os.path.join(out_dir, "paths.csv"), header,
        np.column_stack((ids, times, paths.values.reshape(-1, d))),
    )
    if opts.emit_drivers:
        header = (
            ("path_id", "t")
            + tuple(f"b_{l + 1}" for l in range(p))
            + tuple(f"bhat_{l + 1}" for l in range(p))
        )
        table = np.column_stack((
            ids, times, paths.brownian.reshape(-1, p),
            paths.volterra.reshape(-1, p),
        ))
        _write_csv(os.path.join(out_dir, "drivers.csv"), header, table)


def _read_target_csv(path: str, grid, d: int):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:  # ValueError: a cell is not a number
        raise ConfigurationError(f"cannot read target file {path}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(
            f"cannot read target file {path}: a value is not finite"
        )
    if data.shape != (grid.n_steps + 1, d + 1):
        raise ConfigurationError(
            f"target file must have {grid.n_steps + 1} rows (one per node) and "
            f"{d + 1} columns (t plus {d} components); got {data.shape}"
        )
    if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12):
        raise ConfigurationError(
            "target file time column must coincide with the grid nodes"
        )
    return CameronMartinPath.from_values(grid, data[:, 1:])


def _solution_outputs(out_dir: str, solution, grid) -> None:
    _write_csv(os.path.join(out_dir, "value.csv"), ("value",), [[solution.value]])
    p = solution.control.dim
    header = ("t_left",) + tuple(f"fdot_{l + 1}" for l in range(p))
    table = np.column_stack((grid.nodes[:-1], solution.control.derivative))
    _write_csv(os.path.join(out_dir, "control.csv"), header, table)
    # the control went to control.csv; inner_drift is the tilt's alone
    _write_json(
        os.path.join(out_dir, "diagnostics.json"),
        {**_fields(solution, "control", "inner_drift"),
         "control_energy": solution.control.h1_norm_sq},
    )


def _cmd_rate(cfg, out_dir: str) -> None:
    opts = cfg.rate
    d = cfg.coeffs.d
    if opts.target_file is not None:
        target = _read_target_csv(opts.target_file, cfg.grid, d)
    elif opts.z is not None:
        if len(opts.z) != d:
            raise ConfigurationError(
                f"config section [rate], field 'z': expected {d} entries"
            )
        target = CameronMartinPath.straight_line(cfg.grid, np.asarray(opts.z))
    else:
        raise ConfigurationError(
            "config section [rate]: provide either 'z' (straight-line target) "
            "or 'target_file' (absolutely continuous path as CSV)"
        )
    if opts.functional == "i_z":
        solution = i_z(target, cfg.bank, cfg.coeffs, cfg.optimizer)
    elif opts.functional == "i_z_m":
        solution = i_z_m(target, opts.m, cfg.bank, cfg.coeffs, cfg.optimizer)
    else:
        solution = i_uncorrelated(target, cfg.bank, cfg.coeffs, cfg.optimizer)
    _solution_outputs(out_dir, solution, cfg.grid)


def _cmd_terminal_rate(cfg, out_dir: str, z_override) -> None:
    z = z_override if z_override is not None else cfg.terminal.z
    if z is None:
        raise ConfigurationError(
            "terminal-rate needs a target: pass --z or set z in section "
            "[terminal-rate]"
        )
    z = np.asarray(z, dtype=float)
    if z.shape != (cfg.coeffs.d,):
        raise ConfigurationError(
            f"terminal point has {z.size} entries, model has d = {cfg.coeffs.d}"
        )
    solution = terminal_rate(z, cfg.bank, cfg.coeffs, cfg.grid, cfg.optimizer)
    _solution_outputs(out_dir, solution, cfg.grid)


def _cmd_verify_ldp(cfg, out_dir: str, threads) -> None:
    opts = cfg.verify_ldp
    event = TerminalHalfSpace(threshold=opts.threshold)
    z = np.zeros(cfg.coeffs.d)
    z[0] = opts.threshold
    solution = terminal_rate(z, cfg.bank, cfg.coeffs, cfg.grid, cfg.optimizer)
    control = solution if opts.estimator == "tilted" else None
    estimates = [
        estimate_tail_prob(cfg.coeffs, cfg.bank, cfg.grid, eps, event,
                           opts.n_paths, cfg.seed + i, threads, control)
        for i, eps in enumerate(opts.epsilons)
    ]
    # fit first: a degenerate level fails here, before any artifact exists
    fit = ldp_slope(estimates)
    table = np.array([
        (e.epsilon, e.prob, e.stderr, -e.log_prob, e.epsilon**-2,
         -e.log_stderr, e.ess, e.max_weight_share)
        for e in estimates
    ])
    _write_csv(
        os.path.join(out_dir, "ldp.csv"),
        ("epsilon", "p_hat", "stderr", "minus_log_p", "eps_inv_sq",
         "minus_log_stderr", "ess", "max_weight_share"),
        table,
    )
    target = solution.value
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {
            **_fields(fit),
            "target_rate": target,
            "relative_gap": abs(fit.slope - target) / target if target else None,
            "estimator": opts.estimator,
            "n_paths": opts.n_paths,
        },
    )


def _cmd_short_time(cfg, out_dir: str, threads) -> None:
    if cfg.schedule is None:
        raise ConfigurationError(
            "short-time needs a [schedule] section with an eta sequence"
        )
    opts = cfg.short_time
    report = short_time_report(
        cfg.coeffs, cfg.bank, cfg.grid, cfg.schedule, opts.n_paths, cfg.seed,
        refine=opts.refine, threads=threads,
    )
    # the report's rescaled route ran at seed + 2 i: these are its samples
    comps = report.comparisons
    table = np.column_stack((
        np.repeat([comp.delta for comp in comps], opts.n_paths),
        np.tile(np.arange(opts.n_paths), len(comps)),
        np.concatenate([comp.rescaled_terminal for comp in comps]),
    ))
    _write_csv(
        os.path.join(out_dir, "samples.csv"), ("delta", "path_id", "value"), table
    )
    # each comparison record, but the samples above, is its diagnostic.json entry
    entries = [_fields(comp, "rescaled_terminal") for comp in comps]
    payload = {"all_consistent": report.all_consistent(), "comparisons": entries}
    _write_json(os.path.join(out_dir, "diagnostic.json"), payload)
    _atomic_write(os.path.join(out_dir, "report.txt"), str(report) + "\n")


def _cmd_selftest(out_dir: str) -> int:
    # deferred: neither the package import nor another command loads it
    from .selftest import run_selftest

    failures = run_selftest(sys.stdout)
    if out_dir is not None:
        _atomic_write(
            os.path.join(out_dir, "selftest.txt"),
            f"failures = {failures}\n",
        )
    return failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volldp",
        description=(
            "Simulation and large-deviation analysis of Volterra-driven "
            "stochastic volatility models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        "kernel-table", "simulate", "rate", "terminal-rate", "verify-ldp",
        "short-time", "selftest",
    )
    for name in commands:
        cmd = sub.add_parser(name)
        # the battery reads no config, fixes its seed and runs no pool
        if name != "selftest":
            cmd.add_argument("--config", required=True, help="experiment file")
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the config seed")
            cmd.add_argument("--threads", type=int, default=None,
                             help="worker threads of the Monte Carlo path "
                                  "blocks of verify-ldp and short-time "
                                  "(default: the CPUs available); the "
                                  "BLAS thread count comes from the "
                                  "environment")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "terminal-rate":
            cmd.add_argument("--z", default=None,
                             help="comma-separated terminal point")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = None  # the manifest's payload, once the output directory exists
    error = None
    caught = []  # the run's warnings, recorded for the manifest
    try:
        if args.command == "selftest":
            out_dir = args.out
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
            failures = _cmd_selftest(out_dir)
            return 0 if failures == 0 else _EXIT_CODES["VALIDATION"]

        with warnings.catch_warnings(record=True) as caught:
            if args.threads is not None and args.threads < 1:
                raise ConfigurationError("--threads must be >= 1")
            if args.seed is not None and args.seed < 0:
                raise ConfigurationError("--seed must be >= 0")
            cfg = load_config(args.config)
            seed = cfg.seed if args.seed is None else args.seed
            if seed != cfg.seed:
                cfg = replace(cfg, seed=seed)
            out_dir = args.out if args.out is not None else cfg.out_dir
            os.makedirs(out_dir, exist_ok=True)
            overrides = {"out": args.out, "threads": args.threads}
            manifest = {
                "command": args.command, "config_sha256": cfg.config_sha256,
                "seed": seed, "version": __version__,
                "overrides": {k: v for k, v in overrides.items() if v is not None},
                "threads_effective": 1,
            }

            z_override = None
            if getattr(args, "z", None) is not None:
                try:
                    z_override = tuple(float(tok) for tok in args.z.split(","))
                except ValueError as exc:
                    raise ConfigurationError(f"--z: {exc}") from exc
                if not all(map(math.isfinite, z_override)):
                    raise ConfigurationError(f"--z: {args.z!r} is not finite")
                manifest["overrides"]["z"] = list(z_override)

            if args.command == "kernel-table":
                _cmd_kernel_table(cfg, out_dir)
            elif args.command == "simulate":
                _cmd_simulate(cfg, out_dir)
            elif args.command == "rate":
                _cmd_rate(cfg, out_dir)
            elif args.command == "terminal-rate":
                _cmd_terminal_rate(cfg, out_dir, z_override)
            else:  # the Monte Carlo commands, on the path-block pool
                verify = args.command == "verify-ldp"
                opts = cfg.verify_ldp if verify else cfg.short_time
                manifest["threads_effective"] = pool_size(opts.n_paths, args.threads)
                command = _cmd_verify_ldp if verify else _cmd_short_time
                command(cfg, out_dir, args.threads)
    except VolldpError as exc:
        error = {"category": exc.category, "message": str(exc)}
    except Exception as exc:  # every other failure is INTERNAL
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        error = {"category": "INTERNAL", "message": message}
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if error is not None:
        print(f"error[{error['category']}]: {error['message']}", file=sys.stderr)
    if manifest is not None:
        manifest.update(
            status="ok" if error is None else "error",
            warnings=[{"category": w.category.__name__, "message": str(w.message)}
                      for w in caught],
            **environment(),
        )
        if error is not None:
            manifest["error"] = error
        _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if error is None:
        return 0
    return _EXIT_CODES.get(error["category"], _EXIT_CODES["INTERNAL"])


if __name__ == "__main__":
    sys.exit(main())
