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
worker-pool size of the tail estimators, 1 for commands without a pool, and
``status``) so results can be reproduced bit-identically.  All numbers are
printed with 17 significant digits.
Exit codes: 0 success, otherwise the failing error category (CONFIG 2,
DOMAIN 3, VALIDATION 4, NUMERIC 5, INTERNAL 6).  A failure prints one line,
``error[CATEGORY]: message``; an exception that is not a package error
(``LinAlgError``, ``MemoryError``, ...) is INTERNAL.  Once the output
directory exists the manifest is written on failure too, with ``status``
"error" and the error's category and message.
"""

import argparse
import hashlib
import json
import os
import sys

_EXIT_CODES = {
    "CONFIG": 2,
    "DOMAIN": 3,
    "VALIDATION": 4,
    "NUMERIC": 5,
    "INTERNAL": 6,
}

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(out_dir: str, command: str, config_text: str, seed: int,
                    overrides: dict, threads_effective: int, error) -> None:
    """``error`` is None for a successful run, else its category and message."""
    from . import __version__

    payload = {
        "command": command,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "version": __version__,
        "overrides": {k: v for k, v in sorted(overrides.items()) if v is not None},
        "threads_effective": threads_effective,
        "status": "ok" if error is None else "error",
    }
    if error is not None:
        payload["error"] = error
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_kernel_table(cfg, out_dir: str) -> None:
    import numpy as np

    from .kernels import eval_lower_triangle

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
            zip(tt.ravel(), ss.ravel(), values.ravel()),
        )


def _cmd_simulate(cfg, out_dir: str) -> None:
    from .model import Scaling, euler_paths_array

    opts = cfg.simulate
    # One draw feeds both files so drivers.csv holds the exact noise that
    # produced paths.csv, row for row.
    paths = euler_paths_array(
        cfg.coeffs, cfg.bank, cfg.grid, Scaling.small_noise(opts.epsilon),
        opts.n_paths, cfg.seed, correlated=opts.correlated,
        convolve_per_path=True,
    )
    values = paths.values
    d = cfg.coeffs.d
    header = ("path_id", "t") + tuple(f"z_{i + 1}" for i in range(d))
    rows = []
    for k in range(opts.n_paths):
        for i, t in enumerate(cfg.grid.nodes):
            rows.append((k, t) + tuple(values[k, i, :]))
    _write_csv(os.path.join(out_dir, "paths.csv"), header, rows)
    if opts.emit_drivers:
        p = cfg.coeffs.p
        brownian, volterra = paths.brownian, paths.volterra
        header = (
            ("path_id", "t")
            + tuple(f"b_{l + 1}" for l in range(p))
            + tuple(f"bhat_{l + 1}" for l in range(p))
        )
        rows = []
        for k in range(opts.n_paths):
            for i, t in enumerate(cfg.grid.nodes):
                rows.append(
                    (k, t) + tuple(brownian[k, i, :]) + tuple(volterra[k, i, :])
                )
        _write_csv(os.path.join(out_dir, "drivers.csv"), header, rows)


def _read_target_csv(path: str, grid, d: int):
    import numpy as np

    from .errors import ConfigurationError
    from .ratefn import CameronMartinPath

    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigurationError(f"cannot read target file {path}: {exc}") from exc
    if data.shape != (grid.n_steps + 1, d + 1):
        raise ConfigurationError(
            f"target file must have {grid.n_steps + 1} rows (one per node) and "
            f"{d + 1} columns (t plus {d} components); got {data.shape}"
        )
    if not np.allclose(data[:, 0], grid.nodes, atol=1e-12):
        raise ConfigurationError(
            "target file time column must coincide with the grid nodes"
        )
    return CameronMartinPath.from_values(grid, data[:, 1:])


def _solution_outputs(out_dir: str, solution, grid) -> None:
    _write_csv(os.path.join(out_dir, "value.csv"), ("value",), [(solution.value,)])
    p = solution.control.dim
    header = ("t_left",) + tuple(f"fdot_{l + 1}" for l in range(p))
    rows = [
        (grid.nodes[j],) + tuple(solution.control.derivative[j, :])
        for j in range(grid.n_steps)
    ]
    _write_csv(os.path.join(out_dir, "control.csv"), header, rows)
    _write_json(
        os.path.join(out_dir, "diagnostics.json"),
        {
            "value": solution.value,
            "control_energy": solution.control.h1_norm_sq,
            "iterations": solution.iterations,
            "grad_norm": solution.grad_norm,
            "converged": solution.converged,
            "upper_bound_used": solution.upper_bound_used,
            "multistart_spread": solution.multistart_spread,
        },
    )


def _cmd_rate(cfg, out_dir: str) -> None:
    import numpy as np

    from .errors import ConfigurationError
    from .ratefn import CameronMartinPath, i_uncorrelated, i_z, i_z_m

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
    import numpy as np

    from .errors import ConfigurationError
    from .ratefn import terminal_rate

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
    import numpy as np

    from .asymptotics import (
        TerminalHalfSpace, estimate_tail_prob, ldp_slope, tilted_estimate,
    )
    from .ratefn import terminal_rate

    opts = cfg.verify_ldp
    event = TerminalHalfSpace(threshold=opts.threshold)
    z = np.zeros(cfg.coeffs.d)
    z[0] = opts.threshold
    solution = terminal_rate(z, cfg.bank, cfg.coeffs, cfg.grid, cfg.optimizer)
    estimates = []
    for i, eps in enumerate(opts.epsilons):
        seed = cfg.seed + i
        if opts.estimator == "tilted":
            est = tilted_estimate(
                cfg.coeffs, cfg.bank, cfg.grid, eps, event, solution,
                opts.n_paths, seed, correlated=opts.correlated,
                threads=threads,
            )
        else:
            est = estimate_tail_prob(
                cfg.coeffs, cfg.bank, cfg.grid, eps, event, opts.n_paths,
                seed, correlated=opts.correlated, threads=threads,
            )
        estimates.append(est)
    # fit first: a degenerate level fails here, before any artifact exists
    fit = ldp_slope(estimates)
    rows = [
        (e.epsilon, e.prob, e.stderr, -np.log(e.prob), e.epsilon**-2)
        for e in estimates
    ]
    _write_csv(
        os.path.join(out_dir, "ldp.csv"),
        ("epsilon", "p_hat", "stderr", "minus_log_p", "eps_inv_sq"),
        rows,
    )
    target = solution.value
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "slope_stderr": fit.slope_stderr,
            "r_squared": fit.r_squared,
            "target_rate": target,
            "relative_gap": abs(fit.slope - target) / target if target else None,
            "estimator": opts.estimator,
            "n_paths": opts.n_paths,
        },
    )


def _cmd_short_time(cfg, out_dir: str) -> None:
    from .errors import ConfigurationError
    from .asymptotics import short_time_report

    if cfg.schedule is None:
        raise ConfigurationError(
            "short-time needs a [schedule] section with an eta sequence"
        )
    opts = cfg.short_time
    report = short_time_report(
        cfg.coeffs, cfg.bank, cfg.grid, cfg.schedule, opts.n_paths, cfg.seed,
        quantiles=opts.quantiles, refine=opts.refine,
        correlated=opts.correlated,
    )
    # the report's rescaled route ran at seed + 2 i: these are its samples
    rows = []
    for comp in report.comparisons:
        terminal = comp.rescaled_terminal
        rows.extend((comp.delta, k, terminal[k]) for k in range(opts.n_paths))
    _write_csv(
        os.path.join(out_dir, "samples.csv"), ("delta", "path_id", "value"), rows
    )
    payload = {
        "all_consistent": report.all_consistent(),
        "comparisons": [
            {
                "delta": comp.delta,
                "paired_exceedance": {
                    str(d): f
                    for d, f in zip(comp.paired.deltas, comp.paired.exceedance)
                },
                "paired_max_sup_distance": comp.paired.max_sup_distance,
                "ks_statistic": comp.ks_statistic,
                "ks_pvalue": comp.ks_pvalue,
                "n_paths": comp.n_paths,
                "exceedance": [
                    {
                        "threshold": row.threshold,
                        "prob_rescaled": row.prob_rescaled,
                        "stderr_rescaled": row.stderr_rescaled,
                        "prob_direct": row.prob_direct,
                        "stderr_direct": row.stderr_direct,
                    }
                    for row in comp.exceedance
                ],
            }
            for comp in report.comparisons
        ],
    }
    _write_json(os.path.join(out_dir, "diagnostic.json"), payload)
    _atomic_write(os.path.join(out_dir, "report.txt"), str(report) + "\n")


def _cmd_selftest(out_dir: str) -> int:
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
        if name != "selftest":
            cmd.add_argument("--config", required=True, help="experiment file")
        else:
            cmd.add_argument("--config", required=False, help="(unused)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker threads of the tail estimators (default: "
                              "the CPUs available); also exported as the "
                              "BLAS/OpenMP thread cap")
        if name == "terminal-rate":
            cmd.add_argument("--z", default=None,
                             help="comma-separated terminal point")
    return parser


def _apply_thread_cap(threads) -> None:
    from .errors import ConfigurationError

    if threads is None:
        return
    if threads < 1:
        raise ConfigurationError("--threads must be >= 1")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from .errors import ConfigurationError, VolldpError

    manifest = None  # the manifest's fields, once the output directory exists
    error = None
    try:
        # The BLAS/OpenMP variables reach only pools sized after this point;
        # numpy, loaded with the package, has already sized its own.
        _apply_thread_cap(args.threads)
        if args.command == "selftest":
            out_dir = args.out
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
            failures = _cmd_selftest(out_dir)
            return 0 if failures == 0 else _EXIT_CODES["VALIDATION"]

        from .config import load_config

        with open(args.config, "r", encoding="utf-8") as handle:
            config_text = handle.read()
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        if seed != cfg.seed:
            cfg = _reseeded(cfg, seed)
        out_dir = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        overrides = {"z": None, "out": args.out, "threads": args.threads}
        manifest = {
            "out_dir": out_dir, "command": args.command,
            "config_text": config_text, "seed": seed, "overrides": overrides,
            "threads_effective": 1,
        }

        z_override = None
        if getattr(args, "z", None) is not None:
            try:
                z_override = tuple(float(tok) for tok in args.z.split(","))
            except ValueError as exc:
                raise ConfigurationError(f"--z: {exc}") from exc
            overrides["z"] = list(z_override)

        if args.command == "kernel-table":
            _cmd_kernel_table(cfg, out_dir)
        elif args.command == "simulate":
            _cmd_simulate(cfg, out_dir)
        elif args.command == "rate":
            _cmd_rate(cfg, out_dir)
        elif args.command == "terminal-rate":
            _cmd_terminal_rate(cfg, out_dir, z_override)
        elif args.command == "verify-ldp":
            from .asymptotics import pool_size

            manifest["threads_effective"] = pool_size(
                cfg.verify_ldp.n_paths, args.threads
            )
            _cmd_verify_ldp(cfg, out_dir, args.threads)
        elif args.command == "short-time":
            _cmd_short_time(cfg, out_dir)
    except FileNotFoundError as exc:
        error = {"category": "CONFIG", "message": str(exc)}
    except VolldpError as exc:
        error = {"category": exc.category, "message": str(exc)}
    except Exception as exc:  # every other failure is INTERNAL
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        error = {"category": "INTERNAL", "message": message}
    if error is not None:
        print(f"error[{error['category']}]: {error['message']}", file=sys.stderr)
    if manifest is not None:
        _write_manifest(**manifest, error=error)
    if error is None:
        return 0
    return _EXIT_CODES.get(error["category"], _EXIT_CODES["INTERNAL"])


def _reseeded(cfg, seed: int):
    from dataclasses import replace

    return replace(cfg, seed=seed)


if __name__ == "__main__":
    sys.exit(main())
