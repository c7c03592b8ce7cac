"""The three pinned benchmark workloads: inputs, the timed call, the gates.

Each workload is one experiment as a user runs it, in a fresh interpreter.
``setup`` imports volldp and builds the inputs (that is ``setup_s``),
``run`` is the timed experiment (``wall_s``) and ``check`` reads the
outputs afterwards and applies the workload's correctness gates.  The
module imports only the standard library at the top, so importing it costs
nothing that ``setup_s`` should have counted.
"""

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, field

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# Smaller inputs for the benchmark's own tests; the timed runs use "full".
_TINY_INI = {
    "ldp_tilted": {"grid": {"n_steps": "16"}, "verify-ldp": {"n_paths": "8192"}},
    "short_time_fou": {
        "grid": {"n_steps": "8"},
        "schedule": {"eta": "0.2 0.1"},
        "short-time": {"n_paths": "1000", "refine": "2"},
    },
}

# Rate surface: a 6 x 6 lattice of terminal points and straight lines to
# the 16 boundary points that are not corners (36 + 2 * 16 = 68 solves).
_RATE_SIZES = {
    "full": {"n_steps": 512, "lattice": (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5), "m": 16},
    "tiny": {"n_steps": 32, "lattice": (-0.4, 0.0, 0.4), "m": 4},
}

# I_T(z) <= I_Z(line to z) holds exactly for the discrete objectives; the
# slack only covers the minimizer's stopping tolerance.
_RATE_ORDER_SLACK = 1e-9
# Both short-time routes consume the same draws at matched resolution, so
# they must agree to rounding.
_PAIRED_SUP_MAX = 1e-12
_SLOPE_GAP_MAX = 0.15


@dataclass
class Outcome:
    """What one experiment did: operations, failures, work, health values."""

    attempted: int
    failed: int
    work: float  # paths simulated (Monte Carlo workloads) or rate solves
    health: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _write_ini(name: str, size: str, work_dir: str) -> str:
    path = os.path.join(CONFIG_DIR, f"{name}.ini")
    if size == "full":
        return path
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path, encoding="utf-8")
    for section, values in _TINY_INI[name].items():
        for key, value in values.items():
            cp.set(section, key, value)
    out = os.path.join(work_dir, f"{name}.ini")
    with open(out, "w", encoding="utf-8") as handle:
        cp.write(handle)
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """A ``volldp`` subcommand on a pinned INI file, seeded with --seed."""

    def __init__(self, name: str, command: str):
        self.name = name
        self.command = command

    def setup(self, seed: int, size: str, work_dir: str) -> dict:
        import volldp.cli  # noqa: F401  (import cost belongs to set-up)
        from volldp.config import load_config

        ini = _write_ini(self.name, size, work_dir)
        cfg = load_config(ini)
        out = os.path.join(work_dir, "out")
        return {"ini": ini, "cfg": cfg, "out": out, "seed": seed}

    def run(self, inputs: dict):
        import volldp.cli

        argv = [self.command, "--config", inputs["ini"],
                "--seed", str(inputs["seed"]), "--out", inputs["out"]]
        return volldp.cli.main(argv)

    def bytes_written(self, inputs: dict) -> int:
        out = inputs["out"]
        if not os.path.isdir(out):
            return 0
        return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


class LdpTilted(CliWorkload):
    # The paper's Monte Carlo side: verify-ldp with the tilted estimator.
    # About 90 % of its time is driver sampling and the Euler step; the
    # rate solve and kernel evaluation take under 1 %.  Sampling changes
    # show here; objective changes must not.

    def __init__(self):
        super().__init__("ldp_tilted", "verify-ldp")

    def check(self, inputs: dict, exit_code) -> Outcome:
        opts = inputs["cfg"].verify_ldp
        levels = len(opts.epsilons)
        work = float(levels * opts.n_paths)
        if exit_code != 0:
            return Outcome(levels, levels, work, notes=[f"exit code {exit_code}"])
        with open(os.path.join(inputs["out"], "ldp.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(inputs["out"], "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        failed = 0
        rel_se = []
        for row in rows:
            p, se = float(row["p_hat"]), float(row["stderr"])
            if not (_finite(p) and _finite(se) and 0.0 < p < 1.0):
                failed += 1
                continue
            rel_se.append(se / p)
        gap = summary.get("relative_gap")
        notes = []
        if len(rows) != levels:
            notes.append(f"ldp.csv has {len(rows)} rows, expected {levels}")
            failed = levels
        if not _finite(gap) or gap > _SLOPE_GAP_MAX:
            notes.append(f"slope gap {gap} exceeds {_SLOPE_GAP_MAX}")
            failed = levels
        health = {
            "max_rel_se": max(rel_se) if rel_se else float("nan"),
            "slope_rel_gap": gap if _finite(gap) else float("nan"),
        }
        return Outcome(levels, failed, work, health, notes)


class ShortTimeFou(CliWorkload):
    # The same sampler as ldp_tilted on nine distinct (kernel, grid) pairs,
    # including 128-step fine grids, with no discretization reuse.  Most
    # time is fractional-OU kernel evaluation; the CLI also writes every
    # sample to samples.csv.  Kernel and CSV changes show here.

    def __init__(self):
        super().__init__("short_time_fou", "short-time")

    def check(self, inputs: dict, exit_code) -> Outcome:
        cfg = inputs["cfg"]
        entries = len(cfg.schedule)
        # Three path sets per schedule entry: the rescaled route, the direct
        # route at matched resolution and the refined direct route.
        work = float(3 * entries * cfg.short_time.n_paths)
        if exit_code != 0:
            return Outcome(entries, entries, work, notes=[f"exit code {exit_code}"])
        with open(os.path.join(inputs["out"], "diagnostic.json"), encoding="utf-8") as fh:
            diag = json.load(fh)
        comps = diag["comparisons"]
        failed = max(entries - len(comps), 0)
        notes = []
        sups, ks_p = [], []
        for comp in comps:
            sup = comp["paired_max_sup_distance"]
            sups.append(sup)
            ks_p.append(comp["ks_pvalue"])
            if not _finite(sup) or sup > _PAIRED_SUP_MAX:
                failed += 1
                notes.append(f"delta {comp['delta']}: paired sup {sup}")
        health = {
            "paired_max_sup": max(sups) if sups else float("nan"),
            "min_ks_p": min(ks_p) if ks_p else float("nan"),
        }
        return Outcome(entries, failed, work, health, notes)


# ---------------------------------------------------------------------------
# library workload
# ---------------------------------------------------------------------------


class RateSurface:
    # The rate-functional side, with no sampling at all: terminal rates on
    # a lattice plus pathwise rates I_Z and I_Z^m on straight lines, on a
    # two-factor model at N = 512.  Its time is L-BFGS and objective
    # value/gradient plus one Molchan-Golosov discretization.  Objective
    # and optimizer changes show here; sampling changes must not.

    name = "rate_surface"

    def setup(self, seed: int, size: str, work_dir: str) -> dict:
        import numpy as np

        import volldp
        from volldp import (
            CameronMartinPath, KernelBank, ModelCoefficients, MolchanGolosovKernel,
            OptimizerConfig, RiemannLiouvilleKernel, TimeGrid, make_map,
        )

        spec = _RATE_SIZES[size]
        grid = TimeGrid(1.0, spec["n_steps"])
        bank = KernelBank((
            RiemannLiouvilleKernel(hurst=0.3, scale=1.0, horizon=1.0),
            MolchanGolosovKernel(hurst=0.7, scale=1.0, horizon=1.0),
        ))
        # sigma is lower triangular with a positive diagonal, so a(y) is
        # nonsingular everywhere.
        coeffs = ModelCoefficients(
            d=2, p=2,
            mu=make_map("constant", (2,), 2, values=np.array([0.02, -0.01])),
            sigma=make_map(
                "exp_linear", (2, 2), 2,
                amplitude=np.array([[0.3, 0.0], [0.08, 0.25]]),
                weights=np.array([[[0.8, 0.1], [0.0, 0.0]],
                                  [[0.2, 0.2], [0.1, 0.6]]]),
            ),
            sigma_tilde=make_map(
                "exp_linear", (2, 2), 2,
                amplitude=np.array([[-0.12, 0.04], [0.03, -0.1]]),
                weights=np.array([[[0.5, 0.0], [0.0, 0.3]],
                                  [[0.2, 0.0], [0.0, 0.4]]]),
            ),
        )
        lattice = spec["lattice"]
        k = len(lattice) - 1
        points = [np.array([a, b]) for a in lattice for b in lattice]
        edge = [
            np.array([lattice[i], lattice[j]])
            for i in range(k + 1) for j in range(k + 1)
            if (i in (0, k)) != (j in (0, k))
        ]
        lines = [CameronMartinPath.straight_line(grid, z) for z in edge]
        return {
            "volldp": volldp,
            "grid": grid, "bank": bank, "coeffs": coeffs,
            "opt": OptimizerConfig(seed=seed),
            "points": points, "edge": edge, "lines": lines, "m": spec["m"],
        }

    def run(self, inputs: dict) -> dict:
        # Look the functions up on the module at call time, as a user of
        # the package does.
        ratefn = inputs["volldp"].ratefn
        bank, coeffs, grid, opt = (
            inputs["bank"], inputs["coeffs"], inputs["grid"], inputs["opt"]
        )

        def attempt(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # a raising solve is a failed operation
                return exc

        terminal = [attempt(ratefn.terminal_rate, z, bank, coeffs, grid, opt)
                    for z in inputs["points"]]
        pathwise = [attempt(ratefn.i_z, x, bank, coeffs, opt)
                    for x in inputs["lines"]]
        frozen = [attempt(ratefn.i_z_m, x, inputs["m"], bank, coeffs, opt)
                  for x in inputs["lines"]]
        return {"terminal": terminal, "pathwise": pathwise, "frozen": frozen}

    def check(self, inputs: dict, result: dict) -> Outcome:
        def ok(sol) -> bool:
            return (not isinstance(sol, Exception)) and sol.converged and _finite(sol.value)

        terminal, pathwise, frozen = (
            result["terminal"], result["pathwise"], result["frozen"]
        )
        attempted = len(terminal) + len(pathwise) + len(frozen)
        failed = 0
        notes = []
        for sol in terminal + frozen:
            if not ok(sol):
                failed += 1
                notes.append(f"solve failed: {sol!r}"[:200])
        by_point = {tuple(z): sol for z, sol in zip(inputs["points"], terminal)}
        for z, sol in zip(inputs["edge"], pathwise):
            bound = by_point[tuple(z)]
            if not ok(sol):
                failed += 1
                notes.append(f"i_z at {tuple(z)} failed: {sol!r}"[:200])
            elif ok(bound) and bound.value > sol.value + _RATE_ORDER_SLACK * (1 + sol.value):
                failed += 1
                notes.append(f"I_T {bound.value} > I_Z {sol.value} at {tuple(z)}")
        return Outcome(attempted, failed, float(attempted), {}, notes)

    def bytes_written(self, inputs: dict) -> int:
        return 0


WORKLOADS = {w.name: w for w in (LdpTilted(), ShortTimeFou(), RateSurface())}
