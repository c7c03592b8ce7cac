"""End-to-end tests for the command-line driver and the config parser.

Every CLI test calls ``main(argv)`` in-process so exit codes, stderr
messages, and output artifacts can be checked without spawning a shell.
"""

import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

from volldp.cli import _write_csv, _write_json, main
from volldp.config import parse_config
from volldp.errors import ConfigurationError
from volldp.kernels import make_kernel


def _ini(tmp_path, text: str, name: str = "exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _one_factor_text(*, n_steps=8, horizon=1.0, seed=7, rho=0.0, out=None,
                     extra=""):
    out_line = f"out = {out}" if out is not None else ""
    return f"""
[grid]
horizon = {horizon}
n_steps = {n_steps}

[kernel.1]
family = riemann_liouville
hurst = 0.5
scale = 1.0

[model.volatility]
family = constant
values = 1.0
rho = {rho}

[run]
seed = {seed}
{out_line}

{extra}
"""


def _overflow_text(n_steps, extra):
    """RL H = 0.3 under exponential volatility of weight 120: the Euler
    scheme overflows on some paths."""
    return _one_factor_text(n_steps=n_steps, seed=3, rho=-0.5, extra=extra).replace(
        "hurst = 0.5", "hurst = 0.3").replace(
        "family = constant\nvalues = 1.0",
        "family = exp_linear\namplitude = 0.3\nweights = 120.0",
    )


def _assert_nonfinite_failure(out, err, count):
    """The run failed as NUMERIC with ``count`` of 2000 paths named, and
    wrote no artifact but the manifest, which explains the failure."""
    assert f"error[NUMERIC]: {count} of 2000" in err
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = _manifest(out)
    assert manifest["status"] == "error"
    assert manifest["error"]["category"] == "NUMERIC"
    assert manifest["error"]["message"].startswith(f"{count} of 2000")


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _manifest(out_dir):
    return _read_json(os.path.join(out_dir, "manifest.json"))


def _snapshot(out_dir):
    snapshot = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            snapshot[name] = handle.read()
    return snapshot


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


# sigma(y) = 0.05 + y vanishes at y = -0.05, so the optimizer starts settle
# in the two wells on either side and disagree; no path reaches 3.0 at any
# of the three noise levels of the crude estimator
_TWO_WELLS = """
[grid]
horizon = 1.0
n_steps = 16

[kernel.1]
family = riemann_liouville
hurst = 0.3
scale = 1.0

[model.volatility]
family = affine
constant = 0.05
linear = 1.0
rho = 0.0

[terminal-rate]
z = 1.0

[verify-ldp]
threshold = 3.0
epsilons = 0.3 0.2 0.1
n_paths = 2000
estimator = crude

[run]
seed = 3
"""


class TestParseConfig:
    def test_minimal_one_factor(self):
        cfg = parse_config(_one_factor_text(n_steps=16, seed=123, rho=0.3))
        assert cfg.grid.n_steps == 16
        assert cfg.grid.horizon == 1.0
        assert cfg.bank.n_factors == 1
        assert cfg.coeffs.d == 1 and cfg.coeffs.p == 1
        assert cfg.seed == 123
        assert cfg.out_dir == "out"
        assert cfg.schedule is None
        # correlated one-factor split: conditional diffusion is (1 - rho^2).
        y = np.zeros(1)
        assert cfg.coeffs.a(y)[0, 0] == pytest.approx(1.0 - 0.3**2)

    def test_field_error_format(self):
        with pytest.raises(
            ConfigurationError,
            match=r"config section \[grid\], field 'n_steps'",
        ):
            parse_config(_one_factor_text().replace("n_steps = 8", "n_steps = 0"))

    def test_unparsable_value(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_config(
                _one_factor_text().replace("horizon = 1.0", "horizon = abc")
            )

    def test_missing_kernel_section(self):
        text = _one_factor_text().replace("[kernel.1]", "[kernel.2]")
        with pytest.raises(ConfigurationError, match=r"kernel\.1"):
            parse_config(text)

    def test_kernel_parameter_out_of_range(self):
        text = _one_factor_text().replace("hurst = 0.5", "hurst = 1.5")
        with pytest.raises(
            ConfigurationError, match=r"config section \[kernel\.1\]"
        ):
            parse_config(text)

    def test_unknown_kernel_parameter(self):
        text = _one_factor_text().replace("scale = 1.0", "scale = 1.0\nbogus = 2")
        with pytest.raises(ConfigurationError, match="'bogus'"):
            parse_config(text)

    def test_holder_constants_are_unknown_kernel_parameters(self):
        for name in ("holder_c", "holder_alpha"):
            text = _one_factor_text().replace(
                "scale = 1.0", f"scale = 1.0\n{name} = 1.0"
            )
            with pytest.raises(
                ConfigurationError, match=f"'{name}': unknown kernel parameter"
            ):
                parse_config(text)

    def test_block_count_must_divide_steps(self):
        text = _one_factor_text(
            n_steps=100, extra="[rate]\nfunctional = i_z_m\nm = 16\nz = 1.0\n"
        )
        with pytest.raises(ConfigurationError, match="16") as excinfo:
            parse_config(text)
        assert "100" in str(excinfo.value)

    def test_rho_bound(self):
        with pytest.raises(ConfigurationError, match="'rho'"):
            parse_config(_one_factor_text(rho=1.0))

    def test_missing_run_section(self):
        text = _one_factor_text().replace("[run]", "[notrun]")
        with pytest.raises(ConfigurationError, match="explicit"):
            parse_config(text)

    def test_schedule_section(self):
        cfg = parse_config(
            _one_factor_text(
                extra="[schedule]\nrule = self_similar\neta = 0.5, 0.25\n"
            )
        )
        assert cfg.schedule is not None
        assert list(cfg.schedule.eta) == [0.5, 0.25]

    def test_generic_model_requires_all_blocks(self):
        text = """
[grid]
horizon = 1.0
n_steps = 4

[kernel.1]
family = riemann_liouville
hurst = 0.5
scale = 1.0

[model]
d = 2

[run]
seed = 1
"""
        with pytest.raises(ConfigurationError, match=r"model\.mu"):
            parse_config(text)


# ---------------------------------------------------------------------------
# CLI error handling
# ---------------------------------------------------------------------------


class TestCliErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["kernel-table", "--config", str(tmp_path / "nope.ini")]
        )
        assert code == 2
        assert "error[CONFIG]" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        text = _one_factor_text().replace("[kernel.1]", "[kernel.9]")
        path = _ini(tmp_path, text)
        code = main(["kernel-table", "--config", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and "kernel.1" in err

    def test_terminal_rate_needs_target(self, tmp_path, capsys):
        path = _ini(tmp_path, _one_factor_text(out=str(tmp_path / "o")))
        code = main(["terminal-rate", "--config", path])
        assert code == 2
        assert "terminal" in capsys.readouterr().err

    def test_terminal_rate_dimension_mismatch(self, tmp_path, capsys):
        path = _ini(tmp_path, _one_factor_text(out=str(tmp_path / "o")))
        code = main(["terminal-rate", "--config", path, "--z", "1.0,2.0"])
        assert code == 2
        assert "d = 1" in capsys.readouterr().err

    def test_terminal_rate_unparsable_target(self, tmp_path, capsys):
        path = _ini(tmp_path, _one_factor_text(out=str(tmp_path / "o")))
        code = main(["terminal-rate", "--config", path, "--z", "1.0,abc"])
        assert code == 2
        assert "error[CONFIG]: --z" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["nan", "-inf"])
    def test_terminal_rate_nonfinite_target(self, tmp_path, capsys, z):
        out = tmp_path / "o"
        path = _ini(tmp_path, _one_factor_text(out=str(out)))
        code = main(["terminal-rate", "--config", path, f"--z={z}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[CONFIG]: --z: {z!r} is not finite\n"
        )

    def test_thread_cap_rejects_nonpositive(self, tmp_path, capsys):
        path = _ini(tmp_path, _one_factor_text(n_steps=2, out=str(tmp_path / "o")))
        assert main(["kernel-table", "--config", path, "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error[CONFIG]: --threads must be >= 1\n"

    def test_seed_override_rejects_negative(self, tmp_path, capsys):
        # the bound of [run] seed applies to its override too
        out = tmp_path / "o"
        path = _ini(tmp_path, _one_factor_text(n_steps=2, out=str(out)))
        assert main(["simulate", "--config", path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error[CONFIG]: --seed must be >= 0\n"
        assert not out.exists()



# ---------------------------------------------------------------------------
# artifact-producing subcommands
# ---------------------------------------------------------------------------


class TestCsvWriter:
    @staticmethod
    def _want(header, table):
        lines = [",".join(header)]
        lines += [",".join(format(float(v), ".17g") for v in row) for row in table]
        return "\n".join(lines) + "\n"

    def test_cells_are_format_17g(self, tmp_path):
        # the one-pass writer must give the bytes of format(float(v), ".17g")
        # for every cell, special values and integer path ids included
        rng = np.random.default_rng(4)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310,
                   -5e-324, 2.0**53, 2.0**53 + 2, 1e300, 0.1, 1.0 / 3.0]
        scaled = rng.standard_normal(20) * 10.0 ** rng.integers(-20, 20, 20)
        table = np.column_stack((
            np.arange(len(special) + 20),
            np.concatenate((special, scaled)),
            np.concatenate((special[::-1], rng.random(20))),
        ))
        path = str(tmp_path / "t.csv")
        _write_csv(path, ("path_id", "a", "b"), table)
        with open(path, encoding="utf-8", newline="") as handle:
            got = handle.read()
        assert got == self._want(("path_id", "a", "b"), table)
        assert "\n0,nan,0.33333333333333331\n" in got

    def test_json_artifacts_are_strict(self, tmp_path):
        # a NaN fails the run instead of writing a token JSON parsers reject
        with pytest.raises(ValueError):
            _write_json(str(tmp_path / "x.json"), {"x": math.nan})

    def test_one_column_and_integer_ids(self, tmp_path):
        path = str(tmp_path / "v.csv")
        _write_csv(path, ("value",), [[2.0**53], [-0.0], [7]])
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == "value\n9007199254740992\n-0\n7\n"


class TestKernelTable:
    def test_table_matches_eval(self, tmp_path):
        out = str(tmp_path / "out")
        path = _ini(tmp_path, _one_factor_text(n_steps=4, out=out))
        text = _one_factor_text(n_steps=4, out=out).replace(
            "hurst = 0.5", "hurst = 0.3"
        )
        path = _ini(tmp_path, text)
        assert main(["kernel-table", "--config", path]) == 0
        header, rows = _read_csv(os.path.join(out, "kernel_1.csv"))
        assert header == ["t", "s", "value"]
        assert len(rows) == 5 * 5
        kernel = make_kernel(
            "riemann_liouville", hurst=0.3, scale=1.0, horizon=1.0
        )
        for t, s, value in rows:
            # %.17g printing is round-trip exact for doubles.
            assert value == kernel.eval(t, s)


class TestSimulate:
    EXTRA = "[simulate]\nn_paths = 3\nemit_drivers = yes\n"

    def test_paths_and_drivers(self, tmp_path):
        out = str(tmp_path / "out")
        path = _ini(
            tmp_path,
            _one_factor_text(n_steps=4, rho=0.4, out=out, extra=self.EXTRA),
        )
        assert main(["simulate", "--config", path]) == 0

        header, rows = _read_csv(os.path.join(out, "paths.csv"))
        assert header == ["path_id", "t", "z_1"]
        assert len(rows) == 3 * 5
        for k in range(3):
            block = rows[5 * k : 5 * (k + 1)]
            assert [r[0] for r in block] == [k] * 5
            assert [r[1] for r in block] == pytest.approx(
                [0.0, 0.25, 0.5, 0.75, 1.0]
            )
            assert block[0][2] == 0.0  # paths start at the origin

        header, rows = _read_csv(os.path.join(out, "drivers.csv"))
        assert header == ["path_id", "t", "b_1", "bhat_1"]
        assert len(rows) == 3 * 5
        assert rows[0][2] == 0.0 and rows[0][3] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "out")
        path = _ini(
            tmp_path,
            _one_factor_text(n_steps=4, rho=0.4, out=out, extra=self.EXTRA),
        )
        assert main(["simulate", "--config", path, "--out", out]) == 0
        first = _snapshot(out)
        assert set(first) == {
            "paths.csv", "drivers.csv", "manifest.json"
        }
        assert main(["simulate", "--config", path, "--out", out]) == 0
        assert _snapshot(out) == first

    def test_seed_override(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        path = _ini(
            tmp_path,
            _one_factor_text(n_steps=4, rho=0.4, extra=self.EXTRA),
        )
        assert main(["simulate", "--config", path, "--out", out_a]) == 0
        assert main(
            ["simulate", "--config", path, "--out", out_b, "--seed", "99"]
        ) == 0
        _, rows_a = _read_csv(os.path.join(out_a, "paths.csv"))
        _, rows_b = _read_csv(os.path.join(out_b, "paths.csv"))
        assert rows_a != rows_b
        assert _manifest(out_b)["seed"] == 99

    def test_nonfinite_paths_exit_code(self, tmp_path, capsys):
        # 66 of these 2,000 paths overflow; no paths.csv holds them
        path = _ini(tmp_path, _overflow_text(
            32, "[simulate]\nn_paths = 2000\nepsilon = 1.0\n"))
        out = str(tmp_path / "o")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", path, "--out", out])
        assert code == 5
        _assert_nonfinite_failure(out, capsys.readouterr().err, 66)


class TestRateCommands:
    OPT = "[optimizer]\nn_starts = 2\n"

    def test_rate_straight_line_target(self, tmp_path):
        out = str(tmp_path / "out")
        extra = self.OPT + "[rate]\nfunctional = i_uncorrelated\nz = 1.0\n"
        path = _ini(
            tmp_path, _one_factor_text(n_steps=8, out=out, extra=extra)
        )
        assert main(["rate", "--config", path]) == 0

        _, rows = _read_csv(os.path.join(out, "value.csv"))
        value = rows[0][0]
        # Constant unit volatility: the straight line to z = 1 costs
        # z^2 / (2 T) = 0.5 and the optimum is attained there.
        assert value == pytest.approx(0.5, rel=1e-6)

        header, rows = _read_csv(os.path.join(out, "control.csv"))
        assert header == ["t_left", "fdot_1"]
        assert len(rows) == 8

        diag = _read_json(os.path.join(out, "diagnostics.json"))
        assert diag["converged"] is True
        assert diag["value"] == pytest.approx(value)
        assert {
            "control_energy", "iterations", "grad_norm",
            "upper_bound_used", "multistart_spread",
        } <= set(diag)

    def test_rate_i_z_m_matches_library(self, tmp_path):
        from volldp.ratefn import CameronMartinPath, i_z_m

        out = str(tmp_path / "out")
        extra = self.OPT + "[rate]\nfunctional = i_z_m\nm = 2\nz = 0.8\n"
        text = _one_factor_text(n_steps=8, rho=-0.5, out=out, extra=extra)
        assert main(["rate", "--config", _ini(tmp_path, text)]) == 0
        _, rows = _read_csv(os.path.join(out, "value.csv"))
        cfg = parse_config(text)
        target = CameronMartinPath.straight_line(cfg.grid, np.array([0.8]))
        want = i_z_m(target, 2, cfg.bank, cfg.coeffs, cfg.optimizer)
        assert rows == [[want.value]]

    def test_rate_needs_target(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        extra = self.OPT + "[rate]\nfunctional = i_z\n"
        path = _ini(
            tmp_path, _one_factor_text(n_steps=8, out=out, extra=extra)
        )
        assert main(["rate", "--config", path]) == 2
        assert "target" in capsys.readouterr().err

    def test_rate_target_file(self, tmp_path):
        out = str(tmp_path / "out")
        nodes = np.linspace(0.0, 1.0, 9)
        target = tmp_path / "target.csv"
        lines = ["t,z_1"] + [f"{t},{0.5 * t}" for t in nodes]
        target.write_text("\n".join(lines) + "\n")
        extra = (
            self.OPT
            + f"[rate]\nfunctional = i_uncorrelated\ntarget_file = {target}\n"
        )
        path = _ini(
            tmp_path, _one_factor_text(n_steps=8, out=out, extra=extra)
        )
        assert main(["rate", "--config", path]) == 0
        _, rows = _read_csv(os.path.join(out, "value.csv"))
        assert rows[0][0] == pytest.approx(0.125, rel=1e-6)

    def test_rate_malformed_target_file(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("t,z_1\n0.0,0.0\n0.5,abc\n1.0,1.0\n")
        extra = self.OPT + f"[rate]\nfunctional = i_z\ntarget_file = {target}\n"
        path = _ini(tmp_path, _one_factor_text(
            n_steps=2, out=str(tmp_path / "out"), extra=extra))
        assert main(["rate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG]: cannot read target file")
        assert err.count("\n") == 1

    def test_rate_off_grid_target_file(self, tmp_path, capsys):
        # 9e-6 off the node t = 1 is inside numpy's default relative
        # tolerance, not inside the absolute one the time column is held to
        target = tmp_path / "target.csv"
        times = ("0.0", "0.25", "0.5", "0.75", "1.000009")
        target.write_text("t,z_1\n" + "".join(f"{t},0.0\n" for t in times))
        extra = self.OPT + f"[rate]\nfunctional = i_z\ntarget_file = {target}\n"
        path = _ini(tmp_path, _one_factor_text(
            n_steps=4, out=str(tmp_path / "out"), extra=extra))
        assert main(["rate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == ("error[CONFIG]: target file time column must coincide "
                       "with the grid nodes\n")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_rate_nonfinite_target_file(self, tmp_path, capsys, cell):
        target = tmp_path / "target.csv"
        target.write_text(f"t,z_1\n0.0,0.0\n0.5,{cell}\n1.0,1.0\n")
        extra = self.OPT + f"[rate]\nfunctional = i_z\ntarget_file = {target}\n"
        path = _ini(tmp_path, _one_factor_text(
            n_steps=2, out=str(tmp_path / "out"), extra=extra))
        assert main(["rate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG]: cannot read target file")
        assert err.count("\n") == 1

    def test_rate_singular_diffusion_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        extra = self.OPT + "[rate]\nfunctional = i_z\nz = 1.0\n"
        text = _one_factor_text(n_steps=8, out=out, extra=extra)
        path = _ini(tmp_path, text.replace("values = 1.0", "values = 0.0"))
        assert main(["rate", "--config", path]) == 5
        assert "error[NUMERIC]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate", "terminal-rate"])
    def test_diagnostics_list_every_start(self, tmp_path, command):
        out = str(tmp_path / "out")
        extra = "[optimizer]\nn_starts = 3\n[rate]\nfunctional = i_z\nz = 0.8\n"
        path = _ini(tmp_path, _one_factor_text(n_steps=8, out=out, rho=0.3,
                                               extra=extra))
        argv = [command, "--config", path]
        if command == "terminal-rate":
            argv += ["--z", "0.8"]
        assert main(argv) == 0

        diag = _read_json(os.path.join(out, "diagnostics.json"))
        starts = diag["starts"]
        assert len(starts) == 3
        for row in starts:
            assert set(row) == {"value", "iterations", "criterion", "converged"}
        winner = min(starts, key=lambda row: row["value"])
        assert max(winner["value"], 0.0) == diag["value"]
        assert winner["iterations"] == diag["iterations"]
        assert winner["converged"] is diag["converged"]

    def test_terminal_rate_brownian_value_and_manifest(self, tmp_path):
        # Independent 2-d driving noise with identity volatility: the
        # terminal rate at z is |z|^2 / (2 T), here 1.0.
        text = """
[grid]
horizon = 1.0
n_steps = 8

[kernel.1]
family = riemann_liouville
hurst = 0.5
scale = 1.0

[model]
d = 2

[model.mu]
family = constant
values = 0.0, 0.0

[model.sigma]
family = constant
values = 1.0, 0.0, 0.0, 1.0

[model.sigma_tilde]
family = constant
values = 0.0, 0.0

[run]
seed = 5

[optimizer]
n_starts = 2
"""
        out = str(tmp_path / "out")
        path = _ini(tmp_path, text)
        with open(path, "r", encoding="utf-8") as handle:
            config_text = handle.read()
        assert main(
            ["terminal-rate", "--config", path, "--out", out, "--z", "1.0,1.0"]
        ) == 0

        _, rows = _read_csv(os.path.join(out, "value.csv"))
        assert rows[0][0] == pytest.approx(1.0, rel=1e-6)

        import hashlib

        from volldp import __version__

        manifest = _manifest(out)
        assert manifest["command"] == "terminal-rate"
        assert manifest["seed"] == 5
        assert manifest["version"] == __version__
        assert manifest["config_sha256"] == hashlib.sha256(
            config_text.encode("utf-8")
        ).hexdigest()
        assert manifest["overrides"]["z"] == [1.0, 1.0]
        assert manifest["overrides"]["out"] == out
        assert manifest["status"] == "ok" and "error" not in manifest
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["platform"] == platform.platform()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == f"{blas['name']} {blas['version']}"
        keys = {
            "command", "config_sha256", "seed", "version", "overrides",
            "threads_effective", "status", "warnings", "python", "numpy",
            "scipy", "blas", "platform", "peak_rss_mb",
        }
        assert set(manifest) == keys
        assert manifest["warnings"] == []

        # a failed run writes the same fields plus the error
        out = str(tmp_path / "failed")
        assert main(
            ["terminal-rate", "--config", path, "--out", out, "--z", "nan,1"]
        ) == 2
        failed = _manifest(out)
        assert set(failed) == keys | {"error"}
        assert failed["status"] == "error"
        assert failed["error"]["category"] == "CONFIG"
        for key in ("python", "numpy", "scipy", "blas", "platform"):
            assert failed[key] == manifest[key]

    def test_manifest_records_the_peak_rss(self, tmp_path, monkeypatch):
        # ru_maxrss counts KiB on Linux and bytes on macOS; the manifest
        # holds MB, and null where the platform has no resource module
        import resource

        from volldp import cli

        path = _ini(tmp_path, _one_factor_text(
            extra="[simulate]\nn_paths = 3\nepsilon = 0.5\n"))
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", path, "--out", out]) == 0
        peak = _manifest(out)["peak_rss_mb"]
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit = 2**20 if sys.platform == "darwin" else 2**10
        assert isinstance(peak, float) and 0.0 < peak <= after / unit

        monkeypatch.setattr(cli, "resource", None)
        assert main(["simulate", "--config", path, "--out", out]) == 0
        assert _manifest(out)["peak_rss_mb"] is None

    def test_unit_budget_is_a_config_error(self, tmp_path, monkeypatch):
        # a grid whose unit-sized arrays exceed the budget exits 2 before
        # any path is drawn, naming the bytes needed and the budget
        from volldp import gaussian, model

        def no_draw(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(model, "_UNIT_BUDGET", 1000)
        monkeypatch.setattr(gaussian, "path_normals", no_draw)
        path = _ini(tmp_path, _one_factor_text(
            extra="[simulate]\nn_paths = 3\nepsilon = 0.5\n"))
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", path, "--out", out]) == 2
        message = _manifest(out)["error"]["message"]
        need = model._unit_bytes(8, 1, 1)
        assert f"need {need:,} bytes" in message
        assert "budget of 1,000 bytes" in message

    @pytest.mark.parametrize("command, code", [
        ("terminal-rate", 0), ("verify-ldp", 4),
    ])
    def test_warnings_are_printed_and_recorded(self, tmp_path, command, code):
        # the optimizer starts disagree.  The crude estimator sees no path
        # reach 3.0, warns that the frequency is degenerate, and the slope
        # fit then fails: an error run warns too.
        out = str(tmp_path / "out")
        path = _ini(tmp_path, _TWO_WELLS)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert main([command, "--config", path, "--out", out,
                         "--threads", "1"]) == code
        recorded = _manifest(out)["warnings"]
        assert recorded == [
            {"category": w.category.__name__, "message": str(w.message)}
            for w in shown
        ]
        categories = [w["category"] for w in recorded]
        assert categories[0] == "MultistartSpreadWarning"
        assert "disagree" in recorded[0]["message"]
        if command == "verify-ldp":
            assert _manifest(out)["status"] == "error"
            assert "RuntimeWarning" in categories
            assert any("degenerate" in w["message"] for w in recorded)

    def test_degenerate_warning_names_its_noise_level(self, tmp_path):
        # under the default filter, which shows a warning once per message
        # and location, each noise level that no path reaches keeps its own
        # manifest entry
        out = str(tmp_path / "out")
        path = _ini(tmp_path, _TWO_WELLS)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("default", RuntimeWarning)
            assert main(["verify-ldp", "--config", path, "--out", out,
                         "--threads", "1"]) == 4
        degenerate = [w["message"] for w in _manifest(out)["warnings"]
                      if "degenerate" in w["message"]]
        assert len(degenerate) == 3
        for eps, message in zip(("0.3", "0.2", "0.1"), degenerate):
            assert f"at epsilon = {eps} (0 of 2000 paths)" in message


class TestVerifyLdp:
    def test_summary_and_table(self, tmp_path):
        out = str(tmp_path / "out")
        extra = (
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 0.5\n"
            "epsilons = 0.5, 0.4, 0.3\n"
            "n_paths = 2000\n"
            "estimator = crude\n"
        )
        path = _ini(
            tmp_path, _one_factor_text(n_steps=8, out=out, extra=extra)
        )
        assert main(["verify-ldp", "--config", path]) == 0

        header, rows = _read_csv(os.path.join(out, "ldp.csv"))
        assert header == [
            "epsilon", "p_hat", "stderr", "minus_log_p", "eps_inv_sq",
            "minus_log_stderr", "ess", "max_weight_share",
        ]
        assert len(rows) == 3
        assert [r[0] for r in rows] == [0.5, 0.4, 0.3]
        for _, p_hat, stderr, minus_log_p, *_ in rows:
            assert 0.0 < p_hat < 1.0 and stderr > 0.0
            assert minus_log_p == pytest.approx(-math.log(p_hat))

        summary = _read_json(os.path.join(out, "summary.json"))
        assert summary["estimator"] == "crude"
        assert summary["n_paths"] == 2000
        # Constant unit volatility, threshold b: the rate is b^2 / (2 T).
        assert summary["target_rate"] == pytest.approx(0.125, rel=1e-6)
        assert summary["slope"] > 0.0
        assert summary["r_squared"] > 0.9
        assert summary["slope_stderr"] > 0.0
        assert summary["relative_gap"] == pytest.approx(
            abs(summary["slope"] - summary["target_rate"])
            / summary["target_rate"]
        )

    def test_log_stderr_and_weight_health_columns(self, tmp_path):
        out = str(tmp_path / "out")
        extra = (
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 0.5\n"
            "epsilons = 0.5, 0.4, 0.3\n"
            "n_paths = 2000\n"
        )
        for estimator in ("crude", "tilted"):
            text = _one_factor_text(n_steps=8, out=out, extra=extra)
            path = _ini(tmp_path, text + f"estimator = {estimator}\n")
            assert main(["verify-ldp", "--config", path]) == 0
            header, rows = _read_csv(os.path.join(out, "ldp.csv"))
            assert header[5:] == ["minus_log_stderr", "ess", "max_weight_share"]
            for _, p_hat, stderr, _, _, minus_log_se, ess, share in rows:
                assert minus_log_se == pytest.approx(-math.log(stderr))
                if estimator == "crude":  # unit weights: ESS is the hit count
                    assert ess == round(p_hat * 2000) > 0
                    assert share == pytest.approx(1.0 / ess, rel=1e-15)
                else:
                    assert 1.0 < 1.0 / share <= ess < 2000

    def test_thread_count_does_not_change_results(self, tmp_path):
        # 10,000 paths are ten unit blocks, more than one worker's 8,192
        # paths, so --threads 2 runs a pool of two
        extra = (
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 0.5\n"
            "epsilons = 0.5, 0.4, 0.3\n"
            "n_paths = 10000\n"
            "estimator = tilted\n"
        )
        path = _ini(tmp_path, _one_factor_text(n_steps=8, extra=extra))
        outputs = {}
        for threads in (1, 2):
            out = str(tmp_path / f"t{threads}")
            assert main(["verify-ldp", "--config", path, "--out", out,
                         "--threads", str(threads)]) == 0
            outputs[threads] = _snapshot(out)
            manifest = json.loads(outputs[threads]["manifest.json"])
            assert manifest["overrides"]["threads"] == threads
            assert manifest["threads_effective"] == threads
        for name in ("ldp.csv", "summary.json"):
            assert outputs[1][name] == outputs[2][name], name

    def test_degenerate_level_fails_before_any_artifact(self, tmp_path,
                                                          capsys):
        # threshold 3 is 6 to 10 standard deviations out: no path hits it
        text = _one_factor_text(extra=(
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 3.0\n"
            "epsilons = 0.5, 0.4, 0.3\n"
            "n_paths = 2000\n"
            "estimator = crude\n"
        ))
        path = _ini(tmp_path, text)
        out = str(tmp_path / "o")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify-ldp", "--config", path, "--out", out])
        assert code == 4
        assert capsys.readouterr().err.startswith("error[VALIDATION]: ")
        assert sorted(os.listdir(out)) == ["manifest.json"]
        assert _manifest(out)["status"] == "error"
        assert not [w for w in caught if "divide by zero" in str(w.message)]

    def test_nonfinite_paths_exit_code(self, tmp_path, capsys):
        # exponential volatility with weight 120 overflows the Euler scheme
        path = _ini(tmp_path, _overflow_text(32, (
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 0.5\n"
            "epsilons = 1.0, 0.9, 0.8\n"
            "n_paths = 2000\n"
            "estimator = crude\n"
        )))
        out = str(tmp_path / "o")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify-ldp", "--config", path, "--out", out,
                         "--threads", "1"])
        assert code == 5
        # the failed run still explains itself
        _assert_nonfinite_failure(out, capsys.readouterr().err, 66)
        assert _manifest(out)["threads_effective"] == 1

    def test_uncorrelated_model_solves_and_samples_one_model(self, tmp_path):
        # the ldp_tilted experiment with sigma_tilde = 0: the rate solve and
        # the tilted sampler both read the uncorrelated model, so the slope
        # lands near its own terminal rate (about 1.611, not the correlated
        # model's 2.407)
        from volldp.ratefn import terminal_rate

        amplitude = 0.3 * math.sqrt(1.0 - 0.5**2)
        text = f"""
[grid]
horizon = 1.0
n_steps = 64

[kernel.1]
family = riemann_liouville
hurst = 0.3
scale = 1.0

[model]
d = 1

[model.mu]
family = constant
values = 0.0

[model.sigma]
family = exp_linear
amplitude = {amplitude!r}
weights = 1.0

[model.sigma_tilde]
family = constant
values = 0.0

[verify-ldp]
threshold = 1.0
epsilons = 0.4 0.3 0.25 0.2
n_paths = 65536
estimator = tilted

[run]
seed = 11
out = {tmp_path / "out"}
"""
        path = _ini(tmp_path, text)
        assert main(["verify-ldp", "--config", path]) == 0
        summary = _read_json(str(tmp_path / "out" / "summary.json"))
        cfg = parse_config(text)
        want = terminal_rate(np.array([1.0]), cfg.bank, cfg.coeffs, cfg.grid,
                             cfg.optimizer).value
        assert summary["target_rate"] == want
        assert want == pytest.approx(1.611, abs=5e-3)
        assert summary["relative_gap"] <= 0.15

    def test_internal_error_exit_code_and_manifest(self, tmp_path, capsys,
                                                   monkeypatch):
        # an exception that is not a package error is INTERNAL: one stderr
        # line, exit 6, and a manifest with the pool size fixed before the
        # sweep (10,000 paths are more than one worker's 8,192)
        import volldp.cli

        def broken(cfg, out_dir, threads):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(volldp.cli, "_cmd_verify_ldp", broken)
        extra = (
            "[verify-ldp]\nthreshold = 0.5\nepsilons = 0.5, 0.4, 0.3\n"
            "n_paths = 10000\n"
        )
        path = _ini(tmp_path, _one_factor_text(extra=extra))
        out = str(tmp_path / "o")
        code = main(["verify-ldp", "--config", path, "--out", out,
                     "--threads", "2"])
        assert code == 6
        err = capsys.readouterr().err
        assert err == "error[INTERNAL]: LinAlgError: Singular matrix\n"
        manifest = _manifest(out)
        assert manifest["status"] == "error"
        assert manifest["error"] == {
            "category": "INTERNAL", "message": "LinAlgError: Singular matrix"
        }
        assert manifest["threads_effective"] == 2


class TestShortTime:
    def test_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        extra = (
            "[schedule]\nrule = self_similar\neta = 0.5, 0.25\n"
            "[short-time]\nn_paths = 1000\nrefine = 2\n"
        )
        text = _one_factor_text(n_steps=8, out=out, extra=extra).replace(
            "hurst = 0.5", "hurst = 0.4"
        )
        path = _ini(tmp_path, text)
        assert main(["short-time", "--config", path]) == 0

        header, rows = _read_csv(os.path.join(out, "samples.csv"))
        assert header == ["delta", "path_id", "value"]
        assert len(rows) == 2 * 1000
        deltas = sorted({row[0] for row in rows})
        assert len(deltas) == 2

        diag = _read_json(os.path.join(out, "diagnostic.json"))
        assert set(diag) == {"all_consistent", "comparisons"}
        assert isinstance(diag["all_consistent"], bool)
        assert len(diag["comparisons"]) == 2
        for comp in diag["comparisons"]:
            assert set(comp) == {
                "delta", "paired_exceedance", "paired_max_sup_distance",
                "ks_statistic", "ks_pvalue", "n_paths", "exceedance",
            }
            assert comp["n_paths"] == 1000
            assert 0.0 <= comp["ks_pvalue"] <= 1.0
            assert set(comp["paired_exceedance"]) == {"0.05", "0.1", "0.2"}
            assert comp["paired_max_sup_distance"] >= 0.0
            assert len(comp["exceedance"]) == 3
            for row in comp["exceedance"]:
                assert set(row) == {
                    "threshold", "prob_rescaled", "stderr_rescaled",
                    "prob_direct", "stderr_direct",
                }

        with open(os.path.join(out, "report.txt"), encoding="utf-8") as handle:
            report = handle.read()
        assert "delta" in report

    def test_samples_are_the_rescaled_route(self, tmp_path):
        from volldp.asymptotics import short_time_values

        out = str(tmp_path / "out")
        extra = (
            "[schedule]\nrule = self_similar\neta = 0.5, 0.25\n"
            "[short-time]\nn_paths = 1000\nrefine = 2\n"
        )
        text = _one_factor_text(n_steps=8, out=out, extra=extra).replace(
            "hurst = 0.5", "hurst = 0.4"
        )
        path = _ini(tmp_path, text)
        assert main(["short-time", "--config", path]) == 0
        _, rows = _read_csv(os.path.join(out, "samples.csv"))
        cfg = parse_config(text)
        for i, (eta, eps) in enumerate(cfg.schedule):
            want = short_time_values(
                cfg.coeffs, cfg.bank, cfg.grid, eta, eps, 1000, cfg.seed + 2 * i,
            )[:, -1, 0]
            got = rows[1000 * i : 1000 * (i + 1)]
            assert [row[0] for row in got] == [eta] * 1000
            assert [row[1] for row in got] == list(range(1000))
            assert np.array_equal([row[2] for row in got], want)

    def test_thread_count_does_not_change_results(self, tmp_path):
        # 9,000 paths are nine unit blocks, more than one worker's 8,192
        # paths, so --threads 2 runs a pool of two
        extra = (
            "[schedule]\nrule = self_similar\neta = 0.5, 0.25\n"
            "[short-time]\nn_paths = 9000\nrefine = 2\n"
        )
        text = _one_factor_text(n_steps=4, extra=extra).replace(
            "hurst = 0.5", "hurst = 0.4"
        )
        path = _ini(tmp_path, text)
        outputs = {}
        for threads in (1, 2):
            out = str(tmp_path / f"t{threads}")
            assert main(["short-time", "--config", path, "--out", out,
                         "--threads", str(threads)]) == 0
            outputs[threads] = _snapshot(out)
            assert _manifest(out)["threads_effective"] == threads
        for name in ("samples.csv", "diagnostic.json", "report.txt"):
            assert outputs[1][name] == outputs[2][name], name

    def test_nonfinite_paths_exit_code(self, tmp_path, capsys):
        # 55 of the first route's 2,000 paths overflow: no diagnostic holds
        # a NaN sup-distance and no samples.csv a non-finite row
        path = _ini(tmp_path, _overflow_text(16, (
            "[schedule]\nrule = self_similar\neta = 1.0, 0.5\n"
            "[short-time]\nn_paths = 2000\nrefine = 2\n"
        )))
        out = str(tmp_path / "o")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["short-time", "--config", path, "--out", out,
                         "--threads", "1"])
        assert code == 5
        _assert_nonfinite_failure(out, capsys.readouterr().err, 55)

    def test_requires_schedule(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        path = _ini(tmp_path, _one_factor_text(n_steps=8, out=out))
        assert main(["short-time", "--config", path]) == 2
        assert "schedule" in capsys.readouterr().err


class TestSelftest:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["selftest", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "[pass]" in stdout and "[FAIL]" not in stdout
        assert "checks passed" in stdout
        assert os.path.exists(os.path.join(out, "selftest.txt"))

    def test_no_out_dir_needed(self, capsys):
        assert main(["selftest"]) == 0
        assert "checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--config", "x.ini"], ["--threads", "2"]],
        ids=["seed", "config", "threads"])
    def test_rejects_flags_it_would_ignore(self, flag, capsys):
        # the battery has its own seed, reads no config and runs no pool:
        # argparse exits 2
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutDirResolution:
    def test_config_out_used_when_flag_absent(self, tmp_path):
        out = str(tmp_path / "from_config")
        path = _ini(tmp_path, _one_factor_text(n_steps=2, out=out))
        assert main(["kernel-table", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "kernel_1.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_flag_wins(self, tmp_path):
        cfg_out = str(tmp_path / "from_config")
        flag_out = str(tmp_path / "from_flag")
        path = _ini(tmp_path, _one_factor_text(n_steps=2, out=cfg_out))
        assert main(
            ["kernel-table", "--config", path, "--out", flag_out]
        ) == 0
        assert os.path.exists(os.path.join(flag_out, "kernel_1.csv"))
        assert not os.path.exists(cfg_out)


# scipy subpackages volldp never needs on a Riemann-Liouville run:
# scipy.stats is most of scipy's import time, and scipy.special and
# scipy.linalg each pull in scipy's array-API layer and numpy.f2py
_UNNEEDED_SCIPY = ("scipy.stats", "scipy.special", "scipy.linalg")


def _fresh_interpreter(script: str) -> str:
    """The last line ``script`` prints, run by a fresh interpreter that
    imports this checkout's volldp."""
    import volldp

    src = str(pathlib.Path(volldp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_commands_leave_scipy_stats_unimported(tmp_path):
    # a fresh interpreter checks the module table, not a timing bound: the
    # import and every command on a Riemann-Liouville config leave each of
    # _UNNEEDED_SCIPY unloaded
    extra = (
        "[optimizer]\nn_starts = 2\n"
        "[rate]\nfunctional = i_uncorrelated\nz = 1.0\n"
        "[verify-ldp]\nthreshold = 0.5\nepsilons = 0.5, 0.4, 0.3\n"
        "n_paths = 2000\nestimator = crude\n"
        "[schedule]\nrule = self_similar\neta = 0.5, 0.25\n"
        "[short-time]\nn_paths = 1000\nrefine = 2\n"
    )
    path = _ini(tmp_path, _one_factor_text(n_steps=8, extra=extra))
    commands = [
        [command, "--config", path, "--out", str(tmp_path / command), *more]
        for command, *more in (
            ["verify-ldp"], ["short-time"], ["rate"],
            ["terminal-rate", "--z", "1.0"],
        )
    ]
    script = (
        "import json, sys\n"
        "import volldp.cli, volldp\n"
        f"unneeded = {_UNNEEDED_SCIPY!r}\n"
        "loaded = lambda: [m for m in unneeded if m in sys.modules]\n"
        "seen = {'import': loaded()}\n"
        f"for argv in {commands!r}:\n"
        "    code = volldp.cli.main(argv)\n"
        "    seen[argv[0]] = code, loaded()\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_fresh_interpreter(script))
    assert seen == {"import": [], "verify-ldp": [0, []],
                    "short-time": [0, []], "rate": [0, []],
                    "terminal-rate": [0, []]}


@pytest.mark.parametrize("family, extra", [
    ("molchan_golosov", ""), ("fractional_ou", ", mean_reversion=1.0"),
])
def test_building_a_hypergeometric_kernel_loads_scipy_special(family, extra):
    # the two families with a closed form in 2F1 load scipy.special when
    # they are built, never when the package is imported
    script = (
        "import sys, volldp\n"
        "before = 'scipy.special' in sys.modules\n"
        f"volldp.make_kernel({family!r}, hurst=0.3, scale=1.0, "
        f"horizon=1.0{extra})\n"
        "print(before, 'scipy.special' in sys.modules)\n"
    )
    assert _fresh_interpreter(script) == "False True"
