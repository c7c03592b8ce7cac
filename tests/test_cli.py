"""End-to-end tests for the command-line driver and the config parser.

Every CLI test calls ``main(argv)`` in-process so exit codes, stderr
messages, and output artifacts can be checked without spawning a shell.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from volldp.cli import main
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
p = 1

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

    def test_thread_cap_rejects_nonpositive(self, tmp_path, capsys):
        path = _ini(tmp_path, _one_factor_text())
        assert main(["selftest", "--threads", "0", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == "error[CONFIG]: --threads must be >= 1\n"

    def test_thread_cap_sets_environment(self, tmp_path):
        saved = {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        }
        try:
            path = _ini(
                tmp_path,
                _one_factor_text(n_steps=2, out=str(tmp_path / "o")),
            )
            code = main(["kernel-table", "--config", path, "--threads", "2"])
            assert code == 0
            assert os.environ["OMP_NUM_THREADS"] == "2"
            assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value


# ---------------------------------------------------------------------------
# artifact-producing subcommands
# ---------------------------------------------------------------------------


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

    def test_rate_singular_diffusion_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        extra = self.OPT + "[rate]\nfunctional = i_z\nz = 1.0\n"
        text = _one_factor_text(n_steps=8, out=out, extra=extra)
        path = _ini(tmp_path, text.replace("values = 1.0", "values = 0.0"))
        assert main(["rate", "--config", path]) == 5
        assert "error[NUMERIC]" in capsys.readouterr().err

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
p = 1

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
            "epsilon", "p_hat", "stderr", "minus_log_p", "eps_inv_sq"
        ]
        assert len(rows) == 3
        assert [r[0] for r in rows] == [0.5, 0.4, 0.3]
        for _, p_hat, stderr, minus_log_p, _ in rows:
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

    def test_thread_count_does_not_change_results(self, tmp_path):
        # 10,000 paths are two counter blocks, so --threads 2 runs a pool
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
        text = _one_factor_text(n_steps=32, seed=3, rho=-0.5, extra=(
            "[optimizer]\nn_starts = 2\n"
            "[verify-ldp]\n"
            "threshold = 0.5\n"
            "epsilons = 1.0, 0.9, 0.8\n"
            "n_paths = 2000\n"
            "estimator = crude\n"
        ))
        text = text.replace("hurst = 0.5", "hurst = 0.3").replace(
            "family = constant\nvalues = 1.0",
            "family = exp_linear\namplitude = 0.3\nweights = 120.0",
        )
        path = _ini(tmp_path, text)
        out = str(tmp_path / "o")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify-ldp", "--config", path, "--out", out])
        assert code == 5
        assert "error[NUMERIC]: 69 of 2000" in capsys.readouterr().err
        # the failed run still explains itself
        manifest = _manifest(out)
        assert manifest["status"] == "error"
        assert manifest["error"]["category"] == "NUMERIC"
        assert manifest["error"]["message"].startswith("69 of 2000")
        assert manifest["threads_effective"] == 1

    def test_internal_error_exit_code_and_manifest(self, tmp_path, capsys,
                                                   monkeypatch):
        # an exception that is not a package error is INTERNAL: one stderr
        # line, exit 6, and a manifest with the pool size fixed before the
        # sweep (10,000 paths are two counter blocks)
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
        assert isinstance(diag["all_consistent"], bool)
        assert len(diag["comparisons"]) == 2
        for comp in diag["comparisons"]:
            assert comp["n_paths"] == 1000
            assert 0.0 <= comp["ks_pvalue"] <= 1.0
            assert comp["paired_exceedance"]  # nonempty dict
            assert comp["paired_max_sup_distance"] >= 0.0
            assert comp["exceedance"]

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
        for i, entry in enumerate(cfg.schedule):
            want = short_time_values(
                cfg.coeffs, cfg.bank, cfg.grid, entry, 1000, cfg.seed + 2 * i,
                correlated=cfg.short_time.correlated,
            )[:, -1, 0]
            got = rows[1000 * i : 1000 * (i + 1)]
            assert [row[0] for row in got] == [entry.delta] * 1000
            assert [row[1] for row in got] == list(range(1000))
            assert np.array_equal([row[2] for row in got], want)

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
