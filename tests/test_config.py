"""Strict config reading: one reader, records as schemas, nothing ignored.

Each option is a field of the record it fills (or an entry of one of the
name maps in ``volldp.config``); every other key, and every section that
no reader uses, is a ``ConfigurationError`` naming it.  The README's
config reference is checked against the same sources.
"""

import dataclasses
import pathlib
import re
import typing

import pytest

from volldp import config, kernels
from volldp.cli import main
from volldp.config import (
    ShortTimeOptions, SimulateOptions, VerifyLdpOptions, parse_config,
)
from volldp.errors import ConfigurationError
from volldp.grids import TimeGrid
from volldp.model import make_map
from volldp.ratefn import OptimizerConfig

_BASE = """
[grid]
horizon = 1.0
n_steps = 8

[kernel.1]
family = riemann_liouville
hurst = 0.5
scale = 1.0

[model.volatility]
family = constant
values = 1.0
rho = 0.0

[run]
seed = 7
"""

_GENERIC = """
[grid]
horizon = 1.0
n_steps = 4

[kernel.1]
family = riemann_liouville
hurst = 0.5
scale = 1.0

[model]
d = 1

[model.mu]
family = constant
values = 0.0

[model.sigma]
family = constant
values = 1.0

[model.sigma_tilde]
family = constant
values = 0.0

[run]
seed = 1
"""


def _with(text: str, section: str, lines: str) -> str:
    """``text`` with ``lines`` added to ``section`` (appended if absent)."""
    head = f"[{section}]\n"
    if head in text:
        return text.replace(head, head + lines + "\n", 1)
    return text + "\n" + head + lines + "\n"


# (section, lines that hold one misspelled key, the key)
_MISSPELLED = [
    ("grid", "n_stepz = 8", "n_stepz"),
    ("kernel.1", "hurts = 0.3", "hurts"),
    ("model.volatility", "amplitud = 4", "amplitud"),
    ("model.mu", "family = constant\nvalues = 0.0\nvalue = 1.0", "value"),
    ("optimizer", "toll = 3", "toll"),
    ("run", "sead = 3", "sead"),
    ("schedule", "eta = 0.5, 0.25\nepsilon = 0.5, 0.25", "epsilon"),
    ("schedule", "rule = log_fbm\neta = 0.5, 0.25\ndelta = 0.5, 0.25", "delta"),
    ("schedule", "rule = custom\neta = 0.5\nepsilon = 0.5\nlog_exponent = 2",
     "log_exponent"),
    ("schedule", "rule = custom\neta = 0.5\nepsilon = 0.5\nhurst = 0.3", "hurst"),
    ("simulate", "n_path = 5", "n_path"),
    ("rate", "functionl = i_z", "functionl"),
    ("terminal-rate", "zz = 1.0", "zz"),
    ("verify-ldp", "n_path = 5000", "n_path"),
    ("short-time", "quantile = 0.9", "quantile"),
]
# values the reader does not take: the schedule's speed comes from the first
# kernel, a kernel's horizon is the grid's, and the optimizer's settings and
# the exceedance levels are constants
_NOT_SETTABLE = [
    ("kernel.1", "horizon = 1.0", "horizon"),
    ("schedule", "eta = 0.5\nhurst = 0.3", "hurst"),
    ("schedule", "rule = log_fbm\neta = 0.5\nlog_exponent = 2", "log_exponent"),
    ("schedule", "rule = log_fbm\neta = 0.5\nspeed_log_exponent = 2",
     "speed_log_exponent"),
    ("optimizer", "tol = 1e-6", "tol"),
    ("optimizer", "max_iter = 100", "max_iter"),
    ("optimizer", "memory = 5", "memory"),
    ("optimizer", "spread_warn = 0.1", "spread_warn"),
    ("short-time", "quantiles = 0.9", "quantiles"),
]


@pytest.mark.parametrize(
    "section, lines, key", _MISSPELLED + _NOT_SETTABLE,
    ids=[f"{s}-{k}" for s, _, k in _MISSPELLED]
    + [f"{s}-{k}-not-settable" for s, _, k in _NOT_SETTABLE],
)
def test_misspelled_key_is_rejected(section, lines, key):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(_with(_BASE, section, lines))
    message = str(excinfo.value)
    assert f"[{section}]" in message and f"'{key}'" in message


def test_custom_schedule_takes_no_delta():
    # the short-time horizon fraction is eta: the rescaled route is the
    # exact time change only then, so no rule lets it be set apart
    text = _with(_BASE, "schedule",
                 "rule = custom\neta = 0.5, 0.25\nepsilon = 0.5, 0.25\n"
                 "delta = 0.25, 0.1")
    with pytest.raises(ConfigurationError,
                       match=re.escape("[schedule], field 'delta'")):
        parse_config(text)


def test_custom_schedule_takes_the_given_entries():
    text = _with(_BASE, "schedule",
                 "rule = custom\neta = 0.5, 0.25\nepsilon = 0.6, 0.3")
    assert parse_config(text).schedule == kernels.ScalingSchedule(
        (0.5, 0.25), (0.6, 0.3))


def test_log_fbm_rule_takes_its_speed_from_the_first_kernel():
    text = _BASE.replace("horizon = 1.0", "horizon = 0.5").replace(
        "family = riemann_liouville\nhurst = 0.5",
        "family = log_fbm\nhurst = 0.4\nlog_exponent = 3.0")
    cfg = parse_config(_with(text, "schedule", "rule = log_fbm\neta = 0.2, 0.1"))
    assert cfg.schedule == kernels.ScalingSchedule.for_log_kernel(
        (0.2, 0.1), 0.4, 3.0)


def test_log_fbm_rule_needs_a_log_fbm_first_kernel():
    # a kernel without a log exponent would give the self-similar speeds
    text = _with(_BASE, "schedule", "rule = log_fbm\neta = 0.2, 0.1")
    with pytest.raises(ConfigurationError,
                       match=re.escape("[schedule], field 'rule'")) as excinfo:
        parse_config(text)
    assert "riemann_liouville" in str(excinfo.value)


def test_misspelled_key_in_a_generic_model_section():
    text = _GENERIC.replace("d = 1", "d = 1\ndd = 1")
    with pytest.raises(ConfigurationError, match=r"\[model\], field 'dd'"):
        parse_config(text)


def test_p_is_the_number_of_kernel_sections():
    two = _GENERIC.replace("[model]", "[kernel.2]\nfamily = molchan_golosov\n"
                           "hurst = 0.3\nscale = 1.0\n\n[model]")
    two = two.replace("values = 0.0\n\n[run]", "values = 0.0, 0.0\n\n[run]")
    assert parse_config(two).coeffs.p == 2
    with pytest.raises(ConfigurationError, match=r"\[model\], field 'p'"):
        parse_config(_with(two, "model", "p = 2"))


@pytest.mark.parametrize("option", ["growth_m1", "growth_m2", "growth_alpha"])
def test_growth_constants_are_not_options(option):
    # the growth bound is a hypothesis checked by validate_coefficients
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"[model], field '{option}': unknown option")):
        parse_config(_with(_GENERIC, "model", f"{option} = 3.5"))


def test_one_factor_model_takes_no_dimensions():
    with pytest.raises(ConfigurationError,
                       match=re.escape("config section [model]: unknown section")):
        parse_config(_with(_BASE, "model", "d = 1"))


def test_rate_takes_z_or_target_file_not_both():
    with pytest.raises(ConfigurationError,
                       match=re.escape("config section [rate], field 'z': ")):
        parse_config(_with(_BASE, "rate", "z = 1.0\ntarget_file = t.csv"))


@pytest.mark.parametrize("text, section", [
    (_BASE + "\n[verify_ldp]\nn_paths = 5000\n", "verify_ldp"),
    (_BASE + "\n[gird]\nhorizon = 1.0\n", "gird"),
    (_BASE + "\n[kernel.3]\nfamily = riemann_liouville\nhurst = 0.5\n"
             "scale = 1.0\n", "kernel.3"),
    (_BASE + "\n[model.sigma]\nfamily = constant\nvalues = 1.0\n",
     "model.sigma"),
    ("[DEFAULT]\nseed = 3\n" + _BASE, "DEFAULT"),
], ids=["verify_ldp", "gird", "kernel-gap", "sigma-beside-volatility",
        "default"])
def test_unknown_section_is_rejected(text, section):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"config section [{section}]: unknown section")):
        parse_config(text)


@pytest.mark.parametrize("levels", ["0.4 0.3", "0.4 0.3 -0.2", "0.4 0.4 0.4"],
                         ids=["two-levels", "negative", "all-equal"])
def test_verify_ldp_epsilons_must_admit_a_slope_fit(tmp_path, capsys, levels):
    # rejected on reading, not by the fit after the levels have been sampled
    text = _with(_BASE, "verify-ldp", f"epsilons = {levels}")
    where = "config section [verify-ldp], field 'epsilons'"
    with pytest.raises(ConfigurationError, match=re.escape(where)):
        parse_config(text)
    out = tmp_path / "o"
    path = tmp_path / "exp.ini"
    path.write_text(text.replace("seed = 7", f"seed = 7\nout = {out}"),
                    encoding="utf-8")
    assert main(["verify-ldp", "--config", str(path)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_misspelled_key_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    text = _with(_BASE.replace("seed = 7", f"seed = 7\nout = {out}"),
                 "verify-ldp", "n_path = 5000")
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["verify-ldp", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error[CONFIG]: config section [verify-ldp], field 'n_path': "
        "unknown option\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("section", ["simulate", "verify-ldp", "short-time"])
def test_correlated_is_not_an_option(tmp_path, capsys, section):
    # the uncorrelated model is sigma_tilde = 0; no flag says it twice
    text = _with(_BASE, section, "correlated = false")
    with pytest.raises(ConfigurationError, match=re.escape(
            f"config section [{section}], field 'correlated': unknown option")):
        parse_config(text)
    if section == "verify-ldp":
        out = tmp_path / "o"
        path = tmp_path / "exp.ini"
        path.write_text(text.replace("seed = 7", f"seed = 7\nout = {out}"),
                        encoding="utf-8")
        assert main(["verify-ldp", "--config", str(path)]) == 2
        assert "'correlated': unknown option" in capsys.readouterr().err
        assert not out.exists()


def test_unset_options_take_the_record_defaults():
    cfg = parse_config(_BASE)
    assert cfg.simulate == SimulateOptions()
    assert cfg.verify_ldp == VerifyLdpOptions()
    assert cfg.short_time == ShortTimeOptions()
    assert cfg.optimizer == OptimizerConfig()
    assert cfg.out_dir == "out"


def test_values_are_read_literally():
    # a '%' used to start an interpolation and fail as an INTERNAL error
    cfg = parse_config(_BASE.replace("seed = 7", "seed = 7\nout = runs/100%"))
    assert cfg.out_dir == "runs/100%"


def test_kernel_horizon_defaults_to_the_grid():
    cfg = parse_config(_BASE.replace("horizon = 1.0", "horizon = 0.5"))
    assert cfg.bank.horizon == 0.5


@pytest.mark.parametrize("raw", [b"\xff\xfe[grid]\n", None],
                         ids=["not-utf8", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, raw):
    path = tmp_path / "exp.ini"
    if raw is None:
        path.mkdir()
    else:
        path.write_bytes(raw)
    assert main(["kernel-table", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[CONFIG]: cannot read config file")
    assert err.count("\n") == 1


# (section, option, value): each used to parse and end as a NUMERIC error
_NONFINITE = [
    ("rate", "z", "nan"),
    ("rate", "z", "0.5, inf"),
    ("verify-ldp", "threshold", "nan"),
    ("verify-ldp", "threshold", "-inf"),
    ("model.volatility", "values", "inf"),
    ("simulate", "epsilon", "inf"),
]


@pytest.mark.parametrize("section, option, value", _NONFINITE)
def test_nonfinite_numbers_are_config_errors(tmp_path, capsys, section, option,
                                             value):
    text = _with(_BASE, section, f"{option} = {value}")
    if section == "model.volatility":
        text = _BASE.replace("values = 1.0", f"values = {value}")
    message = (f"config section [{section}], field '{option}': "
               f"{value!r} is not finite")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config(text)
    out = tmp_path / "o"
    path = tmp_path / "exp.ini"
    path.write_text(text.replace("seed = 7", f"seed = 7\nout = {out}"),
                    encoding="utf-8")
    assert main(["verify-ldp", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error[CONFIG]: {message}\n"
    assert not out.exists()


_BAD_OPTIMIZER = [("n_starts", 0), ("seed", -1)]


@pytest.mark.parametrize("name, value", _BAD_OPTIMIZER)
def test_optimizer_config_checks_itself(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be"):
        OptimizerConfig(**{name: value})
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"[optimizer], field '{name}'")):
        parse_config(_with(_BASE, "optimizer", f"{name} = {value}"))


# ---------------------------------------------------------------------------
# the README's config reference
# ---------------------------------------------------------------------------

_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _reference():
    """README config tables: ({section: {option: (type, default)}},
    {coefficient family: [parameters]})."""
    text = _README.read_text(encoding="utf-8")
    body = text.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    sections, families, current, table = {}, {}, [], None
    for line in body.splitlines():
        if line.startswith("#### "):
            current = re.findall(r"`\[([^\]]+)\]`", line)
            table = None
        elif line.startswith("| option |"):
            table = "options"
        elif line.startswith("| family |"):
            table = "families"
        elif not line.startswith("|"):
            table = None
        elif table and not line.startswith("| ---"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if table == "options":
                for sec in current:
                    sections.setdefault(sec, {})[cells[0].strip("`")] = (
                        cells[1], cells[2])
            else:
                families[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[1])
    return sections, families


def _type_name(kind) -> str:
    kind = next((a for a in typing.get_args(kind) if a is not type(None)), kind)
    return {tuple: "list"}.get(kind, kind.__name__)


def _default_text(value) -> str:
    if value is dataclasses.MISSING:
        return "required"
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def _record_options(record, with_defaults=True) -> dict:
    hints = typing.get_type_hints(record)
    return {
        f.name: (_type_name(hints[f.name]),
                 _default_text(f.default) if with_defaults else None)
        for f in dataclasses.fields(record)
    }


def _names(types: dict) -> dict:
    return {name: (_type_name(kind), None) for name, kind in types.items()}


def _accepted_options() -> dict:
    """What the reader accepts, from the records and the name maps."""
    kernel = {"family": ("str", None)}
    for cls in kernels._FAMILIES.values():
        kernel.update(_record_options(cls, with_defaults=False))
    del kernel["horizon"]  # the grid's
    schedule = dict(config._SCHEDULE)
    for extra in config._SCHEDULE_RULES.values():
        schedule.update(extra)
    accepted = {
        "grid": _record_options(TimeGrid),
        "kernel.N": kernel,
        "model": _names(config._MODEL),
        "model.volatility": {"family": ("str", None), "rho": ("float", None)},
        "model.mu": {"family": ("str", None)},
        "model.sigma": {"family": ("str", None)},
        "model.sigma_tilde": {"family": ("str", None)},
        "schedule": _names(schedule),
        "optimizer": _record_options(OptimizerConfig),
        "run": _names(config._RUN),
    }
    for section, record in config._SUBCOMMANDS.items():
        accepted[section] = _record_options(record)
    return accepted


def test_readme_lists_exactly_the_accepted_options():
    sections, _ = _reference()
    accepted = _accepted_options()
    assert sorted(sections) == sorted(accepted)
    for section, options in accepted.items():
        listed = sections[section]
        assert sorted(listed) == sorted(options), section
        for name, (kind, default) in options.items():
            assert listed[name][0] == kind, (section, name)
            if default is not None:  # a record's own default
                assert listed[name][1] == default, (section, name)


def test_readme_lists_exactly_the_coefficient_parameters():
    _, families = _reference()
    assert families
    for family, params in families.items():
        # make_map rejects a missing or an unknown parameter, so this call
        # succeeds only for exactly the family's parameter set
        make_map(family, (1,), 1, **{name: [1.0] for name in params})
    with pytest.raises(ConfigurationError, match="choose from") as excinfo:
        make_map("nope", (1,), 1)
    assert sorted(re.findall(r"'(\w+)'", str(excinfo.value))[1:]) == sorted(
        families)
