"""Flat INI experiment configuration for the command-line driver.

One file describes one experiment: grid, kernel bank, model coefficients,
optional scaling schedule and optimizer settings, plus per-subcommand
parameter sections.  Seeds are always explicit -- there is no wall-clock
fallback -- so every artifact is reproducible from its config alone.

Example::

    [grid]
    horizon = 1.0
    n_steps = 64

    [kernel.1]
    family = riemann_liouville
    hurst = 0.4
    scale = 1.0

    [model.volatility]
    family = exp_linear
    amplitude = 0.3
    weights = 1.0
    rho = -0.5

    [run]
    seed = 42
    out = out
"""

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grids import TimeGrid
from .kernels import KernelBank, ScalingSchedule, make_kernel
from .model import ModelCoefficients, make_map
from .ratefn import OptimizerConfig

_REQUIRED = object()

_KERNEL_PARAM_NAMES = {
    "hurst", "scale", "horizon", "log_exponent", "mean_reversion",
}


def _fail(section: str, option: str, message: str):
    raise ConfigurationError(
        f"config section [{section}], field '{option}': {message}"
    )


def _get(cp, section, option, cast, default=_REQUIRED, lo=None, hi=None,
         lo_strict=False):
    if not cp.has_option(section, option):
        if default is _REQUIRED:
            _fail(section, option, "missing required value")
        return default
    raw = cp.get(section, option)
    try:
        value = cast(raw)
    except ValueError:
        _fail(section, option, f"cannot parse {raw!r} as {cast.__name__}")
    if lo is not None and (value <= lo if lo_strict else value < lo):
        _fail(section, option, f"value {value} below allowed range")
    if hi is not None and value > hi:
        _fail(section, option, f"value {value} above allowed range")
    return value


def _get_bool(cp, section, option, default):
    if not cp.has_option(section, option):
        return default
    raw = cp.get(section, option).strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    _fail(section, option, f"cannot parse {raw!r} as a boolean")


def _float_list(cp, section, option, default=_REQUIRED):
    if not cp.has_option(section, option):
        if default is _REQUIRED:
            _fail(section, option, "missing required value")
        return default
    raw = cp.get(section, option).replace(",", " ")
    try:
        vals = tuple(float(tok) for tok in raw.split())
    except ValueError:
        _fail(section, option, f"cannot parse {cp.get(section, option)!r} "
              "as a list of numbers")
    if not vals:
        _fail(section, option, "empty list")
    return vals


# ---------------------------------------------------------------------------
# per-subcommand option blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulateOptions:
    n_paths: int = 8
    epsilon: float = 1.0
    correlated: bool = True
    emit_drivers: bool = False


@dataclass(frozen=True)
class RateOptions:
    functional: str = "i_z"
    m: int | None = None
    z: tuple | None = None
    target_file: str | None = None


@dataclass(frozen=True)
class TerminalRateOptions:
    z: tuple | None = None


@dataclass(frozen=True)
class VerifyLdpOptions:
    threshold: float = 1.0
    epsilons: tuple = (0.4, 0.3, 0.25, 0.2)
    n_paths: int = 100_000
    estimator: str = "tilted"
    correlated: bool = True


@dataclass(frozen=True)
class ShortTimeOptions:
    n_paths: int = 10_000
    refine: int = 4
    quantiles: tuple = (0.8, 0.9, 0.95)
    correlated: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    grid: TimeGrid
    bank: KernelBank
    coeffs: ModelCoefficients
    schedule: ScalingSchedule | None
    optimizer: OptimizerConfig
    seed: int
    out_dir: str
    simulate: SimulateOptions = field(default_factory=SimulateOptions)
    rate: RateOptions = field(default_factory=RateOptions)
    terminal: TerminalRateOptions = field(default_factory=TerminalRateOptions)
    verify_ldp: VerifyLdpOptions = field(default_factory=VerifyLdpOptions)
    short_time: ShortTimeOptions = field(default_factory=ShortTimeOptions)


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------


def _parse_grid(cp) -> TimeGrid:
    if not cp.has_section("grid"):
        raise ConfigurationError("missing config section [grid]")
    horizon = _get(cp, "grid", "horizon", float, lo=0.0, lo_strict=True)
    n_steps = _get(cp, "grid", "n_steps", int, lo=1)
    return TimeGrid(horizon, n_steps)


def _parse_bank(cp, grid: TimeGrid) -> KernelBank:
    sections = []
    i = 1
    while cp.has_section(f"kernel.{i}"):
        sections.append(f"kernel.{i}")
        i += 1
    if not sections:
        raise ConfigurationError(
            "missing config section [kernel.1]; kernels are numbered "
            "consecutively from 1"
        )
    kernels = []
    for sec in sections:
        family = _get(cp, sec, "family", str)
        params = {"horizon": grid.horizon}
        for name in cp.options(sec):
            if name == "family":
                continue
            if name not in _KERNEL_PARAM_NAMES:
                _fail(sec, name, "unknown kernel parameter")
            params[name] = _get(cp, sec, name, float)
        try:
            kernels.append(make_kernel(family, **params))
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"config section [{sec}]: {exc}") from exc
    return KernelBank(tuple(kernels))


def _parse_coeff_map(cp, section: str, shape: tuple, p: int):
    family = _get(cp, section, "family", str)
    size = int(np.prod(shape))
    if family == "constant":
        values = _float_list(cp, section, "values")
        if len(values) != size:
            _fail(section, "values", f"expected {size} entries, got {len(values)}")
        return make_map("constant", shape, p, values=np.reshape(values, shape))
    if family == "affine":
        const = _float_list(cp, section, "constant")
        lin = _float_list(cp, section, "linear")
        if len(const) != size:
            _fail(section, "constant", f"expected {size} entries, got {len(const)}")
        if len(lin) != size * p:
            _fail(section, "linear", f"expected {size * p} entries, got {len(lin)}")
        return make_map(
            "affine", shape, p,
            constant=np.reshape(const, shape),
            linear=np.reshape(lin, shape + (p,)),
        )
    if family == "exp_linear":
        amp = _float_list(cp, section, "amplitude")
        wts = _float_list(cp, section, "weights")
        if len(amp) != size:
            _fail(section, "amplitude", f"expected {size} entries, got {len(amp)}")
        if len(wts) != size * p:
            _fail(section, "weights", f"expected {size * p} entries, got {len(wts)}")
        return make_map(
            "exp_linear", shape, p,
            amplitude=np.reshape(amp, shape),
            weights=np.reshape(wts, shape + (p,)),
        )
    _fail(section, "family", f"unknown coefficient family {family!r}")


def _parse_model(cp, bank: KernelBank) -> ModelCoefficients:
    growth = {}
    if cp.has_section("model"):
        growth = {
            "growth_alpha": _get(cp, "model", "growth_alpha", float, 1.0, lo=0.0),
            "growth_m1": _get(cp, "model", "growth_m1", float, 10.0, lo=0.0),
            "growth_m2": _get(cp, "model", "growth_m2", float, 10.0, lo=0.0),
        }
    if cp.has_section("model.volatility"):
        sub = configparser.ConfigParser()
        sub.read_dict({
            "base": {
                k: cp.get("model.volatility", k)
                for k in cp.options("model.volatility")
                if k != "rho"
            }
        })
        base = _parse_coeff_map(sub, "base", (1, 1), 1)
        rho = _get(cp, "model.volatility", "rho", float)
        if abs(rho) >= 1.0:
            _fail("model.volatility", "rho", "must satisfy |rho| < 1")
        mu = None
        if cp.has_section("model.mu"):
            mu = _parse_coeff_map(cp, "model.mu", (1,), 1)
        coeffs = ModelCoefficients.one_factor(base, rho, mu=mu, **growth)
    else:
        if not cp.has_section("model"):
            raise ConfigurationError(
                "missing config section [model] (or [model.volatility])"
            )
        d = _get(cp, "model", "d", int, lo=1)
        p = _get(cp, "model", "p", int, lo=1)
        for sec in ("model.mu", "model.sigma", "model.sigma_tilde"):
            if not cp.has_section(sec):
                raise ConfigurationError(f"missing config section [{sec}]")
        coeffs = ModelCoefficients(
            d=d, p=p,
            mu=_parse_coeff_map(cp, "model.mu", (d,), p),
            sigma=_parse_coeff_map(cp, "model.sigma", (d, d), p),
            sigma_tilde=_parse_coeff_map(cp, "model.sigma_tilde", (d, p), p),
            **growth,
        )
    if coeffs.p != bank.n_factors:
        raise ConfigurationError(
            f"model has p = {coeffs.p} factors but the config declares "
            f"{bank.n_factors} kernel sections"
        )
    return coeffs


def _parse_schedule(cp, bank: KernelBank):
    if not cp.has_section("schedule"):
        return None
    rule = _get(cp, "schedule", "rule", str, "self_similar")
    eta = _float_list(cp, "schedule", "eta")
    first = bank.kernels[0]
    hurst = _get(cp, "schedule", "hurst", float, float(first.hurst))
    if rule == "self_similar":
        return ScalingSchedule.self_similar(eta, hurst)
    if rule == "log_fbm":
        log_exp = _get(
            cp, "schedule", "log_exponent", float,
            float(getattr(first, "log_exponent", 0.0)),
        )
        speed_q = _get(cp, "schedule", "speed_log_exponent", float, None)
        return ScalingSchedule.for_log_kernel(eta, hurst, log_exp, speed_q)
    if rule == "custom":
        eps = _float_list(cp, "schedule", "epsilon")
        delta = _float_list(cp, "schedule", "delta", eta)
        return ScalingSchedule(
            eta=eta, epsilon=eps, delta=delta,
            speed_exponent_hurst=hurst, rule="custom",
        )
    _fail("schedule", "rule", f"unknown rule {rule!r}")


def _parse_optimizer(cp) -> OptimizerConfig:
    if not cp.has_section("optimizer"):
        return OptimizerConfig()
    return OptimizerConfig(
        tol=_get(cp, "optimizer", "tol", float, 1e-8, lo=0.0, lo_strict=True),
        max_iter=_get(cp, "optimizer", "max_iter", int, 500, lo=1),
        memory=_get(cp, "optimizer", "memory", int, 10, lo=1),
        n_starts=_get(cp, "optimizer", "n_starts", int, 5, lo=1),
        seed=_get(cp, "optimizer", "seed", int, 7, lo=0),
        spread_warn=_get(cp, "optimizer", "spread_warn", float, 0.01, lo=0.0),
    )


def _parse_subcommands(cp, grid: TimeGrid):
    sim = SimulateOptions(
        n_paths=_get(cp, "simulate", "n_paths", int, 8, lo=1)
        if cp.has_section("simulate") else 8,
        epsilon=_get(cp, "simulate", "epsilon", float, 1.0, lo=0.0, lo_strict=True)
        if cp.has_section("simulate") else 1.0,
        correlated=_get_bool(cp, "simulate", "correlated", True)
        if cp.has_section("simulate") else True,
        emit_drivers=_get_bool(cp, "simulate", "emit_drivers", False)
        if cp.has_section("simulate") else False,
    )
    rate = RateOptions()
    if cp.has_section("rate"):
        m = _get(cp, "rate", "m", int, None, lo=1)
        if m is not None:
            grid.require_divisible(m)
        rate = RateOptions(
            functional=_get(cp, "rate", "functional", str, "i_z"),
            m=m,
            z=_float_list(cp, "rate", "z", None),
            target_file=_get(cp, "rate", "target_file", str, None),
        )
        if rate.functional not in ("i_z", "i_z_m", "i_uncorrelated"):
            _fail("rate", "functional", f"unknown functional {rate.functional!r}")
        if rate.functional == "i_z_m" and m is None:
            _fail("rate", "m", "required when functional = i_z_m")
    term = TerminalRateOptions(
        z=_float_list(cp, "terminal-rate", "z", None)
        if cp.has_section("terminal-rate") else None
    )
    ver = VerifyLdpOptions()
    if cp.has_section("verify-ldp"):
        ver = VerifyLdpOptions(
            threshold=_get(cp, "verify-ldp", "threshold", float, 1.0),
            epsilons=_float_list(cp, "verify-ldp", "epsilons", (0.4, 0.3, 0.25, 0.2)),
            n_paths=_get(cp, "verify-ldp", "n_paths", int, 100_000, lo=1000),
            estimator=_get(cp, "verify-ldp", "estimator", str, "tilted"),
            correlated=_get_bool(cp, "verify-ldp", "correlated", True),
        )
        if ver.estimator not in ("tilted", "crude"):
            _fail("verify-ldp", "estimator", f"unknown estimator {ver.estimator!r}")
    short = ShortTimeOptions()
    if cp.has_section("short-time"):
        short = ShortTimeOptions(
            n_paths=_get(cp, "short-time", "n_paths", int, 10_000, lo=1000),
            refine=_get(cp, "short-time", "refine", int, 4, lo=1),
            quantiles=_float_list(cp, "short-time", "quantiles", (0.8, 0.9, 0.95)),
            correlated=_get_bool(cp, "short-time", "correlated", True),
        )
    return sim, rate, term, ver, short


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat INI experiment description."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    grid = _parse_grid(cp)
    bank = _parse_bank(cp, grid)
    coeffs = _parse_model(cp, bank)
    schedule = _parse_schedule(cp, bank)
    optimizer = _parse_optimizer(cp)
    if not cp.has_section("run"):
        raise ConfigurationError(
            "missing config section [run]; seeds must be explicit"
        )
    seed = _get(cp, "run", "seed", int, lo=0)
    out_dir = _get(cp, "run", "out", str, "out")
    sim, rate, term, ver, short = _parse_subcommands(cp, grid)
    return ExperimentConfig(
        grid=grid, bank=bank, coeffs=coeffs, schedule=schedule,
        optimizer=optimizer, seed=seed, out_dir=out_dir,
        simulate=sim, rate=rate, terminal=term, verify_ldp=ver,
        short_time=short,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file from disk."""
    try:
        with io.open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
