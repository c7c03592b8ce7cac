"""Flat INI experiment configuration for the command-line driver.

One file describes one experiment: grid, kernel bank, model coefficients,
optional scaling schedule and optimizer settings, plus per-subcommand
parameter sections.  Seeds are always explicit -- there is no wall-clock
fallback -- so every artifact is reproducible from its config alone.  The
README's config reference lists every section and option.

Each option is declared once: as a field of the record its section fills
(``TimeGrid``, the family's kernel class for ``[kernel.N]``,
``OptimizerConfig``, the ``*Options`` blocks below), which gives its name,
type and default, or in the name -> type maps below for ``[model]``,
``[run]`` and ``[schedule]``.  Nothing the reader can derive is asked
for: the factor count p is the number of ``[kernel.N]`` sections, so
``[model]`` holds only the asset count d of the generic layout, and the
one-factor layout (``[model.volatility]``) has no ``[model]`` section;
a kernel's horizon is the grid's, not an option of ``[kernel.N]``;
a schedule rule reads H and the log exponent from the first kernel.
The coefficient sections hand every key but ``family`` (and ``rho``) to
``model.make_map``, which knows each family's parameters.  The reader is
strict: a key that is not an option of its section, and a section that no
reader uses (a misspelled name, a gap in the kernel numbering, ``[model]``
or ``[model.sigma]`` beside ``[model.volatility]``, a non-empty
``[DEFAULT]``), is a ``ConfigurationError`` that names it.
"""

import configparser
import hashlib
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .asymptotics import _MIN_TAIL_PATHS
from .errors import ConfigurationError
from .grids import TimeGrid
from .kernels import KernelBank, ScalingSchedule, kernel_class
from .model import ModelCoefficients, make_map
from .ratefn import OptimizerConfig

# Options of the sections that fill no single record.
_MODEL = {"d": int}
_RUN = {"seed": int, "out": str}
_SCHEDULE = {"rule": str, "eta": tuple}
_SCHEDULE_RULES = {  # the options each rule adds
    "self_similar": {},
    "log_fbm": {},
    "custom": {"epsilon": tuple},
}

# Lower bounds of the options whose record does not check them itself; d
# shapes the coefficient maps before the record exists.
_BOUNDS = {
    ("model", "d"): ">= 1",
    ("run", "seed"): ">= 0",
    ("simulate", "n_paths"): ">= 1",
    ("simulate", "epsilon"): "> 0",
    ("verify-ldp", "n_paths"): f">= {_MIN_TAIL_PATHS}",
    ("short-time", "n_paths"): f">= {_MIN_TAIL_PATHS}",
    ("short-time", "refine"): ">= 1",
}


def _fail(section: str, option: str, message: str):
    raise ConfigurationError(
        f"config section [{section}], field '{option}': {message}"
    )


class _Parser(configparser.ConfigParser):
    """The INI parser (values read literally, no % interpolation), plus the
    sections a reader has used."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.used = set()


def _parse(cp, section: str, name: str, kind):
    """Option ``name`` as ``kind``: int, float, bool, str or tuple (a list of
    numbers); ``X | None`` reads as X."""
    kind = next((a for a in typing.get_args(kind) if a is not type(None)), kind)
    raw = cp.get(section, name)
    try:
        if kind is bool:
            return cp.getboolean(section, name)
        if kind is tuple:
            value = tuple(float(tok) for tok in raw.replace(",", " ").split())
            if not value:
                _fail(section, name, "empty list")
        else:
            value = kind(raw)
    except ValueError:
        what = {bool: "a boolean", tuple: "a list of numbers"}.get(kind, kind.__name__)
        _fail(section, name, f"cannot parse {raw!r} as {what}")
    if kind in (float, tuple) and not all(
            map(math.isfinite, value if kind is tuple else (value,))):
        _fail(section, name, f"{raw!r} is not finite")
    return value


def _read(cp, section: str, record, *, skip=(), unknown="unknown option",
          **defaults) -> dict:
    """The options ``record`` declares in ``section``, typed, by name.

    ``record`` is a dataclass, whose fields are the options, or a map
    option name -> type.  An unset option takes its default from
    ``defaults``, else the field's own; one with neither is required.  Keys
    in ``skip`` are left to the caller; any other key fails with ``unknown``,
    or is left to the caller too when ``unknown`` is None.
    """
    cp.used.add(section)
    if is_dataclass(record):
        hints = typing.get_type_hints(record)
        types = {f.name: hints[f.name] for f in fields(record)}
        defaults = {**{f.name: f.default for f in fields(record)
                       if f.default is not MISSING}, **defaults}
    else:
        types = record
    values = {name: defaults[name] for name in types if name in defaults}
    for name in cp.options(section) if cp.has_section(section) else ():
        if name in skip or (name not in types and unknown is None):
            continue
        if name not in types:
            _fail(section, name, unknown)
        value = values[name] = _parse(cp, section, name, types[name])
        if (section, name) in _BOUNDS:
            op, lo = _BOUNDS[section, name].split()
            if not (value > float(lo) if op == ">" else value >= float(lo)):
                _fail(section, name, f"must be {op} {lo}, got {value}")
    for name in types:
        if name not in values:
            _fail(section, name, "missing required value")
    return values


def _build(section: str, make, *args, **values):
    """``make(*args, **values)``, with its ConfigurationError placed in
    ``section`` (and at the field of ``values`` the message starts with)."""
    try:
        return make(*args, **values)
    except ConfigurationError as exc:
        name = str(exc).split(" ", 1)[0]
        where = f", field '{name}'" if name in values else ""
        raise ConfigurationError(f"config section [{section}]{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# per-subcommand option blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulateOptions:
    n_paths: int = 8
    epsilon: float = 1.0
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


@dataclass(frozen=True)
class ShortTimeOptions:
    n_paths: int = 10_000
    refine: int = 4


_SUBCOMMANDS = {
    "simulate": SimulateOptions,
    "rate": RateOptions,
    "terminal-rate": TerminalRateOptions,
    "verify-ldp": VerifyLdpOptions,
    "short-time": ShortTimeOptions,
}


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
    config_sha256: str  # of the text it was parsed from
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
    return _build("grid", TimeGrid, **_read(cp, "grid", TimeGrid))


def _parse_bank(cp, grid: TimeGrid) -> KernelBank:
    kernels = []
    while cp.has_section(sec := f"kernel.{len(kernels) + 1}"):
        family = _read(cp, sec, {"family": str}, unknown=None)["family"]
        cls = _build(sec, kernel_class, family)
        if cp.has_option(sec, "horizon"):
            _fail(sec, "horizon", "not an option: kernels take the grid's")
        params = _read(cp, sec, cls, skip=("family",),
                       unknown="unknown kernel parameter", horizon=grid.horizon)
        kernels.append(_build(sec, cls, **params))
    if not kernels:
        raise ConfigurationError(
            "missing config section [kernel.1]; kernels are numbered "
            "consecutively from 1"
        )
    return KernelBank(tuple(kernels))


def _parse_map(cp, section: str, shape: tuple, p: int, **head):
    """The coefficient map of ``section`` and its other options, typed by
    ``head`` (with ``family``); every other key is a map parameter."""
    head = {"family": str, **head}
    opts = _read(cp, section, head, unknown=None)
    params = [name for name in cp.options(section) if name not in head]
    arrays = {name: _parse(cp, section, name, tuple) for name in params}
    try:
        return make_map(opts["family"], shape, p, **arrays), opts
    except (ConfigurationError, TypeError) as exc:  # TypeError: a key 'shape'
        # or 'in_dim', which collides with make_map's own arguments
        raise ConfigurationError(f"config section [{section}]: {exc}") from exc


def _parse_model(cp, bank: KernelBank) -> ModelCoefficients:
    if cp.has_section("model.volatility"):
        base, opts = _parse_map(cp, "model.volatility", (1, 1), 1, rho=float)
        mu = None
        if cp.has_section("model.mu"):
            mu = _parse_map(cp, "model.mu", (1,), 1)[0]
        coeffs = _build("model.volatility", ModelCoefficients.one_factor, base,
                        rho=opts["rho"], mu=mu)
    elif cp.has_section("model"):
        d, p = _read(cp, "model", _MODEL)["d"], bank.n_factors
        for sec in ("model.mu", "model.sigma", "model.sigma_tilde"):
            if not cp.has_section(sec):
                raise ConfigurationError(f"missing config section [{sec}]")
        coeffs = ModelCoefficients(
            d=d, p=p,
            mu=_parse_map(cp, "model.mu", (d,), p)[0],
            sigma=_parse_map(cp, "model.sigma", (d, d), p)[0],
            sigma_tilde=_parse_map(cp, "model.sigma_tilde", (d, p), p)[0],
        )
    else:
        raise ConfigurationError(
            "missing config section [model] (or [model.volatility])"
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
    rule = cp.get("schedule", "rule", fallback="self_similar")
    if rule not in _SCHEDULE_RULES:
        _fail("schedule", "rule", f"unknown rule {rule!r}")
    opts = _read(cp, "schedule", {**_SCHEDULE, **_SCHEDULE_RULES[rule]}, rule=rule)
    del opts["rule"]
    first = bank.kernels[0]  # the rules derive the speed from it
    if rule == "self_similar":
        return _build("schedule", ScalingSchedule.self_similar,
                      hurst=float(first.hurst), **opts)
    if rule == "log_fbm":
        if first.family != "log_fbm":
            _fail("schedule", "rule", "log_fbm needs a log_fbm first kernel, "
                  f"[kernel.1] is {first.family}")
        return _build("schedule", ScalingSchedule.for_log_kernel,
                      hurst=float(first.hurst),
                      log_exponent=float(first.log_exponent), **opts)
    return _build("schedule", ScalingSchedule, **opts)


def _parse_subcommands(cp, grid: TimeGrid) -> dict:
    opts = {sec: rec(**_read(cp, sec, rec)) for sec, rec in _SUBCOMMANDS.items()}
    rate = opts["rate"]
    if rate.z is not None and rate.target_file is not None:
        _fail("rate", "z", "give either 'z' or 'target_file', not both")
    if rate.m is not None:
        _build("rate", grid.require_divisible, rate.m)
    if rate.functional not in ("i_z", "i_z_m", "i_uncorrelated"):
        _fail("rate", "functional", f"unknown functional {rate.functional!r}")
    if rate.functional == "i_z_m" and rate.m is None:
        _fail("rate", "m", "required when functional = i_z_m")
    ldp = opts["verify-ldp"]
    if ldp.estimator not in ("tilted", "crude"):
        _fail("verify-ldp", "estimator", f"unknown estimator {ldp.estimator!r}")
    eps = ldp.epsilons  # the slope fit's demands, checked before any draw
    if len(eps) < 3 or min(eps) <= 0.0 or len(set(eps)) == 1:
        _fail("verify-ldp", "epsilons", "the slope fit needs at least 3 "
              f"levels, all > 0 and not all equal, got {list(eps)}")
    return opts


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat INI experiment description."""
    cp = _Parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    if cp.defaults():  # its keys would reach every section
        raise ConfigurationError("config section [DEFAULT]: unknown section")
    grid = _parse_grid(cp)
    bank = _parse_bank(cp, grid)
    coeffs = _parse_model(cp, bank)
    schedule = _parse_schedule(cp, bank)
    optimizer = _build("optimizer", OptimizerConfig,
                       **_read(cp, "optimizer", OptimizerConfig))
    if not cp.has_section("run"):
        raise ConfigurationError(
            "missing config section [run]; seeds must be explicit"
        )
    run = _read(cp, "run", _RUN, out="out")
    opts = _parse_subcommands(cp, grid)
    for section in cp.sections():
        if section not in cp.used:
            raise ConfigurationError(f"config section [{section}]: unknown section")
    return ExperimentConfig(
        grid=grid, bank=bank, coeffs=coeffs, schedule=schedule,
        optimizer=optimizer, seed=run["seed"], out_dir=run["out"],
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        simulate=opts["simulate"], rate=opts["rate"],
        terminal=opts["terminal-rate"], verify_ldp=opts["verify-ldp"],
        short_time=opts["short-time"],
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file; an unreadable one is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
