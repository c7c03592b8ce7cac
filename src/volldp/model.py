"""Multifactor stochastic volatility model and its small-noise simulation.

The log-price Z solves, on [0, T],

    dZ_i = ( mu_i(Y) - eps^2/2 [sum_j sigma_ij(Y)^2 + sum_l sigmat_il(Y)^2] ) dt
           + eps sum_l sigmat_il(Y) dB_l + eps sum_j sigma_ij(Y) dW_j,

driven by the volatility argument Y(t) = eps * Bhat(t), with W independent
of the Brownian driver B of the Volterra convolution Bhat.  Coefficients
mu, sigma, sigmat are maps R^p -> R^d, R^{d x d}, R^{d x p} drawn from a
small set of parametric families that expose analytic Jacobians (the rate
functional optimizer differentiates through them).  The maps are the one
description of the dynamics: the uncorrelated model is sigmat = 0 (a
constant zero map), and a driftless one is mu = 0.

Simulation uses the left-endpoint Euler scheme in Ito convention; the
per-step conditional law of the increment given the volatility path is then
exactly Gaussian, and exp(Z) is a martingale for mu = 0 already at the
discrete level.  ``euler_paths_array`` runs that one scheme under a
``Scaling``: ``Scaling.small_noise(eps)`` is the equation above, and
``Scaling.short_time(delta)`` is the time change of the short horizon
delta * T to the unit one.  It returns one array per quantity, an
``EulerPaths`` record of the paths and of the drivers that produced them.
A path depends only on (seed, path index, shift), since its drivers do
(see ``gaussian``), and its stored dB and V replay its Bhat bit for bit,
for a tilted draw too: the Brownian shift enters dB before V and Bhat
are formed.  A draw holds its unit-sized arrays (the drivers, dW and the
values) in a ``gaussian.Workspace`` plus one row slice: the coefficient
step (the maps, the Ito sum, the noise and the cumulative sum) runs on
slices of at most ``gaussian._SLICE_BYTES`` = 256 KiB per array, so a
block allocates nothing of its own size.  A grid whose unit-sized arrays
would exceed ``_UNIT_BUDGET`` = 1 GiB per worker is rejected before any
draw.

``validate_coefficients`` probes the maps for the standing assumptions:
a non-singular diffusion matrix and the code's own polynomial growth
bound with constants M1, M2, alpha.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError, DomainError, NonFinitePathError, SingularDiffusionError,
)
from .gaussian import _UNIT_PATHS, Workspace, draw_driver_arrays, slice_rows
from .grids import TimeGrid
from .kernels import KernelBank

_DET_TOL = 1e-12
# the probe set of ``validate_coefficients``: a lattice of this many points
# per axis, plus uniform points from one fixed seed
_PROBE_COUNT = 7
_PROBE_EXTRA = 64
_PROBE_SEED = 0
# the most bytes one worker's unit-sized arrays may take (``_unit_bytes``)
_UNIT_BUDGET = 1 << 30


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------


def _tensor_apply(tensor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Contract the trailing axis of ``tensor`` with the trailing axis of y.

    One matrix product (n, p) x (p, M) over the flattened leading axes; the
    same product ``np.tensordot`` forms, without its axis bookkeeping.
    ``np.dot`` rather than ``@``, which costs several times more on the
    (n, 1) x (1, 1) shapes of a one-factor Euler step.
    """
    p = tensor.shape[-1]
    out = np.dot(y.reshape(-1, p), tensor.reshape(-1, p).T)
    return out.reshape(y.shape[:-1] + tensor.shape[:-1])


@dataclass(frozen=True)
class ConstantMap:
    """y -> V for a fixed tensor V."""

    value: np.ndarray
    in_dim: int

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))

    @property
    def shape(self):
        return self.value.shape

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(self.value, y.shape[:-1] + self.shape).copy()

    def jacobian(self, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape[:-1] + self.shape + (self.in_dim,))

    def scaled(self, c: float):
        return ConstantMap(self.value * c, self.in_dim)


@dataclass(frozen=True)
class AffineMap:
    """y -> V0 + V1 . y with V1 of shape V0.shape + (p,)."""

    const: np.ndarray
    slope: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "const", np.asarray(self.const, dtype=float))
        object.__setattr__(self, "slope", np.asarray(self.slope, dtype=float))
        if self.slope.shape[:-1] != self.const.shape:
            raise ConfigurationError(
                f"affine slope shape {self.slope.shape} does not extend "
                f"constant shape {self.const.shape}"
            )

    @property
    def shape(self):
        return self.const.shape

    def __call__(self, y):
        return self.const + _tensor_apply(self.slope, np.asarray(y, dtype=float))

    def jacobian(self, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(
            self.slope, y.shape[:-1] + self.slope.shape
        ).copy()

    def scaled(self, c: float):
        return AffineMap(self.const * c, self.slope * c)


@dataclass(frozen=True)
class ExpLinearMap:
    """Entrywise y -> amplitude * exp(weights . y)."""

    amplitude: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitude", np.asarray(self.amplitude, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.shape[:-1] != self.amplitude.shape:
            raise ConfigurationError(
                f"exp_linear weights shape {self.weights.shape} does not extend "
                f"amplitude shape {self.amplitude.shape}"
            )

    @property
    def shape(self):
        return self.amplitude.shape

    def __call__(self, y):
        expo = _tensor_apply(self.weights, np.asarray(y, dtype=float))
        return self.amplitude * np.exp(expo)

    def jacobian(self, y):
        return self(y)[..., None] * self.weights

    def scaled(self, c: float):
        return ExpLinearMap(self.amplitude * c, self.weights)


def make_map(family: str, shape: tuple, in_dim: int, **params):
    """Build a coefficient map from flat parameter arrays (config plumbing).

    The one place that knows each family's parameter names: a missing or
    unknown name, or an array that does not reshape to its shape, raises
    ``ConfigurationError``.
    """
    full = shape + (in_dim,)
    families = {
        "constant": (lambda v: ConstantMap(v, in_dim), {"values": shape}),
        "affine": (AffineMap, {"constant": shape, "linear": full}),
        "exp_linear": (ExpLinearMap, {"amplitude": shape, "weights": full}),
    }
    if family not in families:
        raise ConfigurationError(
            f"unknown coefficient family {family!r}; choose from {sorted(families)}"
        )
    build, layout = families[family]
    odd = sorted(set(params) ^ set(layout))
    if odd:
        state = "unknown" if odd[0] in params else "missing"
        raise ConfigurationError(
            f"{state} parameter {odd[0]!r} of coefficient family {family!r}; "
            f"it takes {sorted(layout)}"
        )
    arrays = []
    for name, target in layout.items():
        try:
            arrays.append(np.asarray(params[name], dtype=float).reshape(target))
        except ValueError as exc:
            raise ConfigurationError(
                f"coefficient parameter {name!r} must reshape to {target}: {exc}"
            ) from exc
    return build(*arrays)


# ---------------------------------------------------------------------------
# model coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficient triple (mu, sigma, sigma_tilde) on R^p for d assets.

    The maps are the whole model; the growth bound of the LDP is a
    hypothesis about them, checked by ``validate_coefficients``.
    """

    d: int
    p: int
    mu: object
    sigma: object
    sigma_tilde: object

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ConfigurationError("d and p must be >= 1")
        probe = np.zeros(self.p)
        for name, m, shape in (
            ("mu", self.mu, (self.d,)),
            ("sigma", self.sigma, (self.d, self.d)),
            ("sigma_tilde", self.sigma_tilde, (self.d, self.p)),
        ):
            got = np.asarray(m(probe)).shape
            if got != shape:
                raise ConfigurationError(
                    f"{name} maps to shape {got}, expected {shape}"
                )

    def a(self, y):
        """Diffusion matrix a(y) = sigma(y) sigma(y)^T (batched over y)."""
        s = self.sigma(y)
        return s @ np.swapaxes(s, -1, -2)

    @classmethod
    def one_factor(cls, base, rho: float, mu=None):
        """Correlated one-asset template sigma_tilde = rho s, sigma = sqrt(1-rho^2) s.

        ``base`` is a scalar-shaped map (1, 1) -> vol level s(y); requires
        d = p = 1 and |rho| < 1.
        """
        if not (-1.0 < rho < 1.0):
            raise ConfigurationError(f"rho must lie in (-1, 1), got {rho}")
        if base.shape != (1, 1):
            raise ConfigurationError("one_factor base map must have shape (1, 1)")
        mu = mu if mu is not None else ConstantMap(np.zeros(1), 1)
        return cls(
            d=1,
            p=1,
            mu=mu,
            sigma=base.scaled(np.sqrt(1.0 - rho * rho)),
            sigma_tilde=base.scaled(rho),
        )


# ---------------------------------------------------------------------------
# singularity of the diffusion matrix
# ---------------------------------------------------------------------------


def _singularity_margin(a):
    """|det a| / (tr a / d)^d - 1e-12 for each matrix of ``a`` (..., d, d).

    The package's one singularity rule: a matrix is singular where this is
    negative.  For d >= 2 the ratio is scale-invariant (1 for a multiple of
    the identity), so a well-conditioned matrix passes at any scale.  For
    d = 1 the ratio is always 1 and carries no information, so the margin
    is the absolute |a| - 1e-12.  A zero trace or a non-finite value gives
    a non-finite ratio and the margin -inf.  Returns the margins, flattened,
    and the determinants.
    """
    a = np.asarray(a)
    d = a.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dets = np.abs(np.linalg.det(a)).ravel()
        if d == 1:
            margin = dets - _DET_TOL
        else:
            mean_eig = np.trace(a, axis1=-2, axis2=-1).ravel() / d
            margin = dets / np.abs(mean_eig) ** d - _DET_TOL
    return np.where(np.isfinite(margin), margin, -np.inf), dets


def _require_nonsingular(a, what: str) -> None:
    """Raise ``SingularDiffusionError`` if a matrix of ``a`` (..., d, d) is singular.

    Singular means a negative ``_singularity_margin``.
    """
    margin, dets = _singularity_margin(a)
    worst = int(np.argmin(margin))
    if margin[worst] < 0.0:
        at = f" at node {worst}" if np.ndim(a) > 2 else ""
        raise SingularDiffusionError(
            f"{what} singular{at}: |det| = {dets[worst]:.3e}, singularity "
            f"margin {margin[worst]:.3e} < 0"
        )


def _require_finite(terminal) -> None:
    """Raise ``NonFinitePathError`` if a row of ``terminal`` (n, d), the
    terminal values of paths 0, ..., n - 1 of a run, is not finite.

    The package's one non-finite rule for sampled path sets: a non-finite
    path would end as a miss, an exceedance or a CSV row, biasing what is
    computed from it.  The message names the count and the first such path.
    """
    bad = np.flatnonzero(~np.all(np.isfinite(terminal), axis=1))
    if bad.size:
        raise NonFinitePathError(
            f"{bad.size} of {len(terminal)} simulated paths have a non-finite "
            "terminal value (the Euler scheme overflowed); the first is path "
            f"{bad[0]}"
        )


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeLattice:
    """Probe set for coefficient validation on the box [low, high]^p: a
    lattice plus uniform extras."""

    low: float = -3.0
    high: float = 3.0

    def points(self, p: int) -> np.ndarray:
        axes = [np.linspace(self.low, self.high, _PROBE_COUNT)] * p
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        rng = np.random.default_rng(_PROBE_SEED)
        extra = rng.uniform(self.low, self.high, size=(_PROBE_EXTRA, p))
        return np.vstack([mesh, extra])


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_point: np.ndarray
    margin: float
    detail: str


@dataclass
class ValidationReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
        return "\n".join(lines)


def validate_coefficients(
    coeffs: ModelCoefficients,
    probe: ProbeLattice = ProbeLattice(),
    growth_m1: float = 10.0,
    growth_m2: float = 10.0,
    growth_alpha: float = 1.0,
) -> ValidationReport:
    """Probe-based check of the standing model assumptions.

    Checks, on the probe set: non-degeneracy (``_singularity_margin``) and
    the entrywise polynomial growth bound
    |sigmat_il(y)| + |sigma_ij(y)| + |mu_i(y)| <= M1 + M2 |y|^alpha with
    M1 = ``growth_m1``, M2 = ``growth_m2`` and alpha = ``growth_alpha`` > 0
    (else ``ConfigurationError``).  The growth bound implies
    lambda_max(sigma sigma^T) <= d^2 (M1 + M2 |y|^alpha)^2 at the same
    points, so the spectrum needs no check of its own.
    """
    if not (0.0 < growth_alpha):
        raise ConfigurationError("growth_alpha must be positive")
    pts = probe.points(coeffs.p)
    checks = []

    a = coeffs.a(pts)
    margin, dets = _singularity_margin(a)
    idx = int(np.argmin(margin))
    checks.append(
        AssumptionCheck(
            name="nondegenerate_diffusion",
            passed=bool(margin[idx] >= 0.0),
            worst_point=pts[idx],
            margin=float(margin[idx]),
            detail=(
                f"min singularity margin {margin[idx]:.3e} "
                f"(|det a| = {dets[idx]:.3e}) at y = {pts[idx]}"
            ),
        )
    )

    mu = np.abs(coeffs.mu(pts))                      # (n, d)
    sig = np.abs(coeffs.sigma(pts))                  # (n, d, d)
    sigt = np.abs(coeffs.sigma_tilde(pts))           # (n, d, p)
    # entrywise triple sum |sigmat_il| + |sigma_ij| + |mu_i| over all (i, j, l)
    triple = (
        sigt[:, :, None, :] + sig[:, :, :, None] + mu[:, :, None, None]
    ).reshape(len(pts), -1)
    bound = growth_m1 + growth_m2 * np.linalg.norm(pts, axis=1) ** growth_alpha
    slack = bound - triple.max(axis=1)
    idx = int(np.argmin(slack))
    checks.append(
        AssumptionCheck(
            name="polynomial_growth",
            passed=bool(slack[idx] >= 0.0),
            worst_point=pts[idx],
            margin=float(slack[idx]),
            detail=(
                f"min slack of M1 + M2|y|^alpha over triples = {slack[idx]:.3e} "
                f"at y = {pts[idx]}"
            ),
        )
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaling:
    """Noise scaling of the Euler scheme.

    A step reads (mu - noise_var / 2 * ito) dt + sqrt(noise_var) * noise,
    with the coefficients evaluated at vol_arg * Bhat.  The two
    constructors are the two regimes of the asymptotics: small noise eps,
    and the time change of the short horizon delta * T to the unit one.
    """

    noise_var: float
    vol_arg: float

    @classmethod
    def small_noise(cls, eps: float) -> "Scaling":
        """Ito correction eps^2, noise eps, volatility argument eps * Bhat."""
        if not eps > 0.0:
            raise DomainError(f"epsilon must be positive, got {eps}")
        return cls(eps**2, eps)

    @classmethod
    def short_time(cls, delta: float) -> "Scaling":
        """Driftless time change: Ito correction delta, noise sqrt(delta).

        ``short_time(1.0)`` runs the original dynamics unscaled (the direct
        short-time route on the short horizon).
        """
        return cls(delta, 1.0)


class EulerPaths(NamedTuple):
    """A path set and the driver realization that produced it.

    values (n, N + 1, d); increments dB and singular V (n, N, p); dw (n, N,
    d); volterra Bhat (n, N + 1, p).
    """

    values: np.ndarray
    increments: np.ndarray
    dw: np.ndarray
    singular: np.ndarray
    volterra: np.ndarray

    @property
    def brownian(self) -> np.ndarray:
        """B at every node, (n, N + 1, p), starting at 0."""
        out = np.zeros_like(self.volterra)
        out[:, 1:, :] = np.cumsum(self.increments, axis=1)
        return out


def _unit_bytes(n: int, d: int, p: int) -> int:
    """Bytes of the unit-sized ``Workspace`` arrays of one worker's Euler
    blocks of N = ``n`` steps, d assets and p factors.

    Per path: the normals, N (2 p + d); dB, V and the two frames of a
    partial unit, N p each; Bhat, (N + 1) p; the convolution product,
    N + 1; dW, N d; and the Euler values, (N + 1) d.  The coefficient step's
    slice arrays (``gaussian.slice_rows``) come on top.
    """
    row = n * (2 * p + d) + 4 * n * p + (n + 1) * (p + 1) + n * d + (n + 1) * d
    return 8 * _UNIT_PATHS * row


def euler_paths_array(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    scaling: Scaling,
    n_paths: int,
    seed: int,
    first_path: int = 0,
    brownian_shift=None,
    wiener_shift=None,
    work=None,
) -> EulerPaths:
    """Vectorized Euler scheme for paths [first_path, first_path + n_paths).

    ``brownian_shift`` / ``wiener_shift`` add a deterministic per-step
    drift (N, p) / (N, d) to the increments before the scheme runs -- the
    exponential-tilting hook.  The drivers are those of
    ``gaussian.draw_driver_arrays`` for the same paths and Brownian shift,
    so ``gaussian.replay_volterra`` rebuilds their Bhat bit for bit.
    The arrays are taken from the ``gaussian.Workspace`` ``work``, so the
    next call with it overwrites them; without one they are new.  The
    coefficient step runs on row slices (``gaussian.slice_rows``) into
    slice-sized arrays of ``work``.  Either way every value is the same to
    the bit.  Before anything is drawn, ``ConfigurationError`` rejects a
    grid whose unit-sized arrays (``_unit_bytes``) exceed ``_UNIT_BUDGET``
    = 1 GiB.
    """
    if bank.n_factors != coeffs.p:
        raise ConfigurationError(
            f"kernel bank has {bank.n_factors} factors, coefficients expect {coeffs.p}"
        )
    n, d, p = grid.n_steps, coeffs.d, coeffs.p
    need = _unit_bytes(n, d, p)
    if need > _UNIT_BUDGET:
        raise ConfigurationError(
            f"Euler blocks at N = {n}, d = {d}, p = {p} need {need:,} bytes of "
            f"unit-sized arrays per worker, more than the budget of "
            f"{_UNIT_BUDGET:,} bytes; use fewer steps"
        )
    dt = grid.dt
    work = Workspace() if work is None else work

    increments, singular, volterra, extras = draw_driver_arrays(
        bank, grid, n_paths, seed, first_path=first_path, extra_draws=n * d,
        brownian_shift=brownian_shift, work=work,
    )
    dw = np.multiply(extras.reshape(n_paths, n, d), np.sqrt(dt),
                     out=work.take("dw", (n_paths, n, d)))
    if wiener_shift is not None:
        dw += wiener_shift

    # the coefficient step reads and writes whole rows, so it runs on row
    # slices, and its temporaries are slice-sized
    values = work.take("values", (n_paths, n + 1, d))
    values[:, 0, :] = 0.0
    step = slice_rows(n_paths, n * max(d * d, d * p, p))
    for lo in range(0, n_paths, step):
        rows = slice(lo, min(lo + step, n_paths))
        m = rows.stop - lo
        y = np.multiply(scaling.vol_arg, volterra[rows, :-1, :],
                        out=work.take("slice_y", (m, n, p)))
        sig = coeffs.sigma(y)                        # (m, N, d, d)
        mu = coeffs.mu(y)                            # (m, N, d)
        sigt = coeffs.sigma_tilde(y)                 # (m, N, d, p)
        # steps = (mu - noise_var / 2 * ito) dt + sqrt(noise_var) noise,
        # each operation in place in the order of that formula; the two
        # squares share one array, and the Ito part's array holds the
        # second noise term once it is added
        square = np.square(sig, out=work.take("slice_square", sig.shape))
        steps = np.sum(square, axis=-1, out=work.take("slice_steps", (m, n, d)))
        square = np.square(sigt, out=work.take("slice_square", sigt.shape))
        part = np.sum(square, axis=-1, out=work.take("slice_part", (m, n, d)))
        steps += part                                # ito
        noise = np.einsum("knij,knj->kni", sig, dw[rows],
                          out=work.take("slice_noise", (m, n, d)))
        noise += np.einsum("knil,knl->kni", sigt, increments[rows], out=part)
        steps *= 0.5 * scaling.noise_var
        np.subtract(mu, steps, out=steps)
        steps *= dt
        noise *= np.sqrt(scaling.noise_var)
        steps += noise
        np.cumsum(steps, axis=1, out=values[rows, 1:, :])
    return EulerPaths(values, increments, dw, singular, volterra)
