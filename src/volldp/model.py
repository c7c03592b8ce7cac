"""Multifactor stochastic volatility model and its small-noise simulation.

The log-price Z solves, on [0, T],

    dZ_i = ( mu_i(Y) - eps^2/2 [sum_j sigma_ij(Y)^2 + sum_l sigmat_il(Y)^2] ) dt
           + eps sum_l sigmat_il(Y) dB_l + eps sum_j sigma_ij(Y) dW_j,

driven by the volatility argument Y(t) = eps * Bhat(t), with W independent
of the Brownian driver B of the Volterra convolution Bhat.  The uncorrelated
variant drops the sigmat * dB term (and its Ito correction).  Coefficients
mu, sigma, sigmat are maps R^p -> R^d, R^{d x d}, R^{d x p} drawn from a
small set of parametric families that expose analytic Jacobians (the rate
functional optimizer differentiates through them).

Simulation uses the left-endpoint Euler scheme in Ito convention; the
per-step conditional law of the increment given the volatility path is then
exactly Gaussian, and exp(Z) is a martingale for mu = 0 already at the
discrete level.  ``euler_paths_array`` runs that one scheme under a
``Scaling``: ``Scaling.small_noise(eps)`` is the equation above, and
``Scaling.short_time(delta)`` is the time change of the short horizon
delta * T to the unit one.  It returns one array per quantity, an
``EulerPaths`` record of the paths and of the drivers that produced them.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, SingularDiffusionError
from .gaussian import bank_discretizations, draw_driver_arrays
from .grids import TimeGrid
from .kernels import KernelBank

_DET_TOL = 1e-12


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------


def _tensor_apply(tensor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Contract the trailing axis of ``tensor`` with the trailing axis of y."""
    return np.tensordot(y, np.moveaxis(tensor, -1, 0), axes=([-1], [0]))


@dataclass(frozen=True)
class ConstantMap:
    """y -> V for a fixed tensor V."""

    value: np.ndarray
    in_dim: int

    family = "constant"

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

    family = "affine"

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

    @property
    def in_dim(self):
        return self.slope.shape[-1]

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

    family = "exp_linear"

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

    @property
    def in_dim(self):
        return self.weights.shape[-1]

    def __call__(self, y):
        expo = _tensor_apply(self.weights, np.asarray(y, dtype=float))
        return self.amplitude * np.exp(expo)

    def jacobian(self, y):
        return self(y)[..., None] * self.weights

    def scaled(self, c: float):
        return ExpLinearMap(self.amplitude * c, self.weights)


_MAP_FAMILIES = {
    "constant": ConstantMap,
    "affine": AffineMap,
    "exp_linear": ExpLinearMap,
}


def _shaped(params: dict, key: str, shape: tuple) -> np.ndarray:
    try:
        return np.asarray(params[key], dtype=float).reshape(shape)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"coefficient parameter {key!r} must reshape to {shape}: {exc}"
        ) from exc


def make_map(family: str, shape: tuple, in_dim: int, **params):
    """Build a coefficient map from flat parameter arrays (config plumbing)."""
    if family == "constant":
        return ConstantMap(_shaped(params, "values", shape), in_dim)
    if family == "affine":
        return AffineMap(
            _shaped(params, "constant", shape),
            _shaped(params, "linear", shape + (in_dim,)),
        )
    if family == "exp_linear":
        return ExpLinearMap(
            _shaped(params, "amplitude", shape),
            _shaped(params, "weights", shape + (in_dim,)),
        )
    raise ConfigurationError(
        f"unknown coefficient family {family!r}; choose from {sorted(_MAP_FAMILIES)}"
    )


# ---------------------------------------------------------------------------
# model coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficient triple (mu, sigma, sigma_tilde) and growth metadata.

    growth_m1, growth_m2 and growth_alpha assert the entrywise bound
    |sigmat_il(y)| + |sigma_ij(y)| + |mu_i(y)| <= M1 + M2 |y|^alpha used by
    the validator and by the eigenvalue bound of the diffusion matrix.
    """

    d: int
    p: int
    mu: object
    sigma: object
    sigma_tilde: object
    growth_alpha: float = 1.0
    growth_m1: float = 10.0
    growth_m2: float = 10.0

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ConfigurationError("d and p must be >= 1")
        if not (0.0 < self.growth_alpha):
            raise ConfigurationError("growth_alpha must be positive")
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
    def one_factor(cls, base, rho: float, mu=None, **growth):
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
            **growth,
        )


# ---------------------------------------------------------------------------
# singularity of the diffusion matrix
# ---------------------------------------------------------------------------


def _require_nonsingular(a, what: str) -> None:
    """Raise ``SingularDiffusionError`` if a matrix of ``a`` (..., d, d) is singular.

    The package's one singularity rule: the determinant is not finite, or
    |det| < 1e-12.
    """
    with np.errstate(invalid="ignore"):
        dets = np.abs(np.linalg.det(a)).ravel()
    key = np.where(np.isfinite(dets), dets, -1.0)
    worst = int(np.argmin(key))
    if key[worst] < _DET_TOL:
        at = f" at node {worst}" if np.ndim(a) > 2 else ""
        raise SingularDiffusionError(
            f"{what} singular{at}: |det| = {dets[worst]:.3e} < {_DET_TOL}"
        )


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeLattice:
    """Probe set for coefficient validation: a lattice plus random extras."""

    low: float = -3.0
    high: float = 3.0
    count: int = 7
    extra_random: int = 64
    seed: int = 0

    def points(self, p: int) -> np.ndarray:
        axes = [np.linspace(self.low, self.high, self.count)] * p
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        if self.extra_random:
            rng = np.random.default_rng(self.seed)
            extra = rng.uniform(self.low, self.high, size=(self.extra_random, p))
            mesh = np.vstack([mesh, extra])
        return mesh


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
    coeffs: ModelCoefficients, probe: ProbeLattice = ProbeLattice()
) -> ValidationReport:
    """Probe-based check of the standing model assumptions.

    Checks, on the probe set: non-degeneracy |det a(y)| >= 1e-12, the
    polynomial growth bound with the declared constants, and a local-Holder
    continuity proxy for the coefficient maps (a probe-pair substitute for
    genuine modulus continuity, recorded as such in the report).
    """
    pts = probe.points(coeffs.p)
    checks = []

    a = coeffs.a(pts)
    dets = np.abs(np.linalg.det(a))
    idx = int(np.argmin(dets))
    checks.append(
        AssumptionCheck(
            name="nondegenerate_diffusion",
            passed=bool(dets[idx] >= _DET_TOL),
            worst_point=pts[idx],
            margin=float(dets[idx] - _DET_TOL),
            detail=f"min |det a| = {dets[idx]:.3e} at y = {pts[idx]}",
        )
    )

    mu = np.abs(coeffs.mu(pts))                      # (n, d)
    sig = np.abs(coeffs.sigma(pts))                  # (n, d, d)
    sigt = np.abs(coeffs.sigma_tilde(pts))           # (n, d, p)
    # entrywise triple sum |sigmat_il| + |sigma_ij| + |mu_i| over all (i, j, l)
    triple = (
        sigt[:, :, None, :] + sig[:, :, :, None] + mu[:, :, None, None]
    ).reshape(len(pts), -1)
    bound = coeffs.growth_m1 + coeffs.growth_m2 * np.linalg.norm(
        pts, axis=1
    ) ** coeffs.growth_alpha
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

    # local-Holder proxy: |c(y + h) - c(y)| <= L * |h|^(1/2) on probe pairs.
    # This substitutes a probe check for true modulus continuity of the
    # coefficients; it estimates the constant rather than certifying it.
    rng = np.random.default_rng(probe.seed + 1)
    steps = rng.normal(size=pts.shape)
    steps *= 1e-3 / np.linalg.norm(steps, axis=1, keepdims=True)
    ratios = []
    for mapper in (coeffs.mu, coeffs.sigma, coeffs.sigma_tilde):
        diff = np.asarray(mapper(pts + steps)) - np.asarray(mapper(pts))
        num = np.abs(diff).reshape(len(pts), -1).max(axis=1)
        ratios.append(num / np.sqrt(np.linalg.norm(steps, axis=1)))
    ratio = np.max(np.stack(ratios), axis=0)
    idx = int(np.argmax(ratio))
    finite = bool(np.all(np.isfinite(ratio)))
    checks.append(
        AssumptionCheck(
            name="local_continuity_proxy",
            passed=finite,
            worst_point=pts[idx],
            margin=float(-ratio[idx]),
            detail=(
                f"probe-pair Holder-1/2 constant <= {ratio[idx]:.3e} "
                "(substitute check, not a certificate)"
            ),
        )
    )

    # spectral consequence of the growth bound: lambda_max(a) <= d^2 (M1+M2|y|^a)^2
    lam = np.linalg.eigvalsh(a)[:, -1]
    spec_bound = coeffs.d**2 * bound**2
    slack = spec_bound - lam
    idx = int(np.argmin(slack))
    checks.append(
        AssumptionCheck(
            name="diffusion_eigenvalue_bound",
            passed=bool(slack[idx] >= -1e-9),
            worst_point=pts[idx],
            margin=float(slack[idx]),
            detail=f"min slack of d^2(M1 + M2|y|^alpha)^2 - lambda_max = {slack[idx]:.3e}",
        )
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaling:
    """Noise scaling of the Euler scheme.

    A step reads (drift mu - noise_var / 2 * ito) dt + sqrt(noise_var) *
    noise, with the coefficients evaluated at vol_arg * Bhat.  The two
    constructors are the two regimes of the asymptotics: small noise eps,
    and the time change of the short horizon delta * T to the unit one.
    """

    noise_var: float
    vol_arg: float
    drift: float

    @classmethod
    def small_noise(cls, eps: float) -> "Scaling":
        """Ito correction eps^2, noise eps, volatility argument eps * Bhat."""
        if not eps > 0.0:
            raise DomainError(f"epsilon must be positive, got {eps}")
        return cls(eps**2, eps, 1.0)

    @classmethod
    def short_time(cls, delta: float) -> "Scaling":
        """Driftless time change: Ito correction delta, noise sqrt(delta).

        ``short_time(1.0)`` runs the original dynamics unscaled (the direct
        short-time route on the short horizon).
        """
        return cls(delta, 1.0, 0.0)


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


def euler_paths_array(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    scaling: Scaling,
    n_paths: int,
    seed: int,
    correlated: bool = True,
    first_path: int = 0,
    brownian_shift=None,
    wiener_shift=None,
    convolve_per_path: bool = False,
) -> EulerPaths:
    """Vectorized Euler scheme for paths [first_path, first_path + n_paths).

    ``brownian_shift`` / ``wiener_shift`` add a deterministic per-step
    drift (N, p) / (N, d) to the increments before the scheme runs -- the
    exponential-tilting hook.  ``convolve_per_path`` makes the returned Bhat
    replay-exact (see ``gaussian.replay_volterra``).
    """
    if bank.n_factors != coeffs.p:
        raise ConfigurationError(
            f"kernel bank has {bank.n_factors} factors, coefficients expect {coeffs.p}"
        )
    n, d, p = grid.n_steps, coeffs.d, coeffs.p
    dt = grid.dt

    increments, singular, volterra, extras = draw_driver_arrays(
        bank, grid, n_paths, seed, first_path=first_path, extra_draws=n * d,
        per_path_convolve=convolve_per_path,
    )
    dw = extras.reshape(n_paths, n, d) * np.sqrt(dt)
    if brownian_shift is not None:
        # The V variables shift through dB only (conditionally on dB the
        # auxiliary residual is centered), and Bhat is linear in (dB, V):
        # Bhat(dB + h) = Bhat(dB) + hhat with hhat = hat_weights @ (h / dt),
        # so the shifted drivers need no second convolution.
        increments += brownian_shift
        for ell, disc in enumerate(bank_discretizations(bank, grid)):
            singular[:, :, ell] += disc.kappa_c / dt * brownian_shift[:, ell]
            volterra[:, :, ell] += disc.hat_weights @ (brownian_shift[:, ell] / dt)
    if wiener_shift is not None:
        dw += wiener_shift

    y = scaling.vol_arg * volterra[:, :-1, :]        # (n_paths, N, p)
    sig = coeffs.sigma(y)                            # (n_paths, N, d, d)
    mu = coeffs.mu(y)                                # (n_paths, N, d)
    ito = np.sum(sig**2, axis=-1)
    noise = np.einsum("knij,knj->kni", sig, dw)
    if correlated:
        sigt = coeffs.sigma_tilde(y)                 # (n_paths, N, d, p)
        ito = ito + np.sum(sigt**2, axis=-1)
        noise = noise + np.einsum("knil,knl->kni", sigt, increments)
    steps = (scaling.drift * mu - 0.5 * scaling.noise_var * ito) * dt
    steps += np.sqrt(scaling.noise_var) * noise
    values = np.zeros((n_paths, n + 1, d))
    values[:, 1:, :] = np.cumsum(steps, axis=1)
    return EulerPaths(values, increments, dw, singular, volterra)
