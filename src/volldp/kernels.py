"""Volterra kernels of convolution type and their scaling limits.

A kernel K(t, s) here is a deterministic function on [0, T]^2 with
K(t, s) = 0 whenever s >= t and with square-integrable slices
s -> K(t, s).  The Gaussian driver of the volatility is the Wiener
integral Bhat(t) = int_0^t K(t, s) dB(s); everything downstream (path
sampling, rate functionals, short-time rescaling) consumes kernels through
the small interface implemented in this module:

* pointwise evaluation with exact zero above the diagonal,
* chunked evaluation on the lower triangle of a grid
  (``eval_lower_triangle``), the one grid evaluator behind discretization
  and kernel tables,
* slice products  int_lo^s K(t, u) K(s, u) du  by singularity-splitting
  quadrature (``slice_products``), the one rule behind the slice norm, the
  covariance of the Gaussian driver and the L^2 modulus of continuity in
  the first argument,
* parabolic rescaling  K^eta(t, s) = sqrt(eta) K(eta t, eta s),
* the distance of a rescaled kernel to a candidate limit kernel.

The Molchan-Golosov kernel is evaluated in closed form through the Gauss
hypergeometric function; the fractional Ornstein-Uhlenbeck kernel by a
fixed-order memory integral over it.

All quadratures split off the cell adjacent to the diagonal and integrate
it against the local power law A (t - s)^(H - 1/2), with A calibrated so the
power law matches the kernel at the cell edge (``edge_coefficient``) and
its cell integrals from ``cell_moments``.  For plain power-law kernels the
adjacent cell is therefore exact; for the log-corrected family the slowly
varying factor is frozen at the cell edge.
Kernels that are also singular at the origin, K(t, s) ~ A0 s^kappa0 as
s -> 0 (``origin_exponent``; the Molchan-Golosov and fractional OU
families), have their first cell [0, h] integrated against that power law
with A0 calibrated at the cell midpoint (``origin_cell_weight``); for
kappa0 = 0 this is the plain midpoint rule.  ``slice_products`` is the one
place this rule is written.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import beta as _beta
from scipy.special import hyp2f1

from .errors import ConfigurationError, DomainError
from .grids import TimeGrid

_GL32 = np.polynomial.legendre.leggauss(32)

# Largest number of (t, s) points handed to one ``eval`` call by the grid
# evaluator; bounds the transient memory of a kernel's own evaluation.
_EVAL_CHUNK = 16384


def _as_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class VolterraKernel:
    """Common state and behaviour of every kernel family.

    Parameters
    ----------
    hurst : float
        Roughness index H in (0, 1).  The local singularity of the kernel at
        the diagonal is (t - s)^(H - 1/2).
    scale : float
        Multiplicative constant C > 0.
    horizon : float
        Largest admissible time argument T > 0.
    """

    hurst: float
    scale: float
    horizon: float

    family = "abstract"

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ConfigurationError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not (self.scale > 0.0):
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not (self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    # -- evaluation ---------------------------------------------------------

    @property
    def singular_exponent(self) -> float:
        """Exponent kappa of the diagonal power law (t - s)^kappa."""
        return self.hurst - 0.5

    @property
    def origin_exponent(self) -> float:
        """Exponent kappa0 of the power law K(t, s) ~ A0 s^kappa0 as s -> 0.

        0 for kernels that stay bounded at the origin.
        """
        return 0.0

    def eval(self, t, s):
        """Evaluate K(t, s) with broadcasting; exactly 0 for s >= t."""
        t = _as_array(t)
        s = _as_array(s)
        if np.any(t < -1e-15) or np.any(s < -1e-15):
            raise DomainError("kernel arguments must be nonnegative")
        if np.any(t > self.horizon * (1 + 1e-12)):
            raise DomainError(
                f"time argument exceeds kernel horizon {self.horizon}"
            )
        t, s = np.broadcast_arrays(t, s)
        out = np.zeros(t.shape, dtype=float)
        mask = s < t
        if np.any(mask):
            out[mask] = self._raw(t[mask], s[mask])
        if out.ndim == 0:
            return float(out)
        return out

    def _raw(self, t, s):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class RiemannLiouvilleKernel(VolterraKernel):
    """Power-law kernel K(t, s) = C (t - s)^(H - 1/2)."""

    family = "riemann_liouville"

    def _raw(self, t, s):
        return self.scale * (t - s) ** (self.hurst - 0.5)


@dataclass(frozen=True)
class LogFbmKernel(VolterraKernel):
    """Log-corrected power law K(t, s) = C (t - s)^(H - 1/2) (-log(t - s))^(-a).

    Requires t - s < 1 so the log factor stays positive; the horizon is
    therefore capped at 0.9.  The roughness index is restricted to
    H in (0, 1/2] (for H = 1/2 the kernel is purely slowly varying and the
    local power-law exponent degenerates to zero).
    """

    log_exponent: float = 2.0

    family = "log_fbm"

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.hurst <= 0.5):
            raise ConfigurationError(
                f"log_fbm requires hurst in (0, 1/2], got {self.hurst}"
            )
        if self.log_exponent <= 1.0:
            raise ConfigurationError(
                f"log_exponent must exceed 1, got {self.log_exponent}"
            )
        if self.horizon > 0.9:
            raise ConfigurationError(
                f"log_fbm horizon must not exceed 0.9, got {self.horizon}"
            )

    def _raw(self, t, s):
        gap = t - s
        return (
            self.scale
            * gap ** (self.hurst - 0.5)
            * (-np.log(gap)) ** (-self.log_exponent)
        )


@dataclass(frozen=True)
class MolchanGolosovKernel(VolterraKernel):
    """Finite-interval fractional Brownian motion kernel (Molchan-Golosov form).

    Defined for H > 1/2 by
        K(t, s) = c_H s^(1/2 - H) int_s^t (u - s)^(H - 3/2) u^(H - 1/2) du
    and for H < 1/2 by
        K(t, s) = c_H [ (t/s)^(H - 1/2) (t - s)^(H - 1/2)
                        - (H - 1/2) s^(1/2 - H)
                          int_s^t u^(H - 3/2) (u - s)^(H - 1/2) du ],
    with K = 1 for H = 1/2.  Both cases are evaluated in the closed form
    (Decreusefond and Ustunel, Potential Analysis 10, 1999)
        K(t, s) = C (t - s)^(H - 1/2) 2F1(H - 1/2, 1/2 - H; H + 1/2; 1 - t/s)
    with C = c_H for H < 1/2 and C = c_H / (H - 1/2) for H > 1/2.  Besides
    the diagonal singularity the kernel blows up like s^(-|H - 1/2|) as
    s -> 0 on either side of 1/2 (``origin_exponent``); the value at s = 0
    itself is clamped to 0.
    """

    family = "molchan_golosov"

    @property
    def origin_exponent(self) -> float:
        return -abs(self.hurst - 0.5)

    def _c_h(self) -> float:
        h = self.hurst
        if h > 0.5:
            return np.sqrt(h * (2 * h - 1) / _beta(2 - 2 * h, h - 0.5))
        return np.sqrt(2 * h / ((1 - 2 * h) * _beta(1 - 2 * h, h + 0.5)))

    def _raw(self, t, s):
        h = self.hurst
        if abs(h - 0.5) < 1e-14:
            return self.scale * np.ones_like(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._raw_nonbrownian(t, s)

    def _raw_nonbrownian(self, t, s):
        h = self.hurst
        c = self._c_h() if h < 0.5 else self._c_h() / (h - 0.5)
        pos = s > 0.0
        tp, sp = t[pos], s[pos]
        res = np.zeros_like(t)
        res[pos] = (
            c * (tp - sp) ** (h - 0.5)
            * hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1.0 - tp / sp)
        )
        # s = 0: the kernel has an integrable s^(-|H - 1/2|) blow-up there;
        # the quadratures never evaluate it at s = 0 (the origin cell is
        # calibrated at its midpoint), so clamp to 0 rather than return inf.
        return self.scale * res


@dataclass(frozen=True)
class FractionalOUKernel(VolterraKernel):
    """Kernel of a fractional Ornstein-Uhlenbeck driver.

    K(t, s) = K_H(t, s) - a int_s^t e^(-a (t - u)) K_H(u, s) du with K_H the
    Molchan-Golosov fractional Brownian kernel (closed form) and a > 0 the
    mean-reversion speed.  The memory integral substitutes
    u = s + (t - s) v^(1/(H + 1/2)), whose Jacobian cancels the
    (u - s)^(H - 1/2) endpoint singularity of K_H, and then applies a fixed
    32-node Gauss-Legendre rule in v, so each point costs 32 closed-form
    evaluations of K_H.  The kernel inherits the s^(-|H - 1/2|) blow-up of
    K_H at the origin (``origin_exponent``) and its clamp K(t, 0) = 0.
    """

    mean_reversion: float = 1.0

    family = "fractional_ou"

    def __post_init__(self):
        super().__post_init__()
        if not (self.mean_reversion > 0.0):
            raise ConfigurationError(
                f"mean_reversion must be positive, got {self.mean_reversion}"
            )

    @property
    def origin_exponent(self) -> float:
        return -abs(self.hurst - 0.5)

    def _base(self) -> MolchanGolosovKernel:
        return MolchanGolosovKernel(
            hurst=self.hurst, scale=1.0, horizon=self.horizon
        )

    def _raw(self, t, s):
        # Substitute u = s + (t - s) v^(1/(H + 1/2)): the Jacobian cancels
        # the (u - s)^(H - 1/2) endpoint singularity of the base kernel, so
        # the fixed Gauss-Legendre rule sees a regular integrand.
        a = self.mean_reversion
        h = self.hurst
        base = self._base()
        xg, wg = _GL32
        beta = 1.0 / (h + 0.5)
        v = 0.5 * (xg + 1.0)
        gap = (t - s)[..., None]
        u = s[..., None] + gap * v**beta
        ku = base._raw(
            np.broadcast_to(u, u.shape).reshape(-1),
            np.broadcast_to(s[..., None], u.shape).reshape(-1),
        ).reshape(u.shape)
        du = np.where(u > s[..., None], u - s[..., None], 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # nodes where u - s underflows to zero contribute O(ulp) and are
            # dropped rather than left as inf
            regular = np.where(
                u > s[..., None], ku * du ** (0.5 - h), 0.0
            )
        mem = (
            np.where(gap[..., 0] > 0.0, gap[..., 0], 0.0) ** (h + 0.5)
            * beta
            * 0.5
            * np.sum(wg * np.exp(-a * (t[..., None] - u)) * regular, axis=-1)
        )
        return self.scale * (base._raw(t, s) - a * mem)


@dataclass(frozen=True)
class RescaledKernel(VolterraKernel):
    """Parabolic rescaling K^eta(t, s) = sqrt(eta) K(eta t, eta s)."""

    base: VolterraKernel = None
    eta: float = 1.0

    family = "rescaled"

    def __post_init__(self):
        if self.base is None:
            raise ConfigurationError("rescaled kernel requires a base kernel")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigurationError(f"eta must lie in (0, 1], got {self.eta}")
        super().__post_init__()

    @property
    def origin_exponent(self) -> float:
        return self.base.origin_exponent

    def _raw(self, t, s):
        return np.sqrt(self.eta) * self.base.eval(self.eta * t, self.eta * s)


_FAMILIES = {
    "riemann_liouville": RiemannLiouvilleKernel,
    "log_fbm": LogFbmKernel,
    "molchan_golosov": MolchanGolosovKernel,
    "fractional_ou": FractionalOUKernel,
}


def make_kernel(family: str, **params) -> VolterraKernel:
    """Construct a kernel by family name (see ``_FAMILIES`` for the names)."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel family {family!r}; choose from "
            f"{sorted(_FAMILIES)}"
        ) from None
    return cls(**params)


@dataclass(frozen=True)
class KernelBank:
    """One kernel per volatility factor, sharing a common horizon."""

    kernels: tuple

    def __post_init__(self):
        if len(self.kernels) == 0:
            raise ConfigurationError("kernel bank must hold at least one kernel")
        horizons = {k.horizon for k in self.kernels}
        if len(horizons) > 1:
            raise ConfigurationError(
                f"kernels in a bank must share a horizon, got {sorted(horizons)}"
            )

    @property
    def n_factors(self) -> int:
        return len(self.kernels)

    @property
    def horizon(self) -> float:
        return self.kernels[0].horizon

    def __iter__(self):
        return iter(self.kernels)

    def __getitem__(self, i):
        return self.kernels[i]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def eval_lower_triangle(
    kernel: VolterraKernel, nodes, offsets, lag: int = 0
) -> np.ndarray:
    """K(nodes[i], nodes[j] + offsets[q]) for every node pair j <= i - lag.

    Returns shape (P, Q): one row per pair (i, j) in the row-major order of
    ``np.tril_indices(len(nodes), -lag)`` (lag >= 0), one column per offset.
    The flattened (i, j, q) points go to ``kernel.eval`` in chunks of at
    most ``_EVAL_CHUNK`` points, so the transient memory of the evaluation
    (32 quadrature nodes per point for the fractional OU kernel) stays
    bounded whatever the grid size.
    """
    nodes = _as_array(nodes)
    offsets = np.atleast_1d(_as_array(offsets))
    n_q = offsets.size
    n_rows = max(nodes.size - lag, 0)
    # row r holds the pairs (lag + r, 0 .. r) and starts at pair r (r + 1) / 2
    rows = np.arange(n_rows)
    starts = rows * (rows + 1) // 2
    n_pairs = n_rows * (n_rows + 1) // 2
    out = np.empty((n_pairs, n_q))
    step = max(_EVAL_CHUNK // n_q, 1)
    for first in range(0, n_pairs, step):
        pairs = np.arange(first, min(first + step, n_pairs))
        r = np.searchsorted(starts, pairs, side="right") - 1
        t = np.repeat(nodes[r + lag], n_q)
        s = (nodes[pairs - starts[r], None] + offsets).reshape(-1)
        out[first : first + pairs.size] = kernel.eval(t, s).reshape(-1, n_q)
    return out


def edge_coefficient(kernel: VolterraKernel, t, lo, h: float):
    """Local power-law amplitudes A with K(t, s) ~ A (t - s)^kappa near s = t.

    Vectorized over diagonal-adjacent cells [lo, t] of width h.  A is
    calibrated by matching the kernel at the cell edge s = lo, or at the
    cell midpoint s = t - h/2 where that value is not finite or where the
    edge is the origin (lo <= 0) of a kernel singular there: the value at
    s = 0 is a clamp, not the kernel.
    """
    t, lo = _as_array(t), _as_array(lo)
    kappa = kernel.singular_exponent
    val = _as_array(kernel.eval(t, lo))
    amp = np.array(val / h**kappa)  # writable, also for scalar input
    redo = ~np.isfinite(val)
    if kernel.origin_exponent != 0.0:
        redo |= lo <= 0.0
    if np.any(redo):
        tr = t[redo]
        amp[redo] = kernel.eval(tr, tr - 0.5 * h) / (0.5 * h) ** kappa
    return amp


def cell_moments(kappa: float, h):
    """(int_0^h u^kappa du, int_0^h u^(2 kappa) du) of the power law u^kappa.

    They weigh the calibrated power law of a diagonal-adjacent cell of
    width h; in the hybrid scheme they are Cov(dB, V) and Var(V).
    """
    return (
        h ** (kappa + 1.0) / (kappa + 1.0),
        h ** (2.0 * kappa + 1.0) / (2.0 * kappa + 1.0),
    )


def origin_cell_weight(kernel: VolterraKernel) -> float:
    """Midpoint-rule factor of the first cell [0, h] of a slice product.

    Integrating K(t, s) K(t', s) over [0, h] against A0 A0' s^(2 kappa0),
    with each amplitude calibrated at the midpoint h/2, gives the midpoint
    value times h 4^kappa0 / (2 kappa0 + 1): exactly 1 for kappa0 = 0.
    """
    k0 = kernel.origin_exponent
    return 4.0**k0 / (2.0 * k0 + 1.0)


def slice_products(
    kernel: VolterraKernel, s: float, upper, n_quad: int, lo: float = 0.0
) -> np.ndarray:
    """int_lo^s K(t, u) K(s, u) du for every t in ``upper`` (upper[0] == s).

    Singularity-splitting quadrature on n_quad cells of width
    h = (s - lo) / n_quad: the midpoint rule on all cells but the last, the
    first one weighted by ``origin_cell_weight`` when lo <= 0; the cell
    [s - h, s] against the calibrated power law A (s - u)^kappa of
    ``edge_coefficient``, with K(t, .) for t > s frozen at the cell edge
    s - h.  Returns zeros when s <= lo.
    """
    upper = np.atleast_1d(_as_array(upper))
    if s <= lo:
        return np.zeros(upper.size)
    h = (s - lo) / n_quad
    mids = lo + (np.arange(n_quad - 1) + 0.5) * h
    vals_s = kernel.eval(s, mids)
    if lo <= 0.0:
        vals_s[0] *= origin_cell_weight(kernel)
    out = (kernel.eval(upper[:, None], mids[None, :]) @ vals_s) * h
    a_edge = float(edge_coefficient(kernel, s, s - h, h))
    m1, m2 = cell_moments(kernel.singular_exponent, h)
    out[0] += a_edge**2 * m2
    out[1:] += kernel.eval(upper[1:], s - h) * a_edge * m1
    return out


def kernel_l2_slice(kernel: VolterraKernel, t: float, n_quad: int = 256) -> float:
    """Slice norm int_0^t K(t, s)^2 ds, the diagonal of ``slice_products``."""
    if n_quad < 2:
        raise DomainError(f"n_quad must be >= 2, got {n_quad}")
    if t < 0 or t > kernel.horizon * (1 + 1e-12):
        raise DomainError(f"t={t} outside [0, {kernel.horizon}]")
    return float(slice_products(kernel, t, t, n_quad)[0])


def modulus_of_continuity(
    kernel: VolterraKernel,
    delta: float,
    n_probe: int = 64,
    n_quad: int = 256,
) -> float:
    """L^2 modulus  max over probe pairs of int_0^T |K(t1, s) - K(t2, s)|^2 ds.

    Probes n_probe pairs (t1, t2 = t1 + delta) spanning the horizon.  The
    integral splits at t1 and t2; the two diagonal-adjacent cells use the
    calibrated power-law rule, everything else the midpoint rule.
    """
    if delta < 0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0
    T = kernel.horizon
    if delta > T:
        raise DomainError(f"delta={delta} exceeds the horizon {T}")
    kappa = kernel.singular_exponent
    worst = 0.0
    for t1 in np.linspace(0.0, T - delta, n_probe):
        t2 = t1 + delta
        total = 0.0
        if t1 > 0.0:
            h = t1 / n_quad
            mids = (np.arange(n_quad - 1) + 0.5) * h
            diff = kernel.eval(t1, mids) - kernel.eval(t2, mids)
            total += float(np.sum(diff**2)) * h
            # cell [t1 - h, t1]: K(t1, .) by power law, K(t2, .) frozen
            a1 = float(edge_coefficient(kernel, t1, t1 - h, h))
            k2bar = float(kernel.eval(t2, t1 - 0.5 * h))
            m1, m2 = cell_moments(kappa, h)
            total += a1**2 * m2 - 2 * a1 * k2bar * m1 + k2bar**2 * h
        total += float(slice_products(kernel, t2, t2, n_quad, lo=t1)[0])
        worst = max(worst, total)
    return worst


def rescale_kernel(kernel: VolterraKernel, eta: float) -> VolterraKernel:
    """Return the rescaled kernel sqrt(eta) K(eta t, eta s).

    The rescaled kernel lives on the stretched horizon T / eta and keeps the
    roughness index of the base kernel.  eta = 1 returns the kernel itself.
    """
    if eta == 1.0:
        return kernel
    if isinstance(kernel, RescaledKernel):
        return rescale_kernel(kernel.base, kernel.eta * eta)
    return RescaledKernel(
        hurst=kernel.hurst,
        scale=kernel.scale,
        horizon=kernel.horizon / eta,
        base=kernel,
        eta=eta,
    )


def limit_kernel_error(
    kernel: VolterraKernel,
    eta: float,
    epsilon: float,
    limit: VolterraKernel,
    grid: TimeGrid,
) -> float:
    """sup over grid pairs s < t of |K^eta(t, s) / epsilon - K_limit(t, s)|.

    Measures how far the speed-normalized rescaled kernel is from its
    candidate scaling limit on the given grid.
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    scaled = rescale_kernel(kernel, eta)
    nodes = grid.nodes
    diff = (
        eval_lower_triangle(scaled, nodes, 0.0, lag=1)[:, 0] / epsilon
        - eval_lower_triangle(limit, nodes, 0.0, lag=1)[:, 0]
    )
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# scaling schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleEntry:
    """One (eta, epsilon, delta) triple of a scaling schedule."""

    eta: float
    epsilon: float
    delta: float


@dataclass(frozen=True)
class ScalingSchedule:
    """Joint schedule (eta_n, epsilon_n, delta_n) for scaling-limit runs.

    ``rule`` records how the speed epsilon_n was derived from eta_n:

    * ``"self_similar"``: epsilon_n = eta_n^H (power-law kernels),
    * ``"log_fbm"``: epsilon_n^(-2) = eta_n^(-2H) (-log eta_n)^q with
      q = ``speed_log_exponent`` (default 2 * log_exponent of the kernel),
    * ``"custom"``: epsilon supplied by the caller, no consistency check.

    delta_n is the short-time horizon sequence and defaults to eta_n.
    """

    eta: tuple
    epsilon: tuple
    delta: tuple
    speed_exponent_hurst: float
    speed_log_exponent: float = 0.0
    rule: str = "custom"

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        eps = np.asarray(self.epsilon, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if eta.size == 0:
            raise ConfigurationError("schedule must contain at least one index")
        if not (eta.size == eps.size == delta.size):
            raise ConfigurationError("eta, epsilon, delta must have equal length")
        for name, arr in (("eta", eta), ("epsilon", eps), ("delta", delta)):
            if np.any(arr <= 0.0) or np.any(arr > 1.0 + 1e-12):
                raise ConfigurationError(f"{name} entries must lie in (0, 1]")
        if eta.size > 1 and not np.all(np.diff(eta) < 0):
            raise ConfigurationError("eta must be strictly decreasing")
        if eta.size > 1 and not np.all(np.diff(eps) < 0):
            raise ConfigurationError("epsilon must be strictly decreasing")
        h = self.speed_exponent_hurst
        if self.rule == "self_similar":
            expected = eta**h
        elif self.rule == "log_fbm":
            expected = eta**h * (-np.log(eta)) ** (-0.5 * self.speed_log_exponent)
        else:
            expected = None
        if expected is not None and not np.allclose(eps, expected, rtol=1e-10):
            raise ConfigurationError(
                f"epsilon sequence inconsistent with the {self.rule} speed rule"
            )

    def __len__(self):
        return len(self.eta)

    def entry(self, i: int) -> ScaleEntry:
        return ScaleEntry(
            float(self.eta[i]), float(self.epsilon[i]), float(self.delta[i])
        )

    def __iter__(self):
        return (self.entry(i) for i in range(len(self)))

    @classmethod
    def self_similar(cls, eta, hurst: float) -> "ScalingSchedule":
        if np.isscalar(eta):
            eta = (eta,)
        eta = tuple(float(e) for e in eta)
        eps = tuple(e**hurst for e in eta)
        return cls(
            eta=eta,
            epsilon=eps,
            delta=eta,
            speed_exponent_hurst=hurst,
            rule="self_similar",
        )

    @classmethod
    def for_log_kernel(
        cls, eta, hurst: float, log_exponent: float, speed_log_exponent=None
    ) -> "ScalingSchedule":
        """Speed schedule for the log-corrected family.

        The default exponent on the slowly varying factor is
        2 * log_exponent, which makes K^eta / epsilon converge to the plain
        power-law kernel; pass ``speed_log_exponent`` to override.
        """
        q = 2.0 * log_exponent if speed_log_exponent is None else speed_log_exponent
        if np.isscalar(eta):
            eta = (eta,)
        eta = tuple(float(e) for e in eta)
        if any(e >= 1.0 for e in eta):
            raise ConfigurationError("log-fbm schedule requires eta < 1")
        eps = tuple(e**hurst * (-np.log(e)) ** (-0.5 * q) for e in eta)
        return cls(
            eta=eta,
            epsilon=eps,
            delta=eta,
            speed_exponent_hurst=hurst,
            speed_log_exponent=q,
            rule="log_fbm",
        )

