"""Volterra kernels of convolution type and their scaling limits.

A kernel K(t, s) here is a deterministic function on [0, T]^2 with
K(t, s) = 0 whenever s >= t and with square-integrable slices
s -> K(t, s).  The Gaussian driver of the volatility is the Wiener
integral Bhat(t) = int_0^t K(t, s) dB(s); everything downstream (path
sampling, rate functionals, short-time rescaling) consumes kernels through
the small interface implemented in this module:

* pointwise evaluation with exact zero above the diagonal,
* row-by-row evaluation on the lower triangle of a grid
  (``eval_lower_triangle``), the one grid evaluator behind discretization
  and kernel tables,
* slice products  int_0^s K(t, u) K(s, u) du  by singularity-splitting
  quadrature (``slice_products``), the one rule behind the slice norm and
  the covariance of the Gaussian driver,
* parabolic rescaling  K^eta(t, s) = sqrt(eta) K(eta t, eta s).

The distance of a rescaled kernel to a candidate limit kernel, which no
command reads, is a test reference (``tests/reference.py``).

The Molchan-Golosov kernel is evaluated in closed form through the Gauss
hypergeometric function.  The fractional Ornstein-Uhlenbeck kernel is, at a
single point, a fixed-order memory integral over it (32 closed-form
evaluations); on a grid, each column s follows the elementary row recursion
of ``FractionalOUKernel`` from one such start value, an 8-node rule per
cell with no hypergeometric function.

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

from .errors import ConfigurationError, DomainError

_GL32 = np.polynomial.legendre.leggauss(32)
_GL8 = np.polynomial.legendre.leggauss(8)


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
        self._check_domain(t, s)
        t, s = np.broadcast_arrays(t, s)
        out = np.zeros(t.shape, dtype=float)
        mask = s < t
        if np.any(mask):
            out[mask] = self._raw(t[mask], s[mask])
        if out.ndim == 0:
            return float(out)
        return out

    def _check_domain(self, t, s):
        """Raise ``DomainError`` unless every t and s is >= 0 and every t
        lies within the horizon."""
        if np.any(t < -1e-15) or np.any(s < -1e-15):
            raise DomainError("kernel arguments must be nonnegative")
        if np.any(t > self.horizon * (1 + 1e-12)):
            raise DomainError(
                f"time argument exceeds kernel horizon {self.horizon}"
            )

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

    def __post_init__(self):
        super().__post_init__()
        # scipy.special loads when the first such kernel is built (an fOU
        # kernel builds one), so a run on the other families never imports
        # it; ``_raw`` finds it loaded
        from scipy.special import beta

        # C of the closed form: c_H for H < 1/2, c_H / (H - 1/2) for
        # H > 1/2, and 1 for H = 1/2, where K = 1
        h = self.hurst
        if abs(h - 0.5) < 1e-14:
            c = 1.0
        elif h > 0.5:
            c = np.sqrt(h * (2 * h - 1) / beta(2 - 2 * h, h - 0.5)) / (h - 0.5)
        else:
            c = np.sqrt(2 * h / ((1 - 2 * h) * beta(1 - 2 * h, h + 0.5)))
        object.__setattr__(self, "_c", c)

    @property
    def origin_exponent(self) -> float:
        return -abs(self.hurst - 0.5)

    def _raw(self, t, s):
        from scipy.special import hyp2f1

        h = self.hurst
        if abs(h - 0.5) < 1e-14:
            return self.scale * np.ones_like(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pos = s > 0.0
            tp, sp = t[pos], s[pos]
            res = np.zeros_like(t)
            res[pos] = (
                self._c * (tp - sp) ** (h - 0.5)
                * hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1.0 - tp / sp)
            )
            # s = 0: the kernel has an integrable s^(-|H - 1/2|) blow-up
            # there; the quadratures never evaluate it at s = 0 (the origin
            # cell is calibrated at its midpoint), so clamp to 0 rather than
            # return inf.
            return self.scale * res


@dataclass(frozen=True)
class FractionalOUKernel(VolterraKernel):
    """Kernel of a fractional Ornstein-Uhlenbeck driver.

    K(t, s) = K_H(t, s) - a int_s^t e^(-a (t - u)) K_H(u, s) du with K_H the
    Molchan-Golosov fractional Brownian kernel (closed form) and a > 0 the
    mean-reversion speed.  At a single point the memory integral
    substitutes u = s + (t - s) v^(1/(H + 1/2)), whose Jacobian cancels the
    (u - s)^(H - 1/2) endpoint singularity of K_H, and then applies a fixed
    32-node Gauss-Legendre rule in v: 32 closed-form evaluations of K_H.

    On a grid (``eval_lower_triangle``) each column s follows instead the
    equation d/dt K(t, s) = scale d/dt K_H(t, s) - a K(t, s), whose forcing
    d/dt K_H(t, s) = kappa C (t/s)^kappa (t - s)^(kappa - 1) (kappa = H - 1/2,
    C the constant of the closed form of K_H) is elementary:

        K(t_i, s) = e^(-a (t_i - t_{i-1})) K(t_{i-1}, s)
                    + scale int_{t_{i-1}}^{t_i} e^(-a (t_i - u))
                      kappa C (u/s)^kappa (u - s)^(kappa - 1) du,

    the cell integral by an 8-node Gauss-Legendre rule.  A row takes this
    step when the previous row lies at least one cell width from s, so the
    forcing is smooth on the cell; the first row of each column, the rows
    closer to s and the column s = 0 take the pointwise rule.  The kernel
    inherits the s^(-|H - 1/2|) blow-up of K_H at the origin
    (``origin_exponent``) and its clamp K(t, 0) = 0.  Rescaling stays in the
    family: sqrt(eta) K(eta t, eta s) is the kernel with scale
    scale eta^H, horizon T / eta and mean reversion a eta.
    """

    mean_reversion: float = 1.0

    family = "fractional_ou"

    def __post_init__(self):
        super().__post_init__()
        if not (self.mean_reversion > 0.0):
            raise ConfigurationError(
                f"mean_reversion must be positive, got {self.mean_reversion}"
            )
        # K_H with unit scale, built once: its constant C serves every row
        # step and its closed form every pointwise evaluation
        object.__setattr__(self, "_base", MolchanGolosovKernel(
            hurst=self.hurst, scale=1.0, horizon=self.horizon))

    @property
    def origin_exponent(self) -> float:
        return -abs(self.hurst - 0.5)

    def _raw(self, t, s):
        # Substitute u = s + (t - s) v^(1/(H + 1/2)): the Jacobian cancels
        # the (u - s)^(H - 1/2) endpoint singularity of the base kernel, so
        # the fixed Gauss-Legendre rule sees a regular integrand.
        a = self.mean_reversion
        h = self.hurst
        base = self._base
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

    def _row_step(self, t0, t1, s, prev):
        """K(t1, s) from K(t0, s) = ``prev`` by one step of the row recursion.

        ``s`` must lie at least one cell width t1 - t0 below t0 (and above 0)
        for the 8-node rule to be accurate.
        """
        a = self.mean_reversion
        kappa = self.singular_exponent
        width = t1 - t0
        xg, wg = _GL8
        u = t0 + 0.5 * width * (xg + 1.0)
        if abs(kappa) < 1e-14:  # K_H = 1: no forcing, K = e^(-a (t - s))
            forcing = 0.0
        else:
            weights = (0.5 * width * kappa * self._base._c) * (
                wg * np.exp(-a * (t1 - u))
            )
            sc = s[:, None]
            forcing = ((u / sc) ** kappa * (u - sc) ** (kappa - 1.0)) @ weights
        return np.exp(-a * width) * prev + self.scale * forcing


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
    cls.family: cls
    for cls in (
        RiemannLiouvilleKernel,
        LogFbmKernel,
        MolchanGolosovKernel,
        FractionalOUKernel,
    )
}


def kernel_class(family: str) -> type:
    """The kernel class of a family name (see ``_FAMILIES`` for the names).

    Its dataclass fields are the family's parameters.
    """
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel family {family!r}; choose from "
            f"{sorted(_FAMILIES)}"
        ) from None


def make_kernel(family: str, **params) -> VolterraKernel:
    """Construct a kernel by family name."""
    return kernel_class(family)(**params)


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
    The domain of the whole grid is checked once, by ``eval``'s rule; then
    the grid goes row by row: row i takes the pointwise rule ``_raw`` on its
    points s = nodes[j] + offsets[q] < nodes[i], j <= i - lag, and is
    exactly 0 at s >= nodes[i], so the transient memory of the evaluation is
    one grid row.  For the fractional OU kernel the points s > 0 at least
    one cell width nodes[i] - nodes[i - 1] below the previous row (up to the
    rounding of the node spacing) take ``FractionalOUKernel._row_step`` from
    that row instead; every other point, among them the first row of each
    column, takes the pointwise rule.
    """
    nodes = _as_array(nodes)
    offsets = np.atleast_1d(_as_array(offsets))
    recursive = isinstance(kernel, FractionalOUKernel)
    n_rows = max(nodes.size - lag, 0)
    kernel._check_domain(nodes[lag:], nodes[:n_rows, None] + offsets)
    out = np.zeros((n_rows * (n_rows + 1) // 2, offsets.size))
    first = 0
    for r in range(n_rows):
        i = lag + r
        s = nodes[: r + 1, None] + offsets
        row = out[first : first + r + 1]
        step = np.zeros(s.shape, dtype=bool)
        if recursive and r > 0:
            t0, t1 = nodes[i - 1], nodes[i]
            above = s[:r]
            step[:r] = (t0 - above >= (1.0 - 1e-9) * (t1 - t0)) & (above > 0.0)
            prev = out[first - r : first]
            row[step] = kernel._row_step(t0, t1, s[step], prev[step[:r]])
        live = ~step & (s < nodes[i])
        row[live] = kernel._raw(np.full(np.count_nonzero(live), nodes[i]), s[live])
        first += r + 1
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
    kernel: VolterraKernel, s: float, upper, n_quad: int
) -> np.ndarray:
    """int_0^s K(t, u) K(s, u) du for every t in ``upper`` (upper[0] == s).

    Singularity-splitting quadrature on n_quad cells of width
    h = s / n_quad: the midpoint rule on all cells but the last, the first
    one weighted by ``origin_cell_weight``; the cell [s - h, s] against the
    calibrated power law A (s - u)^kappa of ``edge_coefficient``, with
    K(t, .) for t > s frozen at the cell edge s - h.  Returns zeros when
    s <= 0.  Raises ``DomainError`` unless n_quad >= 2.
    """
    if n_quad < 2:
        raise DomainError(f"n_quad must be >= 2, got {n_quad}")
    upper = np.atleast_1d(_as_array(upper))
    if s <= 0.0:
        return np.zeros(upper.size)
    h = s / n_quad
    mids = (np.arange(n_quad - 1) + 0.5) * h
    vals_s = kernel.eval(s, mids)
    vals_s[0] *= origin_cell_weight(kernel)
    out = (kernel.eval(upper[:, None], mids[None, :]) @ vals_s) * h
    a_edge = float(edge_coefficient(kernel, s, s - h, h))
    m1, m2 = cell_moments(kernel.singular_exponent, h)
    out[0] += a_edge**2 * m2
    out[1:] += kernel.eval(upper[1:], s - h) * a_edge * m1
    return out


def kernel_l2_slice(kernel: VolterraKernel, t: float, n_quad: int = 256) -> float:
    """Slice norm int_0^t K(t, s)^2 ds, the diagonal of ``slice_products``."""
    if t < 0 or t > kernel.horizon * (1 + 1e-12):
        raise DomainError(f"t={t} outside [0, {kernel.horizon}]")
    return float(slice_products(kernel, t, t, n_quad)[0])


def rescale_kernel(kernel: VolterraKernel, eta: float) -> VolterraKernel:
    """Return the rescaled kernel sqrt(eta) K(eta t, eta s).

    The rescaled kernel lives on the stretched horizon T / eta and keeps the
    roughness index of the base kernel.  eta = 1 returns the kernel itself;
    eta outside (0, 1] raises ``ConfigurationError``.  A fractional OU
    kernel stays in its family (scale eta^H, mean reversion a eta), so its
    grid values keep the row recursion.
    """
    if not (0.0 < eta <= 1.0):
        raise ConfigurationError(f"eta must lie in (0, 1], got {eta}")
    if eta == 1.0:
        return kernel
    if isinstance(kernel, RescaledKernel):
        return rescale_kernel(kernel.base, kernel.eta * eta)
    if isinstance(kernel, FractionalOUKernel):
        return FractionalOUKernel(
            hurst=kernel.hurst,
            scale=kernel.scale * eta**kernel.hurst,
            horizon=kernel.horizon / eta,
            mean_reversion=kernel.mean_reversion * eta,
        )
    return RescaledKernel(
        hurst=kernel.hurst,
        scale=kernel.scale,
        horizon=kernel.horizon / eta,
        base=kernel,
        eta=eta,
    )


# ---------------------------------------------------------------------------
# scaling schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingSchedule:
    """Joint schedule (eta_n, epsilon_n) for scaling-limit runs.

    The speed epsilon_n is the caller's, or derived from eta_n and the
    kernel's H (and log exponent a) by a rule:

    * ``self_similar``: epsilon_n = eta_n^H (power-law kernels),
    * ``for_log_kernel``: epsilon_n^(-2) = eta_n^(-2H) (-log eta_n)^(2a).

    The short-time horizon fraction is eta_n itself: the rescaled route is
    the exact time change of the short horizon only then.  Iterating yields
    the (eta_n, epsilon_n) pairs as floats.
    """

    eta: tuple
    epsilon: tuple

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        eps = np.asarray(self.epsilon, dtype=float)
        if eta.size == 0:
            raise ConfigurationError("schedule must contain at least one index")
        if eta.size != eps.size:
            raise ConfigurationError("eta and epsilon must have equal length")
        for name, arr in (("eta", eta), ("epsilon", eps)):
            if np.any(arr <= 0.0) or np.any(arr > 1.0 + 1e-12):
                raise ConfigurationError(f"{name} entries must lie in (0, 1]")
        if eta.size > 1 and not np.all(np.diff(eta) < 0):
            raise ConfigurationError("eta must be strictly decreasing")
        if eta.size > 1 and not np.all(np.diff(eps) < 0):
            raise ConfigurationError("epsilon must be strictly decreasing")

    def __len__(self):
        return len(self.eta)

    def __iter__(self):
        return ((float(e), float(s)) for e, s in zip(self.eta, self.epsilon))

    @classmethod
    def self_similar(cls, eta, hurst: float) -> "ScalingSchedule":
        eta = tuple(float(e) for e in eta)
        return cls(eta=eta, epsilon=tuple(e**hurst for e in eta))

    @classmethod
    def for_log_kernel(
        cls, eta, hurst: float, log_exponent: float
    ) -> "ScalingSchedule":
        """Speed schedule for the log-corrected family.

        The exponent on the slowly varying factor is 2 * log_exponent,
        which makes K^eta / epsilon converge to the plain power-law kernel.
        """
        eta = tuple(float(e) for e in eta)
        if any(e >= 1.0 for e in eta):
            raise ConfigurationError("log-fbm schedule requires eta < 1")
        eps = tuple(e**hurst * (-np.log(e)) ** -log_exponent for e in eta)
        return cls(eta=eta, epsilon=eps)

