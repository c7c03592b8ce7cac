"""Large-deviation rate functionals on discretized Cameron-Martin space.

Controls are absolutely continuous paths f with piecewise-constant
derivative on the grid; their energy is |f|^2 = sum_j |fdot_j|^2 dt.  The
building blocks are

* the quadratic path functional  Gamma(x | A) = 1/2 int xdot^T A xdot dt,
* the drift-adjusted form        J(x | phi) = Gamma(x - int mu(phi) | a^(-1)(phi)),
* the kernel lift (hat map)      fhat_l(t) = int_0^t K_l(t, s) fdot_l(s) ds,
* the correlation integrals      Phi (sigma_tilde along fhat) and Phi^m
  (sigma_tilde frozen at block left endpoints),

and the induced variational problems:

    I_X(x)   = inf_f 1/2 |f|^2 + J(x | fhat)                    (uncorrelated)
    I_Z^m(x) = inf_f 1/2 |f|^2 + J(x - Phi^m(f, fhat) | fhat)   (frozen blocks)
    I_Z(x)   = inf_f 1/2 |f|^2 + J(x - Phi(f, fhat) | fhat)     (correlated)
    I_T(z)   = inf_f 1/2 |f|^2 + 1/2 (z - Phi(f,fhat)(T) - M)^T A^(-1) (...)
               with A = int a(fhat) dt,  M = int mu(fhat) dt    (terminal)

All four are one objective F(f) = 1/2 |f|^2 + (inner quadratic), which
differs only in the block span at which sigma_tilde reads fhat (None: no Phi
term, I_X; N / m: block left ends, I_Z^m; 1: every node, I_Z and I_T) and in
whether the inner quadratic is pathwise or terminal.  Each yields a weight
w: pathwise w_j = a_j^(-1) r_j with r = xdot - mu - Phidot, terminal
w = A^(-1) q held at every node.  In both, d/d(mu_j + Phidot_j) = -w_j dt and
d/d(sigma_j) = -w_j (sigma_j^T w_j)^T dt, so the adjoint gradient and the
Wiener-direction control sigma^T w are written once.  The terminal inner
problem is the closed-form Euler-Lagrange quadratic; no inner iteration
happens anywhere.  The outer minimization runs a bounded-memory
quasi-Newton method with backtracking line search, gradients assembled by
adjoint accumulation through the chain f -> fhat -> Phi -> inner,
multi-start (zero start plus Gaussian seeds), and projection of iterates
onto the energy ball |f|^2 <= 2 F(0), inside which the minimizer is
guaranteed to live; for the pathwise functionals 2 F(0) is
C_x = int (xdot - mu(0))^T a^(-1)(0) (xdot - mu(0)) dt.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationError, SingularDiffusionError
from .gaussian import discretize_kernel
from .grids import PathSample, TimeGrid
from .kernels import KernelBank
from .model import ModelCoefficients, _require_nonsingular


class MultistartSpreadWarning(RuntimeWarning):
    """Raised when independent optimizer starts disagree by more than 1%."""


# ---------------------------------------------------------------------------
# control paths
# ---------------------------------------------------------------------------


@dataclass
class CameronMartinPath:
    """Absolutely continuous path with piecewise-constant derivative."""

    grid: TimeGrid
    derivative: np.ndarray  # (N, dim)

    def __post_init__(self):
        self.derivative = np.asarray(self.derivative, dtype=float)
        if self.derivative.ndim == 1:
            self.derivative = self.derivative[:, None]
        if self.derivative.shape[0] != self.grid.n_steps:
            raise DomainError(
                f"derivative has {self.derivative.shape[0]} steps, grid has "
                f"{self.grid.n_steps}"
            )

    @property
    def dim(self) -> int:
        return self.derivative.shape[1]

    @property
    def values(self) -> np.ndarray:
        out = np.zeros((self.grid.n_steps + 1, self.dim))
        out[1:] = np.cumsum(self.derivative * self.grid.dt, axis=0)
        return out

    @property
    def h1_norm_sq(self) -> float:
        return float(np.sum(self.derivative**2) * self.grid.dt)

    def as_path(self) -> PathSample:
        return PathSample(self.grid, self.values)

    @classmethod
    def zero(cls, grid: TimeGrid, dim: int) -> "CameronMartinPath":
        return cls(grid, np.zeros((grid.n_steps, dim)))

    @classmethod
    def from_values(cls, grid: TimeGrid, values) -> "CameronMartinPath":
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.n_steps + 1:
            raise DomainError("values must be given at every grid node")
        if np.max(np.abs(values[0])) > 0.0:
            raise DomainError("Cameron-Martin paths start at the origin")
        return cls(grid, np.diff(values, axis=0) / grid.dt)

    @classmethod
    def straight_line(cls, grid: TimeGrid, z) -> "CameronMartinPath":
        z = np.atleast_1d(np.asarray(z, dtype=float))
        der = np.tile(z / grid.horizon, (grid.n_steps, 1))
        return cls(grid, der)


# ---------------------------------------------------------------------------
# elementary functionals
# ---------------------------------------------------------------------------


def gamma_functional(x: CameronMartinPath, a_path: np.ndarray) -> float:
    """Gamma(x | A) = 1/2 int xdot(t)^T A(t) xdot(t) dt (left-node rule).

    ``a_path`` holds symmetric weight matrices per node, shape (N, d, d) or
    (N + 1, d, d) (the terminal node is then ignored).
    """
    a_path = np.asarray(a_path, dtype=float)
    n, d = x.grid.n_steps, x.dim
    if a_path.shape == (n + 1, d, d):
        a_path = a_path[:n]
    if a_path.shape != (n, d, d):
        raise DomainError(
            f"weight path has shape {a_path.shape}, expected ({n}, {d}, {d})"
        )
    xd = x.derivative
    return 0.5 * float(np.einsum("ji,jik,jk->", xd, a_path, xd)) * x.grid.dt


def j_rate(x: CameronMartinPath, phi: PathSample, coeffs: ModelCoefficients) -> float:
    """J(x | phi) = 1/2 int (xdot - mu(phi))^T a(phi)^(-1) (xdot - mu(phi)) dt."""
    if x.grid != phi.grid:
        raise DomainError("x and phi live on different grids")
    if phi.dim != coeffs.p:
        raise DomainError(
            f"path dimension {phi.dim} does not match factor count {coeffs.p}"
        )
    y = phi.values[: x.grid.n_steps]
    a = coeffs.a(y)
    _require_nonsingular(a, "diffusion matrix")
    resid = x.derivative - coeffs.mu(y)
    w = np.linalg.solve(a, resid[..., None])[..., 0]
    return 0.5 * float(np.sum(resid * w)) * x.grid.dt


def _lift(hat_w, dmat) -> np.ndarray:
    """fhat at every node, (N + 1, p), from per-factor hat weights."""
    fhat = np.empty((dmat.shape[0] + 1, dmat.shape[1]))
    for ell, c in enumerate(hat_w):
        fhat[:, ell] = c @ dmat[:, ell]
    return fhat


def hat_map(f: CameronMartinPath, bank: KernelBank) -> PathSample:
    """Kernel lift fhat_l(t_i) = sum_j (cell integral of K_l(t_i, .)) fdot_l(t_j).

    Uses the same cell-exact weights as the path sampler, so fhat is exactly
    the Cameron-Martin shift of the discrete convolution scheme.
    """
    if f.dim != bank.n_factors:
        raise DomainError(
            f"control has {f.dim} components, bank has {bank.n_factors}"
        )
    hat_w = [discretize_kernel(kernel, f.grid).hat_weights for kernel in bank]
    return PathSample(f.grid, _lift(hat_w, f.derivative))


def _phi(coeffs: ModelCoefficients, g: np.ndarray, dmat: np.ndarray, span):
    """Per-step sigma_tilde and Phidot_j = sigma_tilde_j fdot_j, (N, d).

    sigma_tilde is read from the node values ``g`` at the left end of each
    block of ``span`` steps and held across the block; span None means no
    correlation term (sigma_tilde None, Phidot = 0).
    """
    n = dmat.shape[0]
    if span is None:
        return None, np.zeros((n, coeffs.d))
    sigt = np.repeat(coeffs.sigma_tilde(g[:n:span]), span, axis=0)
    return sigt, np.einsum("jil,jl->ji", sigt, dmat)


def phi_m(
    f: CameronMartinPath, g: PathSample, m: int, coeffs: ModelCoefficients
) -> PathSample:
    """Block-frozen correlation integral Phi^m(f, g).

    Within each of the m blocks, sigma_tilde is frozen at g evaluated at the
    block's left endpoint and integrated against the increments of f; at a
    block boundary the completed-block branch applies.
    """
    if f.grid != g.grid:
        raise DomainError("f and g live on different grids")
    if f.dim != coeffs.p or g.dim != coeffs.p:
        raise DomainError("f and g must have one component per factor")
    f.grid.require_divisible(m)
    phidot = _phi(coeffs, g.values, f.derivative, f.grid.n_steps // m)[1]
    return CameronMartinPath(f.grid, phidot).as_path()


def phi_map(
    f: CameronMartinPath, bank: KernelBank, coeffs: ModelCoefficients
) -> PathSample:
    """Correlation integral Phi_i(f, fhat)(t) = sum_l int sigmat_il(fhat) fdot_l ds."""
    phidot = _phi(coeffs, hat_map(f, bank).values, f.derivative, 1)[1]
    return CameronMartinPath(f.grid, phidot).as_path()


def j_m_correlated(
    x: CameronMartinPath,
    f: CameronMartinPath,
    g: PathSample,
    m: int,
    coeffs: ModelCoefficients,
) -> float:
    """Frozen-block objective J(x - Phi^m(f, g) | g)."""
    pm = phi_m(f, g, m, coeffs)
    shifted = CameronMartinPath(
        x.grid, x.derivative - np.diff(pm.values, axis=0) / x.grid.dt
    )
    return j_rate(shifted, g, coeffs)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the bounded-memory quasi-Newton minimizer."""

    tol: float = 1e-8
    max_iter: int = 500
    memory: int = 10
    n_starts: int = 5
    seed: int = 7
    spread_warn: float = 0.01


@dataclass
class RateSolution:
    """Result of a rate-functional minimization."""

    value: float
    control: CameronMartinPath
    hat_path: PathSample
    phi_path: PathSample
    iterations: int
    grad_norm: float
    converged: bool
    upper_bound_used: float
    multistart_spread: float
    inner_drift: np.ndarray | None = None  # (N, d), Wiener-direction control


def _lbfgs(value_grad, x0, dt, radius_sq, cfg: OptimizerConfig):
    """Projected L-BFGS with Armijo backtracking on flat arrays.

    The feasible set is the energy ball dt * |x|^2 <= radius_sq (radial
    projection).  Convergence once the projected gradient step satisfies
    |x - P(x - g)| <= tol * (1 + |F|).
    """

    def project(x):
        if radius_sq is None:
            return x
        nrm = dt * float(x @ x)
        if nrm <= radius_sq or nrm == 0.0:
            return x
        return x * np.sqrt(radius_sq / nrm)

    x = project(x0.copy())
    f, g = value_grad(x)
    if not np.isfinite(f):
        raise OptimizationError("objective not finite at the starting point")
    s_hist, y_hist, rho_hist = [], [], []
    n_iter = 0
    crit = np.linalg.norm(x - project(x - g))
    while n_iter < cfg.max_iter and crit > cfg.tol * (1.0 + abs(f)):
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            y_last = y_hist[-1]
            gamma = (s_hist[-1] @ y_last) / max(y_last @ y_last, 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (y @ q)
            q += s * (a - b)
        direction = -q
        if direction @ g >= 0.0:
            direction = -g
            s_hist, y_hist, rho_hist = [], [], []
        step = 1.0
        accepted = False
        for _ in range(50):
            x_new = project(x + step * direction)
            f_new, g_new = value_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * (g @ (x_new - x)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        n_iter += 1
        crit = np.linalg.norm(x - project(x - g))
    converged = bool(crit <= cfg.tol * (1.0 + abs(f)))
    return x, f, g, n_iter, converged, float(crit)


def _multistart(value_grad, shape, dt, radius_sq, cfg: OptimizerConfig):
    """Run the minimizer from zero plus Gaussian-seeded starts; keep the best."""
    n_vars = int(np.prod(shape))
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(n_vars)]
    radius = np.sqrt(radius_sq) if radius_sq else 0.0
    for k in range(cfg.n_starts - 1):
        z = rng.standard_normal(n_vars)
        nrm = np.sqrt(dt) * np.linalg.norm(z)
        scale = radius * (0.15 + 0.2 * k) / max(nrm, 1e-300)
        starts.append(z * scale)
    results = []
    for x0 in starts:
        results.append(_lbfgs(value_grad, x0, dt, radius_sq, cfg))
    best = min(results, key=lambda r: r[1])
    values = np.array([r[1] for r in results])
    spread = float(np.max(values) - np.min(values)) / max(abs(best[1]), 1e-12)
    if spread > cfg.spread_warn and np.max(values) - np.min(values) > 1e-9:
        warnings.warn(
            f"optimizer starts disagree by {spread:.2%}; the landscape may "
            "be multimodal",
            MultistartSpreadWarning,
            stacklevel=3,
        )
    return best, spread


# ---------------------------------------------------------------------------
# objective assembly
# ---------------------------------------------------------------------------


class _Objective:
    """F(f) = 1/2 |f|^2 + inner quadratic, for all four rate functionals.

    ``span`` is the block length, in steps, over which sigma_tilde is frozen
    at the lifted control: None for I_X (no Phi term), N // m for I_Z^m, and
    1 for I_Z and I_T.  Exactly one of ``xdot`` (pathwise target, (N, d))
    and ``z`` (terminal point, (d,)) is given.
    """

    def __init__(self, grid, bank, coeffs, span, xdot=None, z=None):
        self.grid = grid
        self.coeffs = coeffs
        self.span = span
        self.xdot = xdot
        self.z = z
        self.n = grid.n_steps
        self.p = coeffs.p
        self.dt = grid.dt
        self.hat_w = [discretize_kernel(kernel, grid).hat_weights for kernel in bank]

    def inner(self, dmat):
        """(fhat, sigma_tilde per step, w, sigma^T w, inner value) at ``dmat``.

        Pathwise, w_j = a_j^(-1) r_j with r = xdot - mu - Phidot and the
        inner value 1/2 sum r.w dt (so sigma^T w = sigma^(-1) r); terminal,
        w = A^(-1) q at every node with q = z - int (mu + Phidot) dt,
        A = int a dt and value 1/2 q.w.  sigma^T w is the Wiener-direction
        control.  Raises ``SingularDiffusionError`` where a (or A) is
        singular.
        """
        co = self.coeffs
        fhat = _lift(self.hat_w, dmat)
        y = fhat[: self.n]
        mu = co.mu(y)
        sig = co.sigma(y)
        sigt, phidot = _phi(co, fhat, dmat, self.span)
        if self.z is None:
            a = sig @ np.swapaxes(sig, -1, -2)
            _require_nonsingular(a, "diffusion matrix")
            resid = (self.xdot - mu) - phidot
            w = np.linalg.solve(a, resid[..., None])[..., 0]
            value = 0.5 * np.sum(resid * w) * self.dt
        else:
            a_total = np.einsum("jik,jlk->il", sig, sig) * self.dt
            _require_nonsingular(a_total, "time-integrated diffusion matrix")
            q = self.z - phidot.sum(axis=0) * self.dt - mu.sum(axis=0) * self.dt
            w_total = np.linalg.solve(a_total, q)
            value = 0.5 * float(q @ w_total)
            w = np.broadcast_to(w_total, (self.n, co.d))
        return fhat, sigt, w, np.einsum("jik,ji->jk", sig, w), value

    def value_grad(self, flat):
        """Objective and its adjoint gradient; +inf where a is singular.

        Both inner problems share d/d(mu_j + Phidot_j) = -w_j dt and
        d/d(sigma_j) = -w_j (sigma_j^T w_j)^T dt.
        """
        dmat = flat.reshape(self.n, self.p)
        try:
            fhat, sigt, w, sw, inner = self.inner(dmat)
        except SingularDiffusionError:
            return np.inf, np.zeros_like(flat)
        co, dt = self.coeffs, self.dt
        value = 0.5 * np.sum(dmat * dmat) * dt + inner
        y = fhat[: self.n]

        dmu = co.mu.jacobian(y)
        dsig = co.sigma.jacobian(y)
        s_nodes = np.zeros((self.n + 1, self.p))
        s_nodes[: self.n] -= np.einsum("ji,jim->jm", w, dmu) * dt
        s_nodes[: self.n] -= np.einsum("ji,jikm,jk->jm", w, dsig, sw) * dt
        grad = dmat * dt
        if sigt is not None:
            span = self.span
            dsigt = np.repeat(
                co.sigma_tilde.jacobian(fhat[: self.n : span]), span, axis=0
            )
            rows = -np.einsum("ji,jilm,jl->jm", w, dsigt, dmat) * dt
            s_nodes[: self.n : span] += rows.reshape(-1, span, self.p).sum(axis=1)
            grad -= np.einsum("jil,ji->jl", sigt, w) * dt
        for ell in range(self.p):
            grad[:, ell] += self.hat_w[ell].T @ s_nodes[:, ell]
        return value, grad.reshape(-1)


def _solve(objective, opt: OptimizerConfig) -> RateSolution:
    """Minimize over the ball |f|^2 <= 2 F(0) and collect the solution.

    2 F(0) is C_x for the pathwise functionals and 2 I_T's value at f = 0
    for the terminal one; a singular diffusion at f = 0 raises
    ``SingularDiffusionError``.
    """
    n, p, grid = objective.n, objective.p, objective.grid
    upper = objective.inner(np.zeros((n, p)))[-1]
    best, spread = _multistart(
        objective.value_grad, (n, p), grid.dt, 2.0 * upper, opt
    )
    x_best, f_best, _, iters, converged, crit = best
    dmat = x_best.reshape(n, p)
    fhat, _, _, drift, _ = objective.inner(dmat)
    phidot = _phi(objective.coeffs, fhat, dmat, objective.span)[1]
    return RateSolution(
        value=max(float(f_best), 0.0),
        control=CameronMartinPath(grid, dmat),
        hat_path=PathSample(grid, fhat),
        phi_path=CameronMartinPath(grid, phidot).as_path(),
        iterations=iters,
        grad_norm=float(crit),
        converged=converged,
        upper_bound_used=upper,
        multistart_spread=spread,
        inner_drift=drift,
    )


def _pathwise(x: CameronMartinPath, bank, coeffs, span, opt) -> RateSolution:
    if x.dim != coeffs.d:
        raise DomainError(
            f"target path has dimension {x.dim}, model has d = {coeffs.d}"
        )
    return _solve(_Objective(x.grid, bank, coeffs, span, xdot=x.derivative), opt)


def i_uncorrelated(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Rate of the uncorrelated model: inf_f 1/2 |f|^2 + J(x | fhat)."""
    return _pathwise(x, bank, coeffs, None, opt)


def i_z_m(
    x: CameronMartinPath,
    m: int,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Frozen-block correlated rate inf_f 1/2 |f|^2 + J(x - Phi^m(f, fhat) | fhat)."""
    x.grid.require_divisible(m)
    return _pathwise(x, bank, coeffs, x.grid.n_steps // m, opt)


def i_z(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Correlated rate inf_f 1/2 |f|^2 + J(x - Phi(f, fhat) | fhat) on the C_x ball."""
    return _pathwise(x, bank, coeffs, 1, opt)


def terminal_rate(
    z,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    grid: TimeGrid,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Terminal rate I_T(z); the inner problem is the closed quadratic form."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (coeffs.d,):
        raise DomainError(
            f"terminal point has shape {z.shape}, expected ({coeffs.d},)"
        )
    return _solve(_Objective(grid, bank, coeffs, 1, z=z), opt)
