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

The terminal inner problem is the closed-form Euler-Lagrange quadratic; no
inner iteration happens anywhere.  The outer minimization runs a
bounded-memory quasi-Newton method with backtracking line search, gradients
assembled by adjoint accumulation through the chain f -> fhat -> Phi -> J,
multi-start (zero start plus Gaussian seeds), and projection of iterates
onto the energy ball |f|^2 <= C_x with C_x = int (xdot - mu(0))^T a^(-1)(0)
(xdot - mu(0)) dt, inside which the minimizer is guaranteed to live.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OptimizationError, SingularDiffusionError
from .gaussian import discretize_kernel
from .grids import PathSample, TimeGrid
from .kernels import KernelBank
from .model import ModelCoefficients

_DET_TOL = 1e-12


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


def _inverse_diffusion(coeffs: ModelCoefficients, y: np.ndarray):
    """a(y) itself, checked for inversion; raises on singular nodes.

    Returns a, not its inverse: callers apply a(y)^(-1) through
    ``np.linalg.solve``.
    """
    a = coeffs.a(y)
    dets = np.linalg.det(a)
    if np.any(np.abs(dets) < _DET_TOL) or not np.all(np.isfinite(dets)):
        raise SingularDiffusionError(
            "diffusion matrix singular along the volatility path "
            f"(min |det| = {np.min(np.abs(dets)):.3e})"
        )
    return a


def j_rate(x: CameronMartinPath, phi: PathSample, coeffs: ModelCoefficients) -> float:
    """J(x | phi) = 1/2 int (xdot - mu(phi))^T a(phi)^(-1) (xdot - mu(phi)) dt."""
    if x.grid != phi.grid:
        raise DomainError("x and phi live on different grids")
    y = phi.values[: x.grid.n_steps]
    a = _inverse_diffusion(coeffs, y)
    resid = x.derivative - coeffs.mu(y)
    w = np.linalg.solve(a, resid[..., None])[..., 0]
    return 0.5 * float(np.sum(resid * w)) * x.grid.dt


def hat_map(f: CameronMartinPath, bank: KernelBank) -> PathSample:
    """Kernel lift fhat_l(t_i) = sum_j (cell integral of K_l(t_i, .)) fdot_l(t_j).

    Uses the same cell-exact weights as the path sampler, so fhat is exactly
    the Cameron-Martin shift of the discrete convolution scheme.
    """
    if f.dim != bank.n_factors:
        raise DomainError(
            f"control has {f.dim} components, bank has {bank.n_factors}"
        )
    out = np.empty((f.grid.n_steps + 1, f.dim))
    for ell, kernel in enumerate(bank):
        c = discretize_kernel(kernel, f.grid).hat_weights
        out[:, ell] = c @ f.derivative[:, ell]
    return PathSample(f.grid, out)


def _block_left_indices(grid: TimeGrid, m: int) -> np.ndarray:
    grid.require_divisible(m)
    span = grid.n_steps // m
    return (np.arange(grid.n_steps) // span) * span


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
    left = _block_left_indices(f.grid, m)
    sigt = coeffs.sigma_tilde(g.values[left])
    steps = np.einsum("jil,jl->ji", sigt, f.derivative) * f.grid.dt
    out = np.zeros((f.grid.n_steps + 1, coeffs.d))
    out[1:] = np.cumsum(steps, axis=0)
    return PathSample(f.grid, out)


def phi_map(
    f: CameronMartinPath, bank: KernelBank, coeffs: ModelCoefficients
) -> PathSample:
    """Correlation integral Phi_i(f, fhat)(t) = sum_l int sigmat_il(fhat) fdot_l ds."""
    fhat = hat_map(f, bank)
    sigt = coeffs.sigma_tilde(fhat.values[: f.grid.n_steps])
    steps = np.einsum("jil,jl->ji", sigt, f.derivative) * f.grid.dt
    out = np.zeros((f.grid.n_steps + 1, coeffs.d))
    out[1:] = np.cumsum(steps, axis=0)
    return PathSample(f.grid, out)


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


class _PathwiseProblem:
    """Shared machinery of the pathwise objectives.

    ``block_index`` is None for the uncorrelated functional (no Phi term),
    otherwise the per-step node index at which sigma_tilde reads the lifted
    path: arange(N) for the exact functional, block left endpoints for the
    frozen-block one.
    """

    def __init__(self, x, bank, coeffs, block_index):
        self.grid = x.grid
        self.coeffs = coeffs
        self.xdot = x.derivative
        self.dt = x.grid.dt
        self.n = x.grid.n_steps
        self.p = coeffs.p
        self.d = coeffs.d
        self.block_index = block_index
        self.hat_w = [
            discretize_kernel(kernel, x.grid).hat_weights for kernel in bank
        ]
        if x.dim != coeffs.d:
            raise DomainError(
                f"target path has dimension {x.dim}, model has d = {coeffs.d}"
            )

    def lift(self, dmat):
        fhat = np.empty((self.n + 1, self.p))
        for ell in range(self.p):
            fhat[:, ell] = self.hat_w[ell] @ dmat[:, ell]
        return fhat

    def value_grad(self, flat):
        dmat = flat.reshape(self.n, self.p)
        co = self.coeffs
        fhat = self.lift(dmat)
        y = fhat[: self.n]
        mu = co.mu(y)
        sig = co.sigma(y)
        a = sig @ np.swapaxes(sig, -1, -2)
        dets = np.linalg.det(a)
        if not np.all(np.isfinite(dets)) or np.any(np.abs(dets) < _DET_TOL):
            return np.inf, np.zeros_like(flat)
        resid = self.xdot - mu
        if self.block_index is not None:
            yg = fhat[self.block_index]
            sigt = co.sigma_tilde(yg)
            resid = resid - np.einsum("jil,jl->ji", sigt, dmat)
        w = np.linalg.solve(a, resid[..., None])[..., 0]
        value = 0.5 * np.sum(dmat * dmat) * self.dt + 0.5 * np.sum(resid * w) * self.dt

        sw = np.einsum("jik,ji->jk", sig, w)
        dmu = co.mu.jacobian(y)
        dsig = co.sigma.jacobian(y)
        s_nodes = np.zeros((self.n + 1, self.p))
        s_nodes[: self.n] -= np.einsum("ji,jim->jm", w, dmu) * self.dt
        s_nodes[: self.n] -= np.einsum("ji,jikm,jk->jm", w, dsig, sw) * self.dt
        grad = dmat * self.dt
        if self.block_index is not None:
            dsigt = co.sigma_tilde.jacobian(yg)
            rows = -np.einsum("ji,jilm,jl->jm", w, dsigt, dmat) * self.dt
            np.add.at(s_nodes, self.block_index, rows)
            grad -= np.einsum("jil,ji->jl", sigt, w) * self.dt
        for ell in range(self.p):
            grad[:, ell] += self.hat_w[ell].T @ s_nodes[:, ell]
        return value, grad.reshape(-1)

    def inner_drift(self, dmat):
        """Wiener-direction control sigma(fhat)^(-1)(xdot - mu - Phidot)."""
        co = self.coeffs
        fhat = self.lift(dmat)
        y = fhat[: self.n]
        sig = co.sigma(y)
        resid = self.xdot - co.mu(y)
        if self.block_index is not None:
            sigt = co.sigma_tilde(fhat[self.block_index])
            resid = resid - np.einsum("jil,jl->ji", sigt, dmat)
        return np.linalg.solve(sig, resid[..., None])[..., 0]


class _TerminalProblem:
    """Terminal rate objective with the Euler-Lagrange inner solution."""

    def __init__(self, z, bank, coeffs, grid):
        self.z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.z.shape != (coeffs.d,):
            raise DomainError(
                f"terminal point has shape {self.z.shape}, expected ({coeffs.d},)"
            )
        self.grid = grid
        self.coeffs = coeffs
        self.n = grid.n_steps
        self.p = coeffs.p
        self.d = coeffs.d
        self.dt = grid.dt
        self.hat_w = [discretize_kernel(k, grid).hat_weights for k in bank]

    def lift(self, dmat):
        fhat = np.empty((self.n + 1, self.p))
        for ell in range(self.p):
            fhat[:, ell] = self.hat_w[ell] @ dmat[:, ell]
        return fhat

    def _pieces(self, dmat):
        co = self.coeffs
        fhat = self.lift(dmat)
        y = fhat[: self.n]
        mu = co.mu(y)
        sig = co.sigma(y)
        sigt = co.sigma_tilde(y)
        a_total = np.einsum("jik,jlk->il", sig, sig) * self.dt
        m_total = mu.sum(axis=0) * self.dt
        phi_t = np.einsum("jil,jl->i", sigt, dmat) * self.dt
        q = self.z - phi_t - m_total
        return fhat, y, mu, sig, sigt, a_total, q

    def value_grad(self, flat):
        dmat = flat.reshape(self.n, self.p)
        co = self.coeffs
        fhat, y, mu, sig, sigt, a_total, q = self._pieces(dmat)
        if not np.all(np.isfinite(a_total)):
            return np.inf, np.zeros_like(flat)
        eigs = np.linalg.eigvalsh(a_total)
        if eigs[0] < _DET_TOL:
            return np.inf, np.zeros_like(flat)
        w = np.linalg.solve(a_total, q)
        value = 0.5 * np.sum(dmat * dmat) * self.dt + 0.5 * float(q @ w)

        sw = np.einsum("jik,i->jk", sig, w)
        dmu = co.mu.jacobian(y)
        dsig = co.sigma.jacobian(y)
        dsigt = co.sigma_tilde.jacobian(y)
        s_nodes = np.zeros((self.n + 1, self.p))
        s_nodes[: self.n] -= np.einsum("i,jim->jm", w, dmu) * self.dt
        s_nodes[: self.n] -= np.einsum("i,jilm,jl->jm", w, dsigt, dmat) * self.dt
        s_nodes[: self.n] -= np.einsum("i,jikm,jk->jm", w, dsig, sw) * self.dt
        grad = dmat * self.dt - np.einsum("jil,i->jl", sigt, w) * self.dt
        for ell in range(self.p):
            grad[:, ell] += self.hat_w[ell].T @ s_nodes[:, ell]
        return value, grad.reshape(-1)

    def inner_drift(self, dmat):
        """sigma(fhat)^T A^(-1) q: Wiener control of the inner quadratic."""
        _, y, _, sig, _, a_total, q = self._pieces(dmat)
        eigs = np.linalg.eigvalsh(a_total)
        if eigs[0] < _DET_TOL:
            raise SingularDiffusionError(
                f"time-integrated diffusion matrix is singular "
                f"(min eig = {eigs[0]:.3e})"
            )
        w = np.linalg.solve(a_total, q)
        return np.einsum("jik,i->jk", sig, w)


def _radius_sq(x: CameronMartinPath, coeffs: ModelCoefficients) -> float:
    """Search-ball energy C_x = int (xdot - mu(0))^T a(0)^(-1) (xdot - mu(0)) dt."""
    y0 = np.zeros((1, coeffs.p))
    a0 = coeffs.a(y0)[0]
    mu0 = coeffs.mu(y0)[0]
    resid = x.derivative - mu0
    w = np.linalg.solve(a0, resid.T).T
    return float(np.sum(resid * w)) * x.grid.dt


def _finish(problem, best, spread, upper, coeffs, with_phi):
    x_best, f_best, g_best, iters, converged, crit = best
    dmat = x_best.reshape(problem.n, problem.p)
    control = CameronMartinPath(problem.grid, dmat)
    fhat = PathSample(problem.grid, problem.lift(dmat))
    if with_phi:
        sigt_nodes = (
            problem.block_index
            if isinstance(problem, _PathwiseProblem)
            else np.arange(problem.n)
        )
        if sigt_nodes is None:
            phi_vals = np.zeros((problem.n + 1, coeffs.d))
        else:
            sigt = coeffs.sigma_tilde(fhat.values[sigt_nodes])
            steps = np.einsum("jil,jl->ji", sigt, dmat) * problem.dt
            phi_vals = np.zeros((problem.n + 1, coeffs.d))
            phi_vals[1:] = np.cumsum(steps, axis=0)
    else:
        phi_vals = np.zeros((problem.n + 1, coeffs.d))
    return RateSolution(
        value=max(float(f_best), 0.0),
        control=control,
        hat_path=fhat,
        phi_path=PathSample(problem.grid, phi_vals),
        iterations=iters,
        grad_norm=float(crit),
        converged=converged,
        upper_bound_used=upper,
        multistart_spread=spread,
        inner_drift=problem.inner_drift(dmat),
    )


def i_uncorrelated(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Rate of the uncorrelated model: inf_f 1/2 |f|^2 + J(x | fhat)."""
    problem = _PathwiseProblem(x, bank, coeffs, block_index=None)
    radius_sq = _radius_sq(x, coeffs)
    upper = problem.value_grad(np.zeros(problem.n * problem.p))[0]
    best, spread = _multistart(
        problem.value_grad, (problem.n, problem.p), x.grid.dt, radius_sq, opt
    )
    return _finish(problem, best, spread, upper, coeffs, with_phi=False)


def i_z_m(
    x: CameronMartinPath,
    m: int,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Frozen-block correlated rate inf_f 1/2 |f|^2 + J(x - Phi^m(f, fhat) | fhat)."""
    idx = _block_left_indices(x.grid, m)
    problem = _PathwiseProblem(x, bank, coeffs, block_index=idx)
    radius_sq = _radius_sq(x, coeffs)
    upper = problem.value_grad(np.zeros(problem.n * problem.p))[0]
    best, spread = _multistart(
        problem.value_grad, (problem.n, problem.p), x.grid.dt, radius_sq, opt
    )
    return _finish(problem, best, spread, upper, coeffs, with_phi=True)


def i_z(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Correlated rate inf_f 1/2 |f|^2 + J(x - Phi(f, fhat) | fhat) on the C_x ball."""
    idx = np.arange(x.grid.n_steps)
    problem = _PathwiseProblem(x, bank, coeffs, block_index=idx)
    radius_sq = _radius_sq(x, coeffs)
    upper = problem.value_grad(np.zeros(problem.n * problem.p))[0]
    best, spread = _multistart(
        problem.value_grad, (problem.n, problem.p), x.grid.dt, radius_sq, opt
    )
    return _finish(problem, best, spread, upper, coeffs, with_phi=True)


def terminal_rate(
    z,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    grid: TimeGrid,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Terminal rate I_T(z); the inner problem is the closed quadratic form."""
    problem = _TerminalProblem(z, bank, coeffs, grid)
    zero = np.zeros(problem.n * problem.p)
    upper = problem.value_grad(zero)[0]
    if not np.isfinite(upper):
        raise SingularDiffusionError(
            "time-integrated diffusion matrix is singular at f = 0"
        )
    radius_sq = 2.0 * upper
    best, spread = _multistart(
        problem.value_grad, (problem.n, problem.p), grid.dt, radius_sq, opt
    )
    return _finish(problem, best, spread, upper, coeffs, with_phi=True)
