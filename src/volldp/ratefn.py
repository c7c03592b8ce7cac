"""Large-deviation rate functionals on discretized Cameron-Martin space.

Controls are absolutely continuous paths f with piecewise-constant
derivative on the grid; their energy is |f|^2 = sum_j |fdot_j|^2 dt.  The
building blocks are

* the quadratic path functional  Gamma(x | A) = 1/2 int xdot^T A xdot dt,
* the drift-adjusted form        J(x | phi) = Gamma(x - int mu(phi) | a^(-1)(phi)),
* the kernel lift (hat map)      fhat_l(t) = int_0^t K_l(t, s) fdot_l(s) ds,
* the correlation integrals      Phi (sigma_tilde along fhat) and Phi^m
  (sigma_tilde frozen at block left endpoints).

Gamma and the lift are functions here; J, Phi and Phi^m exist only inside
the objective below.  The tests hold standalone reference versions of J
and Phi^m (``tests/reference.py``) and check the objective against them.

On the grid the lift is triangular: fhat_l(t_0) = 0 and fhat_l[1:] = L_l fdot_l
with L_l the N x N lower-triangular block of the cell integrals, so the lift
and its adjoint are BLAS triangular matrix-vector products.  The induced
variational problems are

    I_X(x)   = inf_f 1/2 |f|^2 + J(x | fhat)                    (uncorrelated)
    I_Z^m(x) = inf_f 1/2 |f|^2 + J(x - Phi^m(f, fhat) | fhat)   (frozen blocks)
    I_Z(x)   = inf_f 1/2 |f|^2 + J(x - Phi(f, fhat) | fhat)     (correlated)
    I_T(z)   = inf of I_Z over the paths x with x(T) = z        (terminal)

All four are one objective F(f) = 1/2 |f|^2 + (inner quadratic).  The
inner problem pins Z at segment end nodes c_1 < ... < c_k = N: every node
for the pathwise rates, T alone for I_T.  On segment i of L_i steps, with
abar_i the mean of a = sigma sigma^T over it and rbar_i the target mean
rate of Z less the mean of mu + Phidot, the weight w_i = abar_i^(-1) rbar_i
is held over the segment and the inner value is 1/2 sum_i L_i dt
rbar_i.w_i, the closed-form Euler-Lagrange quadratic; no inner iteration
happens anywhere.  The functionals differ only in the end nodes and in the
block span at which sigma_tilde reads fhat (N / m: block left ends, I_Z^m;
1: every node, I_Z and I_T); I_X is I_Z of the model's sigma_tilde = 0
copy, where Phi vanishes.  With w held over each segment,
d/d(mu_j + Phidot_j) = -w_j dt and d/d(sigma_j) = -w_j (sigma_j^T w_j)^T dt,
so the adjoint gradient and the Wiener-direction control sigma^T w are
written once.  The outer minimization runs a bounded-memory quasi-Newton
method with backtracking line search, gradients assembled by adjoint
accumulation through the chain f -> fhat -> Phi -> inner, multi-start
(zero start plus Gaussian seeds), and projection of iterates onto the
energy ball |f|^2 <= 2 F(0), inside which the minimizer is guaranteed to
live; for the pathwise functionals 2 F(0) is
C_x = int (xdot - mu(0))^T a^(-1)(0) (xdot - mu(0)) dt.

The starts run in lockstep.  The objective's forward pass and adjoint are
written once, over a stack of controls, and no step of them mixes rows, so
a row's value and gradient are the bits it has evaluated alone; a row whose
segment-mean a is singular gets +inf and a zero gradient.  Each round
evaluates the pending point of every running start in one call on their
stack, each start keeps its own curvature pairs, line search, projection
and stopping test, and a start that stops leaves the stack.  Every start's
result is bitwise that of the start run alone, and a multi-start costs as
many evaluations as its longest start.

The multi-start runs on a coarse level when the grid allows one: N is
halved while it is even and the halved grid keeps at least 64 steps (and,
for I_Z^m, a multiple of m steps).  The coarse objective keeps the end
nodes that lie on the coarse grid, with the same values of Z, and the best
coarse start, repeated onto the working grid, is refined by one more
minimizer run there, a stack of one.  The start table lists the coarse
starts, then the refinement; the spread check reads the coarse starts only.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrmv

from .errors import (
    ConfigurationError, DomainError, OptimizationError,
)
from .gaussian import discretize_kernel
from .grids import TimeGrid
from .kernels import KernelBank
from .model import (
    ConstantMap, ModelCoefficients, _require_nonsingular, _singularity_margin,
)


# The minimizer's settings: tolerance on the projected-gradient step,
# iteration cap, stored curvature pairs and the start spread that warns.
_TOL = 1e-8
_MAX_ITER = 500
_MEMORY = 10
_SPREAD_WARN = 0.01


class MultistartSpreadWarning(RuntimeWarning):
    """Raised when independent optimizer starts disagree by more than
    ``_SPREAD_WARN`` (1%)."""


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


def _lift(tri, dmat) -> np.ndarray:
    """fhat at every node, (..., N + 1, p), of controls (..., N, p):
    fhat(t_0) = 0, fhat[1:, l] = L_l fdot_l.

    ``tri`` holds each factor's L = hat_weights[1:], N x N lower triangular
    (see ``KernelDiscretization.hat_weights``).  Its transpose is the
    Fortran-ordered upper triangle BLAS reads without a copy.  One
    triangular product per control and factor, so a control's lift does
    not depend on the stack it is in.
    """
    n, p = dmat.shape[-2:]
    fhat = np.zeros(dmat.shape[:-2] + (n + 1, p))
    for row, out in zip(dmat.reshape(-1, n, p), fhat.reshape(-1, n + 1, p)):
        for ell, low in enumerate(tri):
            out[1:, ell] = dtrmv(low.T, row[:, ell], trans=1)
    return fhat


def _lift_adjoint(tri, s_nodes) -> np.ndarray:
    """L_l^T s_l per factor, (..., N, p): node sensitivities pulled back to fdot.

    ``s_nodes`` is (..., N + 1, p); node 0 drops out, as fhat(t_0) = 0.
    """
    n, p = s_nodes.shape[-2] - 1, s_nodes.shape[-1]
    out = np.empty(s_nodes.shape[:-2] + (n, p))
    for row, pulled in zip(s_nodes.reshape(-1, n + 1, p), out.reshape(-1, n, p)):
        for ell, low in enumerate(tri):
            pulled[:, ell] = dtrmv(low.T, row[1:, ell])
    return out


def _lift_factors(bank: KernelBank, grid: TimeGrid) -> list:
    """Each factor's lower-triangular lift L = hat_weights[1:] on ``grid``."""
    return [discretize_kernel(kernel, grid).hat_weights[1:] for kernel in bank]


def hat_map(f: CameronMartinPath, bank: KernelBank) -> np.ndarray:
    """Kernel lift fhat_l(t_i) = sum_j (cell integral of K_l(t_i, .)) fdot_l(t_j),
    at every node, (N + 1, p).

    Uses the same cell-exact weights as the path sampler, so fhat is exactly
    the Cameron-Martin shift of dB alone in the discrete convolution scheme:
    the edge normals xi that ``gaussian.draw_driver_arrays`` adds to each
    singular cell stay at zero.  With a non-Brownian factor the rate reported
    from this lift is therefore an upper bound of the N-step scheme's rate.
    """
    if f.dim != bank.n_factors:
        raise DomainError(
            f"control has {f.dim} components, bank has {bank.n_factors}"
        )
    return _lift(_lift_factors(bank, f.grid), f.derivative)


def _phi(coeffs: ModelCoefficients, g: np.ndarray, dmat: np.ndarray, span):
    """Per-step sigma_tilde and Phidot_j = sigma_tilde_j fdot_j, (..., N, d).

    sigma_tilde is read from the node values ``g`` (..., N + 1, p) at the
    left end of each block of ``span`` steps and held across the block.
    """
    n = dmat.shape[-2]
    sigt = np.repeat(coeffs.sigma_tilde(g[..., :n:span, :]), span, axis=-3)
    return sigt, np.einsum("...jil,...jl->...ji", sigt, dmat)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start of the quasi-Newton minimizer: the number of starts and the
    seed of their Gaussian draws (the other settings are module constants)."""

    n_starts: int = 5
    seed: int = 7

    def __post_init__(self):
        for name, lo in (("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not value >= lo:
                raise ConfigurationError(f"{name} must be >= {lo}, got {value}")


@dataclass
class RateSolution:
    """Result of a rate-functional minimization."""

    value: float
    control: CameronMartinPath
    iterations: int
    grad_norm: float
    converged: bool
    upper_bound_used: float
    multistart_spread: float
    inner_drift: np.ndarray  # (N, d), Wiener-direction control
    # one row per optimizer start, in start order, then the refinement on
    # the working grid when the starts ran on a coarse level: value (before
    # the clamp at 0), iterations, criterion (projected-gradient step) and
    # converged
    starts: tuple = ()


def _lbfgs_run(x0, dt, radius_sq):
    """One start of projected L-BFGS with Armijo backtracking on flat arrays.

    A generator: it yields each point it needs evaluated, is sent back that
    point's (value, gradient), and returns (x, F, gradient, iterations,
    converged, criterion).  The feasible set is the energy ball
    dt * |x|^2 <= radius_sq (radial projection).  Convergence once the
    projected gradient step satisfies |x - P(x - g)| <= _TOL * (1 + |F|),
    within ``_MAX_ITER`` iterations and with the last ``_MEMORY``
    curvature pairs.
    """

    def project(x):
        nrm = dt * float(x @ x)
        if nrm <= radius_sq or nrm == 0.0:
            return x
        return x * np.sqrt(radius_sq / nrm)

    x = project(x0.copy())
    f, g = yield x
    if not np.isfinite(f):
        raise OptimizationError("objective not finite at the starting point")
    s_hist, y_hist, rho_hist = [], [], []
    n_iter = 0
    crit = np.linalg.norm(x - project(x - g))
    while n_iter < _MAX_ITER and crit > _TOL * (1.0 + abs(f)):
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
            f_new, g_new = yield x_new
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
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        n_iter += 1
        crit = np.linalg.norm(x - project(x - g))
    converged = bool(crit <= _TOL * (1.0 + abs(f)))
    return x, f, g, n_iter, converged, float(crit)


def _lbfgs(value_grad, starts, dt, radius_sq) -> list:
    """Run ``_lbfgs_run`` from each start in lockstep; one result per start.

    Each round evaluates the pending point of every running start in one
    ``value_grad`` call on their stack, and a start that stops leaves the
    stack.  Each start keeps its own curvature pairs, line search and
    stopping test, and ``value_grad`` gives a row the bits it gives the row
    alone, so every result is bitwise that of the start run by itself.
    """
    runs = [_lbfgs_run(x0, dt, radius_sq) for x0 in starts]
    pending = {k: next(run) for k, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        values, grads = value_grad(np.stack(list(pending.values())))
        for k, f, g in zip(list(pending), values, grads):
            try:
                pending[k] = runs[k].send((f, g))
            except StopIteration as stop:
                results[k] = stop.value
                del pending[k]
    return results


def _start_row(result) -> dict:
    """One row of ``RateSolution.starts`` from an ``_lbfgs_run`` result."""
    _, f, _, n_iter, converged, crit = result
    return {"value": float(f), "iterations": n_iter, "criterion": crit,
            "converged": converged}


def _multistart(value_grad, shape, dt, radius_sq, cfg: OptimizerConfig):
    """Run the minimizer from zero plus Gaussian-seeded starts; keep the best.

    The starts advance in lockstep (``_lbfgs``): each round is one
    objective evaluation on the stack of the starts still running.
    Returns the best run, the relative spread of the start values and the
    per-start table of ``RateSolution.starts``.
    """
    n_vars = int(np.prod(shape))
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(n_vars)]
    radius = np.sqrt(radius_sq)
    for k in range(cfg.n_starts - 1):
        z = rng.standard_normal(n_vars)
        nrm = np.sqrt(dt) * np.linalg.norm(z)
        scale = radius * (0.15 + 0.2 * k) / max(nrm, 1e-300)
        starts.append(z * scale)
    results = _lbfgs(value_grad, starts, dt, radius_sq)
    best = min(results, key=lambda r: r[1])
    table = tuple(_start_row(r) for r in results)
    values = np.array([r[1] for r in results])
    spread = float(np.max(values) - np.min(values)) / max(abs(best[1]), 1e-12)
    if spread > _SPREAD_WARN and np.max(values) - np.min(values) > 1e-9:
        warnings.warn(
            f"optimizer starts disagree by {spread:.2%}; the landscape may "
            "be multimodal",
            MultistartSpreadWarning,
            stacklevel=3,
        )
    return best, spread, table


# ---------------------------------------------------------------------------
# objective assembly
# ---------------------------------------------------------------------------

# Fewest steps of a coarse level: below this an evaluation costs mostly
# fixed per-call overhead, so coarsening gains little.
_COARSE_MIN_STEPS = 64


class _Objective:
    """F(f) = 1/2 |f|^2 + inner quadratic, for every rate functional.

    The inner problem pins Z at the segment end nodes ``ends``,
    c_1 < ... < c_k = N: the pathwise rates pin every node (ends 1..N,
    ``rate`` = xdot), I_T pins T only (ends (N,), ``rate`` = z / T).
    ``rate`` (k, d) is the target mean rate of Z over each segment.  ``m``
    is I_Z^m's block count (None: every node), so sigma_tilde is frozen at
    the lifted control over blocks of ``span`` = N // m steps (1 for I_X
    on the sigma_tilde = 0 model, I_Z and I_T).
    """

    def __init__(self, grid, bank, coeffs, ends, rate, m=None):
        self.grid = grid
        self.bank = bank
        self.coeffs = coeffs
        self.ends = np.asarray(ends, dtype=int)
        self.rate = np.asarray(rate, dtype=float)
        self.m = m
        self.n = grid.n_steps
        self.span = 1 if m is None else self.n // m
        self.p = coeffs.p
        self.dt = grid.dt
        self.first_steps = np.concatenate(([0], self.ends[:-1]))
        self.lengths = np.diff(self.ends, prepend=0)
        self.tri = _lift_factors(bank, grid)

    def _diffusion(self, dmat):
        """fhat, sigma per step and the segment means abar_i of
        a = sigma sigma^T, for a stack of controls ``dmat`` (rows, N, p)."""
        fhat = _lift(self.tri, dmat)
        sig = self.coeffs.sigma(fhat[:, : self.n])
        a = sig @ np.swapaxes(sig, -1, -2)
        a_bar = np.add.reduceat(a, self.first_steps, axis=1) / (
            self.lengths[:, None, None])
        return fhat, sig, a_bar

    def _weights(self, dmat, fhat, sig, a_bar):
        """(sigma_tilde per step, w, sigma^T w, inner value) of each control
        of a stack, from ``_diffusion``'s output with every abar_i
        nonsingular.

        On segment i of L_i steps, with rbar_i the target rate less the mean
        of mu + Phidot, the weight w_i = abar_i^(-1) rbar_i is held over the
        segment and the inner value is 1/2 sum_i L_i dt rbar_i.w_i.
        sigma^T w is the Wiener-direction control.
        """
        co = self.coeffs
        sigt, phidot = _phi(co, fhat, dmat, self.span)
        first, steps = self.first_steps, self.lengths[:, None]
        mu_bar = np.add.reduceat(co.mu(fhat[:, : self.n]), first, axis=1) / steps
        r_bar = (self.rate - mu_bar) - np.add.reduceat(phidot, first, axis=1) / steps
        w_bar = np.linalg.solve(a_bar, r_bar[..., None])[..., 0]
        terms = (steps * r_bar * w_bar).reshape(len(dmat), self.ends.size * co.d)
        value = 0.5 * np.sum(terms, axis=1) * self.dt
        w = np.repeat(w_bar, self.lengths, axis=1)
        return sigt, w, np.einsum("...jik,...ji->...jk", sig, w), value

    def inner(self, dmat):
        """(fhat, sigma_tilde per step, w, sigma^T w, inner value) at one
        control ``dmat`` (N, p), a stack of one.

        Raises ``SingularDiffusionError`` where an abar_i is singular.
        """
        stack = dmat[None]
        fhat, sig, a_bar = self._diffusion(stack)
        _require_nonsingular(a_bar[0], "segment-mean diffusion matrix")
        fields = (fhat,) + self._weights(stack, fhat, sig, a_bar)
        return tuple(field[0] for field in fields)

    def value_grad(self, flat):
        """Objective and adjoint gradient at each row of a stack of flat
        controls (rows, N p): values (rows,) and gradients (rows, N p); one
        flat control (N p,) gives one value and one gradient.

        A row where an abar_i is singular (a negative
        ``_singularity_margin``) gets +inf and a zero gradient and leaves
        the rest of the pass.  No step of the pass mixes rows, so a row's
        value and gradient are the bits it has evaluated alone.
        With w held over each segment, d/d(mu_j + Phidot_j) = -w_j dt and
        d/d(sigma_j) = -w_j (sigma_j^T w_j)^T dt.
        """
        co, dt, n, p, d = self.coeffs, self.dt, self.n, self.p, self.coeffs.d
        stack = flat.reshape(-1, n, p)
        values = np.full(len(stack), np.inf)
        grads = np.zeros(stack.shape)
        fhat, sig, a_bar = self._diffusion(stack)
        margin = _singularity_margin(a_bar)[0].reshape(len(stack), -1)
        ok = np.min(margin, axis=1) >= 0.0
        dmat = stack
        if not ok.all():
            dmat, fhat, sig, a_bar = stack[ok], fhat[ok], sig[ok], a_bar[ok]
        sigt, w, sw, inner = self._weights(dmat, fhat, sig, a_bar)
        rows, y = len(dmat), fhat[:, :n]

        dmu = co.mu.jacobian(y)
        dsig = co.sigma.jacobian(y).reshape(rows, n, d * d, p)
        # sum_ik w_i (sigma^T w)_k dsigma_ik/dy_m as the outer product
        # w (sigma^T w)^T, flattened, against the flattened Jacobian
        wsw = (w[..., :, None] * sw[..., None, :]).reshape(rows, n, d * d)
        s_nodes = np.zeros((rows, n + 1, p))
        s_nodes[:, :n] -= np.einsum("...ji,...jim->...jm", w, dmu) * dt
        s_nodes[:, :n] -= np.einsum("...jq,...jqm->...jm", wsw, dsig) * dt
        # sigma_tilde is read once per block: sum w fdot^T over the block,
        # then contract with the Jacobian at its left end
        span = self.span
        blocks = n // span
        wf = (w[..., :, None] * dmat[..., None, :]).reshape(rows, blocks, span, d * p)
        dsigt = co.sigma_tilde.jacobian(fhat[:, :n:span]).reshape(
            rows, blocks, d * p, p)
        s_nodes[:, :n:span] -= np.einsum(
            "...bq,...bqm->...bm", wf.sum(axis=2), dsigt) * dt
        grad = dmat * dt - np.einsum("...jil,...ji->...jl", sigt, w) * dt
        grad += _lift_adjoint(self.tri, s_nodes)
        energy = np.sum((dmat * dmat).reshape(rows, n * p), axis=1)
        values[ok] = 0.5 * energy * dt + inner
        grads[ok] = grad
        # a flat control's value is the 0-d entry, read out as a scalar
        return values.reshape(flat.shape[:-1])[()], grads.reshape(flat.shape)


def _coarsen(objective):
    """``objective`` on the coarsest grid that halving reaches, or None.

    N is halved while it is even, the halved grid keeps at least
    ``_COARSE_MIN_STEPS`` steps and, for I_Z^m, a multiple of m.  The
    coarse objective keeps the end nodes that fall on the coarse grid, with
    the same values of Z: a merged segment's rate is the length-weighted
    mean of its parts' (xdot averaged per coarse step; z / T kept).
    """
    n, n_c, m = objective.n, objective.n, objective.m
    while (n_c % 2 == 0 and n_c // 2 >= _COARSE_MIN_STEPS
           and (m is None or (n_c // 2) % m == 0)):
        n_c //= 2
    if n_c == n:
        return None
    ratio, lengths = n // n_c, objective.lengths
    kept = np.flatnonzero(objective.ends % ratio == 0)
    merged = np.concatenate(([0], kept[:-1] + 1))
    rate = np.add.reduceat(objective.rate * lengths[:, None], merged) / (
        np.add.reduceat(lengths, merged)[:, None])
    return _Objective(
        TimeGrid(objective.grid.horizon, n_c), objective.bank, objective.coeffs,
        objective.ends[kept] // ratio, rate, m,
    )


def _value_at_zero(objective) -> float:
    """F(0); the minimizer lies in the ball |f|^2 <= 2 F(0)."""
    return objective.inner(np.zeros((objective.n, objective.p)))[-1]


def _solve(objective, opt: OptimizerConfig) -> RateSolution:
    """Minimize over the ball |f|^2 <= 2 F(0) and collect the solution.

    F(0) is the inner value at f = 0 (2 F(0) = C_x for the pathwise
    functionals); a singular diffusion at f = 0 raises
    ``SingularDiffusionError``.

    When ``_coarsen`` finds a coarse level, the multi-start runs there, on
    the coarse objective's own ball, and its best start is prolonged by
    repetition onto the working grid and refined by one more minimizer run
    in the working ball.  The spread is that of the coarse starts; the start
    table is the coarse rows, then the refinement row, which also gives the
    iterations, criterion and convergence flag.
    """
    n, p, grid = objective.n, objective.p, objective.grid
    upper = _value_at_zero(objective)
    coarse = _coarsen(objective)
    if coarse is None:
        best, spread, table = _multistart(
            objective.value_grad, (n, p), grid.dt, 2.0 * upper, opt
        )
    else:
        winner, spread, table = _multistart(
            coarse.value_grad, (coarse.n, p), coarse.dt,
            2.0 * _value_at_zero(coarse), opt,
        )
        x0 = np.repeat(winner[0].reshape(coarse.n, p), n // coarse.n, axis=0)
        best = _lbfgs(objective.value_grad, [x0.reshape(-1)], grid.dt,
                      2.0 * upper)[0]
        table += (_start_row(best),)
    x_best, f_best, _, iters, converged, crit = best
    dmat = x_best.reshape(n, p)
    return RateSolution(
        value=max(float(f_best), 0.0),
        control=CameronMartinPath(grid, dmat),
        iterations=iters,
        grad_norm=float(crit),
        converged=converged,
        upper_bound_used=upper,
        multistart_spread=spread,
        inner_drift=objective.inner(dmat)[3],
        starts=table,
    )


def _pathwise(x: CameronMartinPath, bank, coeffs, m, opt) -> RateSolution:
    """A pathwise rate; ``m`` blocks for I_Z^m, None for I_X and I_Z."""
    if x.dim != coeffs.d:
        raise DomainError(
            f"target path has dimension {x.dim}, model has d = {coeffs.d}"
        )
    ends = np.arange(1, x.grid.n_steps + 1)
    return _solve(_Objective(x.grid, bank, coeffs, ends, x.derivative, m), opt)


def _uncorrelated(coeffs: ModelCoefficients) -> ModelCoefficients:
    """The copy of ``coeffs`` with sigma_tilde = 0: the uncorrelated model."""
    return replace(
        coeffs, sigma_tilde=ConstantMap(np.zeros((coeffs.d, coeffs.p)), coeffs.p)
    )


def i_uncorrelated(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Rate of the uncorrelated model: inf_f 1/2 |f|^2 + J(x | fhat), the
    I_Z of the model's sigma_tilde = 0 copy."""
    return _pathwise(x, bank, _uncorrelated(coeffs), None, opt)


def i_z_m(
    x: CameronMartinPath,
    m: int,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Frozen-block correlated rate inf_f 1/2 |f|^2 + J(x - Phi^m(f, fhat) | fhat)."""
    x.grid.require_divisible(m)
    return _pathwise(x, bank, coeffs, m, opt)


def i_z(
    x: CameronMartinPath,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Correlated rate inf_f 1/2 |f|^2 + J(x - Phi(f, fhat) | fhat) on the C_x ball."""
    return _pathwise(x, bank, coeffs, None, opt)


def terminal_rate(
    z,
    bank: KernelBank,
    coeffs: ModelCoefficients,
    grid: TimeGrid,
    opt: OptimizerConfig = OptimizerConfig(),
) -> RateSolution:
    """Terminal rate I_T(z): Z pinned at T only."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (coeffs.d,):
        raise DomainError(
            f"terminal point has shape {z.shape}, expected ({coeffs.d},)"
        )
    return _solve(
        _Objective(grid, bank, coeffs, (grid.n_steps,), z[None] / grid.horizon), opt
    )
