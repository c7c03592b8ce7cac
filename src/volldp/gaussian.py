"""Sampling and covariance of the joint driver (B, Bhat).

Bhat_l(t) = int_0^t K_l(t, s) dB_l(s) is discretized on the grid by a
hybrid convolution scheme.  For every step cell [t_j, t_{j+1}] the sampler
carries two Gaussians:

* the plain increment  dB_j,
* the power-weighted increment  V_j = int_cell (t_{j+1} - s)^kappa dB_l(s),

drawn jointly with their exact 2x2 covariance (kappa is the kernel's
diagonal exponent H - 1/2).  The convolution then reads

    Bhat(t_i) = sum_{j <= i-2} w_ij dB_j + A_i V_{i-1},

where w_ij is the cell average of K(t_i, .) over cell j (a 4-node
Gauss-Legendre value) and A_i is the calibrated power-law amplitude of the
kernel in the cell adjacent to the diagonal.  The adjacent-cell integral is
thereby exact for power-law kernels, which keeps the sampled covariance
faithful to the continuous one even at the first grid nodes.  All cell
values come from one chunked evaluation of the kernel on the grid's lower
triangle (``kernels.eval_lower_triangle``); A_1, whose cell starts at the
origin, is calibrated at the cell midpoint for kernels singular there.
The cell moments Cov(dB, V) and Var(V) are ``kernels.cell_moments``, and
the covariance behind the Cholesky oracle is ``kernels.slice_products``
column by column: both are the kernels module's one power-law rule.

A path set is a stack of arrays with the path on the leading axis: dB and V
of shape (n, N, p), Bhat of shape (n, N + 1, p).  ``replay_volterra``
recomputes Bhat from stored dB and V arrays bit for bit, provided the draw
convolved one path at a time (``per_path_convolve``); the batched product
of the Monte Carlo blocks may differ from it in the last ulp.

Randomness is counter-based: path k reads a dedicated counter range of a
Philox stream keyed by the seed, so path sets are reproducible and
independent of batch size or generation order.  Normals are produced from
64-bit uniforms through the inverse normal CDF so each path consumes a
fixed, layout-stable number of words.  The tail estimators rely on this:
they draw fixed counter blocks of paths (``first_path`` is the block's
first path) on worker threads and add the per-block partial sums in block
order, so their results do not depend on the thread count.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri
from scipy.stats import ks_2samp

from .errors import ConfigurationError, DomainError, QuadratureError
from .grids import TimeGrid
from .kernels import (
    KernelBank,
    VolterraKernel,
    cell_moments,
    edge_coefficient,
    eval_lower_triangle,
    kernel_l2_slice,
    slice_products,
)

_GL4 = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# counter-based normal streams
# ---------------------------------------------------------------------------


def path_normals(seed: int, first_path: int, n_paths: int, n_draws: int) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths).

    Path k owns the Philox counter blocks [k * stride, (k + 1) * stride) with
    stride = ceil(n_draws / 4), so the values depend only on (seed, k, slot)
    and stay identical under any batching of the path range.
    """
    if n_draws <= 0 or n_paths <= 0:
        raise DomainError("n_paths and n_draws must be positive")
    stride = (n_draws + 3) // 4
    bg = np.random.Philox(key=int(seed) & ((1 << 64) - 1))
    bg.advance(first_path * stride)
    raw = bg.random_raw(n_paths * stride * 4).reshape(n_paths, stride * 4)[:, :n_draws]
    # ((word >> 11) + 0.5) * 2^-53 with the roundings of that expression,
    # each step written over the words: the uniforms and normals live in the
    # buffer of the raw draws (the uint64 -> float64 step goes through a
    # temporary numpy frees at once)
    raw >>= np.uint64(11)
    u = raw.view(np.float64)
    np.add(raw, 0.5, out=u)
    u *= 2.0**-53
    return ndtri(u, out=u)


# ---------------------------------------------------------------------------
# kernel discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelDiscretization:
    """Convolution weights of one kernel on one grid.

    mean_weights[i, j] multiplies dB_j in Bhat(t_i) for j <= i - 2;
    edge_coeff[i] multiplies the adjacent-cell Gaussian V_{i-1}.  kappa_c and
    kappa_v are the cell moments Cov(dB, V) and Var(V).
    """

    grid: TimeGrid
    kappa: float
    mean_weights: np.ndarray  # (N + 1, N)
    edge_coeff: np.ndarray    # (N + 1,)
    kappa_c: float
    kappa_v: float

    @property
    def hat_weights(self) -> np.ndarray:
        """Cell integrals c_ij with  fhat(t_i) = sum_j c_ij fdot(t_j)."""
        c = self.mean_weights * self.grid.dt
        n = self.grid.n_steps
        idx = np.arange(1, n + 1)
        c[idx, idx - 1] = self.edge_coeff[1:] * self.kappa_c
        return c

    def convolve_increments(
        self, increments: np.ndarray, singular: np.ndarray
    ) -> np.ndarray:
        """Bhat at every node for stacked paths (leading axis = path)."""
        vals = increments @ self.mean_weights.T
        vals[..., 1:] += singular * self.edge_coeff[1:]
        return vals

    def row_l2(self) -> np.ndarray:
        """Exact second moment of the discretized Bhat at every node."""
        dt = self.grid.dt
        quad = np.sum(self.mean_weights**2, axis=1) * dt
        quad[1:] += self.edge_coeff[1:] ** 2 * self.kappa_v
        return quad


@lru_cache(maxsize=64)
def discretize_kernel(kernel: VolterraKernel, grid: TimeGrid) -> KernelDiscretization:
    """Build (and cache) the convolution weights of ``kernel`` on ``grid``."""
    n, dt, t = grid.n_steps, grid.dt, grid.nodes
    if grid.horizon > kernel.horizon * (1 + 1e-12):
        raise ConfigurationError(
            f"grid horizon {grid.horizon} exceeds kernel horizon {kernel.horizon}"
        )
    kappa = kernel.singular_exponent
    xg, wg = _GL4
    # all cells j <= i - 2 of all rows at once: (pair, Gauss node) values
    vals = eval_lower_triangle(kernel, t, 0.5 * dt * (xg + 1.0), lag=2)
    # add the Gauss nodes left to right (no matrix product), so every weight
    # is one fixed sequence of roundings whatever the chunking
    cell = wg[0] * vals[:, 0]
    for q in range(1, xg.size):
        cell += wg[q] * vals[:, q]
    cell *= 0.5
    weights = np.zeros((n + 1, n))
    weights[np.tri(n + 1, n, -2, dtype=bool)] = cell
    edge = np.zeros(n + 1)
    edge[1:] = edge_coefficient(kernel, t[1:], t[:-1], dt)
    kappa_c, kappa_v = cell_moments(kappa, dt)
    return KernelDiscretization(
        grid=grid,
        kappa=kappa,
        mean_weights=weights,
        edge_coeff=edge,
        kappa_c=kappa_c,
        kappa_v=kappa_v,
    )


def bank_discretizations(bank: KernelBank, grid: TimeGrid) -> list:
    return [discretize_kernel(k, grid) for k in bank]


# ---------------------------------------------------------------------------
# joint sampling
# ---------------------------------------------------------------------------


def draw_driver_arrays(
    bank: KernelBank,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    first_path: int = 0,
    extra_draws: int = 0,
    per_path_convolve: bool = False,
):
    """Vectorized draw of (dB, V, Bhat[, extras]) for a block of paths.

    Returns arrays of shapes (n, N, p), (n, N, p), (n, N + 1, p) and, when
    ``extra_draws`` > 0, the remaining standard normals of each path's
    budget, shape (n, extra_draws).  The per-path word budget is
    N * (2 p) + extra_draws, fixed by the call signature.

    With ``per_path_convolve`` the convolution runs one path at a time with
    the same matrix product ``replay_volterra`` uses, so that stored Bhat
    values reproduce bit for bit under replay.  The batched default is
    faster for Monte Carlo blocks but may differ from the replay product in
    the last ulp (BLAS blocking depends on operand shape).
    """
    n, p = grid.n_steps, bank.n_factors
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    n_draws = n * 2 * p + extra_draws
    z = path_normals(seed, first_path, n_paths, n_draws)
    incr_z = z[:, : n * p].reshape(n_paths, n, p)
    edge_z = z[:, n * p : 2 * n * p].reshape(n_paths, n, p)
    extras = z[:, 2 * n * p :] if extra_draws else None
    dt = grid.dt
    increments = incr_z * np.sqrt(dt)
    discs = bank_discretizations(bank, grid)
    singular = np.empty_like(increments)
    for ell, disc in enumerate(discs):
        rho = disc.kappa_c / dt
        resid = disc.kappa_v - disc.kappa_c**2 / dt
        resid = np.sqrt(resid) if resid > 0.0 else 0.0
        singular[:, :, ell] = rho * increments[:, :, ell] + resid * edge_z[:, :, ell]
    volterra = _convolve(discs, increments, singular, per_path_convolve)
    return increments, singular, volterra, extras


def _convolve(discs, increments, singular, per_path: bool) -> np.ndarray:
    """Bhat (n, N + 1, p) from dB and V (n, N, p), factor by factor."""
    n_paths, n, p = increments.shape
    volterra = np.empty((n_paths, n + 1, p))
    for ell, disc in enumerate(discs):
        if per_path:
            for k in range(n_paths):
                volterra[k, :, ell] = disc.convolve_increments(
                    increments[k, None, :, ell], singular[k, None, :, ell]
                )[0]
        else:
            volterra[:, :, ell] = disc.convolve_increments(
                increments[:, :, ell], singular[:, :, ell]
            )
    return volterra


def replay_volterra(
    bank: KernelBank, grid: TimeGrid, increments: np.ndarray, singular: np.ndarray
) -> np.ndarray:
    """Recompute Bhat (n, N + 1, p) from stored dB and V arrays (n, N, p).

    Convolves one path at a time, as ``draw_driver_arrays(...,
    per_path_convolve=True)`` does, so the result matches the Bhat stored
    by such a draw bit for bit; tests use this to pin down the convolution
    contract.
    """
    return _convolve(bank_discretizations(bank, grid), increments, singular, True)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


@dataclass
class CovarianceBlocks:
    """Block-diagonal covariance of (Bhat_l(t_i))_{l, i >= 1}."""

    grid: TimeGrid
    blocks: np.ndarray  # (p, N, N)

    def dense(self) -> np.ndarray:
        p, n, _ = self.blocks.shape
        out = np.zeros((p * n, p * n))
        for ell in range(p):
            out[ell * n : (ell + 1) * n, ell * n : (ell + 1) * n] = self.blocks[ell]
        return out


def covariance_matrix(
    bank: KernelBank, grid: TimeGrid, n_quad: int = 256
) -> CovarianceBlocks:
    """Covariance blocks  k(t, s) = int_0^min(t,s) K(t, u) K(s, u) du.

    Column j is one call of ``kernels.slice_products`` at s = t_j for all
    t >= t_j, the rule of ``kernel_l2_slice``, so the diagonal is the slice
    norm.  Raises ``QuadratureError`` when a block comes out non-finite or
    fails the positive-semidefiniteness tolerance (min eigenvalue
    >= -1e-10 * trace).
    """
    if n_quad < 2:
        raise DomainError(f"n_quad must be >= 2, got {n_quad}")
    n, p = grid.n_steps, bank.n_factors
    t = grid.nodes
    blocks = np.zeros((p, n, n))
    for ell, kernel in enumerate(bank):
        for j in range(1, n + 1):
            entries = slice_products(kernel, t[j], t[j:], n_quad)
            blocks[ell, j - 1, j - 1 :] = entries
            blocks[ell, j - 1 :, j - 1] = entries
    if not np.all(np.isfinite(blocks)):
        raise QuadratureError("covariance quadrature produced non-finite entries")
    for ell in range(p):
        eigs = np.linalg.eigvalsh(blocks[ell])
        tol = 1e-10 * np.trace(blocks[ell])
        if eigs[0] < -tol:
            raise QuadratureError(
                f"covariance block {ell} fails PSD tolerance: "
                f"min eig {eigs[0]:.3e} < {-tol:.3e}"
            )
    return CovarianceBlocks(grid=grid, blocks=blocks)


def empirical_covariance(paths: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance per factor across paths, node pair by pair.

    ``paths`` is one path set of shape (n, N + 1, p), for instance the Bhat
    or B array of a draw; returns an array of shape (p, N + 1, N + 1).
    Requires n >= 2.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3:
        raise DomainError(f"path set must have shape (n, N + 1, p), got {paths.shape}")
    n_samp, n_nodes, p = paths.shape
    if n_samp < 2:
        raise DomainError("empirical covariance needs at least two samples")
    centered = paths - paths.mean(axis=0)
    out = np.empty((p, n_nodes, n_nodes))
    for ell in range(p):
        x = centered[:, :, ell]
        out[ell] = x.T @ x / (n_samp - 1)
    return out


def sample_volterra_cholesky(
    bank: KernelBank,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_quad: int = 256,
) -> np.ndarray:
    """Exact-covariance Gaussian sampler used as a cross-check oracle.

    Draws Bhat from a Cholesky factor of the quadrature covariance, shape
    (n_paths, N + 1, p).  This is an independent route from the convolution
    sampler and is kept solely for distributional cross-checks.
    """
    cov = covariance_matrix(bank, grid, n_quad)
    n, p = grid.n_steps, bank.n_factors
    chols = []
    for ell in range(p):
        block = cov.blocks[ell]
        jitter = 1e-12 * max(np.trace(block), 1.0)
        chols.append(np.linalg.cholesky(block + jitter * np.eye(n)))
    z = path_normals(seed, 0, n_paths, n * p).reshape(n_paths, n, p)
    out = np.zeros((n_paths, n + 1, p))
    for ell in range(p):
        out[:, 1:, ell] = z[:, :, ell] @ chols[ell].T
    return out


def marginal_ks_check(
    bank: KernelBank,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    factor: int = 0,
    n_quad: int = 256,
):
    """Two-sample KS of Bhat(T): convolution sampler vs Cholesky oracle."""
    _, _, volterra, _ = draw_driver_arrays(bank, grid, n_paths, seed)
    chol = sample_volterra_cholesky(bank, grid, n_paths, seed + 1, n_quad)
    return ks_2samp(volterra[:, -1, factor], chol[:, -1, factor])


def terminal_variance_bound(bank: KernelBank, n_quad: int = 512) -> float:
    """sup over t of sum_l int_0^t K_l(t, s)^2 ds (crude grid sup).

    This constant bounds |fhat(t)|^2 / |f|_H1^2; it is evaluated on a probe
    grid of 65 nodes.
    """
    probes = np.linspace(0.0, bank.horizon, 65)[1:]
    total = np.zeros_like(probes)
    for kernel in bank:
        total += np.array([kernel_l2_slice(kernel, t, n_quad) for t in probes])
    return float(np.max(total))
