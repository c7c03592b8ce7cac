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
values come from one evaluation of the kernel on the grid's lower triangle
(``kernels.eval_lower_triangle``); A_1, whose cell starts at the
origin, is calibrated at the cell midpoint for kernels singular there.
The cell moments Cov(dB, V) and Var(V) are ``kernels.cell_moments``, and
the quadrature covariance ``covariance_matrix`` is
``kernels.slice_products`` column by column: both are the kernels module's
one power-law rule.  The Cholesky sampler that the tests draw from that
covariance, an independent route to the same law, is a test reference
(``tests/reference.py``).

A path set is a stack of arrays with the path on the leading axis: dB and V
of shape (n, N, p), Bhat of shape (n, N + 1, p).

Randomness is addressed by path: the paths are grouped into fixed units of
``_UNIT_PATHS`` = 1,024, unit u of seed s owns its own SFC64 stream
(seeded by ``SeedSequence(s, spawn_key=(u,))``), and numpy's ziggurat
fills the unit's (paths, draws) slab row by row.  A normal therefore
depends only on (seed, path, slot, draw count), so path sets are
reproducible and independent of batch size or generation order;
regenerating one path redraws the prefix of its unit up to that path.
The convolution works in the same units: path k is row k % ``_UNIT_PATHS``
of one (``_UNIT_PATHS``, N) x (N, N + 1) product per factor for its unit,
with zeros in the rows that a call does not hold.  A row of a matrix
product reads no other row, so every path meets BLAS in one shape at one
row position, and Bhat, like the normals, does not depend on batching.
A Brownian shift (the tilt of the drivers along a control) is added to
dB before V and Bhat are formed, so a shifted draw goes through the same
convolution.  ``replay_volterra`` recomputes Bhat from stored dB and V
arrays bit for bit, shifted or not, for one path alone too, given the
index of the first stored path.
The Monte Carlo runs rely on this: ``asymptotics._blocks`` runs a body on
one unit per block (``first_path`` is the unit's first path, so no block
redraws a unit prefix) on worker threads and joins the bodies' results in
block order, so their results do not depend on the thread count.  Each
worker draws every block it runs into one ``Workspace``, a set of
unit-sized arrays that ``path_normals``, ``draw_driver_arrays``, the
convolution and the Euler step write into in place, with the same
operands in the same order, so no bit changes; dead slices stand in for
extra arrays.  A block's arrays are overwritten by the worker's next
block, so a body returns new arrays, never views of its workspace.  A
draw without a workspace gets new arrays.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    QuadratureError,
    ValidationError,
)
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
_UNIT_PATHS = 1024  # paths per normal stream


# ---------------------------------------------------------------------------
# per-thread arrays
# ---------------------------------------------------------------------------


class Workspace:
    """Named arrays that one thread reuses from draw to draw.

    ``take(name, shape)`` returns a C-ordered view of the flat array called
    ``name``, allocated on first use and again only when a larger shape is
    asked for, so a block reuses the memory of the block before and its
    pages stay mapped.  A taken array holds whatever its last user left,
    and the next ``take`` of its name hands the same memory out again.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


# ---------------------------------------------------------------------------
# path-addressed normal streams
# ---------------------------------------------------------------------------


def path_normals(
    seed: int, first_path: int, n_paths: int, n_draws: int, out=None
) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths).

    Path k is row k % ``_UNIT_PATHS`` of its unit k // ``_UNIT_PATHS``, whose
    SFC64 stream fills the unit's rows in C order, ``n_draws`` normals per
    row.  The values depend only on (seed, k, slot, n_draws) and stay
    identical under any batching of the path range: a unit that starts
    before ``first_path`` is drawn from its start and its leading rows are
    dropped, and the last unit draws only the rows up to the last path.
    ``out``, a C-ordered (n_paths, n_draws) array, receives the normals
    instead of a new array.
    """
    if n_draws <= 0 or n_paths <= 0:
        raise DomainError("n_paths and n_draws must be positive")
    if first_path < 0:
        raise DomainError(f"first_path must be >= 0, got {first_path}")
    entropy = int(seed) & ((1 << 64) - 1)
    stop = first_path + n_paths
    if out is None:
        out = np.empty((n_paths, n_draws))
    for unit in range(first_path // _UNIT_PATHS, (stop - 1) // _UNIT_PATHS + 1):
        base = unit * _UNIT_PATHS
        lo, hi = max(base, first_path), min(base + _UNIT_PATHS, stop)
        gen = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy, spawn_key=(unit,)))
        )
        rows = out[lo - first_path : hi - first_path]
        if lo == base:
            gen.standard_normal(out=rows)
        else:
            rows[:] = gen.standard_normal((hi - base, n_draws))[lo - base :]
    return out


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
    mean_weights: np.ndarray  # (N + 1, N)
    edge_coeff: np.ndarray    # (N + 1,)
    kappa_c: float
    kappa_v: float

    @cached_property
    def hat_weights(self) -> np.ndarray:
        """Cell integrals c_ij with  fhat(t_i) = sum_j c_ij fdot(t_j).

        Only cells j <= i - 1 are filled (mean weights at j <= i - 2, the
        edge cell at j = i - 1), for every kernel: row 0 is zero and
        ``hat_weights[1:]`` is N x N lower triangular with its diagonal.
        The rate objective's lift reads only that triangle.  Built on the
        first read and shared after it, so the array is read-only.
        """
        c = self.mean_weights * self.grid.dt
        n = self.grid.n_steps
        idx = np.arange(1, n + 1)
        c[idx, idx - 1] = self.edge_coeff[1:] * self.kappa_c
        c.setflags(write=False)
        return c

    def convolve_increments(
        self, increments: np.ndarray, singular: np.ndarray, out=None
    ) -> np.ndarray:
        """Bhat at every node for stacked paths (leading axis = path).

        ``out``, C-ordered like the result, receives it instead of a new
        array.
        """
        vals = np.matmul(increments, self.mean_weights.T, out=out)
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
    # is one fixed sequence of roundings whatever the grid size
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
    brownian_shift=None,
    work=None,
):
    """Vectorized draw of (dB, V, Bhat[, extras]) for a block of paths.

    Returns arrays of shapes (n, N, p), (n, N, p), (n, N + 1, p) and, when
    ``extra_draws`` > 0, the remaining standard normals of each path's
    budget, shape (n, extra_draws).  The per-path word budget is
    N * (2 p) + extra_draws, fixed by the call signature.
    ``brownian_shift`` (N, p) is a deterministic per-step drift added to dB
    before V and Bhat are formed, so a shifted draw is an ordinary draw of
    shifted increments.  Every value depends only on (seed, path index,
    budget, shift), not on ``n_paths`` or ``first_path`` (see
    ``_convolve``).  The arrays are taken from the ``Workspace`` ``work``,
    so the next draw into it overwrites them; without one they are new.
    """
    n, p = grid.n_steps, bank.n_factors
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    work = Workspace() if work is None else work
    n_draws = n * 2 * p + extra_draws
    z = path_normals(seed, first_path, n_paths, n_draws,
                     out=work.take("normals", (n_paths, n_draws)))
    incr_z = z[:, : n * p].reshape(n_paths, n, p)
    edge_z = z[:, n * p : 2 * n * p].reshape(n_paths, n, p)
    extras = z[:, 2 * n * p :] if extra_draws else None
    dt = grid.dt
    increments = np.multiply(incr_z, np.sqrt(dt),
                             out=work.take("increments", (n_paths, n, p)))
    if brownian_shift is not None:
        increments += brownian_shift
    discs = bank_discretizations(bank, grid)
    kappa_c = np.array([disc.kappa_c for disc in discs])
    resid = np.array([disc.kappa_v for disc in discs]) - kappa_c**2 / dt
    # z is independent of dB, so a shift h of dB moves V by kappa_c / dt * h;
    # the edge normals are read once, so their slice holds their term of V
    singular = np.multiply(kappa_c / dt, increments,
                           out=work.take("singular", (n_paths, n, p)))
    singular += np.multiply(np.sqrt(np.maximum(resid, 0.0)), edge_z, out=edge_z)
    volterra = _convolve(discs, increments, singular, first_path, work)
    return increments, singular, volterra, extras


def _convolve(discs, increments, singular, first_path: int, work) -> np.ndarray:
    """Bhat (n, N + 1, p) from dB and V (n, N, p) of paths from ``first_path``.

    Path k is row k % ``_UNIT_PATHS`` of one (``_UNIT_PATHS``, N) x
    (N, N + 1) product per factor for its unit; the unit's rows that the
    call does not hold are zero.  A unit that the call holds whole is
    convolved without a copy.  Both branches hand BLAS C-ordered
    (``_UNIT_PATHS``, N, p) slabs, so a path's bits do not depend on which
    branch ran.  Bhat and the product are taken from the ``Workspace``
    ``work``; the product, named "convolution", is not read after the
    call.
    """
    n_paths, n, p = increments.shape
    volterra = work.take("volterra", (n_paths, n + 1, p))
    product = work.take("convolution", (_UNIT_PATHS, n + 1))
    stop = first_path + n_paths
    for base in range(first_path - first_path % _UNIT_PATHS, stop, _UNIT_PATHS):
        lo, hi = max(base, first_path), min(base + _UNIT_PATHS, stop)
        held = slice(lo - first_path, hi - first_path)
        rows = slice(lo - base, hi - base)
        if hi - lo == _UNIT_PATHS:
            d_b = np.ascontiguousarray(increments[held])
            v = np.ascontiguousarray(singular[held])
        else:
            d_b = np.zeros((_UNIT_PATHS, n, p))
            v = np.zeros((_UNIT_PATHS, n, p))
            d_b[rows], v[rows] = increments[held], singular[held]
        for ell, disc in enumerate(discs):
            volterra[held, :, ell] = disc.convolve_increments(
                d_b[:, :, ell], v[:, :, ell], out=product
            )[rows]
    return volterra


def replay_volterra(
    bank: KernelBank,
    grid: TimeGrid,
    increments: np.ndarray,
    singular: np.ndarray,
    first_path: int = 0,
) -> np.ndarray:
    """Recompute Bhat (n, N + 1, p) from stored dB and V arrays (n, N, p).

    Row k holds path ``first_path + k``.  The convolution is the draw's own
    (``_convolve``), so the result matches bit for bit the Bhat that
    ``draw_driver_arrays`` or ``model.euler_paths_array`` returned for
    those paths, shifted or not, whatever batch they were drawn in.
    """
    if first_path < 0:
        raise DomainError(f"first_path must be >= 0, got {first_path}")
    return _convolve(
        bank_discretizations(bank, grid), increments, singular, first_path,
        Workspace(),
    )


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def covariance_matrix(
    bank: KernelBank, grid: TimeGrid, n_quad: int = 256
) -> np.ndarray:
    """Covariance blocks  k(t, s) = int_0^min(t,s) K(t, u) K(s, u) du.

    Returns the (p, N, N) array whose block l is the covariance of
    (Bhat_l(t_i))_{i >= 1}; the factors are independent.
    Column j is one call of ``kernels.slice_products`` at s = t_j for all
    t >= t_j, the rule of ``kernel_l2_slice``, so the diagonal is the slice
    norm.  Raises ``QuadratureError`` when a block comes out non-finite or
    fails the positive-semidefiniteness tolerance (min eigenvalue
    >= -1e-10 * trace).
    """
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
    return blocks


def _two_sample_ks(a, b) -> tuple:
    """Two-sided two-sample KS test of equal-size samples, exact p-value.

    The statistic is D = h / n, h the largest gap between the two
    empirical counts at any sample point.  Its null law has a closed form
    (Gnedenko and Korolyuk 1951):

        P(D >= h / n) = 2 sum_{k >= 1} (-1)^(k+1) C(2n, n - kh) / C(2n, n),

    evaluated as the Horner product 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))) with
    A_k = C(2n, n - (k+1) h) / C(2n, n - k h), which avoids the alternating
    sum's cancellation (scipy's ``_compute_prob_outside_square``).  Rounding
    can carry it just above 1 where the exact value is 1 (h = 1), so p is
    clipped to [0, 1].  Samples of different sizes raise ``ValidationError``.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n = a.size
    if b.size != n:
        raise ValidationError(
            f"KS samples must have equal sizes, got {n} and {b.size}"
        )
    both = np.concatenate((a, b))
    gap = np.searchsorted(a, both, side="right") - np.searchsorted(
        b, both, side="right"
    )
    h = int(np.max(np.abs(gap)))
    if h == 0:
        return 0.0, 1.0
    kh = h * np.arange(n // h + 1)[:, None]
    j = np.arange(h)
    ratios = np.prod((n - kh - j) / (n + kh + j + 1.0), axis=1)
    tail = 0.0
    for ratio in ratios[::-1]:
        tail = ratio * (1.0 - tail)
    return h / n, min(max(2.0 * float(tail), 0.0), 1.0)


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
