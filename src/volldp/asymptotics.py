"""Monte Carlo verification of small-noise and short-time asymptotics.

Small-noise side: tail probabilities P(Z^eps in E) are estimated under an
exponential change of measure built from a minimizing control (the
estimator stays unbiased for any shift; a good shift makes the event
typical).  There is one tail estimator, ``estimate_tail_prob``: the crude
estimate is the same one without a control, where no driver is shifted and
every weight is 1.  The decay rate is then read off as the slope of
-log p(eps) against 1 / eps^2.

Every Monte Carlo run here goes through one runner, ``_blocks``: it fills
the discretization cache of its (bank, grid), cuts the path range into
blocks of one normal stream unit, ``gaussian._UNIT_PATHS`` = 1,024 paths,
and returns a body's value of every block in block order; each body here
runs the one Euler scheme, ``model.euler_paths_array``, on its block and
returns new arrays, never views of its workspace.  A block's driver draws
depend only on (seed, path index) and each block draws exactly one unit's
stream, so the blocks run in any order on a small thread pool, at most one
worker per 8,192 paths (``pool_size``), and none redraws another's stream.
The estimator's body returns the log-weights of a block's hits and its
terminal values.  The hits' log-weights are joined in block order and
reduced once, relative to the largest of them, which makes every estimate
bitwise independent of the number of threads.
Weights stay in log space until then, so an estimate far below the
smallest double keeps a finite ``log_prob`` and ``log_stderr``.  Every
sampled path set, the estimator's and each short-time route's, meets one
non-finite rule, ``model._require_finite``: a path with a non-finite
terminal value raises ``NonFinitePathError``.

Short-time side: the process observed on a shrinking horizon delta * T and
renormalized by eps / sqrt(delta), with (delta, eps) a schedule's
(eta, epsilon) pair, is simulated through two routes that are equal in law
at matched resolution:

* rescaled -- unit horizon, kernel K^eta(t, s) = sqrt(eta) K(eta t, eta s),
  under ``Scaling.short_time(delta)``: variance drift scaled by delta and
  noise by sqrt(delta);
* direct -- the original kernel on the short horizon with a finer grid,
  under ``Scaling.short_time(1.0)``, subsampled back to the reference nodes.

Each route only builds its (bank, grid, ``Scaling``) triple, its stride
back to the reference nodes and the factor eps / sqrt(delta); one runner,
``_route``, runs the Euler scheme on that triple through ``_blocks``, whose
body returns a block's subsampled, renormalized rows.  The rows are joined
in block order, so a path set does not depend on the number of threads.
Every path set is an array of shape (n, N + 1, d).  The uncorrelated model
is sigma_tilde = 0, so a tilt and its rate solve read one model; the
short-time routes need mu = 0.

``equivalence_diagnostic`` measures the sup-distance between two path sets
pair by pair, which is informative only when the sets are coupled through
shared driver noise; ``short_time_report`` provides exactly that coupling by
running both routes at matched resolution off one seed, and supplements it
with distribution-level checks on independent draws: a two-sample KS test
of the terminal values and exceedance frequencies.  The KS p-value is the
exact two-sided law of the equal-size two-sample statistic
(``gaussian._two_sample_ks``), at any n.
Finite samples can support but never establish the vanishing of the
exceedance rates at every scale, so the report is a consistency check, not
a proof.
"""

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    OptimizationError,
    ValidationError,
)
from .gaussian import _UNIT_PATHS, Workspace, _two_sample_ks, bank_discretizations
from .grids import TimeGrid
from .kernels import KernelBank, ScalingSchedule, rescale_kernel
from .model import (
    ModelCoefficients, ProbeLattice, Scaling, _require_finite, euler_paths_array,
)
from .ratefn import RateSolution

_MIN_TAIL_PATHS = 1000
# Paths per worker thread: the pool gains a thread for every 8,192 paths
# (eight blocks), so a run of up to 8,192 paths stays on the calling thread.
_WORKER_PATHS = 8 * _UNIT_PATHS
# Short-time consistency: least terminal KS p-value, largest gap in se.
_KS_LEVEL = 0.01
_SE_BUDGET = 4.0
# Sup-distances above which a coupled pair counts as a paired exceedance.
_PAIRED_DELTAS = (0.05, 0.1, 0.2)
# Quantiles of the rescaled terminal sample that set the exceedance thresholds.
_EXCEEDANCE_LEVELS = (0.8, 0.9, 0.95)

# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalHalfSpace:
    """Event {Z_1(T) >= threshold} on the first coordinate."""

    threshold: float

    def indicator(self, values: np.ndarray) -> np.ndarray:
        return values[:, -1, 0] >= self.threshold


# ---------------------------------------------------------------------------
# tail estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with its standard error.

    ``log_prob`` and ``log_stderr`` are the logarithms of ``prob`` and
    ``stderr``; they stay finite where ``prob`` and ``stderr`` underflow
    to 0.  ``ess`` is the effective sample size (sum w)^2 / sum w^2 of the
    hits' weights and ``max_weight_share`` the largest weight over sum w
    (Owen, Monte Carlo theory, methods and examples, ch. 9); the crude
    estimator's weights are all 1, so they read n_hits and 1 / n_hits.
    Without a hit they are 0 and NaN.
    """

    prob: float
    stderr: float
    n_paths: int
    n_hits: int
    epsilon: float
    log_prob: float
    log_stderr: float
    ess: float
    max_weight_share: float


def _validate_tail_args(n_paths: int) -> None:
    if n_paths < _MIN_TAIL_PATHS:
        raise ConfigurationError(
            f"tail estimation needs at least {_MIN_TAIL_PATHS} paths, got {n_paths}"
        )


def pool_size(n_paths: int, threads: int | None = None) -> int:
    """Worker threads a Monte Carlo run of ``n_paths`` paths uses.

    ``threads`` when given, otherwise the CPUs this process may run on
    (all CPUs where the platform has no ``os.sched_getaffinity``, as on
    macOS and Windows); never more than one per ``_WORKER_PATHS`` = 8,192
    paths, so a run of up to 8,192 paths uses no pool.  The blocks stay
    one unit each (``_blocks``); the pool only decides how many run
    at once.
    """
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
    elif threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    return min(threads, -(-n_paths // _WORKER_PATHS))


def _blocks(bank, grid, n_paths: int, threads, body) -> list:
    """``body(first, count, work)`` of every path block, in block order.

    The discretizations of ``bank`` on ``grid`` are computed and cached
    first, so no block body, on any worker, computes one.  The path range
    is cut into blocks [first, first + count) of one normal-stream unit,
    ``_UNIT_PATHS`` paths each, so every block starts on a unit boundary and
    draws exactly one unit's stream.  A block's draws depend only on
    (seed, path index) and the results come back in block order, so
    whatever a body reduces from them is bitwise the same whatever the number of
    worker threads and the order in which blocks finish.  Each worker thread
    hands every block it runs one ``Workspace`` of unit-sized arrays, made for
    this call, so a block reuses the memory of the one before instead of mapping
    fresh pages; the values are the same to the bit.  The worker's next block
    overwrites them: ``body`` must return new arrays, never views of ``work``.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    bank_discretizations(bank, grid)
    local = threading.local()

    def block(first: int, count: int):
        if not hasattr(local, "work"):
            local.work = Workspace()
        return body(first, count, local.work)

    firsts = range(0, n_paths, _UNIT_PATHS)
    counts = [min(_UNIT_PATHS, n_paths - first) for first in firsts]
    workers = pool_size(n_paths, threads)
    if workers == 1:
        return list(map(block, firsts, counts))
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(block, firsts, counts))


def estimate_tail_prob(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    epsilon: float,
    event,
    n_paths: int,
    seed: int,
    threads: int | None = None,
    control: RateSolution | None = None,
) -> TailEstimate:
    """Monte Carlo estimate of P(Z^eps in event), tilted by ``control``.

    A control, solved on ``grid`` for this model's d and p, shifts both
    driver families by its rates scaled by 1 / eps, and log w is the exact
    Gaussian log-likelihood ratio of a path, so the estimate is unbiased at
    every resolution.  Without a control it is the crude estimator: nothing
    is shifted, every weight is 1, and the estimate is the hit frequency
    with its binomial error; it warns when fewer than 10 paths, or all of
    them, hit.  Paths run in fixed blocks on up to ``threads`` worker
    threads (see ``pool_size``); the estimate does not depend on the thread
    count.  A non-finite path raises ``NonFinitePathError``.
    """
    _validate_tail_args(n_paths)
    scaling = Scaling.small_noise(epsilon)
    brownian_shift = wiener_shift = None
    if control is not None:
        if not control.converged:
            raise OptimizationError(
                "tilting requires a converged minimizing control "
                f"(grad_norm = {control.grad_norm:.3e})"
            )
        fdot = control.control.derivative  # (N, p)
        ydot = control.inner_drift  # (N, d)
        if (control.control.grid != grid or control.control.dim != coeffs.p
                or ydot.shape != (grid.n_steps, coeffs.d)):
            raise ValidationError(
                f"control on {control.control.grid} with shapes {fdot.shape}, "
                f"{ydot.shape} does not fit {grid} with p = {coeffs.p}, d = {coeffs.d}"
            )
        dt = grid.dt
        f_sq = float(np.sum(fdot**2)) * dt
        y_sq = float(np.sum(ydot**2)) * dt
        const = (f_sq + y_sq) / (2.0 * epsilon**2)
        brownian_shift, wiener_shift = fdot * dt / epsilon, ydot * dt / epsilon

    def body(first, count, work):
        """(log w of the block's hits, its terminal values)."""
        paths = euler_paths_array(coeffs, bank, grid, scaling, count, seed,
                                  first_path=first, brownian_shift=brownian_shift,
                                  wiener_shift=wiener_shift, work=work)
        values = paths.values
        log_w = np.zeros(values.shape[0]) if control is None else (
            const
            - np.einsum("jl,kjl->k", fdot, paths.increments) / epsilon
            - np.einsum("ji,kji->k", ydot, paths.dw) / epsilon
        )
        return log_w[event.indicator(values)], values[:, -1].copy()

    parts = _blocks(bank, grid, n_paths, threads, body)
    _require_finite(np.concatenate([terminal for _, terminal in parts]))
    hit_log_w = np.concatenate([log_w for log_w, _ in parts])
    hits = hit_log_w.size
    if control is None and (hits < 10 or hits == n_paths):
        warnings.warn(
            f"event frequency is degenerate at epsilon = {epsilon:g} ({hits} "
            f"of {n_paths} paths); the estimate carries no rate information "
            "-- consider the tilted estimator or a different noise level"
            if hits in (0, n_paths) else
            f"only {hits} of {n_paths} paths hit the event at epsilon = "
            f"{epsilon:g}; the crude estimate is nearly degenerate -- consider "
            "the tilted estimator",
            RuntimeWarning,
            stacklevel=2,
        )
    # the hits' weights relative to the largest, exp(log w - log_scale) <= 1,
    # and their mean and variance over all paths
    log_scale = float(np.max(hit_log_w, initial=-np.inf))
    w = np.exp(hit_log_w - log_scale)
    weight_sum = float(np.sum(w))
    weight_sq = float(np.sum(w**2))
    mean = weight_sum / n_paths
    var = max(weight_sq / n_paths - mean**2, 0.0)
    with np.errstate(divide="ignore"):
        log_prob = float(log_scale + np.log(mean))
        log_stderr = float(log_scale + 0.5 * np.log(var / n_paths))
    ess, share = (0.0, np.nan) if hits == 0 else (
        weight_sum**2 / weight_sq, 1.0 / weight_sum)
    return TailEstimate(
        float(np.exp(log_prob)), float(np.exp(log_stderr)), n_paths, hits,
        epsilon, log_prob, log_stderr, ess, share,
    )


def tilted_estimate(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    epsilon: float,
    event,
    control: RateSolution,
    n_paths: int,
    seed: int,
    threads: int | None = None,
) -> TailEstimate:
    """``estimate_tail_prob`` under the minimizing-control shift."""
    return estimate_tail_prob(
        coeffs, bank, grid, epsilon, event, n_paths, seed, threads, control
    )


# ---------------------------------------------------------------------------
# rate regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeEstimate:
    """Weighted least-squares fit of -log p against 1 / eps^2."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float


def ldp_slope(estimates) -> SlopeEstimate:
    """Extract the decay rate from tail estimates at several noise levels.

    Fits -log p(eps) = intercept + slope / eps^2 by least squares, weighting
    each point by the delta-method variance of log p.  The slope estimates
    the rate-function value of the event; r_squared reports the weighted
    fraction of variation the line explains.  It reads ``log_prob`` and
    ``log_stderr``, so levels whose probability underflows still count.
    """
    pts = list(estimates)
    if len(pts) < 3:
        raise ConfigurationError(
            f"slope regression needs at least 3 noise levels, got {len(pts)}"
        )
    eps = np.array([e.epsilon for e in pts])
    log_probs = np.array([e.log_prob for e in pts])
    log_errs = np.array([e.log_stderr for e in pts])
    if not np.all(np.isfinite(log_probs) & (log_probs < 0.0)):
        raise ValidationError(
            "all tail estimates must lie strictly inside (0, 1) for the "
            "log-regression to be defined"
        )
    if np.all(eps == eps[0]):
        raise ValidationError("noise levels must be distinct")
    x = eps**-2
    y = -log_probs
    var_y = np.exp(2.0 * (log_errs - log_probs))
    w = 1.0 / np.where(var_y > 0.0, var_y, np.min(var_y[var_y > 0.0], initial=1.0))
    sw = np.sum(w)
    xbar = np.sum(w * x) / sw
    ybar = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    slope_stderr = float(np.sqrt(1.0 / sxx))
    resid = y - intercept - slope * x
    ss_res = float(np.sum(w * resid**2))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    r_squared = 1.0 if ss_tot <= 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeEstimate(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        slope_stderr=slope_stderr,
    )


# ---------------------------------------------------------------------------
# short-time routes
# ---------------------------------------------------------------------------


def _require_driftless(coeffs: ModelCoefficients) -> None:
    """mu = 0 on the coefficient validator's probe lattice, else ValidationError."""
    if np.max(np.abs(coeffs.mu(ProbeLattice().points(coeffs.p)))) > 1e-14:
        raise ValidationError(
            "short-time asymptotics are implemented for driftless models; "
            "set mu = 0"
        )


def _route(coeffs, bank, grid, scaling, stride, factor, n_paths, seed, threads):
    """Every ``stride``-th node of Euler paths on (bank, grid, scaling), times
    ``factor``: an array of shape (n_paths, N / stride + 1, d) for a grid of
    N steps.

    Needs a driftless model.  Paths run in blocks on up to ``threads`` worker
    threads (see ``pool_size``); the values do not depend on the thread
    count.  A non-finite path raises ``NonFinitePathError``.
    """
    _require_driftless(coeffs)

    def body(first, count, work):
        paths = euler_paths_array(coeffs, bank, grid, scaling, count, seed,
                                  first_path=first, work=work)
        return paths.values[:, ::stride] * factor

    values = np.concatenate(_blocks(bank, grid, n_paths, threads, body))
    _require_finite(values[:, -1])
    return values


def short_time_values(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    eta: float,
    epsilon: float,
    n_paths: int,
    seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """Renormalized short-time paths via the rescaled-kernel route.

    Simulates on the unit-horizon reference grid with the kernel rescaled by
    eta under ``Scaling.short_time(eta)`` (the exact time change of the
    short-horizon dynamics), then multiplies by epsilon / sqrt(eta).  Returns
    values of shape (n_paths, N + 1, d), run as in ``_route``.
    """
    rescaled = KernelBank(tuple(rescale_kernel(k, eta) for k in bank))
    return _route(coeffs, rescaled, grid, Scaling.short_time(eta), 1,
                  epsilon / np.sqrt(eta), n_paths, seed, threads)


def short_time_direct(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    eta: float,
    epsilon: float,
    n_paths: int,
    seed: int,
    refine: int = 4,
    threads: int | None = None,
) -> np.ndarray:
    """Renormalized short-time paths simulated directly on the short horizon.

    Runs the original dynamics (``Scaling.short_time(1.0)``) on
    [0, eta * T] with ``refine`` times the reference resolution and
    subsamples back to the reference nodes, so the output is comparable
    entry by entry with ``short_time_values``.  At
    refine = 1 and a shared seed the two routes consume identical driver
    draws and coincide path for path up to rounding.  Paths run as in
    ``_route``.
    """
    if refine < 1:
        raise ConfigurationError("refine must be a positive integer")
    fine = TimeGrid(grid.horizon * eta, grid.n_steps * refine)
    return _route(coeffs, bank, fine, Scaling.short_time(1.0), refine,
                  epsilon / np.sqrt(eta), n_paths, seed, threads)


# ---------------------------------------------------------------------------
# equivalence diagnostics
# ---------------------------------------------------------------------------


def equivalence_diagnostic(sample_a, sample_b):
    """Compare two path sets pair by pair.

    Takes two arrays of shape (n, N + 1, d) on matched grids with matched
    counts.  Path k of one set is compared with path k of the other
    through the sup over grid nodes of the Euclidean distance.  Returns
    the ``paired_`` fields of ``DeltaComparison``: the frequency of a
    sup-distance above each delta of ``_PAIRED_DELTAS``, keyed by
    str(delta), and the largest sup-distance.  It is meaningful for coupled
    samples (shared driver noise) only; independent samples are compared by
    their laws, as ``short_time_report`` does with its KS test.
    """
    a, b = np.asarray(sample_a), np.asarray(sample_b)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValidationError(
            "path sets must have shape (n, N + 1, d) with matched grids and "
            f"counts, got {a.shape} and {b.shape}"
        )
    sup = np.max(np.linalg.norm(a - b, axis=2), axis=1)
    exceedance = {str(float(d)): float(np.mean(sup > d)) for d in _PAIRED_DELTAS}
    return exceedance, float(np.max(sup))


@dataclass(frozen=True)
class ExceedanceRow:
    """One threshold's exceedance comparison between the two routes."""

    threshold: float
    prob_rescaled: float
    stderr_rescaled: float
    prob_direct: float
    stderr_direct: float

    @property
    def gap_in_se(self) -> float:
        """|gap| over the pooled binomial stderr; a zero gap is 0 se even at
        zero stderr, a nonzero gap at zero stderr is inf."""
        se = np.hypot(self.stderr_rescaled, self.stderr_direct)
        gap = abs(self.prob_rescaled - self.prob_direct)
        if se > 0.0:
            return float(gap / se)
        return 0.0 if gap == 0.0 else np.inf


@dataclass(frozen=True)
class DeltaComparison:
    """Two-route comparison at one horizon fraction.

    Its fields other than ``rescaled_terminal`` are the comparison's entry
    of ``diagnostic.json``, under the same names.  The ``paired_`` fields
    couple the routes through one seed at matched resolution, where they
    must coincide path for path: the frequency of a sup-distance above
    each delta, keyed by str(delta), and the largest sup-distance.  The KS
    and exceedance columns compare independent draws with the direct route
    on a refined grid.  ``rescaled_terminal`` holds the first terminal
    coordinate of every rescaled-route path, the sample the thresholds are
    set from: a copy, so the path set it was read from is freed.
    """

    delta: float  # the horizon fraction, the schedule entry's eta
    paired_exceedance: dict
    paired_max_sup_distance: float
    ks_statistic: float
    ks_pvalue: float
    n_paths: int
    exceedance: tuple
    rescaled_terminal: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class ShortTimeReport:
    """Short-time two-route diagnostic across horizon fractions."""

    comparisons: tuple

    def all_consistent(self) -> bool:
        for comp in self.comparisons:
            if any(f > 0.0 for f in comp.paired_exceedance.values()):
                return False
            if comp.ks_pvalue < _KS_LEVEL:
                return False
            if any(row.gap_in_se > _SE_BUDGET for row in comp.exceedance):
                return False
        return True

    def __str__(self) -> str:
        lines = []
        for comp in self.comparisons:
            lines.append(
                f"delta = {comp.delta:g}: matched-resolution max sup-distance "
                f"= {comp.paired_max_sup_distance:.3e}, independent KS = "
                f"{comp.ks_statistic:.4f} (p = {comp.ks_pvalue:.3f}, "
                f"n = {comp.n_paths})"
            )
            for row in comp.exceedance:
                lines.append(
                    f"  z >= {row.threshold:+.4f}: rescaled "
                    f"{row.prob_rescaled:.4f} ({row.stderr_rescaled:.4f})  "
                    f"direct {row.prob_direct:.4f} ({row.stderr_direct:.4f})  "
                    f"gap = {row.gap_in_se:.2f} se"
                )
        return "\n".join(lines)


def short_time_report(
    coeffs: ModelCoefficients,
    bank: KernelBank,
    grid: TimeGrid,
    schedule: ScalingSchedule,
    n_paths: int,
    seed: int,
    refine: int = 4,
    threads: int | None = None,
) -> ShortTimeReport:
    """Compare the rescaled and direct short-time routes entry by entry.

    Two checks per horizon fraction: a coupled run at matched resolution
    feeds ``equivalence_diagnostic`` (both routes consume the same driver
    draws, so any sup-distance reflects a broken scaling identity), and an
    independent run with a refined direct grid is compared through the
    terminal KS statistic and exceedance frequencies at thresholds set at
    the rescaled route's ``_EXCEEDANCE_LEVELS`` quantiles.  Every route
    runs its paths in blocks on up to ``threads`` worker threads; the
    report does not depend on the thread count.
    """
    _validate_tail_args(n_paths)
    comps = []
    for i, (eta, epsilon) in enumerate(schedule):
        seed_a, seed_b = seed + 2 * i, seed + 2 * i + 1
        resc = short_time_values(
            coeffs, bank, grid, eta, epsilon, n_paths, seed_a, threads
        )
        matched = short_time_direct(
            coeffs, bank, grid, eta, epsilon, n_paths, seed_a, 1, threads
        )
        paired_exceedance, paired_max_sup = equivalence_diagnostic(resc, matched)
        # copies of the terminal columns, so no path set outlives its reading
        resc_term = resc[:, -1, 0].copy()
        del resc, matched
        direct = short_time_direct(
            coeffs, bank, grid, eta, epsilon, n_paths, seed_b, refine, threads
        )[:, -1, 0].copy()
        ks_statistic, ks_pvalue = _two_sample_ks(resc_term, direct)
        rows = []
        for q in _EXCEEDANCE_LEVELS:
            thr = float(np.quantile(resc_term, q))
            pa = float(np.mean(resc_term >= thr))
            pb = float(np.mean(direct >= thr))
            rows.append(
                ExceedanceRow(
                    threshold=thr,
                    prob_rescaled=pa,
                    stderr_rescaled=float(np.sqrt(pa * (1 - pa) / n_paths)),
                    prob_direct=pb,
                    stderr_direct=float(np.sqrt(pb * (1 - pb) / n_paths)),
                )
            )
        comps.append(
            DeltaComparison(
                delta=eta,
                paired_exceedance=paired_exceedance,
                paired_max_sup_distance=paired_max_sup,
                ks_statistic=ks_statistic,
                ks_pvalue=ks_pvalue,
                n_paths=n_paths,
                exceedance=tuple(rows),
                rescaled_terminal=resc_term,
            )
        )
    return ShortTimeReport(tuple(comps))
