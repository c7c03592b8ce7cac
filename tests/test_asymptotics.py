"""Tail probability estimators, LDP slope fits, and short-time diagnostics."""

import dataclasses
import threading
import time

import numpy as np
import pytest
from scipy import stats

from volldp.asymptotics import (
    DeltaComparison,
    ExceedanceRow,
    ShortTimeReport,
    TerminalHalfSpace,
    _blocks,
    equivalence_diagnostic,
    estimate_tail_prob,
    ldp_slope,
    pool_size,
    short_time_direct,
    short_time_report,
    short_time_values,
    tilted_estimate,
)
from volldp.errors import (
    ConfigurationError,
    DomainError,
    NonFinitePathError,
    OptimizationError,
    ValidationError,
)
from volldp.gaussian import (
    _UNIT_PATHS, Workspace, _two_sample_ks, discretize_kernel,
)
from volldp.grids import TimeGrid
from volldp.kernels import KernelBank, ScalingSchedule, make_kernel
from volldp.model import (
    ConstantMap, EulerPaths, ModelCoefficients, Scaling, euler_paths_array,
    make_map,
)
from volldp.ratefn import (
    CameronMartinPath,
    OptimizerConfig,
    RateSolution,
    terminal_rate,
)

from conftest import constant_coeffs, exp_vol_coeffs, rl_bank

FAST_OPT = OptimizerConfig(n_starts=2)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


def test_halfspace_event_semantics(unit_grid):
    event = TerminalHalfSpace(0.5)
    values = np.zeros((3, unit_grid.n_steps + 1, 1))
    values[0, -1, 0] = 0.6
    values[1, -1, 0] = 0.5
    values[2, -1, 0] = 0.4
    assert event.indicator(values).tolist() == [True, True, False]


# ---------------------------------------------------------------------------
# crude Monte Carlo
# ---------------------------------------------------------------------------


def test_tail_prob_gaussian_oracle():
    # constant sigma = 1: Z_T ~ N(-eps^2 T/2, eps^2 T), so
    # P(Z_T >= 0) = Phi_bar(eps sqrt(T) / 2)
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 16)
    eps, n = 0.3, 200_000
    est = estimate_tail_prob(coeffs, bank, grid, eps, TerminalHalfSpace(0.0),
                             n, seed=3)
    want = stats.norm.sf(eps / 2)
    assert est.n_paths == n
    assert abs(est.prob - want) <= 3 * est.stderr
    assert est.stderr == pytest.approx(
        np.sqrt(est.prob * (1 - est.prob) / n), rel=1e-12
    )
    assert est.log_prob == pytest.approx(np.log(est.prob))


def test_tail_prob_determinism():
    coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 8)
    a = estimate_tail_prob(coeffs, bank, grid, 0.5, TerminalHalfSpace(0.2),
                           2000, seed=7)
    b = estimate_tail_prob(coeffs, bank, grid, 0.5, TerminalHalfSpace(0.2),
                           2000, seed=7)
    assert a.prob == b.prob and a.n_hits == b.n_hits


def test_tail_prob_batching_invariance():
    # 20,000 paths are 20 unit blocks, the last one partial; one and two
    # worker threads must reduce them to the same bits
    coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 8)
    a = estimate_tail_prob(coeffs, bank, grid, 0.5, TerminalHalfSpace(0.2),
                           20_000, seed=7, threads=1)
    b = estimate_tail_prob(coeffs, bank, grid, 0.5, TerminalHalfSpace(0.2),
                           20_000, seed=7, threads=2)
    assert a.n_hits == b.n_hits
    assert (a.prob, a.stderr) == (b.prob, b.stderr)


def test_tail_prob_counter_blocks_match_one_batch():
    # each estimator's blocked estimate is that of one unblocked batch of all
    # 20,000 paths (20 unit blocks): the same hits, and every other
    # field from log w of the whole batch by the plain formulas
    coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 8)
    eps, n, dt = 0.5, 20_000, grid.dt
    event = TerminalHalfSpace(0.2)
    control = terminal_rate(np.array([0.2]), bank, coeffs, grid, FAST_OPT)
    zero = np.zeros((grid.n_steps, 1))
    for fdot, ydot, est in (
        (zero, zero,
         estimate_tail_prob(coeffs, bank, grid, eps, event, n, seed=7)),
        (control.control.derivative, control.inner_drift,
         tilted_estimate(coeffs, bank, grid, eps, event, control, n, seed=7)),
    ):
        paths = euler_paths_array(
            coeffs, bank, grid, Scaling.small_noise(eps), n, 7,
            brownian_shift=fdot * dt / eps, wiener_shift=ydot * dt / eps,
        )
        log_w = (
            (np.sum(fdot**2) + np.sum(ydot**2)) * dt / (2.0 * eps**2)
            - np.einsum("jl,kjl->k", fdot, paths.increments) / eps
            - np.einsum("ji,kji->k", ydot, paths.dw) / eps
        )
        hit = event.indicator(paths.values)
        w = np.where(hit, np.exp(log_w), 0.0)
        prob = np.mean(w)
        stderr = np.sqrt((np.mean(w**2) - prob**2) / n)
        assert est.n_hits == int(np.count_nonzero(hit)) > 0
        got = (est.prob, est.stderr, est.log_prob, est.log_stderr, est.ess,
               est.max_weight_share)
        want = (prob, stderr, np.log(prob), np.log(stderr),
                np.sum(w) ** 2 / np.sum(w**2), np.max(w) / np.sum(w))
        assert got == pytest.approx(want, rel=1e-12)
    assert np.ptp(log_w[hit]) > 1.0  # the tilted weights are not all alike


def test_tail_estimators_reject_nonfinite_paths():
    # exponential volatility with weight 120 overflows the Euler scheme on
    # 66 of these 2,000 paths; counting them as misses would bias the
    # estimate.  The error names the first, path 11, which replays alone.
    coeffs = exp_vol_coeffs(-0.5, weight=120)
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 32)
    event = TerminalHalfSpace(0.5)
    named = r"66 of 2000 .*; the first is path 11$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinitePathError, match=named):
            estimate_tail_prob(coeffs, bank, grid, 1.0, event, 2000, seed=3)
        with pytest.raises(NonFinitePathError, match=named):
            tilted_estimate(coeffs, bank, grid, 1.0, event,
                            zero_control_solution(grid), 2000, seed=3)
        scaling = Scaling.small_noise(1.0)
        rows = euler_paths_array(coeffs, bank, grid, scaling, 12, 3).values
        alone = euler_paths_array(coeffs, bank, grid, scaling, 1, 3,
                                  first_path=11).values
    assert np.all(np.isfinite(rows[:11, -1]))
    assert np.array_equal(alone[0], rows[11], equal_nan=True)
    assert not np.all(np.isfinite(alone[0, -1]))


def test_short_time_routes_reject_nonfinite_paths():
    # the overflowing model of the tail test, on the rescaled route
    coeffs = exp_vol_coeffs(-0.5, weight=120)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinitePathError, match="55 of 2000"):
            short_time_values(coeffs, rl_bank(0.3), TimeGrid(1.0, 16), 1.0,
                              1.0, 2000, 3)


def test_pool_size_is_capped_by_the_block_count():
    # one worker per eight unit blocks (8,192 paths), however small the blocks
    assert pool_size(8192, threads=4) == 1
    assert pool_size(8193, threads=4) == 2
    assert pool_size(100_000, threads=3) == 3
    assert pool_size(100_000) >= 1
    with pytest.raises(ConfigurationError):
        pool_size(100_000, threads=0)


def test_pool_size_without_cpu_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the default is the
    # CPU count there
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_size(100_000) == 3
    assert pool_size(10_000) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(100_000) == 1


def test_blocks_are_whole_normal_units(monkeypatch):
    # every block of the estimator and of both short-time routes draws one
    # unit's stream from its start, so no run redraws a unit prefix
    import threading

    import volldp.gaussian

    calls = []
    lock = threading.Lock()
    draw = volldp.gaussian.path_normals

    def recording(seed, first_path, n_paths, n_draws, **kwargs):
        with lock:
            calls.append((first_path, n_paths))
        return draw(seed, first_path, n_paths, n_draws, **kwargs)

    monkeypatch.setattr(volldp.gaussian, "path_normals", recording)
    coeffs = exp_vol_coeffs(0.0, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 4)
    eta, eps = 0.5, 0.5**0.35
    n = 8 * _UNIT_PATHS + 500  # nine blocks, on a pool of two workers
    assert pool_size(n, threads=2) == 2
    runs = (
        lambda: estimate_tail_prob(coeffs, bank, grid, 0.5,
                                   TerminalHalfSpace(0.2), n, seed=3, threads=2),
        lambda: short_time_values(coeffs, bank, grid, eta, eps, n, 3, threads=2),
        lambda: short_time_direct(coeffs, bank, grid, eta, eps, n, 3, 2, threads=2),
    )
    for run in runs:
        calls.clear()
        run()
        assert all(first % _UNIT_PATHS == 0 and 0 < count <= _UNIT_PATHS
                   for first, count in calls), calls
        assert sorted(calls) == [(u * _UNIT_PATHS, _UNIT_PATHS)
                                 for u in range(8)] + [(n - 500, 500)]


def _two_factor_model():
    """d = p = 2: a rough factor and a fractional OU one, exp-linear sigma
    and affine sigma_tilde."""
    bank = KernelBank((
        make_kernel("riemann_liouville", hurst=0.3, scale=1.0, horizon=1.0),
        make_kernel("fractional_ou", hurst=0.4, scale=0.8, horizon=1.0,
                    mean_reversion=1.5),
    ))
    coeffs = ModelCoefficients(
        d=2, p=2, mu=make_map("constant", (2,), 2, values=[0.05, -0.02]),
        sigma=make_map("exp_linear", (2, 2), 2, amplitude=[0.3, 0.0, 0.08, 0.25],
                       weights=[0.8, 0.1, 0.0, 0.0, 0.1, 0.0, 0.2, 0.6]),
        sigma_tilde=make_map("affine", (2, 2), 2,
                             constant=[-0.12, 0.04, 0.03, -0.1],
                             linear=[0.02, 0.0, 0.0, 0.01, 0.01, 0.0, 0.0, 0.02]),
    )
    return coeffs, bank


@pytest.mark.parametrize("threads", [1, 2])
def test_reused_block_arrays_give_a_fresh_draw_bit_for_bit(threads):
    # every worker draws its blocks into one set of reused arrays; the
    # blocks' copies, joined, are one fresh draw of all paths, tilted or
    # not, on one- and two-factor models and on grids of different N in a
    # row; so does one workspace carried from grid to grid
    n = 8 * _UNIT_PATHS + 500  # nine blocks, the last one partial
    assert pool_size(n, threads) == threads
    one_factor = exp_vol_coeffs(-0.5, amplitude=0.3), rl_bank(0.3)
    rng = np.random.default_rng(4)
    scaling = Scaling.small_noise(0.5)
    for coeffs, bank in (one_factor, _two_factor_model()):
        carried = Workspace()
        for n_steps in (6, 4, 8):
            grid = TimeGrid(1.0, n_steps)
            shifts = {
                "brownian_shift": 0.1 * rng.normal(size=(n_steps, coeffs.p)),
                "wiener_shift": 0.1 * rng.normal(size=(n_steps, coeffs.d)),
            }
            def body(first, count, work):
                paths = euler_paths_array(coeffs, bank, grid, scaling, count, 5,
                                          first_path=first, work=work, **shifts)
                return tuple(np.array(a) for a in paths)

            parts = _blocks(bank, grid, n, threads, body)
            whole = euler_paths_array(coeffs, bank, grid, scaling, n, 5, **shifts)
            again = euler_paths_array(coeffs, bank, grid, scaling, n, 5,
                                      work=carried, **shifts)
            for k, name in enumerate(EulerPaths._fields):
                joined = np.concatenate([part[k] for part in parts])
                assert np.array_equal(joined, whole[k]), (name, n_steps)
                assert np.array_equal(again[k], whole[k]), (name, n_steps)


def test_block_runner_fills_the_cache_before_any_body():
    # pooled (two workers) and on the calling thread, every body finds the
    # bank's discretizations on its grid, new to the cache, already cached
    bank = KernelBank((
        make_kernel("fractional_ou", hurst=0.4, scale=0.8, horizon=1.0,
                    mean_reversion=1.7),
        make_kernel("riemann_liouville", hurst=0.27, scale=1.1, horizon=1.0),
    ))
    for n, workers, grid in ((8 * _UNIT_PATHS + 500, 2, TimeGrid(1.0, 7)),
                             (2 * _UNIT_PATHS, 1, TimeGrid(1.0, 9))):

        def body(first, count, work):
            before = discretize_kernel.cache_info().misses
            for kernel in bank:
                discretize_kernel(kernel, grid)
            return discretize_kernel.cache_info().misses - before

        assert pool_size(n, threads=2) == workers
        assert set(_blocks(bank, grid, n, 2, body)) == {0}


def test_block_runner_threads_and_workspaces():
    # what the bits cannot show: a run of up to 8,192 paths runs every block
    # on the calling thread with one workspace, a pooled run gives each worker
    # thread one workspace, and both return the bodies' results in block
    # order.  The early blocks sleep longest, so pooled blocks finish out of
    # order.
    def body(first, count, work):
        time.sleep(1e-3 * (8 - first // _UNIT_PATHS))
        return first, count, threading.get_ident(), id(work)

    bank, grid = rl_bank(0.35), TimeGrid(1.0, 4)
    for n, workers in ((8 * _UNIT_PATHS, 1), (8 * _UNIT_PATHS + 500, 2)):
        assert pool_size(n, threads=2) == workers
        results = _blocks(bank, grid, n, 2, body)
        assert [r[:2] for r in results] == [
            (first, min(_UNIT_PATHS, n - first)) for first in range(0, n, _UNIT_PATHS)
        ]
        used = {(thread, work) for *_, thread, work in results}
        threads = {thread for thread, _ in used}
        if workers == 1:
            assert used == {(threading.get_ident(), results[0][3])}
        else:  # one workspace per worker thread, none on the calling thread
            assert len(used) == len(threads) <= workers
            assert threading.get_ident() not in threads


def test_tail_prob_sample_size_floor(unit_grid):
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    with pytest.raises(ConfigurationError):
        estimate_tail_prob(coeffs, rl_bank(0.5), unit_grid, 0.5,
                           TerminalHalfSpace(0.0), 999, seed=0)


def test_degenerate_frequency_warning(unit_grid):
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        est = estimate_tail_prob(coeffs, bank, unit_grid, 0.3,
                                 TerminalHalfSpace(-1e9), 1000, seed=1)
    assert est.prob == 1.0
    with pytest.warns(RuntimeWarning, match="degenerate"):
        est = estimate_tail_prob(coeffs, bank, unit_grid, 0.3,
                                 TerminalHalfSpace(1e9), 1000, seed=1)
    assert est.prob == 0.0


# ---------------------------------------------------------------------------
# tilted estimator
# ---------------------------------------------------------------------------


def zero_control_solution(grid, d=1, p=1):
    return RateSolution(
        value=0.0,
        control=CameronMartinPath(grid, np.zeros((grid.n_steps, p))),
        iterations=0,
        grad_norm=0.0,
        converged=True,
        upper_bound_used=0.0,
        multistart_spread=0.0,
        inner_drift=np.zeros((grid.n_steps, d)),
    )


def test_tilted_with_zero_control_equals_crude(unit_grid):
    # crude Monte Carlo is the tilted estimator without a control: a zero
    # control gives the same estimate bit for bit, in every field
    coeffs = exp_vol_coeffs(0.4, amplitude=0.3)
    bank = rl_bank(0.35)
    event = TerminalHalfSpace(0.3)
    crude = estimate_tail_prob(coeffs, bank, unit_grid, 0.5, event, 4000,
                               seed=11)
    tilt = tilted_estimate(coeffs, bank, unit_grid, 0.5, event,
                           zero_control_solution(unit_grid), 4000, seed=11)
    assert crude.n_hits > 0  # no NaN field, so == compares every field
    assert dataclasses.astuple(tilt) == dataclasses.astuple(crude)


def test_tilted_thread_count_invariance():
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 8)
    event = TerminalHalfSpace(0.4)
    control = terminal_rate(np.array([0.4]), bank, coeffs, grid, FAST_OPT)
    a, b = (
        tilted_estimate(coeffs, bank, grid, 0.4, event, control, 20_000,
                        seed=5, threads=threads)
        for threads in (1, 2)
    )
    assert a.n_hits == b.n_hits > 0
    assert (a.prob, a.stderr) == (b.prob, b.stderr)


def test_estimator_health(unit_grid):
    # crude weights are all 1 (ESS = hits, share = 1 / hits), and so are the
    # weights of a zero-control tilt (test_tilted_with_zero_control_equals_crude);
    # a real tilt has 1 / share <= ESS <= hits
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 8)
    near, event = TerminalHalfSpace(0.1), TerminalHalfSpace(0.4)
    crude = estimate_tail_prob(coeffs, bank, grid, 0.4, near, 4000, seed=5)
    assert crude.n_hits > 100
    assert crude.ess == crude.n_hits
    assert crude.max_weight_share == 1.0 / crude.n_hits
    control = terminal_rate(np.array([0.4]), bank, coeffs, grid, FAST_OPT)
    a, b = (
        tilted_estimate(coeffs, bank, grid, 0.4, event, control, 20_000,
                        seed=5, threads=threads)
        for threads in (1, 2)
    )
    assert (a.ess, a.max_weight_share) == (b.ess, b.max_weight_share)
    assert 1.0 < 1.0 / a.max_weight_share <= a.ess < a.n_hits
    # no hit: ESS 0 and no largest-weight share
    far = TerminalHalfSpace(50.0)
    none = tilted_estimate(coeffs, bank, grid, 0.4, far, control, 2000, seed=5)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        none_crude = estimate_tail_prob(coeffs, bank, grid, 0.4, far, 2000, seed=5)
    for est in (none, none_crude):
        assert est.n_hits == 0 and est.ess == 0.0
        assert np.isnan(est.max_weight_share)


def test_tilted_requires_converged_control(unit_grid):
    coeffs = exp_vol_coeffs(0.4)
    sol = zero_control_solution(unit_grid)
    bad = RateSolution(**{**sol.__dict__, "converged": False})
    with pytest.raises(OptimizationError):
        tilted_estimate(coeffs, rl_bank(0.35), unit_grid, 0.5,
                        TerminalHalfSpace(0.3), bad, 2000, seed=0)


def test_tilted_rejects_a_mismatched_control():
    # a control is a path on the grid it was solved on, in the model's
    # dimensions; used anywhere else it would tilt the wrong drivers
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    event = TerminalHalfSpace(0.4)
    grid = TimeGrid(1.0, 64)
    coarse = terminal_rate(np.array([0.4]), bank, coeffs, TimeGrid(1.0, 32),
                           FAST_OPT)
    short = zero_control_solution(TimeGrid(0.5, 64))
    wide = zero_control_solution(grid, d=2, p=1)
    tall = zero_control_solution(grid, d=1, p=2)
    for control in (coarse, short, wide, tall):
        with pytest.raises(ValidationError, match="does not fit"):
            tilted_estimate(coeffs, bank, grid, 0.4, event, control, 2000,
                            seed=5)


def test_tilted_estimator_agrees_with_crude_and_reduces_variance():
    # moderate-deviation regime where both estimators resolve the event
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 16)
    eps, z, n = 0.45, 0.8, 60_000
    event = TerminalHalfSpace(z)
    crude = estimate_tail_prob(coeffs, bank, grid, eps, event, n, seed=29)
    control = terminal_rate(np.array([z]), bank, coeffs, grid, FAST_OPT)
    tilt = tilted_estimate(coeffs, bank, grid, eps, event, control, n, seed=31)
    gap = abs(tilt.prob - crude.prob)
    assert gap <= 3 * np.hypot(tilt.stderr, crude.stderr)
    assert tilt.stderr < 0.5 * crude.stderr


def test_tilted_resolves_rare_event():
    # at eps = 0.2 the crude estimator cannot see the event at this budget,
    # the tilted one matches the Gaussian closed form
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 16)
    eps, z, n = 0.2, 1.0, 50_000
    event = TerminalHalfSpace(z)
    control = terminal_rate(np.array([z]), bank, coeffs, grid, FAST_OPT)
    est = tilted_estimate(coeffs, bank, grid, eps, event, control, n, seed=37)
    want = stats.norm.sf((z + eps**2 / 2) / eps)
    assert abs(est.prob - want) <= 4 * est.stderr
    assert est.stderr < 0.2 * want


def test_tilted_deep_tail_stays_in_log_space():
    # the model of the ldp_tilted benchmark (I_T = 2.4072): with weight
    # sums in linear space the stderr at eps = 0.07 underflowed to 0.0,
    # and at eps = 0.05 p_hat was 0.0 although half the paths hit
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.3, weight=1.0)
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 64)
    event = TerminalHalfSpace(1.0)
    control = terminal_rate(np.array([1.0]), bank, coeffs, grid, FAST_OPT)
    for eps in (0.07, 0.05):
        a, b = (
            tilted_estimate(coeffs, bank, grid, eps, event, control, 16_384,
                            seed=1, threads=threads)
            for threads in (1, 2)
        )
        assert (a.log_prob, a.log_stderr) == (b.log_prob, b.log_stderr)
        assert a.n_hits > 1000
        assert np.isfinite(a.log_prob) and np.isfinite(a.log_stderr)
        assert a.log_stderr < a.log_prob
        # -log p eps^2 approaches the rate; the prefactor is a few percent
        assert -a.log_prob * eps**2 == pytest.approx(control.value, rel=0.05)
    assert a.prob == 0.0 and a.stderr == 0.0  # e^(-960) underflows


# ---------------------------------------------------------------------------
# slope fit
# ---------------------------------------------------------------------------


def synthetic_estimates(c, epsilons, prefactor=1.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for eps in epsilons:
        p = prefactor * np.exp(-c / eps**2)
        p *= np.exp(noise * rng.normal())
        out.append(
            TailEstimate_like(prob=p, stderr=0.05 * p, n_paths=10_000,
                              epsilon=eps)
        )
    return out


def TailEstimate_like(prob, stderr, n_paths, epsilon):
    from volldp.asymptotics import TailEstimate

    with np.errstate(divide="ignore"):
        logs = float(np.log(prob)), float(np.log(stderr))
    hits = int(round(prob * n_paths))
    # the crude estimator's health fields: unit weights, none without a hit
    ess, share = (float(hits), 1.0 / hits) if hits else (0.0, np.nan)
    return TailEstimate(prob=prob, stderr=stderr, n_paths=n_paths,
                        n_hits=hits, epsilon=epsilon,
                        log_prob=logs[0], log_stderr=logs[1],
                        ess=ess, max_weight_share=share)


def test_ldp_slope_exact_recovery():
    # -log p = -log(prefactor) + c / eps^2 exactly
    c, prefactor = 0.7, 0.3
    fit = ldp_slope(synthetic_estimates(c, [0.5, 0.4, 0.3, 0.25, 0.2],
                                        prefactor=prefactor))
    assert fit.slope == pytest.approx(c, rel=1e-10)
    assert fit.intercept == pytest.approx(-np.log(prefactor), rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < fit.slope_stderr < 0.01


def test_ldp_slope_with_noise():
    c = 0.7
    fit = ldp_slope(synthetic_estimates(c, [0.5, 0.4, 0.3, 0.25, 0.2],
                                        noise=0.01, seed=3))
    assert fit.slope == pytest.approx(c, rel=0.05)
    assert fit.r_squared > 0.99


def test_ldp_slope_validation():
    c = 0.7
    with pytest.raises(ConfigurationError):
        ldp_slope(synthetic_estimates(c, [0.5, 0.4]))
    bad = synthetic_estimates(c, [0.5, 0.4, 0.3])
    bad[0] = TailEstimate_like(prob=1.0, stderr=0.0, n_paths=1000,
                               epsilon=0.5)
    with pytest.raises(ValidationError):
        ldp_slope(bad)
    dup = synthetic_estimates(c, [0.4, 0.4, 0.4])
    with pytest.raises(ValidationError):
        ldp_slope(dup)


def test_ldp_slope_matches_rate_for_constant_model():
    # crude estimates across a mild epsilon ladder recover z^2/(2T) within
    # the accuracy allowed by prefactor curvature
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 16)
    z = 0.6
    event = TerminalHalfSpace(z)
    ests = [
        estimate_tail_prob(coeffs, bank, grid, eps, event, 400_000, seed=41)
        for eps in (0.6, 0.5, 0.4, 0.35)
    ]
    fit = ldp_slope(ests)
    assert fit.r_squared > 0.995
    # the slowly varying prefactor biases the crude-MC slope upward at
    # moderate eps; the tilted ladder in the acceptance suite is sharper
    assert fit.slope == pytest.approx(z**2 / 2, rel=0.25)


# ---------------------------------------------------------------------------
# short-time rescaling
# ---------------------------------------------------------------------------


def test_short_time_unit_scale_reduces_to_plain_dynamics(unit_grid):
    coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    eta, eps = 1.0, 1.0
    values = short_time_values(coeffs, bank, unit_grid, eta, eps, 50, seed=5)
    plain = euler_paths_array(
        coeffs, bank, unit_grid, Scaling.small_noise(1.0), 50, seed=5
    ).values
    assert np.array_equal(values, plain)


def test_short_time_requires_driftless_model(unit_grid):
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]], mu=[0.1])
    eta, eps = 0.5, 0.7
    with pytest.raises(ValidationError):
        short_time_values(coeffs, rl_bank(0.4), unit_grid, eta, eps, 50, seed=0)
    with pytest.raises(ValidationError):
        short_time_direct(coeffs, rl_bank(0.4), unit_grid, eta, eps, 50, seed=0)
    # mu(y) = y_1 - y_2 vanishes on the diagonal y_1 = y_2 only
    bank = KernelBank((rl_bank(0.4)[0], rl_bank(0.3)[0]))
    skew = ModelCoefficients(
        d=1, p=2,
        mu=make_map("affine", shape=(1,), in_dim=2, constant=[0.0],
                    linear=[1.0, -1.0]),
        sigma=ConstantMap(np.ones((1, 1)), 2),
        sigma_tilde=ConstantMap(np.zeros((1, 2)), 2),
    )
    for route in (short_time_values, short_time_direct):
        with pytest.raises(ValidationError, match="driftless"):
            route(skew, bank, unit_grid, eta, eps, 50, seed=0)


def test_short_time_refine_validation(unit_grid):
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    eta, eps = 0.5, 0.7
    with pytest.raises(ConfigurationError):
        short_time_direct(coeffs, rl_bank(0.4), unit_grid, eta, eps, 50, seed=0,
                          refine=0)


def test_short_time_routes_reject_empty_path_sets(unit_grid):
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    eta, eps = 0.5, 0.7
    for route in (short_time_values, short_time_direct):
        with pytest.raises(DomainError, match="n_paths"):
            route(coeffs, rl_bank(0.4), unit_grid, eta, eps, 0, seed=0)


def test_short_time_constant_vol_terminal_variance(unit_grid):
    # rescaled output has terminal variance eps^2 s^2 T independent of the
    # horizon fraction eta
    s, eps = 1.4, 0.6
    coeffs = constant_coeffs(1, 1, sigma=[[s]])
    eta = 0.3
    n = 100_000
    values = short_time_values(coeffs, rl_bank(0.5), unit_grid, eta, eps, n,
                               seed=17)
    want = eps**2 * s**2 * unit_grid.horizon
    got = float(np.var(values[:, -1, 0]))
    se = want * np.sqrt(2.0 / (n - 1))
    assert abs(got - want) <= 3 * se


@pytest.mark.parametrize("family, params", [
    ("riemann_liouville", {"hurst": 0.35}),
    ("log_fbm", {"hurst": 0.35, "log_exponent": 2.0, "horizon": 0.9}),
    ("molchan_golosov", {"hurst": 0.35}),
    ("molchan_golosov", {"hurst": 0.7}),
    ("fractional_ou", {"hurst": 0.35, "mean_reversion": 1.3}),
], ids=["riemann_liouville", "log_fbm", "molchan_golosov_h035",
        "molchan_golosov_h07", "fractional_ou"])
def test_short_time_coupled_routes_agree(family, params):
    # same seed, matched resolution: the rescaled route and the direct
    # route are the same discrete map on the same draws, for every family
    params = {"scale": 1.0, "horizon": 1.0, **params}
    grid = TimeGrid(params["horizon"], 16)
    coeffs = exp_vol_coeffs(-0.4, amplitude=0.3)
    bank = KernelBank((make_kernel(family, **params),))
    eta, eps = 0.2, 0.2**0.35
    a = short_time_values(coeffs, bank, grid, eta, eps, 100, seed=23)
    b = short_time_direct(coeffs, bank, grid, eta, eps, 100, seed=23,
                          refine=1)
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# distributional diagnostics
# ---------------------------------------------------------------------------


def test_equivalence_diagnostic_identical_samples(unit_grid):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(500, unit_grid.n_steps + 1, 1))
    exceedance, max_sup = equivalence_diagnostic(values, values.copy())
    assert max_sup == 0.0
    assert exceedance == {"0.05": 0.0, "0.1": 0.0, "0.2": 0.0}


def test_equivalence_diagnostic_shape_mismatch(unit_grid):
    a = np.zeros((10, unit_grid.n_steps + 1, 1))
    b = np.zeros((11, unit_grid.n_steps + 1, 1))
    with pytest.raises(ValidationError):
        equivalence_diagnostic(a, b)
    # matched shapes, but not path sets
    with pytest.raises(ValidationError):
        equivalence_diagnostic(a[..., 0], a[..., 0])


def test_two_sample_ks_detects_scale_mismatch(unit_grid):
    # the independent-draw check of short_time_report: a terminal KS test
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2000, unit_grid.n_steps + 1, 1))
    b = 2.0 * rng.normal(size=(2000, unit_grid.n_steps + 1, 1))
    _, pvalue = _two_sample_ks(a[:, -1, 0], b[:, -1, 0])
    assert pvalue < 1e-6


def test_two_sample_ks_same_law_calibration(unit_grid):
    # independent same-law terminal samples should rarely fail at the 1% level
    rng = np.random.default_rng(4)
    rejections = 0
    for _ in range(60):
        a = rng.normal(size=(400, unit_grid.n_steps + 1, 1))
        b = rng.normal(size=(400, unit_grid.n_steps + 1, 1))
        rejections += _two_sample_ks(a[:, -1, 0], b[:, -1, 0])[1] < 0.01
    assert rejections <= 3


def test_short_time_report_consistency():
    coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 16)
    sched = ScalingSchedule.self_similar([0.3, 0.1], 0.35)
    report = short_time_report(coeffs, bank, grid, sched, 2000, seed=51,
                               refine=2)
    assert len(report.comparisons) == 2
    for comp in report.comparisons:
        assert all(f == 0.0 for f in comp.paired_exceedance.values())
        assert comp.ks_pvalue > 0.01
    assert report.all_consistent()
    text = str(report)
    assert "delta" in text
    # the kept terminal column is a copy: no rescaled path set outlives
    # the report's reading of it
    for comp in report.comparisons:
        assert comp.rescaled_terminal.base is None
        assert comp.rescaled_terminal.shape == (2000,)


def test_all_consistent_fails_on_each_broken_check():
    row = ExceedanceRow(threshold=1.0, prob_rescaled=0.1, stderr_rescaled=0.01,
                        prob_direct=0.11, stderr_direct=0.01)
    comp = DeltaComparison(
        delta=0.5, paired_exceedance={"0.05": 0.0, "0.1": 0.0, "0.2": 0.0},
        paired_max_sup_distance=1e-15, ks_statistic=0.02, ks_pvalue=0.5,
        n_paths=1000, exceedance=(row, row), rescaled_terminal=np.zeros(1000),
    )
    assert ShortTimeReport((comp, comp)).all_consistent()
    far = 0.1 + 4.01 * np.hypot(0.01, 0.01)  # just over 4 se from 0.1
    broken = (
        dataclasses.replace(
            comp, paired_exceedance={**comp.paired_exceedance, "0.2": 0.001}),
        dataclasses.replace(comp, ks_pvalue=0.009),
        dataclasses.replace(
            comp, exceedance=(row, dataclasses.replace(row, prob_direct=far))),
    )
    for bad in broken:
        assert not ShortTimeReport((comp, bad)).all_consistent()


def test_identical_routes_are_consistent_at_zero_stderr():
    # a zero-coefficient model: both routes are identically 0, so every
    # exceedance frequency is 1 with stderr 0 and every gap is 0 se
    coeffs = constant_coeffs(1, 1, sigma=[[0.0]])
    sched = ScalingSchedule.self_similar([0.2], 0.3)
    report = short_time_report(coeffs, rl_bank(0.3), TimeGrid(1.0, 8), sched,
                               1000, seed=0, refine=2)
    rows = report.comparisons[0].exceedance
    assert [(row.prob_rescaled, row.prob_direct) for row in rows] == [(1.0, 1.0)] * 3
    assert [row.gap_in_se for row in rows] == [0.0] * 3
    assert report.all_consistent()
    # a nonzero gap at zero stderr stays infinitely many se
    assert dataclasses.replace(rows[0], prob_direct=0.0).gap_in_se == np.inf


def test_short_time_report_sample_floor(unit_grid):
    coeffs = exp_vol_coeffs(0.5)
    sched = ScalingSchedule.self_similar([0.3], 0.35)
    with pytest.raises(ConfigurationError):
        short_time_report(coeffs, rl_bank(0.35), unit_grid, sched, 500,
                          seed=0)
