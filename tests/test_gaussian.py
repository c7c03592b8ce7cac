"""Gaussian driver sampling, covariance quadrature, and replay contracts."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from volldp.errors import DomainError, ValidationError
from volldp.gaussian import (
    _UNIT_PATHS,
    _two_sample_ks,
    bank_discretizations,
    covariance_matrix,
    draw_driver_arrays,
    path_normals,
    replay_volterra,
    terminal_variance_bound,
)
from volldp.grids import TimeGrid
from volldp.kernels import (
    KernelBank,
    edge_coefficient,
    kernel_l2_slice,
    make_kernel,
    origin_cell_weight,
)
from volldp.selftest import (
    check_brownian_covariance,
    check_flat_sampler_identity,
    check_replay,
)

from conftest import rl_bank, rl_kernel
from reference import sample_volterra_cholesky


def mixed_bank(horizon=0.9):
    return KernelBank((
        make_kernel("riemann_liouville", hurst=0.3, scale=1.0, horizon=horizon),
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=horizon,
                    log_exponent=2.0),
        make_kernel("molchan_golosov", hurst=0.72, scale=1.0, horizon=horizon),
        make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=horizon,
                    mean_reversion=1.3),
    ))


# ---------------------------------------------------------------------------
# covariance quadrature
# ---------------------------------------------------------------------------


def test_divisibility_error_names_both_counts():
    grid = TimeGrid(1.0, 100)
    with pytest.raises(Exception) as exc:
        grid.require_divisible(16)
    assert "16" in str(exc.value) and "100" in str(exc.value)


def test_brownian_covariance_closed_form():
    assert check_brownian_covariance(np.random.default_rng(13), 12) == []


def test_covariance_diagonal_matches_slice_norm():
    bank = mixed_bank()
    grid = TimeGrid(0.9, 6)
    cov = covariance_matrix(bank, grid, n_quad=256)
    for ell, kernel in enumerate(bank):
        for i, t in enumerate(grid.nodes[1:]):
            want = kernel_l2_slice(kernel, t, n_quad=256)
            assert cov[ell][i, i] == pytest.approx(want, rel=1e-14)


def _covariance_reference(kernel, grid, n_quad):
    """The column rule of the covariance, written out on its own."""
    n, t = grid.n_steps, grid.nodes
    kappa = kernel.singular_exponent
    w0 = origin_cell_weight(kernel)
    block = np.zeros((n, n))
    for j in range(1, n + 1):
        s = t[j]
        h = s / n_quad
        mids = (np.arange(n_quad - 1) + 0.5) * h
        upper = t[j:]
        vals_j = kernel.eval(s, mids)
        vals_j[0] *= w0
        entries = (kernel.eval(upper[:, None], mids[None, :]) @ vals_j) * h
        a_edge = float(edge_coefficient(kernel, s, s - h, h))
        entries[0] += a_edge**2 * h ** (2 * kappa + 1) / (2 * kappa + 1)
        if upper.size > 1:
            frozen = kernel.eval(upper[1:], s - h)
            entries[1:] += frozen * a_edge * h ** (kappa + 1) / (kappa + 1)
        block[j - 1, j - 1 :] = entries
        block[j - 1 :, j - 1] = entries
    return block


def test_covariance_matches_reference_column_rule():
    # log-fBm stays at N <= 12 and n_quad = 256: at N = 14 and 16, or at
    # N = 12 with n_quad <= 128, its quadrature covariance on the 0.9
    # horizon fails the PSD tolerance
    bank = KernelBank(mixed_bank().kernels + (
        make_kernel("riemann_liouville", hurst=0.75, scale=1.0, horizon=0.9),
        make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=0.9),
    ))
    for grid, n_quad in ((TimeGrid(0.9, 1), 2), (TimeGrid(0.9, 12), 256),
                         (TimeGrid(0.6, 7), 256)):
        cov = covariance_matrix(bank, grid, n_quad=n_quad)
        for ell, kernel in enumerate(bank):
            want = _covariance_reference(kernel, grid, n_quad)
            np.testing.assert_allclose(cov[ell], want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_molchan_golosov_covariance_is_fbm_covariance(hurst):
    # the Molchan-Golosov driver is a standard fBm, so its covariance is
    # (t^2H + s^2H - |t - s|^2H) / 2 in closed form; the first cell of
    # every column carries the s^(-|H - 1/2|) blow-up at the origin
    kernel = make_kernel("molchan_golosov", hurst=hurst, scale=1.0, horizon=1.0)
    grid = TimeGrid(1.0, 8)
    cov = covariance_matrix(KernelBank((kernel,)), grid)[0]
    t = grid.nodes[1:, None]
    s = grid.nodes[None, 1:]
    h2 = 2 * hurst
    want = 0.5 * (t**h2 + s**h2 - np.abs(t - s) ** h2)
    assert np.allclose(cov, want, rtol=5e-3, atol=0.0)


def test_covariance_has_one_block_per_factor():
    # the factors are independent: block l is factor l's own covariance
    kernels = (rl_kernel(0.3), rl_kernel(0.75))
    grid = TimeGrid(1.0, 5)
    cov = covariance_matrix(KernelBank(kernels), grid)
    assert cov.shape == (2, grid.n_steps, grid.n_steps)
    for block, kernel in zip(cov, kernels):
        assert np.array_equal(block, covariance_matrix(KernelBank((kernel,)), grid)[0])


def test_covariance_quadrature_validation():
    bank = rl_bank(0.4)
    with pytest.raises(DomainError):
        covariance_matrix(bank, TimeGrid(1.0, 4), n_quad=1)


def test_covariance_is_positive_semidefinite():
    cov = covariance_matrix(mixed_bank(), TimeGrid(0.9, 10))
    for block in cov:
        eigvals = np.linalg.eigvalsh(block)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)


# ---------------------------------------------------------------------------
# hybrid sampler
# ---------------------------------------------------------------------------


def _draw(bank, grid, n_paths, seed, first_path=0):
    """(dB, V, Bhat) of paths [first_path, first_path + n_paths)."""
    return draw_driver_arrays(bank, grid, n_paths, seed, first_path)[:3]


def _frame_bank():
    # two factors, so each factor's convolution operand is a strided slice
    return KernelBank((
        rl_kernel(0.3, horizon=0.9),
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                    log_exponent=2.0),
    ))


@functools.lru_cache(maxsize=1)
def _frame_draw(n_steps):
    """(dB, V, Bhat) of paths [0, 3000): units 0 and 1 and most of unit 2."""
    return _draw(_frame_bank(), TimeGrid(0.9, n_steps), 3000, seed=9)


def _brownian(increments):
    """B at every node (n, N + 1, p) from its increments (n, N, p)."""
    n_paths, n, p = increments.shape
    out = np.zeros((n_paths, n + 1, p))
    out[:, 1:, :] = np.cumsum(increments, axis=1)
    return out


def test_flat_kernel_reproduces_brownian_motion():
    assert check_flat_sampler_identity(np.random.default_rng(5), 16) == []


def test_sampler_determinism():
    bank = mixed_bank()
    grid = TimeGrid(0.9, 12)
    a_incr, _, a_volterra = _draw(bank, grid, 4, 42)
    b_incr, _, b_volterra = _draw(bank, grid, 4, 42)
    assert np.array_equal(a_volterra, b_volterra)
    assert np.array_equal(a_incr, b_incr)
    c_incr = _draw(bank, grid, 4, 43)[0]
    assert not np.array_equal(a_incr[0], c_incr[0])


def test_first_path_block_consistency():
    # paths [1500, 2600) drawn alone start inside unit 1 and end inside
    # unit 2; they reproduce those rows of the 3,000-path draw bit for bit
    # (a product over the range itself rounds differently from N = 256 on)
    for n_steps in (10, 64, 512):
        full = _frame_draw(n_steps)
        part = _draw(_frame_bank(), TimeGrid(0.9, n_steps), 1100, 9,
                     first_path=1500)
        for name, want, got in zip(("dB", "V", "Bhat"), full, part):
            assert np.array_equal(want[1500:2600], got), (n_steps, name)


@pytest.mark.parametrize("n_steps", [1, 7, 64])
def test_per_path_convolution_matches_path_loop(n_steps):
    # paths [900, 1200) cross from unit 0 into unit 1; each path's Bhat is,
    # path by path, its row of a (_UNIT_PATHS, N) x (N, N + 1) product over
    # a zero frame holding that path alone at row k % _UNIT_PATHS
    bank = mixed_bank()
    grid = TimeGrid(0.9, n_steps)
    first = 900
    increments, singular, volterra = _draw(bank, grid, 300, 4, first)
    for ell, disc in enumerate(bank_discretizations(bank, grid)):
        for k in range(300):
            row = (first + k) % _UNIT_PATHS
            d_b = np.zeros((_UNIT_PATHS, n_steps))
            v = np.zeros((_UNIT_PATHS, n_steps))
            d_b[row], v[row] = increments[k, :, ell], singular[k, :, ell]
            want = disc.convolve_increments(d_b, v)[row]
            assert np.array_equal(volterra[k, :, ell], want), (k, ell)


def test_hat_weights_are_built_once_and_read_only():
    # every rate objective on a grid reads the same lift triangle, so it is
    # built on the first read and shared: a write to it must fail
    for disc in bank_discretizations(mixed_bank(), TimeGrid(0.9, 16)):
        first = disc.hat_weights
        assert disc.hat_weights is first
        with pytest.raises(ValueError):
            first[1, 0] = 0.0
        with pytest.raises(ValueError):
            first[1:] *= 2.0


def test_single_path_replay():
    # one stored path, given its index, replays the Bhat of the 3,000-path
    # draw alone, wherever it sits in its unit
    grid = TimeGrid(0.9, 512)
    increments, singular, volterra = _frame_draw(512)
    for k in (0, 1500, 2999):
        alone = replay_volterra(_frame_bank(), grid, increments[k : k + 1],
                                singular[k : k + 1], first_path=k)
        assert np.array_equal(alone[0], volterra[k]), k
    with pytest.raises(DomainError, match="first_path"):
        replay_volterra(_frame_bank(), grid, increments[:1], singular[:1],
                        first_path=-1)


def test_path_normals_counter_layout():
    # unit u of seed s is the SFC64 stream spawned with key (u,) from the
    # seed's low 64 bits, filling its rows in C order
    for seed in (3, -3):
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            seed & (2**64 - 1), spawn_key=(1,)))).standard_normal((1024, 17))
        got = path_normals(seed=seed, first_path=1024, n_paths=1024, n_draws=17)
        assert np.array_equal(got, want)


def test_path_normals_reject_a_negative_first_path():
    with pytest.raises(DomainError, match="first_path"):
        path_normals(seed=3, first_path=-1, n_paths=2, n_draws=4)


@pytest.mark.parametrize("n_draws", [3, 192, 193])
@pytest.mark.parametrize("first_path, n_paths", [
    (0, 1), (2, 3), (5, 3), (1000, 100), (1023, 2), (2047, 1030), (0, 3000),
])
def test_path_normals_rows_do_not_depend_on_the_batch(first_path, n_paths, n_draws):
    # ranges inside one 1,024-path unit, across one and two unit boundaries
    # and from a unit's last row give the rows of one long draw
    whole = path_normals(seed=11, first_path=0, n_paths=4096, n_draws=n_draws)
    got = path_normals(seed=11, first_path=first_path, n_paths=n_paths,
                       n_draws=n_draws)
    assert np.array_equal(got, whole[first_path : first_path + n_paths])


def test_path_normals_units_and_seeds_share_no_value():
    # two adjacent units of seed s and the same units of seed s + 1: no row,
    # and no value at any offset, is shared, so the streams do not overlap
    z = np.concatenate([
        path_normals(seed=s, first_path=0, n_paths=2048, n_draws=8).ravel()
        for s in (41, 42)
    ])
    assert np.unique(z).size == z.size


def test_path_normals_are_standard_normal_across_units():
    # paths 1,500..3,599 span units 1, 2 and 3.  Bounds: KS p-value above
    # 1e-3, and mean, variance and lag-one correlation of the flat draw
    # within 4 standard errors of 0, 1 and 0
    z = path_normals(seed=5, first_path=1500, n_paths=2100, n_draws=7).ravel()
    n = z.size
    assert stats.kstest(z, "norm").pvalue > 1e-3
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    assert abs(np.mean(z[1:] * z[:-1])) < 4.0 / np.sqrt(n)


def test_increment_replay_bitwise():
    assert check_replay(np.random.default_rng(17), 3) == []


def test_terminal_variance_matches_quadrature():
    # N = 64 keeps the scheme's within-cell averaging bias below the Monte
    # Carlo noise floor for every kernel family
    bank = mixed_bank()
    grid = TimeGrid(0.9, 64)
    n = 100_000
    volterra = draw_driver_arrays(bank, grid, n, seed=123)[2]
    for ell, kernel in enumerate(bank):
        want = kernel_l2_slice(kernel, grid.horizon, n_quad=4096)
        got = float(np.var(volterra[:, -1, ell]))
        se = want * np.sqrt(2.0 / (n - 1))
        assert abs(got - want) <= 3.0 * se


def test_empirical_covariance_fidelity():
    # compare sampler covariance to quadrature covariance at Gaussian-oracle
    # standard errors: se_ij = sqrt((C_ii C_jj + C_ij^2) / n)
    bank = rl_bank(0.75)
    grid = TimeGrid(1.0, 16)
    n = 30_000
    volterra = _draw(bank, grid, n, 2024)[2]
    want = covariance_matrix(bank, grid)[0]
    got = np.cov(volterra[:, 1:, 0].T)
    se = np.sqrt(
        (np.outer(np.diag(want), np.diag(want)) + want**2) / n
    )
    assert np.max(np.abs(got - want) / se) <= 4.0


def test_empirical_covariance_brownian_component():
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 6)
    n = 50_000
    increments = _draw(bank, grid, n, 77)[0]
    emp = np.cov(_brownian(increments)[:, :, 0].T)
    t = grid.nodes
    want = np.minimum.outer(t, t)
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
    gaps = np.abs(emp - want)[1:, 1:] / se[1:, 1:]
    assert np.max(gaps) <= 4.0


def test_marginal_gaussianity_proxy():
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 12)
    volterra = _draw(bank, grid, 50_000, 31)[2]
    terminal = volterra[:, -1, 0]
    z = (terminal - terminal.mean()) / terminal.std()
    assert abs(stats.skew(z)) < 0.05
    assert abs(stats.kurtosis(z, fisher=True)) < 0.1


@pytest.mark.parametrize("n", [5, 50, 400, 4000, 10_000])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_two_sample_ks_matches_scipy_exact(n, ties):
    rng = np.random.default_rng(n)
    for shift in (0.0, 4.0, 10.0):
        a = rng.normal(size=n)
        b = rng.normal(loc=shift / math.sqrt(n), size=n)
        if ties:
            a, b = np.round(2.0 * a), np.round(2.0 * b)
        statistic, pvalue = _two_sample_ks(a, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = stats.ks_2samp(a, b, method="exact")
        assert abs(statistic - ref.statistic) <= 1e-15
        if caught:
            # scipy's exact sum rounds above 1 at the smallest gap, where
            # P(D >= 1 / n) = 1, and falls back to its asymptotic value
            assert (statistic, pvalue) == (1.0 / n, 1.0)
        else:
            assert pvalue == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [5, 50, 400])
def test_two_sample_ks_edge_cases(n):
    a = np.random.default_rng(1).normal(size=n)
    assert _two_sample_ks(a, a[::-1]) == (0.0, 1.0)
    # fully separated: only the paths through the corner reach D = 1
    statistic, pvalue = _two_sample_ks(a, a + 100.0)
    assert statistic == 1.0
    assert pvalue == pytest.approx(2.0 / math.comb(2 * n, n), rel=1e-12)
    with pytest.raises(ValidationError):
        _two_sample_ks(a, a[1:])


def test_two_sample_ks_gap_to_kstwo():
    # the exact law lies a little above scipy's asymptotic kstwo(n / 2)
    # at n = 10,000, by less than 3 % for p-values down to about 0.005
    n = 10_000
    for seed in range(12):
        rng = np.random.default_rng(seed)
        statistic, pvalue = _two_sample_ks(rng.normal(size=n),
                                           rng.normal(size=n))
        approx = stats.kstwo.sf(statistic, n // 2)
        assert 0.0 < pvalue / approx - 1.0 < 0.03


def test_path_regularity_proxy():
    # The mean-square increment E|Bhat(t+dt) - Bhat(t)|^2 scales like
    # dt^(2 H); fit the exponent across refinements and compare to H.
    hurst = 0.3
    bank = rl_bank(hurst)
    log_dt, log_msq = [], []
    for n_steps in (64, 256, 1024):
        grid = TimeGrid(1.0, n_steps)
        volterra = draw_driver_arrays(bank, grid, 64, seed=6)[2]
        diffs = np.diff(volterra[..., 0], axis=1)
        log_dt.append(np.log(grid.dt))
        log_msq.append(np.log(np.mean(diffs**2)))
    gamma = np.polyfit(log_dt, log_msq, 1)[0] / 2.0
    assert abs(gamma - hurst) < 0.15


def test_terminal_variance_bound_brownian():
    bank = rl_bank(0.5, horizon=2.0)
    assert terminal_variance_bound(bank) == pytest.approx(2.0, rel=1e-6)


def test_terminal_variance_bound_dominates_slices():
    bank = mixed_bank()
    bound = terminal_variance_bound(bank)
    for kernel in bank:
        for t in np.linspace(0.0, 0.9, 7):
            assert kernel_l2_slice(kernel, t) <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# dual-route sampling cross-check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hurst, n_steps, seeds", [
    (0.75, 16, (101, 707)),
    (0.35, 10, (8, 9)),
], ids=["H0.75", "H0.35"])
def test_cholesky_route_matches_hybrid_route_marginals(hurst, n_steps, seeds):
    # independent covariance-based sampler agrees with the hybrid scheme in
    # distribution at the terminal node (two-sample KS)
    bank = rl_bank(hurst)
    grid = TimeGrid(1.0, n_steps)
    n = 4000
    hybrid = _draw(bank, grid, n, seeds[0])[2]
    hyb_term = hybrid[:, -1, 0]
    chol = sample_volterra_cholesky(bank, grid, n, seed=seeds[1])
    result = stats.ks_2samp(hyb_term, chol[:, -1, 0])
    assert result.pvalue > 0.01


def test_cholesky_sampler_covariance():
    bank = rl_bank(0.4)
    grid = TimeGrid(1.0, 6)
    n = 40_000
    chol = sample_volterra_cholesky(bank, grid, n, seed=55)
    want = covariance_matrix(bank, grid)[0]
    got = np.cov(chol[:, 1:, 0].T, bias=False)
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
    assert np.max(np.abs(got - want) / se) <= 4.0
