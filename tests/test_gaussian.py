"""Gaussian driver sampling, covariance quadrature, and replay contracts."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from volldp.errors import DomainError
from volldp.gaussian import (
    covariance_matrix,
    draw_driver_arrays,
    empirical_covariance,
    marginal_ks_check,
    path_normals,
    replay_volterra,
    sample_volterra_cholesky,
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

from conftest import rl_bank, rl_kernel


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
    # K = 1.3 constant: Cov(Bhat(t_i), Bhat(t_j)) = 1.69 min(t_i, t_j)
    bank = rl_bank(0.5, scale=1.3)
    grid = TimeGrid(1.0, 8)
    cov = covariance_matrix(bank, grid)
    t = grid.nodes[1:]
    want = 1.69 * np.minimum.outer(t, t)
    assert np.allclose(cov.blocks[0], want, atol=1e-10)


def test_covariance_diagonal_matches_slice_norm():
    bank = mixed_bank()
    grid = TimeGrid(0.9, 6)
    cov = covariance_matrix(bank, grid, n_quad=256)
    for ell, kernel in enumerate(bank):
        for i, t in enumerate(grid.nodes[1:]):
            want = kernel_l2_slice(kernel, t, n_quad=256)
            assert cov.blocks[ell][i, i] == pytest.approx(want, rel=1e-14)


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
            np.testing.assert_allclose(cov.blocks[ell], want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_molchan_golosov_covariance_is_fbm_covariance(hurst):
    # the Molchan-Golosov driver is a standard fBm, so its covariance is
    # (t^2H + s^2H - |t - s|^2H) / 2 in closed form; the first cell of
    # every column carries the s^(-|H - 1/2|) blow-up at the origin
    kernel = make_kernel("molchan_golosov", hurst=hurst, scale=1.0, horizon=1.0)
    grid = TimeGrid(1.0, 8)
    cov = covariance_matrix(KernelBank((kernel,)), grid).blocks[0]
    t = grid.nodes[1:, None]
    s = grid.nodes[None, 1:]
    h2 = 2 * hurst
    want = 0.5 * (t**h2 + s**h2 - np.abs(t - s) ** h2)
    assert np.allclose(cov, want, rtol=5e-3, atol=0.0)


def test_covariance_dense_is_block_diagonal():
    bank = KernelBank((rl_kernel(0.3), rl_kernel(0.75)))
    grid = TimeGrid(1.0, 5)
    cov = covariance_matrix(bank, grid)
    dense = cov.dense()
    n = grid.n_steps
    assert dense.shape == (2 * n, 2 * n)
    assert np.all(dense[:n, n:] == 0.0)
    assert np.all(dense[n:, :n] == 0.0)
    assert np.array_equal(dense[:n, :n], cov.blocks[0])


def test_covariance_quadrature_validation():
    bank = rl_bank(0.4)
    with pytest.raises(DomainError):
        covariance_matrix(bank, TimeGrid(1.0, 4), n_quad=1)


def test_covariance_is_positive_semidefinite():
    cov = covariance_matrix(mixed_bank(), TimeGrid(0.9, 10))
    for block in cov.blocks:
        eigvals = np.linalg.eigvalsh(block)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)


# ---------------------------------------------------------------------------
# hybrid sampler
# ---------------------------------------------------------------------------


def _draw(bank, grid, n_paths, seed):
    """(dB, V, Bhat) of a draw convolved path by path (replay-exact)."""
    return draw_driver_arrays(bank, grid, n_paths, seed, per_path_convolve=True)[:3]


def _brownian(increments):
    """B at every node (n, N + 1, p) from its increments (n, N, p)."""
    n_paths, n, p = increments.shape
    out = np.zeros((n_paths, n + 1, p))
    out[:, 1:, :] = np.cumsum(increments, axis=1)
    return out


def test_flat_kernel_reproduces_brownian_motion():
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 32)
    increments, _, volterra = _draw(bank, grid, 16, 5)
    assert np.allclose(volterra, _brownian(increments), atol=1e-12)


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
    # drawing paths [2, 6) directly must reproduce rows 2..5 of a batch draw
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 10)
    full = draw_driver_arrays(bank, grid, 6, seed=9, per_path_convolve=True)
    tail = draw_driver_arrays(
        bank, grid, 4, seed=9, first_path=2, per_path_convolve=True
    )
    for name in ("increments", "singular", "volterra"):
        idx = {"increments": 0, "singular": 1, "volterra": 2}[name]
        assert np.array_equal(full[idx][2:], tail[idx]), name


def test_path_normals_counter_layout():
    # the per-path stream depends only on (seed, path index, draw count)
    a = path_normals(seed=3, first_path=0, n_paths=5, n_draws=17)
    b = path_normals(seed=3, first_path=2, n_paths=3, n_draws=17)
    assert np.array_equal(a[2:], b)
    assert a.shape == (5, 17)


@pytest.mark.parametrize("n_draws", [3, 192, 193])
@pytest.mark.parametrize("first_path", [0, 5])
def test_path_normals_match_reference_expression(n_draws, first_path):
    # the in-place conversion must give the bits of the plain expression
    stride = (n_draws + 3) // 4
    bg = np.random.Philox(key=11)
    bg.advance(first_path * stride)
    raw = bg.random_raw(6 * stride * 4).reshape(6, stride * 4)
    u = ((raw[:, :n_draws] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    want = ndtri(u)
    got = path_normals(seed=11, first_path=first_path, n_paths=6, n_draws=n_draws)
    assert np.array_equal(got, want)


def test_increment_replay_bitwise():
    bank = mixed_bank()
    grid = TimeGrid(0.9, 14)
    increments, singular, volterra = _draw(bank, grid, 3, 17)
    rebuilt = replay_volterra(bank, grid, increments, singular)
    assert np.array_equal(rebuilt, volterra)


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
    emp = empirical_covariance(volterra)
    want = covariance_matrix(bank, grid).blocks[0]
    got = emp[0][1:, 1:]
    se = np.sqrt(
        (np.outer(np.diag(want), np.diag(want)) + want**2) / n
    )
    assert np.max(np.abs(got - want) / se) <= 4.0


def test_empirical_covariance_validation():
    bank = rl_bank(0.4)
    grid = TimeGrid(1.0, 6)
    volterra = _draw(bank, grid, 4, 1)[2]
    with pytest.raises(DomainError):
        empirical_covariance(volterra[:1])
    with pytest.raises(DomainError):
        empirical_covariance(volterra[:0])
    with pytest.raises(DomainError):
        empirical_covariance(volterra[0])


def test_empirical_covariance_brownian_component():
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 6)
    n = 50_000
    increments = _draw(bank, grid, n, 77)[0]
    emp = empirical_covariance(_brownian(increments))[0]
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


def test_marginal_ks_check_passes():
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 10)
    result = marginal_ks_check(bank, grid, 4000, seed=8)
    assert result.pvalue > 0.01


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


def test_cholesky_route_matches_hybrid_route_marginals():
    # independent covariance-based sampler agrees with the hybrid scheme in
    # distribution at the terminal node (two-sample KS)
    bank = rl_bank(0.75)
    grid = TimeGrid(1.0, 16)
    n = 4000
    hybrid = _draw(bank, grid, n, 101)[2]
    hyb_term = hybrid[:, -1, 0]
    chol = sample_volterra_cholesky(bank, grid, n, seed=707)
    result = stats.ks_2samp(hyb_term, chol[:, -1, 0])
    assert result.pvalue > 0.01


def test_cholesky_sampler_covariance():
    bank = rl_bank(0.4)
    grid = TimeGrid(1.0, 6)
    n = 40_000
    chol = sample_volterra_cholesky(bank, grid, n, seed=55)
    want = covariance_matrix(bank, grid).blocks[0]
    got = np.cov(chol[:, 1:, 0].T, bias=False)
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
    assert np.max(np.abs(got - want) / se) <= 4.0
