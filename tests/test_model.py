"""Coefficient maps, assumption validation, and the log-price Euler scheme."""

import numpy as np
import pytest

from volldp.errors import (
    ConfigurationError,
    DomainError,
    SingularDiffusionError,
)
from volldp.gaussian import discretize_kernel, draw_driver_arrays, replay_volterra
from volldp.grids import PathSample, TimeGrid
from volldp.kernels import KernelBank, make_kernel
from volldp.model import (
    ConstantMap,
    ModelCoefficients,
    ProbeLattice,
    Scaling,
    euler_paths_array,
    make_map,
    validate_coefficients,
)
from volldp.ratefn import CameronMartinPath, j_rate

from conftest import affine_vol_coeffs, constant_coeffs, exp_vol_coeffs, rl_bank


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------


def test_constant_map_ignores_input():
    m = ConstantMap(np.array([[2.0, 0.0], [1.0, 3.0]]), in_dim=3)
    y = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(m(y), [[2.0, 0.0], [1.0, 3.0]])
    assert np.all(m.jacobian(y) == 0.0)


def test_affine_map_value_and_jacobian():
    const = np.array([1.0, -2.0])
    lin = np.array([[1.0, 2.0], [0.0, -1.0]])
    m = make_map("affine", shape=(2,), in_dim=2, constant=const, linear=lin)
    y = np.array([0.3, 0.7])
    assert np.allclose(m(y), const + lin @ y)
    assert np.allclose(m.jacobian(y), lin)


def test_exp_linear_map_value_and_jacobian():
    amp = np.array([[0.4]])
    w = np.array([[[2.0]]])
    m = make_map("exp_linear", shape=(1, 1), in_dim=1, amplitude=amp, weights=w)
    y = np.array([0.25])
    want = 0.4 * np.exp(0.5)
    assert np.allclose(m(y), [[want]])
    assert np.allclose(m.jacobian(y), [[[2.0 * want]]])


def test_make_map_validation():
    with pytest.raises(ConfigurationError):
        make_map("nope", shape=(1,), in_dim=1)
    with pytest.raises(ConfigurationError):
        make_map("affine", shape=(2,), in_dim=1, constant=np.zeros(3),
                 linear=np.zeros((3, 1)))
    with pytest.raises(ConfigurationError):
        make_map("exp_linear", shape=(1, 1), in_dim=2,
                 amplitude=np.ones((1, 1)), weights=np.ones((1, 1, 3)))


def test_one_factor_requires_scalar_base_and_valid_rho():
    base = make_map("exp_linear", shape=(1, 1), in_dim=1,
                    amplitude=np.array([[0.3]]), weights=np.array([[[1.0]]]))
    coeffs = ModelCoefficients.one_factor(base, rho=0.5)
    assert coeffs.d == 1 and coeffs.p == 1
    y = np.array([0.2])
    s = float(base(y)[0, 0])
    assert float(coeffs.sigma_tilde(y)[0, 0]) == pytest.approx(0.5 * s)
    assert float(coeffs.sigma(y)[0, 0]) == pytest.approx(
        np.sqrt(1 - 0.25) * s
    )
    with pytest.raises(ConfigurationError):
        ModelCoefficients.one_factor(base, rho=1.0)
    wide = make_map("exp_linear", shape=(1, 2), in_dim=1,
                    amplitude=np.ones((1, 2)), weights=np.ones((1, 2, 1)))
    with pytest.raises(ConfigurationError):
        ModelCoefficients.one_factor(wide, rho=0.5)


def test_one_factor_noise_split():
    # a(y) = sigma sigma^T is the part orthogonal to the volatility driver;
    # the total noise variance sigma_tilde^2 + sigma^2 is rho-independent
    y = np.array([0.4])
    s2 = float(exp_vol_coeffs(0.0).a(y)[0, 0])
    for rho in (0.5, -0.9):
        c = exp_vol_coeffs(rho)
        assert float(c.a(y)[0, 0]) == pytest.approx((1 - rho**2) * s2,
                                                    rel=1e-12)
        total = float(c.sigma_tilde(y)[0, 0] ** 2 + c.sigma(y)[0, 0] ** 2)
        assert total == pytest.approx(s2, rel=1e-12)


# ---------------------------------------------------------------------------
# diffusion matrix along a path
# ---------------------------------------------------------------------------


# ``j_rate`` is the public functional that evaluates a(phi) = sigma sigma^T
# along a volatility path and applies the package's singularity rule.


def test_diffusion_path_identity_coefficients():
    coeffs = constant_coeffs(2, 2, sigma=np.eye(2))
    grid = TimeGrid(1.0, 4)
    phi = PathSample(grid, np.zeros((5, 2)))
    xdot = np.random.default_rng(0).normal(size=(4, 2))
    j = j_rate(CameronMartinPath(grid, xdot), phi, coeffs)
    assert j == pytest.approx(0.5 * np.sum(xdot**2) * grid.dt, rel=1e-12)


def test_diffusion_path_scalar_exponential():
    rho = 0.5
    coeffs = exp_vol_coeffs(rho, amplitude=0.3, weight=1.0)
    grid = TimeGrid(1.0, 9)
    values = np.linspace(-1.0, 1.0, 10)[:, None]
    xdot = np.random.default_rng(1).normal(size=(9, 1))
    j = j_rate(CameronMartinPath(grid, xdot), PathSample(grid, values), coeffs)
    a = (1 - rho**2) * (0.3 * np.exp(values[:-1, 0])) ** 2
    assert j == pytest.approx(0.5 * np.sum(xdot[:, 0] ** 2 / a) * grid.dt, rel=1e-12)


def test_diffusion_path_singular_matrix():
    sigma = np.array([[1.0, 0.0], [0.0, 0.0]])  # second row vanishes
    coeffs = constant_coeffs(2, 2, sigma=sigma)
    grid = TimeGrid(1.0, 2)
    with pytest.raises(SingularDiffusionError):
        j_rate(
            CameronMartinPath.zero(grid, 2),
            PathSample(grid, np.zeros((3, 2))),
            coeffs,
        )


def test_diffusion_path_rejects_nan_determinant():
    coeffs = exp_vol_coeffs(0.2)
    grid = TimeGrid(1.0, 2)
    values = np.array([[0.0], [np.nan], [0.0]])
    with pytest.raises(SingularDiffusionError, match="node 1"):
        j_rate(CameronMartinPath.zero(grid, 1), PathSample(grid, values), coeffs)


def test_diffusion_path_dimension_mismatch():
    coeffs = exp_vol_coeffs(0.2)
    grid = TimeGrid(1.0, 2)
    with pytest.raises(DomainError):
        j_rate(
            CameronMartinPath.zero(grid, 1),
            PathSample(grid, np.zeros((3, 2))),
            coeffs,
        )


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


def test_validate_constant_coefficients_pass():
    report = validate_coefficients(constant_coeffs(1, 1, sigma=[[1.0]]))
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert "nondegenerate_diffusion" in names
    assert "polynomial_growth" in names
    assert "diffusion_eigenvalue_bound" in names


def test_validate_exponential_volatility_pass():
    report = validate_coefficients(exp_vol_coeffs(0.5, amplitude=0.3))
    assert report.all_passed


def test_validate_detects_degenerate_diffusion():
    # sigma(y) = y vanishes at the origin, so a(y) is singular there
    lin = make_map("affine", shape=(1, 1), in_dim=1,
                   constant=np.zeros((1, 1)), linear=np.ones((1, 1, 1)))
    coeffs = ModelCoefficients(
        d=1, p=1, mu=ConstantMap(np.zeros(1), 1),
        sigma=lin, sigma_tilde=ConstantMap(np.zeros((1, 1)), 1),
    )
    report = validate_coefficients(coeffs)
    assert not report.all_passed
    check = next(c for c in report.checks if c.name == "nondegenerate_diffusion")
    assert not check.passed
    assert np.allclose(check.worst_point, 0.0)


def test_validate_detects_superpolynomial_growth():
    # exponential volatility violates linear growth far from the origin
    coeffs = exp_vol_coeffs(0.0, amplitude=1.0, weight=2.0,
                            growth_alpha=1.0, growth_m1=5.0, growth_m2=5.0)
    probe = ProbeLattice(low=-10.0, high=10.0)
    report = validate_coefficients(coeffs, probe)
    check = next(c for c in report.checks if c.name == "polynomial_growth")
    assert not check.passed
    assert abs(check.worst_point[0]) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Euler scheme
# ---------------------------------------------------------------------------


def test_euler_zero_coefficients_give_zero_paths():
    coeffs = constant_coeffs(1, 1, sigma=[[0.0]])
    bank = rl_bank(0.4)
    grid = TimeGrid(1.0, 8)
    values = euler_paths_array(
        coeffs, bank, grid, Scaling.small_noise(0.5), 6, seed=3
    ).values
    assert np.all(values == 0.0)


def test_euler_validation_errors():
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.4)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(DomainError):
        Scaling.small_noise(0.0)
    two_factor = KernelBank((rl_bank(0.4)[0], rl_bank(0.6)[0]))
    with pytest.raises(ConfigurationError):
        euler_paths_array(
            coeffs, two_factor, grid, Scaling.small_noise(0.5), 4, seed=0
        )


def test_scaling_constructors():
    # sqrt(fl(e^2)) == e exactly in binary64, so small_noise(e) runs the
    # scheme with noise e itself
    rng = np.random.default_rng(5)
    for e in rng.uniform(1e-3, 10.0, size=1000).tolist():
        s = Scaling.small_noise(e)
        assert (s.noise_var, s.vol_arg, s.drift) == (e**2, e, 1.0)
        assert np.sqrt(s.noise_var) == e
    for delta in (1e-3, 0.05, 1.0):
        s = Scaling.short_time(delta)
        assert (s.noise_var, s.vol_arg, s.drift) == (delta, 1.0, 0.0)


def test_euler_determinism():
    coeffs = exp_vol_coeffs(-0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 12)
    scaling = Scaling.small_noise(0.4)
    a = euler_paths_array(coeffs, bank, grid, scaling, 5, seed=11)
    b = euler_paths_array(coeffs, bank, grid, scaling, 5, seed=11)
    assert np.array_equal(a.values, b.values)


def test_constant_volatility_terminal_law():
    # sigma = 1 constant: Z_T ~ N(-eps^2 T / 2, eps^2 T)
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]])
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 16)
    eps, n = 0.7, 40_000
    values = euler_paths_array(coeffs, bank, grid, Scaling.small_noise(eps), n,
                               seed=21, correlated=False).values
    z = values[:, -1, 0]
    mean_want, var_want = -0.5 * eps**2, eps**2
    mean_se = eps / np.sqrt(n)
    var_se = var_want * np.sqrt(2.0 / (n - 1))
    assert abs(z.mean() - mean_want) <= 3 * mean_se
    assert abs(z.var() - var_want) <= 3 * var_se


def test_discrete_exponential_martingale():
    coeffs = exp_vol_coeffs(0.6, amplitude=0.25)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 32)
    eps, n = 0.5, 60_000
    values = euler_paths_array(
        coeffs, bank, grid, Scaling.small_noise(eps), n, seed=9
    ).values
    w = np.exp(values[:, -1, 0])
    se = w.std(ddof=1) / np.sqrt(n)
    assert abs(w.mean() - 1.0) <= 3 * se


def test_uncorrelated_ignores_sigma_tilde():
    # with sigma_tilde forced out of the dynamics the correlated=False route
    # must coincide with a model that never had it
    base = exp_vol_coeffs(0.7, amplitude=0.3)
    grid = TimeGrid(1.0, 10)
    bank = rl_bank(0.4)
    scaling = Scaling.small_noise(0.5)
    a = euler_paths_array(base, bank, grid, scaling, 6, seed=13,
                          correlated=False).values
    total = ConstantMap(np.zeros((1, 1)), 1)
    b = euler_paths_array(
        ModelCoefficients(d=1, p=1, mu=base.mu, sigma=base.sigma,
                          sigma_tilde=total),
        bank, grid, scaling, 6, seed=13, correlated=False,
    ).values
    assert np.array_equal(a, b)


def test_zero_sigma_tilde_correlated_matches_uncorrelated():
    coeffs = exp_vol_coeffs(0.0, amplitude=0.3)
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 12)
    scaling = Scaling.small_noise(0.5)
    a = euler_paths_array(coeffs, bank, grid, scaling, 8, seed=7,
                          correlated=True).values
    b = euler_paths_array(coeffs, bank, grid, scaling, 8, seed=7,
                          correlated=False).values
    assert np.max(np.abs(a - b)) == 0.0


def test_correlated_noise_decomposition():
    # conditionally on the drivers, the sigma_tilde contribution enters
    # through the same Brownian increments that generated the volatility
    rho = 0.8
    coeffs = affine_vol_coeffs(rho, const=0.5, slope=0.0)  # constant vol 0.5
    bank = rl_bank(0.5)
    grid = TimeGrid(1.0, 8)
    eps = 0.6
    values, increments, dw, _, _ = euler_paths_array(
        coeffs, bank, grid, Scaling.small_noise(eps), 500, seed=19,
        correlated=True,
    )
    # reconstruct Z_T by hand from the stored increments
    s = 0.5
    z_want = (
        -0.5 * eps**2 * s**2
        + eps * s * (rho * increments.sum(axis=1)
                     + np.sqrt(1 - rho**2) * dw.sum(axis=1))
    )[:, 0]
    assert np.allclose(values[:, -1, 0], z_want, atol=1e-12)


def test_brownian_shift_by_linearity_matches_reconvolution():
    # Bhat(dB + h) is Bhat(dB) plus the convolution of the shift alone;
    # the reference convolves the shifted increments again
    bank = KernelBank((
        rl_bank(0.3)[0],
        make_kernel("molchan_golosov", hurst=0.7, scale=1.0, horizon=1.0),
    ))
    coeffs = constant_coeffs(1, 2, sigma=[[0.5]], sigma_tilde=[[0.3, -0.2]])
    grid = TimeGrid(1.0, 16)
    rng = np.random.default_rng(4)
    shift = rng.normal(size=(16, 2)) * grid.dt
    _, increments, _, singular, volterra = euler_paths_array(
        coeffs, bank, grid, Scaling.small_noise(0.5), 40, seed=9, first_path=3,
        brownian_shift=shift,
    )
    dB, V, _, _ = draw_driver_arrays(bank, grid, 40, 9, first_path=3,
                                     extra_draws=16)
    want = np.empty_like(volterra)
    for ell, kernel in enumerate(bank):
        disc = discretize_kernel(kernel, grid)
        want[:, :, ell] = disc.convolve_increments(
            dB[:, :, ell] + shift[:, ell],
            V[:, :, ell] + disc.kappa_c / grid.dt * shift[:, ell],
        )
    assert np.array_equal(increments, dB + shift)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(volterra, want, rtol=1e-13, atol=1e-13 * scale)
    np.testing.assert_allclose(
        singular, V + np.array([discretize_kernel(k, grid).kappa_c for k in bank])
        / grid.dt * shift, rtol=1e-13, atol=1e-13 * np.max(np.abs(V)),
    )


def test_euler_paths_shapes_and_replay():
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.2)
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 10)
    scaling = Scaling.small_noise(0.4)
    plain = euler_paths_array(coeffs, bank, grid, scaling, 3, seed=23,
                              correlated=False, convolve_per_path=True)
    assert plain.values.shape == (3, 11, 1)

    paths = euler_paths_array(coeffs, bank, grid, scaling, 3, seed=23,
                              convolve_per_path=True)
    assert paths.values.shape == (3, 11, 1)
    rebuilt = replay_volterra(bank, grid, paths.increments, paths.singular)
    assert np.array_equal(rebuilt, paths.volterra)
    # brownian is the running sum of the stored increments (up to the
    # rounding of cumulative summation)
    brownian = paths.brownian
    assert np.all(brownian[:, 0, :] == 0.0)
    assert np.allclose(
        brownian[:, 1:] - brownian[:, :-1], paths.increments, atol=1e-14
    )
