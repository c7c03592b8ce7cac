"""Coefficient maps, assumption validation, and the log-price Euler scheme."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from volldp import gaussian, model
from volldp.errors import (
    ConfigurationError,
    DomainError,
    SingularDiffusionError,
)
from volldp.gaussian import (
    _UNIT_PATHS,
    Workspace,
    discretize_kernel,
    draw_driver_arrays,
    replay_volterra,
)
from volldp.grids import TimeGrid
from volldp.kernels import KernelBank, make_kernel
from volldp.model import (
    ConstantMap,
    ModelCoefficients,
    ProbeLattice,
    Scaling,
    euler_paths_array,
    _tensor_apply,
    _unit_bytes,
    make_map,
    validate_coefficients,
)
from volldp.ratefn import CameronMartinPath
from volldp.selftest import check_martingale

from conftest import affine_vol_coeffs, constant_coeffs, exp_vol_coeffs, rl_bank
from reference import j_rate


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


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _tensor_and_points(draw):
    p = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    map_shape = draw(st.sampled_from([(d,), (d, d), (d, p)]))
    lead = draw(st.sampled_from(
        [(), (draw(st.integers(1, 40)),),
         (draw(st.integers(1, 12)), draw(st.integers(1, 12)))]
    ))
    tensor = draw(hnp.arrays(np.float64, map_shape + (p,), elements=_FINITE))
    y = draw(hnp.arrays(np.float64, lead + (p,), elements=_FINITE))
    return tensor, y


@settings(max_examples=300, deadline=None)
@given(_tensor_and_points())
def test_tensor_apply_is_bitwise_the_tensordot_contraction(case):
    # the coefficient maps of every Euler step go through this contraction,
    # so any rounding change would move simulated paths
    tensor, y = case
    want = np.tensordot(y, np.moveaxis(tensor, -1, 0), axes=([-1], [0]))
    got = _tensor_apply(tensor, y)
    assert got.shape == want.shape == y.shape[:-1] + tensor.shape[:-1]
    assert np.array_equal(got, want)


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


# The reference ``j_rate`` evaluates a(phi) = sigma sigma^T along a
# volatility path and applies the package's singularity rule,
# ``model._require_nonsingular``.


def test_diffusion_path_identity_coefficients():
    coeffs = constant_coeffs(2, 2, sigma=np.eye(2))
    grid = TimeGrid(1.0, 4)
    phi = np.zeros((5, 2))
    xdot = np.random.default_rng(0).normal(size=(4, 2))
    j = j_rate(CameronMartinPath(grid, xdot), phi, coeffs)
    assert j == pytest.approx(0.5 * np.sum(xdot**2) * grid.dt, rel=1e-12)


def test_diffusion_path_scalar_exponential():
    rho = 0.5
    coeffs = exp_vol_coeffs(rho, amplitude=0.3, weight=1.0)
    grid = TimeGrid(1.0, 9)
    values = np.linspace(-1.0, 1.0, 10)[:, None]
    xdot = np.random.default_rng(1).normal(size=(9, 1))
    j = j_rate(CameronMartinPath(grid, xdot), values, coeffs)
    a = (1 - rho**2) * (0.3 * np.exp(values[:-1, 0])) ** 2
    assert j == pytest.approx(0.5 * np.sum(xdot[:, 0] ** 2 / a) * grid.dt, rel=1e-12)


def test_diffusion_path_singular_matrix():
    sigma = np.array([[1.0, 0.0], [0.0, 0.0]])  # second row vanishes
    coeffs = constant_coeffs(2, 2, sigma=sigma)
    grid = TimeGrid(1.0, 2)
    with pytest.raises(SingularDiffusionError):
        j_rate(CameronMartinPath(grid, np.zeros((2, 2))), np.zeros((3, 2)), coeffs)


def test_diffusion_path_rejects_nan_determinant():
    coeffs = exp_vol_coeffs(0.2)
    grid = TimeGrid(1.0, 2)
    values = np.array([[0.0], [np.nan], [0.0]])
    with pytest.raises(SingularDiffusionError, match="node 1"):
        j_rate(CameronMartinPath(grid, np.zeros((2, 1))), values, coeffs)


def test_diffusion_path_dimension_mismatch():
    # phi must hold one value per factor at every node: (N + 1, p)
    coeffs = exp_vol_coeffs(0.2)
    grid = TimeGrid(1.0, 2)
    for shape in ((3, 2), (4, 1), (3,)):
        with pytest.raises(DomainError):
            j_rate(CameronMartinPath(grid, np.zeros((2, 1))), np.zeros(shape), coeffs)


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


def test_validate_constant_coefficients_pass():
    report = validate_coefficients(constant_coeffs(1, 1, sigma=[[1.0]]))
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "nondegenerate_diffusion", "polynomial_growth"]


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


def test_validate_degeneracy_check_is_scale_invariant():
    # a multiple of the identity passes at any scale, an ill-conditioned
    # matrix fails at any scale
    for level in (1.0, 5e-4, 5e-7):
        good = validate_coefficients(constant_coeffs(2, 2, sigma=level * np.eye(2)))
        check = next(c for c in good.checks if c.name == "nondegenerate_diffusion")
        assert check.passed
        assert check.margin == pytest.approx(1.0 - 1e-12, rel=1e-12)
        sigma = level * np.diag([1.0, 1e-7])
        bad = validate_coefficients(constant_coeffs(2, 2, sigma=sigma))
        check = next(c for c in bad.checks if c.name == "nondegenerate_diffusion")
        assert not check.passed


def test_validate_detects_superpolynomial_growth():
    # exponential volatility violates linear growth far from the origin
    coeffs = exp_vol_coeffs(0.0, amplitude=1.0, weight=2.0)
    probe = ProbeLattice(low=-10.0, high=10.0)
    report = validate_coefficients(coeffs, probe, growth_m1=5.0, growth_m2=5.0,
                                   growth_alpha=1.0)
    check = next(c for c in report.checks if c.name == "polynomial_growth")
    assert not check.passed
    assert abs(check.worst_point[0]) == pytest.approx(10.0)


@pytest.mark.parametrize("m1, m2, alpha", [
    (10.0, 10.0, 1.0), (0.5, 0.25, 2.0), (0.0, 0.1, 0.5),
])
def test_validate_checks_the_growth_constants_it_is_given(m1, m2, alpha):
    # one factor, s(y) = 0.5 + 0.4 y, rho = 0.3: the entrywise triple sum is
    # (|rho| + sqrt(1 - rho^2)) |s(y)|
    rho = 0.3
    coeffs = affine_vol_coeffs(rho, const=0.5, slope=0.4)
    probe = ProbeLattice()
    report = validate_coefficients(coeffs, probe, growth_m1=m1, growth_m2=m2,
                                   growth_alpha=alpha)
    y = probe.points(1)[:, 0]
    s = np.abs(0.5 + 0.4 * y)
    bound = m1 + m2 * np.abs(y) ** alpha
    slack = bound - (abs(rho) + math.sqrt(1.0 - rho**2)) * s
    check = next(c for c in report.checks if c.name == "polynomial_growth")
    assert check.margin == pytest.approx(slack.min(), rel=1e-12, abs=1e-12)
    assert check.passed == (slack.min() >= 0.0)
    if (m1, m2, alpha) == (10.0, 10.0, 1.0):  # the defaults
        assert str(validate_coefficients(coeffs)) == str(report)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_validate_rejects_a_nonpositive_growth_exponent(alpha):
    with pytest.raises(ConfigurationError, match="growth_alpha must be positive"):
        validate_coefficients(exp_vol_coeffs(0.2), growth_alpha=alpha)


def test_model_coefficients_are_their_maps():
    assert [f.name for f in dataclasses.fields(ModelCoefficients)] == [
        "d", "p", "mu", "sigma", "sigma_tilde"]


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
        assert (s.noise_var, s.vol_arg) == (e**2, e)
        assert np.sqrt(s.noise_var) == e
    for delta in (1e-3, 0.05, 1.0):
        s = Scaling.short_time(delta)
        assert (s.noise_var, s.vol_arg) == (delta, 1.0)


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
                               seed=21).values
    z = values[:, -1, 0]
    mean_want, var_want = -0.5 * eps**2, eps**2
    mean_se = eps / np.sqrt(n)
    var_se = var_want * np.sqrt(2.0 / (n - 1))
    assert abs(z.mean() - mean_want) <= 3 * mean_se
    assert abs(z.var() - var_want) <= 3 * var_se


def test_discrete_exponential_martingale():
    assert check_martingale(np.random.default_rng(9), 60_000) == []


def _uncorrelated_step_values(coeffs, scaling, dt, paths):
    """Reference: the Euler scheme without the sigma_tilde dB term, as the
    uncorrelated model was once simulated, on the drivers of ``paths``."""
    y = scaling.vol_arg * paths.volterra[:, :-1, :]
    sig = coeffs.sigma(y)
    ito = np.sum(sig**2, axis=-1)
    noise = np.einsum("knij,knj->kni", sig, paths.dw)
    steps = (coeffs.mu(y) - 0.5 * scaling.noise_var * ito) * dt
    steps += np.sqrt(scaling.noise_var) * noise
    values = np.zeros_like(paths.values)
    values[:, 1:, :] = np.cumsum(steps, axis=1)
    return values


@pytest.mark.parametrize("scaling, drift", [
    (Scaling.small_noise(0.4), 0.05),
    (Scaling.small_noise(0.2), 0.05),
    (Scaling.short_time(0.3), 0.0),  # the short-time routes need mu = 0
], ids=["small_noise_0.4", "small_noise_0.2", "short_time_0.3"])
def test_zero_sigma_tilde_is_the_uncorrelated_scheme(scaling, drift):
    # the uncorrelated model is a sigma_tilde = 0 map: its paths equal, bit
    # for bit, the scheme that leaves the sigma_tilde term out (the
    # one-factor ldp_tilted model, sigma = sqrt(1 - rho^2) * amplitude)
    rho, amplitude = -0.5, 0.3
    sigma = make_map("exp_linear", shape=(1, 1), in_dim=1,
                     amplitude=[np.sqrt(1.0 - rho * rho) * amplitude],
                     weights=[1.0])
    coeffs = ModelCoefficients(d=1, p=1, mu=ConstantMap(np.array([drift]), 1),
                               sigma=sigma,
                               sigma_tilde=ConstantMap(np.zeros((1, 1)), 1))
    grid = TimeGrid(1.0, 64)
    paths = euler_paths_array(coeffs, rl_bank(0.3), grid, scaling, 3000, seed=13)
    want = _uncorrelated_step_values(coeffs, scaling, grid.dt, paths)
    assert np.array_equal(paths.values, want)


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
    )
    # reconstruct Z_T by hand from the stored increments
    s = 0.5
    z_want = (
        -0.5 * eps**2 * s**2
        + eps * s * (rho * increments.sum(axis=1)
                     + np.sqrt(1 - rho**2) * dw.sum(axis=1))
    )[:, 0]
    assert np.allclose(values[:, -1, 0], z_want, atol=1e-12)


def test_brownian_shift_replays_bit_for_bit():
    # the shift enters dB before V and Bhat are formed, so a tilted draw
    # replays from its stored dB and V like any other, all paths at once
    # and one path alone, and V moves by the analytic kappa_c / dt * h
    bank = KernelBank((
        rl_bank(0.3)[0],
        make_kernel("molchan_golosov", hurst=0.7, scale=1.0, horizon=1.0),
    ))
    coeffs = constant_coeffs(1, 2, sigma=[[0.5]], sigma_tilde=[[0.3, -0.2]])
    rng = np.random.default_rng(4)
    for n_steps in (16, 64, 512):
        grid = TimeGrid(1.0, n_steps)
        shift = rng.normal(size=(n_steps, 2)) * grid.dt
        kappa_c = np.array([discretize_kernel(k, grid).kappa_c for k in bank])
        for first in (0, 3, 1500):
            _, increments, _, singular, volterra = euler_paths_array(
                coeffs, bank, grid, Scaling.small_noise(0.5), 40, seed=9,
                first_path=first, brownian_shift=shift,
            )
            assert np.array_equal(
                replay_volterra(bank, grid, increments, singular, first),
                volterra,
            )
            alone = replay_volterra(bank, grid, increments[-1:],
                                    singular[-1:], first + 39)
            assert np.array_equal(alone[0], volterra[-1])
            dB, V, _, _ = draw_driver_arrays(bank, grid, 40, 9,
                                             first_path=first,
                                             extra_draws=n_steps)
            assert np.array_equal(increments, dB + shift)
            np.testing.assert_allclose(
                singular, V + kappa_c / grid.dt * shift,
                rtol=1e-13, atol=1e-13 * np.max(np.abs(V)),
            )


def test_euler_paths_shapes_and_replay():
    coeffs = exp_vol_coeffs(-0.5, amplitude=0.2)
    bank = rl_bank(0.3)
    grid = TimeGrid(1.0, 10)
    scaling = Scaling.small_noise(0.4)
    paths = euler_paths_array(coeffs, bank, grid, scaling, 3, seed=23)
    assert paths.values.shape == (3, 11, 1)
    # brownian is the running sum of the stored increments (up to the
    # rounding of cumulative summation)
    brownian = paths.brownian
    assert np.all(brownian[:, 0, :] == 0.0)
    assert np.allclose(
        brownian[:, 1:] - brownian[:, :-1], paths.increments, atol=1e-14
    )


# ---------------------------------------------------------------------------
# bounded block memory
# ---------------------------------------------------------------------------


class _CountedMap:
    """A coefficient map that records the path count of every call."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def __call__(self, y):
        self.calls.append(len(y))
        return self.inner(y)


def test_row_slices_do_not_change_a_bit(monkeypatch):
    # a d = p = 2 model at N = 64 run as one slice and as ten: every array
    # is the same to the bit, and a path replayed alone from the middle of
    # a slice is its row; paths [900, 1200) cross a unit boundary, so both
    # zero frames and the edge term's own slices are used too
    n_steps, n, first = 64, 300, 900
    calls = []
    coeffs = ModelCoefficients(
        d=2, p=2, mu=make_map("constant", (2,), 2, values=[0.05, -0.02]),
        sigma=_CountedMap(make_map(
            "exp_linear", (2, 2), 2, amplitude=[0.3, 0.0, 0.08, 0.25],
            weights=[0.8, 0.1, 0.0, 0.0, 0.1, 0.0, 0.2, 0.6]), calls),
        sigma_tilde=make_map("affine", (2, 2), 2,
                             constant=[-0.12, 0.04, 0.03, -0.1],
                             linear=[0.02, 0.0, 0.0, 0.01, 0.01, 0.0, 0.0, 0.02]),
    )
    bank = KernelBank((
        rl_bank(0.3)[0],
        make_kernel("fractional_ou", hurst=0.4, scale=0.8, horizon=1.0,
                    mean_reversion=1.5),
    ))
    grid = TimeGrid(1.0, n_steps)
    scaling = Scaling.small_noise(0.5)
    row_bytes = 8 * n_steps * 2 * 2  # the widest slice array, sigma's N d^2
    fields = ("values", "dw", "increments", "singular", "volterra")

    def run(budget, count, start):
        monkeypatch.setattr(gaussian, "_SLICE_BYTES", budget)
        calls.clear()
        return euler_paths_array(coeffs, bank, grid, scaling, count, 11,
                                 first_path=start)

    whole = run(n * row_bytes, n, first)
    assert calls == [n]
    sliced = run(32 * row_bytes, n, first)
    assert calls == [32] * 9 + [12]
    for name in fields:
        assert np.array_equal(getattr(sliced, name), getattr(whole, name)), name
    k = 45  # row 13 of the slice of rows [32, 64)
    alone = run(32 * row_bytes, 1, first + k)
    for name in fields:
        assert np.array_equal(getattr(alone, name)[0],
                              getattr(whole, name)[k]), name


def test_euler_block_allocates_less_than_two_unit_arrays():
    # into a warmed workspace, one 1,024-path block at N = 512 allocates
    # only slice-sized arrays: its peak stays under two (1,024, 512) arrays
    coeffs = exp_vol_coeffs(-0.5)
    grid = TimeGrid(1.0, 512)
    work = Workspace()
    args = (coeffs, rl_bank(0.3), grid, Scaling.small_noise(0.5), _UNIT_PATHS, 3)
    euler_paths_array(*args, work=work)
    tracemalloc.start()
    try:
        euler_paths_array(*args, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * _UNIT_PATHS * 512


def test_unit_budget_rejects_a_grid_before_any_draw(monkeypatch):
    # _unit_bytes is what one worker's unit-sized arrays take; a budget
    # one byte short stops the draw before anything is allocated
    coeffs = ModelCoefficients(
        d=2, p=3, mu=ConstantMap(np.zeros(2), 3),
        sigma=ConstantMap(np.eye(2), 3), sigma_tilde=ConstantMap(np.zeros((2, 3)), 3),
    )
    bank = KernelBank(tuple(rl_bank(h)[0] for h in (0.3, 0.4, 0.6)))
    grid = TimeGrid(1.0, 12)
    need = _unit_bytes(12, 2, 3)
    args = (coeffs, bank, grid, Scaling.small_noise(0.5), _UNIT_PATHS, 2)
    monkeypatch.setattr(model, "_UNIT_BUDGET", need - 1)
    work = Workspace()
    with pytest.raises(ConfigurationError,
                       match=f"need {need:,} bytes .* budget of {need - 1:,}"):
        euler_paths_array(*args, first_path=1, work=work)
    assert work._flat == {}
    monkeypatch.setattr(model, "_UNIT_BUDGET", need)
    euler_paths_array(*args, first_path=1, work=work)
    unit = {name: flat.nbytes for name, flat in work._flat.items()
            if not name.startswith("slice_")}
    assert sum(unit.values()) == need, unit
