"""Rate functionals, their discretizations, and the constrained minimizers."""

import dataclasses

import numpy as np
import pytest

from volldp.errors import DomainError, SingularDiffusionError
from volldp.gaussian import discretize_kernel, terminal_variance_bound
from volldp.grids import TimeGrid
from volldp.kernels import KernelBank, make_kernel, rescale_kernel
from volldp.ratefn import (
    CameronMartinPath,
    MultistartSpreadWarning,
    OptimizerConfig,
    gamma_functional,
    hat_map,
    i_uncorrelated,
    i_z,
    i_z_m,
    terminal_rate,
)
from volldp.model import ConstantMap, ModelCoefficients, make_map
from volldp.ratefn import (
    _SPREAD_WARN, _Objective, _lbfgs, _lift, _lift_adjoint, _lift_factors,
    _multistart, _solve, _uncorrelated,
)

from conftest import affine_vol_coeffs, constant_coeffs, exp_vol_coeffs, rl_bank
from reference import j_rate, phi_m

FAST_OPT = OptimizerConfig(n_starts=2)


# ---------------------------------------------------------------------------
# Cameron-Martin paths
# ---------------------------------------------------------------------------


def test_cameron_martin_basics(unit_grid):
    zero = CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps, 2)))
    assert zero.h1_norm_sq == 0.0
    assert np.all(zero.values == 0.0)

    line = CameronMartinPath.straight_line(unit_grid, [2.0, -1.0])
    assert np.allclose(line.values[-1], [2.0, -1.0])
    assert np.allclose(line.values[0], 0.0)
    assert line.h1_norm_sq == pytest.approx(5.0, rel=1e-12)

    rebuilt = CameronMartinPath.from_values(unit_grid, line.values)
    assert np.allclose(rebuilt.derivative, line.derivative)
    assert rebuilt.values.shape == (unit_grid.n_steps + 1, 2)


def test_cameron_martin_validation(unit_grid):
    with pytest.raises(DomainError):
        CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps + 3, 1)))
    with pytest.raises(DomainError):
        CameronMartinPath.from_values(unit_grid, np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------


def test_gamma_zero_path(unit_grid):
    x = CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps, 1)))
    a = np.ones((unit_grid.n_steps, 1, 1))
    assert gamma_functional(x, a) == 0.0


def test_gamma_identity_weight_straight_line(unit_grid):
    x = CameronMartinPath.straight_line(unit_grid, [1.0])
    a = np.ones((unit_grid.n_steps, 1, 1))
    assert gamma_functional(x, a) == pytest.approx(0.5, rel=1e-12)
    # weight path with the terminal node included is accepted too
    a_full = np.ones((unit_grid.n_steps + 1, 1, 1))
    assert gamma_functional(x, a_full) == pytest.approx(0.5, rel=1e-12)


def test_gamma_shape_mismatch(unit_grid):
    x = CameronMartinPath.straight_line(unit_grid, [1.0])
    with pytest.raises(DomainError):
        gamma_functional(x, np.ones((3, 1, 1)))


def test_gamma_eigenvalue_sandwich(unit_grid):
    rng = np.random.default_rng(4)
    n = unit_grid.n_steps
    for _ in range(20):
        x = CameronMartinPath(unit_grid, rng.normal(size=(n, 2)))
        base = rng.normal(size=(n, 2, 2))
        a = np.einsum("nij,nkj->nik", base, base) + 0.1 * np.eye(2)
        lam_min = np.linalg.eigvalsh(a).min(axis=1)
        lam_max = np.linalg.eigvalsh(a).max(axis=1)
        energy = 0.5 * np.sum(x.derivative**2, axis=1) * unit_grid.dt
        val = gamma_functional(x, a)
        assert val >= np.sum(lam_min * energy) - 1e-12
        assert val <= np.sum(lam_max * energy) + 1e-12


def test_j_rate_vanishes_on_drift_path(unit_grid):
    mu = np.array([0.3, -0.2])
    coeffs = constant_coeffs(2, 2, sigma=np.eye(2), mu=mu)
    x = CameronMartinPath.straight_line(unit_grid, mu * unit_grid.horizon)
    phi = np.zeros((unit_grid.n_steps + 1, 2))
    assert j_rate(x, phi, coeffs) == pytest.approx(0.0, abs=1e-16)


def test_j_rate_constant_diffusion(unit_grid):
    sigma = np.diag([2.0, 1.0])  # a = diag(4, 1)
    coeffs = constant_coeffs(2, 2, sigma=sigma)
    x = CameronMartinPath.straight_line(unit_grid, [1.0, 1.0])
    phi = np.zeros((unit_grid.n_steps + 1, 2))
    assert j_rate(x, phi, coeffs) == pytest.approx(0.625, rel=1e-12)


# ---------------------------------------------------------------------------
# lift and correlation maps
# ---------------------------------------------------------------------------


def test_hat_map_zero_control(unit_grid):
    f = CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps, 1)))
    fhat = hat_map(f, rl_bank(0.3))
    assert np.all(fhat == 0.0)


def test_hat_map_flat_kernel_is_identity(unit_grid):
    rng = np.random.default_rng(1)
    f = CameronMartinPath(unit_grid, rng.normal(size=(unit_grid.n_steps, 1)))
    fhat = hat_map(f, rl_bank(0.5))
    assert np.allclose(fhat, f.values, atol=1e-12)


def test_hat_map_power_kernel_closed_form():
    # fdot = 1: fhat(t) = int_0^t (t-s)^(1/4) ds = t^(5/4) / (5/4)
    grid = TimeGrid(1.0, 64)
    f = CameronMartinPath(grid, np.ones((64, 1)))
    fhat = hat_map(f, rl_bank(0.75))
    want = grid.nodes ** 1.25 / 1.25
    assert np.max(np.abs(fhat[:, 0] - want)) < 1e-4


def test_hat_map_energy_bound():
    # |fhat(t)| <= ||K(t, .)||_L2 ||f||_H1 <= bound for all controls
    bank = rl_bank(0.35)
    grid = TimeGrid(1.0, 32)
    disc = discretize_kernel(bank[0], grid)
    bound = np.sqrt(terminal_variance_bound(bank))
    rng = np.random.default_rng(8)
    for _ in range(200):
        f = CameronMartinPath(grid, rng.normal(size=(32, 1)))
        fhat = hat_map(f, bank)
        norm = np.sqrt(f.h1_norm_sq)
        assert np.max(np.abs(fhat)) <= bound * norm * (1 + 1e-9)


def test_phi_m_zero_and_constant(unit_grid):
    coeffs = affine_vol_coeffs(0.5, const=0.8, slope=0.0)
    g = np.zeros((unit_grid.n_steps + 1, 1))
    zero = CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps, 1)))
    assert np.all(phi_m(zero, g, 4, coeffs).values == 0.0)

    rng = np.random.default_rng(2)
    f = CameronMartinPath(unit_grid, rng.normal(size=(unit_grid.n_steps, 1)))
    # constant sigma_tilde = rho * 0.8: Phi^m(t) = 0.4 f(t) regardless of m
    got = phi_m(f, g, 4, coeffs)
    assert np.allclose(got.values, 0.4 * f.values, atol=1e-12)


def test_phi_m_frozen_block_hand_case():
    # N = 4, m = 2, sigma_tilde(y) = y, g(t) = t, fdot = 1:
    # blocks freeze sigma_tilde at g(0) = 0 and g(0.5) = 0.5, so
    # Phi^m(1) = (0 + 0 + 0.5 + 0.5) * 0.25 = 0.25
    grid = TimeGrid(1.0, 4)
    coeffs = affine_vol_coeffs(0.0, const=1.0, slope=0.0)
    lin = affine_sigma_tilde_is_identity()
    g = grid.nodes[:, None]
    f = CameronMartinPath(grid, np.ones((4, 1)))
    got = phi_m(f, g, 2, lin)
    assert got.values[-1, 0] == pytest.approx(0.25, rel=1e-12)
    assert np.allclose(got.values[:, 0], [0.0, 0.0, 0.0, 0.125, 0.25])


def affine_sigma_tilde_is_identity():
    """d = p = 1 model with sigma = 1, mu = 0, sigma_tilde(y) = y."""
    from volldp.model import AffineMap, ConstantMap, ModelCoefficients

    return ModelCoefficients(
        d=1, p=1,
        mu=ConstantMap(np.zeros(1), 1),
        sigma=ConstantMap(np.ones((1, 1)), 1),
        sigma_tilde=AffineMap(np.zeros((1, 1)), np.ones((1, 1, 1))),
    )


def test_phi_m_divisibility(unit_grid):
    coeffs = affine_vol_coeffs(0.5)
    g = np.zeros((unit_grid.n_steps + 1, 1))
    f = CameronMartinPath(unit_grid, np.zeros((unit_grid.n_steps, 1)))
    with pytest.raises(Exception) as exc:
        phi_m(f, g, 5, coeffs)
    assert "5" in str(exc.value) and "16" in str(exc.value)


def test_phi_map_matches_fine_blocks():
    # the exact correlation integral Phi = Phi^N is the limit of the frozen one
    grid = TimeGrid(1.0, 256)
    coeffs = affine_vol_coeffs(0.5, const=0.5, slope=0.1)
    bank = rl_bank(0.4)
    rng = np.random.default_rng(3)
    f = CameronMartinPath(grid, rng.normal(size=(256, 1)))
    g = hat_map(f, bank)
    exact = phi_m(f, g, 256, coeffs)
    gaps = []
    for m in (4, 16, 64):
        frozen = phi_m(f, g, m, coeffs)
        gaps.append(np.max(np.abs(frozen.values - exact.values)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_phi_m_cauchy_schwarz_bound():
    # |Phi^m(t)| <= sup |sigma_tilde| sqrt(t) ||f||_H1
    grid = TimeGrid(1.0, 16)
    coeffs = affine_vol_coeffs(0.5, const=0.5, slope=0.1)
    bank = rl_bank(0.4)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = CameronMartinPath(grid, rng.normal(size=(16, 1)))
        g = hat_map(f, bank)
        sup_sig = np.max(np.abs(coeffs.sigma_tilde(g)))
        vals = phi_m(f, g, 4, coeffs).values
        norm = np.sqrt(f.h1_norm_sq)
        for i, t in enumerate(grid.nodes):
            assert abs(vals[i, 0]) <= sup_sig * np.sqrt(t) * norm + 1e-12


# ---------------------------------------------------------------------------
# frozen-block objective J(x - Phi^m(f, g) | g)
# ---------------------------------------------------------------------------


def _less_phi_m(x, f, g, m, coeffs):
    """The path x - Phi^m(f, g)."""
    return CameronMartinPath(x.grid, x.derivative - phi_m(f, g, m, coeffs).derivative)


def test_j_m_zero_at_own_image(unit_grid):
    coeffs = affine_vol_coeffs(0.5, const=0.5, slope=0.1)
    bank = rl_bank(0.4)
    rng = np.random.default_rng(5)
    f = CameronMartinPath(unit_grid, rng.normal(size=(unit_grid.n_steps, 1)))
    g = hat_map(f, bank)
    image = phi_m(f, g, 4, coeffs)
    x = CameronMartinPath.from_values(unit_grid, image.values)
    assert j_rate(_less_phi_m(x, f, g, 4, coeffs), g, coeffs) == pytest.approx(
        0.0, abs=1e-18
    )


def test_j_m_reduces_to_j_rate_without_correlation(unit_grid):
    coeffs = exp_vol_coeffs(0.0, amplitude=0.3)
    bank = rl_bank(0.35)
    rng = np.random.default_rng(6)
    f = CameronMartinPath(unit_grid, rng.normal(size=(unit_grid.n_steps, 1)))
    g = hat_map(f, bank)
    x = CameronMartinPath.straight_line(unit_grid, [0.7])
    assert j_rate(_less_phi_m(x, f, g, 4, coeffs), g, coeffs) == pytest.approx(
        j_rate(x, g, coeffs), rel=1e-12
    )


def test_j_m_hand_case():
    # continuing the phi_m hand case with x(t) = t and sigma = 1:
    # J = 1/2 sum (xdot - Phidot)^2 dt = 1/2 (1 + 1 + 1/4 + 1/4) / 4
    grid = TimeGrid(1.0, 4)
    coeffs = affine_sigma_tilde_is_identity()
    g = grid.nodes[:, None]
    f = CameronMartinPath(grid, np.ones((4, 1)))
    x = CameronMartinPath.straight_line(grid, [1.0])
    assert j_rate(_less_phi_m(x, f, g, 2, coeffs), g, coeffs) == pytest.approx(
        0.3125, rel=1e-12
    )


# ---------------------------------------------------------------------------
# variational rate functionals
# ---------------------------------------------------------------------------


def test_i_uncorrelated_zero_target_cost(unit_grid):
    mu = np.array([0.4])
    coeffs = constant_coeffs(1, 1, sigma=[[1.0]], mu=mu)
    x = CameronMartinPath.straight_line(unit_grid, mu * unit_grid.horizon)
    sol = i_uncorrelated(x, rl_bank(0.4), coeffs, FAST_OPT)
    assert sol.converged
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(sol.control.derivative)) < 1e-4


def test_i_uncorrelated_constant_volatility(unit_grid):
    # volatility does not react to the control, so f* = 0 and the value is
    # the plain quadratic cost 1/(2 s^2) int xdot^2 dt
    s = 1.3
    coeffs = constant_coeffs(1, 1, sigma=[[s]])
    x = CameronMartinPath.straight_line(unit_grid, [0.9])
    sol = i_uncorrelated(x, rl_bank(0.4), coeffs, FAST_OPT)
    assert sol.converged
    assert sol.value == pytest.approx(0.81 / (2 * s**2), rel=1e-6)
    assert sol.value <= sol.upper_bound_used + 1e-9


def test_i_uncorrelated_nontrivial_control(unit_grid):
    coeffs = exp_vol_coeffs(0.0, amplitude=0.3)
    x = CameronMartinPath.straight_line(unit_grid, [0.8])
    sol = i_uncorrelated(x, rl_bank(0.35), coeffs, FAST_OPT)
    assert sol.converged
    assert sol.value > 0.0
    assert sol.value <= sol.upper_bound_used + 1e-9
    assert sol.multistart_spread <= 0.01 * max(1.0, abs(sol.value))


@pytest.mark.parametrize("factors", [1, 2])
def test_i_uncorrelated_is_i_z_of_the_sigma_tilde_zero_model(unit_grid, factors):
    # I_X of a correlated model is I_Z of its copy with sigma_tilde = 0, bit
    # for bit: value, control, Wiener-direction control and every start
    if factors == 1:
        coeffs, bank = exp_vol_coeffs(-0.5, amplitude=0.3), rl_bank(0.35)
        x = CameronMartinPath.straight_line(unit_grid, [0.8])
    else:
        coeffs = two_factor_coeffs()
        bank = KernelBank((rl_bank(0.3)[0], rl_bank(0.7)[0]))
        x = CameronMartinPath.straight_line(unit_grid, [0.5, -0.3])
    zeroed = dataclasses.replace(
        coeffs, sigma_tilde=ConstantMap(np.zeros((factors, factors)), factors))
    plain = i_uncorrelated(x, bank, coeffs, FAST_OPT)
    want = i_z(x, bank, zeroed, FAST_OPT)
    assert plain.value == want.value
    assert np.array_equal(plain.control.derivative, want.control.derivative)
    assert np.array_equal(plain.inner_drift, want.inner_drift)
    assert plain.starts == want.starts
    assert i_z(x, bank, coeffs, FAST_OPT).value != plain.value


def test_i_z_m_matches_uncorrelated_when_rho_zero(unit_grid):
    coeffs = exp_vol_coeffs(0.0, amplitude=0.3)
    bank = rl_bank(0.35)
    x = CameronMartinPath.straight_line(unit_grid, [0.6])
    plain = i_uncorrelated(x, bank, coeffs, FAST_OPT)
    frozen = i_z_m(x, 4, bank, coeffs, FAST_OPT)
    assert frozen.value == pytest.approx(plain.value, rel=1e-6)


def test_i_z_m_nonnegative_and_converging_in_m(unit_grid):
    coeffs = affine_vol_coeffs(0.5, const=0.5, slope=0.1)
    bank = rl_bank(0.4)
    x = CameronMartinPath.straight_line(unit_grid, [0.7])
    exact = i_z(x, bank, coeffs, FAST_OPT)
    gaps = []
    for m in (2, 4, 8, 16):
        sol = i_z_m(x, m, bank, coeffs, FAST_OPT)
        assert sol.value >= 0.0
        gaps.append(abs(sol.value - exact.value))
    assert gaps[-1] <= gaps[0] + 1e-9
    assert gaps[-1] < 5e-3


def test_i_z_constant_model_closed_form(unit_grid):
    # sigma_tilde = 0, sigma = s: value = z^2 / (2 s^2 T), control = 0
    s = 0.8
    coeffs = constant_coeffs(1, 1, sigma=[[s]])
    x = CameronMartinPath.straight_line(unit_grid, [1.1])
    sol = i_z(x, rl_bank(0.4), coeffs, FAST_OPT)
    assert sol.converged
    assert sol.value == pytest.approx(1.1**2 / (2 * s**2), rel=1e-6)
    assert np.max(np.abs(sol.control.derivative)) < 1e-4


def test_i_z_correlated_constant_vol_is_rho_invariant(unit_grid):
    # constant vol level 1: optimal fdot = rho xdot per step, value
    # z^2 / (2 T) for every correlation
    x = CameronMartinPath.straight_line(unit_grid, [1.0])
    bank = rl_bank(0.5)
    for rho in (0.0, 0.5, -0.7):
        coeffs = affine_vol_coeffs(rho, const=1.0, slope=0.0)
        sol = i_z(x, bank, coeffs, FAST_OPT)
        assert sol.converged
        assert sol.value == pytest.approx(0.5, rel=1e-5)
        want = rho * np.ones(unit_grid.n_steps)
        assert np.allclose(sol.control.derivative[:, 0], want, atol=1e-3)


# ---------------------------------------------------------------------------
# terminal rate
# ---------------------------------------------------------------------------


def test_terminal_rate_standard_gaussian():
    # mu = 0, sigma = I_2: I(z) = |z|^2 / (2 T)
    coeffs = constant_coeffs(2, 1, sigma=np.eye(2))
    grid = TimeGrid(1.0, 16)
    sol = terminal_rate(np.array([1.0, 1.0]), rl_bank(0.4, horizon=1.0),
                        coeffs, grid, FAST_OPT)
    assert sol.converged
    assert sol.value == pytest.approx(1.0, rel=1e-8)


def test_terminal_rate_shifted_gaussian():
    mu = np.array([0.25])
    s, z, horizon = 1.5, 1.2, 2.0
    coeffs = constant_coeffs(1, 1, sigma=[[s]], mu=mu)
    grid = TimeGrid(horizon, 16)
    sol = terminal_rate(np.array([z]), rl_bank(0.4, horizon=horizon),
                        coeffs, grid, FAST_OPT)
    want = (z - mu[0] * horizon) ** 2 / (2 * s**2 * horizon)
    assert sol.value == pytest.approx(want, rel=1e-6)


def test_terminal_rate_below_straight_line_rate(unit_grid):
    coeffs = exp_vol_coeffs(0.4, amplitude=0.3)
    bank = rl_bank(0.35)
    z = np.array([0.8])
    term = terminal_rate(z, bank, coeffs, unit_grid, FAST_OPT)
    line = i_z(CameronMartinPath.straight_line(unit_grid, z), bank, coeffs,
               FAST_OPT)
    assert term.value <= line.value + 1e-6


def test_terminal_rate_grid_refinement():
    coeffs = exp_vol_coeffs(0.0, amplitude=0.25)
    bank = rl_bank(0.4)
    vals = []
    for n in (16, 64, 256):
        sol = terminal_rate(np.array([0.7]), bank, coeffs, TimeGrid(1.0, n),
                            FAST_OPT)
        vals.append(sol.value)
    # refinement changes the value less and less
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-8


# ---------------------------------------------------------------------------
# adjoint gradients
# ---------------------------------------------------------------------------


def finite_difference(fun, x0, step=1e-5):
    grad = np.empty_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        up[i] += step
        dn = x0.copy()
        dn[i] -= step
        grad[i] = (fun(up) - fun(dn)) / (2 * step)
    return grad


@pytest.mark.parametrize("kind", ["none", "exact", "frozen", "terminal"])
def test_pathwise_gradients_match_finite_differences(kind):
    # none / exact / frozen: sigma_tilde = 0 (the I_X objective), read at
    # every node, read at the left ends of two blocks; terminal: the I_T
    # objective, whose adjoint is the pathwise one with the inner weight held
    # across the steps
    grid = TimeGrid(1.0, 8)
    bank = rl_bank(0.35)
    if kind == "terminal":
        coeffs = exp_vol_coeffs(-0.4, amplitude=0.3)
        problem = _Objective(grid, bank, coeffs, (8,), [[0.8]])
        rng = np.random.default_rng(13)
    else:
        coeffs = exp_vol_coeffs(0.5, amplitude=0.3)
        if kind == "none":
            coeffs = _uncorrelated(coeffs)
        m = 2 if kind == "frozen" else None
        xdot = CameronMartinPath.straight_line(grid, [0.6]).derivative
        problem = _Objective(grid, bank, coeffs, np.arange(1, 9), xdot, m)
        rng = np.random.default_rng(12)
    for _ in range(25):
        flat = rng.normal(scale=0.7, size=8)
        _, grad = problem.value_grad(flat)
        fd = finite_difference(lambda v: problem.value_grad(v)[0], flat)
        denom = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(grad - fd)) / denom < 1e-4


# ---------------------------------------------------------------------------
# inner drift and singular diffusions
# ---------------------------------------------------------------------------


def two_factor_coeffs():
    """d = p = 2 model with state-dependent sigma, sigma_tilde and mu."""
    return ModelCoefficients(
        d=2, p=2,
        mu=make_map("affine", (2,), 2, constant=np.array([0.05, -0.02]),
                    linear=np.array([[0.1, 0.0], [0.0, -0.2]])),
        sigma=make_map("exp_linear", (2, 2), 2,
                       amplitude=np.array([[0.4, 0.1], [0.05, 0.3]]),
                       weights=np.full((2, 2, 2), 0.3)),
        sigma_tilde=make_map("exp_linear", (2, 2), 2,
                             amplitude=np.array([[-0.2, 0.1], [0.1, 0.15]]),
                             weights=np.full((2, 2, 2), -0.2)),
    )


@pytest.mark.parametrize("functional", ["i_x", "i_z_m", "i_z", "i_t"])
def test_inner_drift_reproduces_the_target(functional):
    # sigma(fhat) ydot + mu(fhat) + Phidot = xdot at every step; for I_T the
    # time integral of the same reaches z
    grid = TimeGrid(1.0, 16)
    bank = KernelBank((rl_bank(0.3)[0], rl_bank(0.7)[0]))
    coeffs = two_factor_coeffs()
    rng = np.random.default_rng(21)
    xdot = rng.normal(size=(16, 2))
    z = rng.normal(size=2)
    m = 4
    if functional == "i_x":  # I_Z of the sigma_tilde = 0 model
        coeffs = _uncorrelated(coeffs)
    if functional == "i_t":
        problem = _Objective(grid, bank, coeffs, (16,), z[None])
    else:
        blocks = m if functional == "i_z_m" else None
        problem = _Objective(grid, bank, coeffs, np.arange(1, 17), xdot, blocks)
    for _ in range(10):
        f = CameronMartinPath(grid, rng.normal(scale=0.7, size=(16, 2)))
        drift = problem.inner(f.derivative)[3]
        fhat = hat_map(f, bank)
        y = fhat[:16]
        if functional == "i_x":
            phi = np.zeros((17, 2))
        else:  # Phi^m, and Phi = Phi^N
            blocks = m if functional == "i_z_m" else 16
            phi = phi_m(f, fhat, blocks, coeffs).values
        rate = (
            np.einsum("jik,jk->ji", coeffs.sigma(y), drift)
            + coeffs.mu(y)
            + np.diff(phi, axis=0) / grid.dt
        )
        if functional == "i_t":
            assert np.max(np.abs(rate.sum(axis=0) * grid.dt - z)) < 1e-12
        else:
            assert np.max(np.abs(rate - xdot)) < 1e-12


@pytest.mark.parametrize("level", [0.0, 1e-7])
@pytest.mark.parametrize("functional", ["i_x", "i_z_m", "i_z", "i_t"])
def test_singular_diffusion_raises_typed_error(unit_grid, functional, level):
    coeffs = constant_coeffs(1, 1, sigma=[[level]])
    bank = rl_bank(0.4)
    x = CameronMartinPath.straight_line(unit_grid, [0.5])
    with pytest.raises(SingularDiffusionError):
        if functional == "i_x":
            i_uncorrelated(x, bank, coeffs, FAST_OPT)
        elif functional == "i_z_m":
            i_z_m(x, 4, bank, coeffs, FAST_OPT)
        elif functional == "i_z":
            i_z(x, bank, coeffs, FAST_OPT)
        else:
            terminal_rate(np.array([0.5]), bank, coeffs, unit_grid, FAST_OPT)


def test_singularity_rule_is_scale_invariant(unit_grid):
    # sigma = 5e-4 I_2 is perfectly conditioned although |det a| = 6.25e-14;
    # the rate is the closed form |z|^2 / (2 sigma^2 T)
    bank = rl_bank(0.4)
    z = np.array([1e-3, 1e-3])
    coeffs = constant_coeffs(2, 1, sigma=5e-4 * np.eye(2))
    sol = terminal_rate(z, bank, coeffs, unit_grid, FAST_OPT)
    assert sol.value == pytest.approx(4.0, rel=1e-12)
    # an ill-conditioned diffusion (condition number 1e14) is singular at
    # every scale
    for level in (1.0, 1e-4):
        bad = constant_coeffs(2, 1, sigma=level * np.diag([1.0, 1e-7]))
        with pytest.raises(SingularDiffusionError):
            terminal_rate(z, bank, bad, unit_grid, FAST_OPT)


def test_one_singularity_rule_for_every_node_set():
    # at d = 1 the rule's floor is absolute; it reads the mean of a over a
    # segment, so I_T and I_Z decide alike on any horizon: here a = 1.5e-12
    # passes although int a dt over T = 0.5 is below the floor
    grid = TimeGrid(0.5, 16)
    bank = rl_bank(0.4, horizon=0.5)
    coeffs = constant_coeffs(1, 1, sigma=[[np.sqrt(1.5e-12)]])
    want = 1e-12 / (2 * 1.5e-12 * 0.5)
    sol = terminal_rate(1e-6, bank, coeffs, grid, FAST_OPT)
    assert sol.value == pytest.approx(want, rel=1e-12)
    line = CameronMartinPath.straight_line(grid, [1e-6])
    assert i_z(line, bank, coeffs, FAST_OPT).value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n_steps, first_end", [
    (64, 16), (64, 32), (64, 48), (256, 64), (256, 128), (256, 192), (256, 65),
])
def test_two_time_rate_matches_the_brownian_oracle(n_steps, first_end):
    # constant coefficients: Z is a Brownian motion with variance s^2 t,
    # s^2 = sigma^2 + sigma_tilde^2, so pinning Z(t_1) = z_1 and Z(T) = z_2
    # costs z_1^2 / (2 s^2 t_1) + (z_2 - z_1)^2 / (2 s^2 (T - t_1)) on any
    # grid that has t_1 as a node.  At N = 256 the starts run at N = 64,
    # which lacks the end node 65; the refinement pins it again.
    sigma, sigma_tilde = 0.26, -0.15
    coeffs = constant_coeffs(1, 1, sigma=[[sigma]], sigma_tilde=[[sigma_tilde]])
    grid = TimeGrid(1.0, n_steps)
    t1 = first_end * grid.dt
    z = np.array([0.4, -0.3])
    rate = np.array([[z[0] / t1], [(z[1] - z[0]) / (1.0 - t1)]])
    problem = _Objective(grid, rl_bank(0.5), coeffs, (first_end, n_steps), rate)
    sol = _solve(problem, OptimizerConfig())
    s2 = sigma**2 + sigma_tilde**2
    want = z[0] ** 2 / (2 * s2 * t1) + (z[1] - z[0]) ** 2 / (2 * s2 * (1.0 - t1))
    assert sol.converged
    assert sol.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_rate_functions_reject_dimension_mismatch(unit_grid):
    coeffs = exp_vol_coeffs(0.3)
    x = CameronMartinPath.straight_line(unit_grid, [1.0, 2.0])
    with pytest.raises(DomainError):
        i_uncorrelated(x, rl_bank(0.4), coeffs, FAST_OPT)


# ---------------------------------------------------------------------------
# the triangular lift and a d != p gradient
# ---------------------------------------------------------------------------


def three_factor_bank():
    """RL, Molchan-Golosov and fractional OU factors on [0, 1]."""
    return KernelBank((
        make_kernel("riemann_liouville", hurst=0.3, scale=1.0, horizon=1.0),
        make_kernel("molchan_golosov", hurst=0.7, scale=1.0, horizon=1.0),
        make_kernel("fractional_ou", hurst=0.4, scale=1.0, horizon=1.0,
                    mean_reversion=1.5),
    ))


def d2_p3_coeffs():
    """d = 2, p = 3: affine mu, exp-linear sigma and sigma_tilde.

    sigma's off-diagonal amplitudes have opposite signs, so det sigma > 0
    at every y.
    """
    rng = np.random.default_rng(31)
    return ModelCoefficients(
        d=2, p=3,
        mu=make_map("affine", (2,), 3, constant=np.array([0.05, -0.03]),
                    linear=rng.normal(scale=0.2, size=(2, 3))),
        sigma=make_map("exp_linear", (2, 2), 3,
                       amplitude=np.array([[0.4, 0.1], [-0.08, 0.3]]),
                       weights=rng.normal(scale=0.3, size=(2, 2, 3))),
        sigma_tilde=make_map("exp_linear", (2, 3), 3,
                             amplitude=np.array([[-0.2, 0.1, 0.05],
                                                 [0.1, 0.15, -0.1]]),
                             weights=rng.normal(scale=0.3, size=(2, 3, 3))),
    )


def dense_gradient(problem, bank, flat):
    """The adjoint gradient with dense lifts and three-operand contractions."""
    n, p, dt, co = problem.n, problem.p, problem.dt, problem.coeffs
    dmat = flat.reshape(n, p)
    fhat, sigt, w, sw, _ = problem.inner(dmat)
    c = [discretize_kernel(k, problem.grid).hat_weights for k in bank]
    y = fhat[:n]
    s_nodes = np.zeros((n + 1, p))
    s_nodes[:n] -= np.einsum("ji,jim->jm", w, co.mu.jacobian(y)) * dt
    s_nodes[:n] -= np.einsum("ji,jikm,jk->jm", w, co.sigma.jacobian(y), sw) * dt
    span = problem.span
    dsigt = np.repeat(co.sigma_tilde.jacobian(fhat[:n:span]), span, axis=0)
    rows = -np.einsum("ji,jilm,jl->jm", w, dsigt, dmat) * dt
    s_nodes[:n:span] += rows.reshape(-1, span, p).sum(axis=1)
    grad = dmat * dt - np.einsum("jil,ji->jl", sigt, w) * dt
    for ell in range(p):
        grad[:, ell] += c[ell].T @ s_nodes[:, ell]
    return grad.reshape(-1)


@pytest.mark.parametrize("kind", ["none", "exact", "frozen", "terminal"])
def test_gradients_match_finite_differences_d2_p3(kind):
    # d != p: a transposed index in a flattened contraction changes the
    # gradient here, where with d = p it could still line up; the dense,
    # three-operand form of the same adjoint is the tight reference
    n = 12
    grid = TimeGrid(1.0, n)
    bank, coeffs = three_factor_bank(), d2_p3_coeffs()
    rng = np.random.default_rng(41)
    if kind == "terminal":
        problem = _Objective(grid, bank, coeffs, (n,), [[0.6, -0.4]])
    else:
        if kind == "none":
            coeffs = _uncorrelated(coeffs)
        m = 4 if kind == "frozen" else None
        xdot = rng.normal(scale=0.5, size=(n, 2))
        problem = _Objective(grid, bank, coeffs, np.arange(1, n + 1), xdot, m)
    for _ in range(6):
        flat = rng.normal(scale=0.7, size=n * 3)
        _, grad = problem.value_grad(flat)
        fd = finite_difference(lambda v: problem.value_grad(v)[0], flat)
        denom = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(grad - fd)) / denom < 1e-4
        want = dense_gradient(problem, bank, flat)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("family", ["rl", "log_fbm", "mg", "fou", "rescaled"])
def test_lift_is_triangular(family):
    # dtrmv reads only the lower triangle of hat_weights[1:]; a kernel that
    # filled any other cell would be truncated silently
    kernels = {
        "rl": lambda: make_kernel("riemann_liouville", hurst=0.3, scale=1.0,
                                  horizon=0.9),
        "log_fbm": lambda: make_kernel("log_fbm", hurst=0.3, scale=1.0,
                                       horizon=0.9),
        "mg": lambda: make_kernel("molchan_golosov", hurst=0.7, scale=1.0,
                                  horizon=0.9),
        "fou": lambda: make_kernel("fractional_ou", hurst=0.2, scale=1.0,
                                   horizon=0.9, mean_reversion=2.0),
        "rescaled": lambda: rescale_kernel(
            make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=0.9),
            0.5,
        ),
    }
    kernel = kernels[family]()
    grid = TimeGrid(0.9, 24)
    c = discretize_kernel(kernel, grid).hat_weights
    assert np.all(c[0] == 0.0)
    assert np.all(np.triu(c[1:], 1) == 0.0)
    assert np.all(np.diag(c[1:]) != 0.0)

    tri = _lift_factors(KernelBank((kernel,)), grid)
    rng = np.random.default_rng(51)
    for _ in range(5):
        x = rng.normal(size=(24, 1))
        s = rng.normal(size=(25, 1))
        lifted = _lift(tri, x)
        dense = c @ x
        assert np.max(np.abs(lifted - dense)) <= 1e-14 * np.max(np.abs(dense))
        pulled = _lift_adjoint(tri, s)
        dense_adj = c.T @ s
        assert np.max(np.abs(pulled - dense_adj)) <= (
            1e-14 * np.max(np.abs(dense_adj))
        )
        # <L x, s> = <x, L^T s>
        lhs, rhs = float(np.sum(lifted * s)), float(np.sum(x * pulled))
        assert lhs == pytest.approx(rhs, rel=1e-13)


# ---------------------------------------------------------------------------
# per-start optimizer table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("functional, n_steps", [
    ("i_z", 16), ("i_t", 16), ("i_z", 128), ("i_t", 128),
], ids=["i_z", "i_t", "i_z-coarse", "i_t-coarse"])
def test_solution_lists_every_start(functional, n_steps):
    # N = 16 has no coarse level: one row per start, the best one reported.
    # N = 128 runs the starts at N = 64: their rows, then the refinement row
    # on the working grid, which is the one reported.
    grid = TimeGrid(1.0, n_steps)
    opt = OptimizerConfig(n_starts=4)
    coeffs = exp_vol_coeffs(0.4, amplitude=0.3)
    bank = rl_bank(0.35)
    if functional == "i_t":
        sol = terminal_rate(np.array([0.8]), bank, coeffs, grid, opt)
    else:
        sol = i_z(CameronMartinPath.straight_line(grid, [0.8]), bank,
                  coeffs, opt)
    coarse = n_steps > 64
    assert len(sol.starts) == 4 + coarse
    for row in sol.starts:
        assert set(row) == {"value", "iterations", "criterion", "converged"}
        assert np.isfinite(row["value"]) and row["iterations"] >= 0
    values = [row["value"] for row in sol.starts[:4]]
    best = sol.starts[int(np.argmin(values))]
    reported = sol.starts[-1] if coarse else best
    assert max(reported["value"], 0.0) == sol.value
    assert reported["iterations"] == sol.iterations
    assert reported["criterion"] == sol.grad_norm
    assert reported["converged"] == sol.converged
    assert (max(values) - min(values)) / max(abs(best["value"]), 1e-12) == (
        sol.multistart_spread
    )


# ---------------------------------------------------------------------------
# coarse-to-fine solves
# ---------------------------------------------------------------------------


def surface_model():
    """The two-factor model of the rate-surface benchmark (RL 0.3, MG 0.7)."""
    bank = KernelBank((
        make_kernel("riemann_liouville", hurst=0.3, scale=1.0, horizon=1.0),
        make_kernel("molchan_golosov", hurst=0.7, scale=1.0, horizon=1.0),
    ))
    coeffs = ModelCoefficients(
        d=2, p=2,
        mu=make_map("constant", (2,), 2, values=np.array([0.02, -0.01])),
        sigma=make_map(
            "exp_linear", (2, 2), 2,
            amplitude=np.array([[0.3, 0.0], [0.08, 0.25]]),
            weights=np.array([[[0.8, 0.1], [0.0, 0.0]],
                              [[0.2, 0.2], [0.1, 0.6]]]),
        ),
        sigma_tilde=make_map(
            "exp_linear", (2, 2), 2,
            amplitude=np.array([[-0.12, 0.04], [0.03, -0.1]]),
            weights=np.array([[[0.5, 0.0], [0.0, 0.3]],
                              [[0.2, 0.0], [0.0, 0.4]]]),
        ),
    )
    return bank, coeffs


@pytest.mark.parametrize("n_steps", [64, 256])
@pytest.mark.parametrize("functional", ["i_t", "i_z", "i_z_m"])
def test_coarse_to_fine_matches_the_full_grid_multistart(functional, n_steps):
    # reference: every start on the working grid.  N = 256 runs the starts
    # at N = 64 and refines the winner; N = 64 has no coarse level and must
    # be the reference itself.
    bank, coeffs = surface_model()
    grid = TimeGrid(1.0, n_steps)
    z = np.array([0.3, -0.1])
    opt = OptimizerConfig()
    x = CameronMartinPath.straight_line(grid, z)
    every = np.arange(1, n_steps + 1)
    if functional == "i_t":
        sol = terminal_rate(z, bank, coeffs, grid, opt)
        problem = _Objective(grid, bank, coeffs, (n_steps,), z[None])
    elif functional == "i_z":
        sol = i_z(x, bank, coeffs, opt)
        problem = _Objective(grid, bank, coeffs, every, x.derivative)
    else:
        sol = i_z_m(x, 16, bank, coeffs, opt)
        problem = _Objective(grid, bank, coeffs, every, x.derivative, 16)
    upper = problem.inner(np.zeros((n_steps, 2)))[-1]
    best, spread, table = _multistart(
        problem.value_grad, (n_steps, 2), grid.dt, 2.0 * upper, opt
    )
    assert sol.converged
    assert sol.upper_bound_used == upper
    if n_steps == 64:
        assert sol.value == max(best[1], 0.0)
        assert np.array_equal(sol.control.derivative.reshape(-1), best[0])
        assert sol.starts == table and sol.multistart_spread == spread
    else:
        assert sol.value == pytest.approx(best[1], rel=1e-10, abs=0.0)
        assert len(sol.starts) == opt.n_starts + 1


def two_well_model():
    """d = p = 1, sigma(y) = 0.05 + y, no drift, no correlation, RL 0.3.

    sigma vanishes at y = -0.05, so I_T(1) has a well on each side of it:
    the starts settle in different wells.
    """
    return rl_bank(0.3), affine_vol_coeffs(0.0, const=0.05, slope=1.0)


@pytest.mark.parametrize("n_steps", [16, 512])
def test_two_well_landscape_warns(n_steps):
    # N = 16 runs the starts on the working grid, N = 512 at N = 64
    bank, coeffs = two_well_model()
    grid = TimeGrid(1.0, n_steps)
    with pytest.warns(MultistartSpreadWarning, match="disagree"):
        sol = terminal_rate(1.0, bank, coeffs, grid)
    assert sol.multistart_spread > _SPREAD_WARN
    assert sol.converged


# ---------------------------------------------------------------------------
# stacked evaluation and lockstep starts
# ---------------------------------------------------------------------------


def stack_problem(model, functional, n_steps):
    """An objective of ``functional`` (i_t, i_z or i_z_m with 4 blocks) on
    the d = p = 1, rate-surface or d = 2, p = 3 model."""
    grid = TimeGrid(1.0, n_steps)
    if model == "d1_p1":
        bank, coeffs = rl_bank(0.35), exp_vol_coeffs(0.5, amplitude=0.3)
    elif model == "surface":
        bank, coeffs = surface_model()
    else:
        bank, coeffs = three_factor_bank(), d2_p3_coeffs()
    z = np.array([0.6, -0.4])[: coeffs.d]
    if functional == "i_t":
        return _Objective(grid, bank, coeffs, (n_steps,), z[None] / grid.horizon)
    xdot = CameronMartinPath.straight_line(grid, z).derivative
    m = 4 if functional == "i_z_m" else None
    return _Objective(grid, bank, coeffs, np.arange(1, n_steps + 1), xdot, m)


@pytest.mark.parametrize("model, functional", [
    ("d1_p1", "i_t"), ("d1_p1", "i_z"), ("d1_p1", "i_z_m"),
    ("surface", "i_t"), ("surface", "i_z"), ("surface", "i_z_m"),
    ("d2_p3", "i_t"), ("d2_p3", "i_z_m"),
])
def test_stacked_rows_are_the_bits_of_each_row_alone(model, functional):
    # the lockstep optimizer relies on this: a row's value and gradient do
    # not depend on the rows stacked beside it, nor on its place
    problem = stack_problem(model, functional, 64)
    rng = np.random.default_rng(61)
    size = 64 * problem.p
    stack = rng.normal(size=(5, size)) * np.array([0.0, 0.2, 0.5, 0.9, 1.4])[:, None]
    values, grads = problem.value_grad(stack)
    assert values.shape == (5,) and grads.shape == (5, size)
    assert np.all(np.isfinite(values))
    flipped_values, flipped_grads = problem.value_grad(stack[::-1].copy())
    for k, row in enumerate(stack):
        value, grad = problem.value_grad(row)
        assert np.ndim(value) == 0 and grad.shape == (size,)
        assert values[k] == value and np.array_equal(grads[k], grad)
        assert flipped_values[4 - k] == value
        assert np.array_equal(flipped_grads[4 - k], grad)
        # the inner pass at one control is the same stack of one
        inner = problem.inner(row.reshape(64, problem.p))[-1]
        assert value == 0.5 * np.sum(row * row) * problem.dt + inner


def test_singular_rows_give_inf_beside_finite_rows():
    # sigma(y) = y: the zero control has fhat = 0, so a = 0 over the only
    # segment of I_T, while a random control keeps a well away from 0
    grid = TimeGrid(1.0, 16)
    coeffs = affine_vol_coeffs(0.0, const=0.0, slope=1.0)
    problem = _Objective(grid, rl_bank(0.3), coeffs, (16,), [[0.5]])
    rng = np.random.default_rng(62)
    stack = rng.normal(size=(4, 16))
    stack[[1, 3]] = 0.0
    values, grads = problem.value_grad(stack)
    assert np.all(values[[1, 3]] == np.inf)
    assert np.all(grads[[1, 3]] == 0.0)
    for k in (0, 2):
        value, grad = problem.value_grad(stack[k])
        assert np.isfinite(value)
        assert values[k] == value and np.array_equal(grads[k], grad)
    values, grads = problem.value_grad(stack[[1, 3]])
    assert np.all(values == np.inf) and np.all(grads == 0.0)
    with pytest.raises(SingularDiffusionError, match="segment-mean"):
        problem.inner(np.zeros((16, 1)))


@pytest.mark.parametrize("case", ["surface", "two_well"])
def test_lockstep_starts_equal_each_start_run_alone(case):
    # the starts stop in different rounds; each result is bitwise the lone
    # run's, and the lockstep needs as many evaluations as its longest start
    if case == "surface":
        problem = stack_problem("surface", "i_t", 64)
    else:  # starts in two wells, line searches that meet a = 0
        bank, coeffs = two_well_model()
        grid = TimeGrid(1.0, 16)
        problem = _Objective(grid, bank, coeffs, (16,), [[1.0]])
    size = problem.n * problem.p
    radius_sq = 2.0 * problem.inner(np.zeros((problem.n, problem.p)))[-1]
    rng = np.random.default_rng(63)
    starts = [np.zeros(size)] + [
        z * np.sqrt(radius_sq / problem.dt) * (0.15 + 0.2 * k) / np.linalg.norm(z)
        for k, z in enumerate(rng.normal(size=(4, size)))
    ]
    rows = []

    def counted(flat):
        rows.append(len(flat))
        return problem.value_grad(flat)

    together = _lbfgs(counted, starts, problem.dt, radius_sq)
    rounds, evaluated = len(rows), sum(rows)
    alone = []
    for x0 in starts:
        rows.clear()
        alone.append(_lbfgs(counted, [x0], problem.dt, radius_sq)[0])
        alone[-1] += (len(rows),)
    assert len({run[3] for run in together}) > 1
    assert rounds == max(run[-1] for run in alone)
    assert evaluated == sum(run[-1] for run in alone)
    for run, lone in zip(together, alone):
        x, f, g, iterations, converged, crit = run
        assert np.array_equal(x, lone[0]) and np.array_equal(g, lone[2])
        assert (f, iterations, converged, crit) == lone[1:2] + lone[3:6]
