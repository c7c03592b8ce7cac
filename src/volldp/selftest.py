"""Built-in property battery behind the ``selftest`` subcommand.

Each check exercises one structural invariant of the library with fresh
randomized inputs and prints a single pass/fail line.  The battery is a
quick field diagnostic, not a replacement for the full test suite.
"""

import numpy as np

from .gaussian import (
    covariance_matrix, discretize_kernel, draw_driver_arrays, replay_volterra,
)
from .grids import TimeGrid
from .kernels import KernelBank, make_kernel
from .model import (
    ConstantMap, ExpLinearMap, ModelCoefficients, Scaling, euler_paths_array,
)
from .ratefn import (
    CameronMartinPath, OptimizerConfig, _Objective, gamma_functional,
    terminal_rate,
)


def _check_kernel_closed_forms(rng):
    k = make_kernel("riemann_liouville", hurst=0.7, scale=1.0, horizon=1.0)
    value = k.eval(1.0, 0.75)
    if abs(value - 0.25**0.2) > 1e-14:
        return f"power kernel value off: {value!r}"
    flat = make_kernel("riemann_liouville", hurst=0.5, scale=2.0, horizon=1.0)
    if abs(flat.eval(0.9, 0.1) - 2.0) > 1e-15:
        return "flat kernel must be constant"
    return None


def _check_flat_sampler_identity(rng):
    grid = TimeGrid(1.0, 32)
    bank = KernelBank(
        (make_kernel("riemann_liouville", hurst=0.5, scale=1.0, horizon=1.0),)
    )
    increments, _, volterra, _ = draw_driver_arrays(
        bank, grid, 4, seed=int(rng.integers(1 << 30)), per_path_convolve=True
    )
    gap = np.max(np.abs(volterra[:, 1:] - np.cumsum(increments, axis=1)))
    if gap > 1e-12:
        return f"flat kernel must reproduce the Brownian path (gap {gap:.2e})"
    return None


def _check_replay(rng):
    grid = TimeGrid(1.0, 24)
    bank = KernelBank(
        (make_kernel("riemann_liouville", hurst=0.35, scale=1.0, horizon=1.0),)
    )
    increments, singular, volterra, _ = draw_driver_arrays(
        bank, grid, 3, seed=int(rng.integers(1 << 30)), per_path_convolve=True
    )
    if not np.array_equal(replay_volterra(bank, grid, increments, singular), volterra):
        return "stored increments must replay the path bit for bit"
    return None


def _check_brownian_covariance(rng):
    grid = TimeGrid(1.0, 16)
    bank = KernelBank(
        (make_kernel("riemann_liouville", hurst=0.5, scale=1.0, horizon=1.0),)
    )
    cov = covariance_matrix(bank, grid, n_quad=64).blocks[0]
    t = grid.nodes[1:]
    gap = np.max(np.abs(cov - np.minimum(t[:, None], t[None, :])))
    return None if gap < 1e-12 else f"Brownian covariance gap {gap:.2e}"


def _check_hat_map_bound(rng):
    grid = TimeGrid(1.0, 40)
    for hurst in (0.3, 0.45, 0.7):
        kernel = make_kernel(
            "riemann_liouville", hurst=hurst, scale=1.0, horizon=1.0
        )
        disc = discretize_kernel(kernel, grid)
        bound = np.sqrt(np.max(disc.row_l2()))
        weights = disc.hat_weights
        for _ in range(60):
            der = rng.standard_normal((grid.n_steps, 1))
            f = CameronMartinPath(grid, der)
            sup = np.max(np.abs(weights @ der[:, 0]))
            if sup > bound * np.sqrt(f.h1_norm_sq) * (1.0 + 1e-10):
                return f"hat-map bound violated at H = {hurst}"
    return None


def _check_gamma_inequalities(rng):
    grid = TimeGrid(1.0, 12)
    d = 2
    for _ in range(200):
        x = CameronMartinPath(grid, rng.standard_normal((12, d)))
        y = CameronMartinPath(grid, rng.standard_normal((12, d)))
        root = rng.standard_normal((12, d, d))
        a = root @ np.swapaxes(root, -1, -2) + 0.1 * np.eye(d)
        bump = rng.standard_normal((12, d, d))
        b = a + bump @ np.swapaxes(bump, -1, -2) + 0.1 * np.eye(d)
        ga = gamma_functional(x, a)
        if gamma_functional(x, b) < ga - 1e-12:
            return "monotonicity in the weight matrix failed"
        xy = CameronMartinPath(grid, x.derivative + y.derivative)
        if gamma_functional(xy, a) > 2 * ga + 2 * gamma_functional(y, a) + 1e-10:
            return "quadratic subadditivity failed"
    return None


def _random_problem(rng, grid, bank, kind):
    d = p = 2
    mu = ConstantMap(0.1 * rng.standard_normal(d), p)
    sigma = ExpLinearMap(
        0.6 + 0.2 * rng.random((d, d)), 0.1 * rng.standard_normal((d, d, p))
    )
    sigt = ExpLinearMap(
        0.2 * rng.random((d, p)), 0.1 * rng.standard_normal((d, p, p))
    )
    coeffs = ModelCoefficients(d=d, p=p, mu=mu, sigma=sigma, sigma_tilde=sigt)
    if kind == "terminal":
        return _Objective(grid, bank, coeffs, 1, z=rng.standard_normal(d))
    span = {"plain": None, "exact": 1, "blocks": 2}[kind]
    xdot = rng.standard_normal((grid.n_steps, d))
    return _Objective(grid, bank, coeffs, span, xdot=xdot)


def _check_gradients(rng):
    grid = TimeGrid(1.0, 6)
    bank = KernelBank((
        make_kernel("riemann_liouville", hurst=0.6, scale=1.0, horizon=1.0),
        make_kernel("riemann_liouville", hurst=0.4, scale=1.0, horizon=1.0),
    ))
    kinds = ("plain", "exact", "blocks", "terminal")
    for case in range(24):
        problem = _random_problem(rng, grid, bank, kinds[case % 4])
        flat = 0.4 * rng.standard_normal(grid.n_steps * 2)
        _, grad = problem.value_grad(flat)
        h = 1e-6
        for i in rng.choice(flat.size, size=3, replace=False):
            e = np.zeros_like(flat)
            e[i] = h
            fd = (problem.value_grad(flat + e)[0] - problem.value_grad(flat - e)[0]) / (2 * h)
            if abs(fd - grad[i]) > 1e-4 * max(1.0, abs(fd)):
                return f"gradient mismatch in {kinds[case % 4]} problem"
    return None


def _check_terminal_closed_form(rng):
    grid = TimeGrid(1.0, 32)
    bank = KernelBank(
        (make_kernel("riemann_liouville", hurst=0.5, scale=1.0, horizon=1.0),)
    )
    v = 0.8
    coeffs = ModelCoefficients(
        1, 1, ConstantMap(np.zeros(1), 1),
        ConstantMap(np.array([[v]]), 1), ConstantMap(np.array([[0.0]]), 1),
    )
    z = float(rng.uniform(0.3, 1.2))
    sol = terminal_rate(np.array([z]), bank, coeffs, grid, OptimizerConfig())
    exact = z**2 / (2 * v**2)
    if abs(sol.value - exact) > 1e-9 * max(1.0, exact):
        return f"terminal rate {sol.value!r} != {exact!r}"
    return None


def _check_martingale(rng):
    grid = TimeGrid(1.0, 32)
    bank = KernelBank(
        (make_kernel("riemann_liouville", hurst=0.7, scale=1.0, horizon=1.0),)
    )
    base = ExpLinearMap(np.array([[0.3]]), np.array([[[0.8]]]))
    coeffs = ModelCoefficients.one_factor(base, rho=-0.4)
    values = euler_paths_array(
        coeffs, bank, grid, Scaling.small_noise(0.5), 20_000,
        seed=int(rng.integers(1 << 30)),
    ).values
    w = np.exp(values[:, -1, 0])
    gap = abs(w.mean() - 1.0)
    budget = 4.0 * w.std() / np.sqrt(w.size)
    return None if gap <= budget else f"martingale gap {gap:.4f} > {budget:.4f}"


_CHECKS = (
    ("kernel closed forms", _check_kernel_closed_forms),
    ("flat-kernel sampler identity", _check_flat_sampler_identity),
    ("increment replay determinism", _check_replay),
    ("Brownian covariance quadrature", _check_brownian_covariance),
    ("hat-map energy bound", _check_hat_map_bound),
    ("path-energy inequalities", _check_gamma_inequalities),
    ("adjoint gradients vs finite differences", _check_gradients),
    ("constant-model terminal rate", _check_terminal_closed_form),
    ("discrete exponential martingale", _check_martingale),
)


def run_selftest(stream) -> int:
    """Run every check; print one line each; return the failure count."""
    rng = np.random.default_rng(20240817)
    failures = 0
    for name, check in _CHECKS:
        detail = check(rng)
        if detail is None:
            stream.write(f"[pass] {name}\n")
        else:
            failures += 1
            stream.write(f"[FAIL] {name}: {detail}\n")
    stream.write(f"{len(_CHECKS) - failures} of {len(_CHECKS)} checks passed\n")
    return failures
