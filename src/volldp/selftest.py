"""Property checks behind the ``selftest`` subcommand and the tier-1 tests.

Each property the paper's argument uses has exactly one body here,
``check_*(rng, n)``: it draws ``n`` randomized cases (or ``n`` paths) from
the generator ``rng`` and returns the list of its failures, empty when the
property holds on every case.  ``run_selftest`` calls every body once at
small counts and prints one pass/fail line each; the tier-1 tests call the
same bodies with their own counts and seeds, so a check and its tolerance
live in one place.
"""

import numpy as np

from .asymptotics import _blocks
from .gaussian import (
    _UNIT_PATHS, bank_discretizations, covariance_matrix, draw_driver_arrays,
    replay_volterra, terminal_variance_bound,
)
from .grids import TimeGrid
from .kernels import KernelBank, make_kernel
from .model import (
    AffineMap, ConstantMap, ExpLinearMap, ModelCoefficients, Scaling,
    euler_paths_array,
)
from .ratefn import (
    CameronMartinPath, OptimizerConfig, _Objective, _uncorrelated,
    gamma_functional, hat_map, terminal_rate,
)


def _rl(hurst, scale=1.0, horizon=1.0):
    return make_kernel(
        "riemann_liouville", hurst=hurst, scale=scale, horizon=horizon
    )


def _seed(rng) -> int:
    return int(rng.integers(1 << 30))


def check_kernel_closed_forms(rng, n_cases: int) -> list:
    """Riemann-Liouville K(t, s) = c (t - s)^(H - 1/2), exactly c at H = 1/2."""
    failures = []
    for case in range(n_cases):
        hurst = 0.5 if case % 2 else float(rng.uniform(0.05, 0.95))
        scale = float(rng.uniform(0.5, 2.0))
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        value = _rl(hurst, scale).eval(t, s)
        want = scale * (t - s) ** (hurst - 0.5)  # exactly scale at H = 1/2
        tol = 0.0 if hurst == 0.5 else 1e-14 * min(1.0, want)
        if abs(value - want) > tol:
            failures.append(f"K({t}, {s}) = {value!r} != {want!r} at H = {hurst}")
    return failures


def check_flat_sampler_identity(rng, n_paths: int) -> list:
    """The flat kernel K = 1 turns the sampler's Bhat into the Brownian path."""
    grid = TimeGrid(1.0, 32)
    increments, _, volterra, _ = draw_driver_arrays(
        KernelBank((_rl(0.5),)), grid, n_paths, seed=_seed(rng),
    )
    brownian = np.zeros_like(volterra)
    brownian[:, 1:] = np.cumsum(increments, axis=1)
    gap = float(np.max(np.abs(volterra - brownian)))
    if gap <= 1e-12:
        return []
    return [f"flat-kernel Bhat off the Brownian path by {gap:.2e}"]


def check_replay(rng, n_paths: int) -> list:
    """Stored dB and V of an Euler draw replay Bhat bit for bit, all paths
    at once and the last path alone, with and without a random shift; the
    draw straddles two units.  Each of these paths, drawn in a block of
    the Monte Carlo runner ``_blocks`` (whose workspace each block
    reuses), has the Euler values and dW of the same path redrawn alone,
    bit for bit, under a volatility that varies with Bhat."""
    grid = TimeGrid(0.9, 14)
    bank = KernelBank((
        _rl(0.3, horizon=0.9),
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                    log_exponent=2.0),
        make_kernel("molchan_golosov", hurst=0.72, scale=1.0, horizon=0.9),
        make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=0.9,
                    mean_reversion=1.3),
    ))
    p = bank.n_factors
    coeffs = ModelCoefficients(
        1, p, ConstantMap(np.zeros(1), p),
        ExpLinearMap(np.array([[0.3]]), np.array([[[0.5, -0.3, 0.2, 0.4]]])),
        AffineMap(np.array([[-0.1, 0.05, 0.0, 0.1]]), np.full((1, p, p), 0.02)),
    )
    scaling = Scaling.small_noise(0.4)
    first = _UNIT_PATHS - n_paths // 2
    seed = _seed(rng)
    # drawn from the case seed, not from rng, so later checks keep their cases
    tilt_rng = np.random.default_rng(seed)
    tilt = (tilt_rng.normal(size=(grid.n_steps, p)) * grid.dt,
            tilt_rng.normal(size=(grid.n_steps, 1)) * grid.dt)
    failures = []
    for draw, (db_shift, dw_shift) in (("unshifted", (None, None)), ("shifted", tilt)):
        paths = euler_paths_array(
            coeffs, bank, grid, scaling, n_paths, seed=seed, first_path=first,
            brownian_shift=db_shift, wiener_shift=dw_shift,
        )
        rebuilt = replay_volterra(bank, grid, paths.increments, paths.singular,
                                  first)
        if not np.array_equal(rebuilt, paths.volterra):
            failures.append(f"{draw} increments do not replay Bhat bit for bit")
        k = n_paths - 1
        alone = replay_volterra(bank, grid, paths.increments[k:],
                                paths.singular[k:], first + k)
        if not np.array_equal(alone[0], paths.volterra[k]):
            failures.append(f"{draw} path {first + k} alone does not replay "
                            "its Bhat")

        def block(first, count, work=None):
            paths = euler_paths_array(
                coeffs, bank, grid, scaling, count, seed, first_path=first,
                brownian_shift=db_shift, wiener_shift=dw_shift, work=work)
            return paths.values.copy(), paths.dw.copy()

        blocks = _blocks(bank, grid, first + n_paths, 1, block)
        values, dw = (np.concatenate(part) for part in zip(*blocks))
        for k in range(first, first + n_paths):
            alone_values, alone_dw = block(k, 1)
            if not (np.array_equal(alone_values[0], values[k])
                    and np.array_equal(alone_dw[0], dw[k])):
                failures.append(f"{draw} path {k} alone does not replay its "
                                "values and dW of the Monte Carlo blocks")
    return failures


def check_brownian_covariance(rng, n_cases: int) -> list:
    """Flat kernel c: the quadrature covariance is c^2 min(t_i, t_j)."""
    failures = []
    for _ in range(n_cases):
        scale = float(rng.uniform(0.5, 2.0))
        grid = TimeGrid(1.0, int(rng.choice([8, 16])))
        n_quad = int(rng.choice([64, 256]))
        bank = KernelBank((_rl(0.5, scale),))
        cov = covariance_matrix(bank, grid, n_quad=n_quad)[0]
        t = grid.nodes[1:]
        gap = float(np.max(np.abs(cov - scale**2 * np.minimum.outer(t, t))))
        if gap > 1e-12:
            failures.append(
                f"Brownian covariance gap {gap:.2e} (c = {scale}, "
                f"N = {grid.n_steps}, n_quad = {n_quad})"
            )
    return failures


def check_hat_map_bound(rng, n_cases: int) -> list:
    """sup_t |fhat(t)|^2 <= M |f|^2 for random RL, log-fBm and fOU banks.

    Two constants M are checked on every case: the quadrature bound
    ``terminal_variance_bound`` and the discrete one, the largest row
    second moment sum_l row_l2 of the lift (Cauchy-Schwarz on each row).
    """
    horizon = 0.75

    def random_kernel():
        u = rng.random()
        if u < 0.45:
            return make_kernel(
                "riemann_liouville", hurst=rng.uniform(0.1, 0.9),
                scale=rng.uniform(0.3, 1.5), horizon=horizon,
            )
        if u < 0.8:
            return make_kernel(
                "log_fbm", hurst=rng.uniform(0.1, 0.5),
                log_exponent=rng.uniform(1.5, 3.0),
                scale=rng.uniform(0.3, 1.5), horizon=horizon,
            )
        return make_kernel(
            "fractional_ou", hurst=rng.uniform(0.1, 0.9),
            mean_reversion=rng.uniform(0.1, 2.0),
            scale=rng.uniform(0.3, 1.5), horizon=horizon,
        )

    pool = []
    for _ in range(max(1, n_cases // 20)):
        bank = KernelBank(
            tuple(random_kernel() for _ in range(int(rng.choice([1, 2]))))
        )
        pool.append((bank, terminal_variance_bound(bank, n_quad=256)))

    failures = []
    for _ in range(n_cases):
        bank, bound = pool[int(rng.integers(len(pool)))]
        n = int(rng.choice([8, 16, 32]))
        grid = TimeGrid(horizon, n)
        discrete = float(np.max(sum(
            disc.row_l2() for disc in bank_discretizations(bank, grid)
        )))
        f = CameronMartinPath(
            grid, rng.normal(scale=1.2, size=(n, bank.n_factors))
        )
        sup_sq = float(np.max(np.sum(hat_map(f, bank) ** 2, axis=1)))
        for name, m in (("quadrature", bound), ("discrete", discrete)):
            if sup_sq > m * f.h1_norm_sq * (1.0 + 1e-10):
                failures.append(f"{name} bound {m:.6g} violated at N = {n}")
    return failures


def check_energy_inequalities(rng, n_cases: int) -> list:
    """Gamma(x | A) is monotone in A and quadratically subadditive in x."""
    failures = []
    for _ in range(n_cases):
        d = int(rng.integers(1, 4))
        n = int(rng.choice([4, 8, 16]))
        grid = TimeGrid(1.0, n)
        x, y, z = (
            CameronMartinPath(grid, rng.normal(scale=1.5, size=(n, d)))
            for _ in range(3)
        )
        a_field = np.empty((n, d, d))
        b_field = np.empty((n, d, d))
        for j in range(n):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            a_field[j] = q @ np.diag(rng.uniform(0.1, 5.0, size=d)) @ q.T
            g = rng.normal(size=(d, d))
            b_field[j] = a_field[j] + g @ g.T + rng.uniform(0.01, 1.0) * np.eye(d)
        gx_a = gamma_functional(x, a_field)
        gy_a = gamma_functional(y, a_field)
        gz_a = gamma_functional(z, a_field)
        two = CameronMartinPath(grid, x.derivative + y.derivative)
        three = CameronMartinPath(
            grid, x.derivative + y.derivative + z.derivative
        )
        if gamma_functional(x, b_field) < gx_a - 1e-12:
            failures.append(f"monotonicity in the weight failed (d = {d})")
        if gamma_functional(two, a_field) > 2 * gx_a + 2 * gy_a + 1e-10:
            failures.append(f"two-term subadditivity failed (d = {d})")
        if gamma_functional(three, a_field) > 3 * (gx_a + gy_a + gz_a) + 1e-10:
            failures.append(f"three-term subadditivity failed (d = {d})")
    return failures


_KINDS = ("I_X", "I_Z^m", "I_Z", "I_T")


def _gradient_problem(rng, grid, kind, two_factor):
    """A random objective of one ``kind``.

    One factor: a random RL kernel and the correlated template of an
    exp-linear or affine volatility.  Two factors (d = p = 2): two RL
    kernels and exp-linear sigma and sigma_tilde.
    """
    if two_factor:
        d = 2
        bank = KernelBank((_rl(rng.uniform(0.3, 0.7)), _rl(rng.uniform(0.3, 0.7))))
        coeffs = ModelCoefficients(
            d=d, p=d, mu=ConstantMap(0.1 * rng.standard_normal(d), d),
            sigma=ExpLinearMap(
                0.6 + 0.2 * rng.random((d, d)),
                0.1 * rng.standard_normal((d, d, d)),
            ),
            sigma_tilde=ExpLinearMap(
                0.2 * rng.random((d, d)), 0.1 * rng.standard_normal((d, d, d))
            ),
        )
    else:
        d = 1
        bank = KernelBank((_rl(rng.uniform(0.15, 0.85)),))
        rho = rng.uniform(-0.9, 0.9)
        if rng.random() < 0.5:
            base = ExpLinearMap(
                np.array([[rng.uniform(0.2, 1.2)]]),
                np.array([[[rng.uniform(-0.5, 0.5)]]]),
            )
        else:
            base = AffineMap(
                np.array([[rng.uniform(0.6, 1.4)]]),
                np.array([[[rng.uniform(-0.15, 0.15)]]]),
            )
        coeffs = ModelCoefficients.one_factor(base, rho)
    n = grid.n_steps
    if kind == "I_T":  # Z pinned at T only, mean rate z / T
        return _Objective(grid, bank, coeffs, (n,), rng.normal(size=(1, d)))
    if kind == "I_X":  # I_Z of the sigma_tilde = 0 model
        coeffs = _uncorrelated(coeffs)
    m = n // 2 if kind == "I_Z^m" else None
    xdot = rng.normal(size=(n, d))
    return _Objective(grid, bank, coeffs, np.arange(1, n + 1), xdot, m)


def check_gradients(rng, n_cases: int) -> list:
    """Adjoint gradients of I_X, I_Z^m, I_Z and I_T against central
    differences, on one-factor and two-factor models in turn.

    A difference quotient is only as accurate as F: near a singular
    diffusion matrix F carries a rounding error of about eps kappa |F|,
    kappa the largest condition number of a = sigma sigma^T over the nodes
    (it bounds that of int a dt too), so eps kappa |F| / h is added to the
    bound 1e-6 max(1, |fd|).  Where a is well conditioned this floor is a
    small fraction of the bound (kappa = 1 at d = 1).
    """
    grid = TimeGrid(1.0, 8)
    h = 1e-6
    failures = []
    for case in range(n_cases):
        kind = _KINDS[case % 4]
        two_factor = bool((case // 4) % 2)
        problem = _gradient_problem(rng, grid, kind, two_factor)
        flat = rng.normal(scale=0.7, size=grid.n_steps * problem.p)
        value, grad = problem.value_grad(flat)
        fhat = problem.inner(flat.reshape(grid.n_steps, problem.p))[0]
        sig = problem.coeffs.sigma(fhat[: grid.n_steps])
        kappa = np.max(np.linalg.cond(sig @ np.swapaxes(sig, -1, -2)))
        floor = np.finfo(float).eps * kappa * abs(value) / h
        for i in rng.choice(flat.size, size=3, replace=False):
            step = np.zeros_like(flat)
            step[i] = h
            fd = (
                problem.value_grad(flat + step)[0]
                - problem.value_grad(flat - step)[0]
            ) / (2 * h)
            if abs(fd - grad[i]) > 1e-6 * max(1.0, abs(fd)) + floor:
                failures.append(
                    f"{kind} gradient ({'two' if two_factor else 'one'} "
                    f"factor) off at {i}: {grad[i]:.9g} vs {fd:.9g}"
                )
    return failures


TERMINAL_VALUE_RTOL = 1e-9
TERMINAL_CONTROL_TOL = 1e-4


def terminal_closed_form_errors(rng, n_targets: int):
    """I_T against its closed form for mu = (0.1, 0), sigma = diag(1, 2).

    With constant coefficients on a flat kernel the minimizer is Gaussian:
    the value is the quadratic form 1/2 (z - mu T)^T (T a)^(-1) (z - mu T)
    with a = sigma sigma^T, and the driver control vanishes because it only
    adds energy.  Solves at ``n_targets`` targets z = mu + N(0, I) and
    returns (targets, value errors relative to max(1, I_T), driver-control
    norms).
    """
    mu, sigma = np.array([0.1, 0.0]), np.diag([1.0, 2.0])
    grid = TimeGrid(1.0, 32)
    bank = KernelBank((_rl(0.5),))
    coeffs = ModelCoefficients(
        d=2, p=1, mu=ConstantMap(mu, 1), sigma=ConstantMap(sigma, 1),
        sigma_tilde=ConstantMap(np.zeros((2, 1)), 1),
    )
    a_inv = np.linalg.inv(grid.horizon * sigma @ sigma.T)
    targets = mu + rng.normal(size=(n_targets, 2))
    errors, controls = np.empty(n_targets), np.empty(n_targets)
    for k, z in enumerate(targets):
        gap = z - mu * grid.horizon
        want = 0.5 * gap @ a_inv @ gap
        sol = terminal_rate(z, bank, coeffs, grid, OptimizerConfig())
        errors[k] = abs(sol.value - want) / max(1.0, want)
        controls[k] = np.sqrt(sol.control.h1_norm_sq)
    return targets, errors, controls


def check_terminal_closed_form(rng, n_targets: int) -> list:
    """The closed form of ``terminal_closed_form_errors`` holds: value to
    rel 1e-9 and driver-control norm below 1e-4 at every target."""
    failures = []
    for z, err, control in zip(*terminal_closed_form_errors(rng, n_targets)):
        if err > TERMINAL_VALUE_RTOL:
            failures.append(f"I_T({z}) off its closed form by rel {err:.2e}")
        if not control < TERMINAL_CONTROL_TOL:
            failures.append(f"driver control norm {control:.2e} at z = {z}")
    return failures


def check_martingale(rng, n_paths: int) -> list:
    """exp(X_T) of the discrete scheme has mean 1, within 3 standard errors,
    for a positively and a negatively correlated exp-linear volatility."""
    grid = TimeGrid(1.0, 32)
    failures = []
    for hurst, rho, amplitude, weight in ((0.35, 0.6, 0.25, 1.0),
                                          (0.7, -0.4, 0.3, 0.8)):
        base = ExpLinearMap(np.array([[amplitude]]), np.array([[[weight]]]))
        values = euler_paths_array(
            ModelCoefficients.one_factor(base, rho), KernelBank((_rl(hurst),)),
            grid, Scaling.small_noise(0.5), n_paths, seed=_seed(rng),
        ).values
        w = np.exp(values[:, -1, 0])
        gap = abs(w.mean() - 1.0)
        se = w.std(ddof=1) / np.sqrt(n_paths)
        if gap > 3.0 * se:
            failures.append(f"martingale gap {gap:.4f} > 3 se = {3 * se:.4f} "
                            f"at H = {hurst}, rho = {rho}")
    return failures


_CHECKS = (
    ("kernel closed forms", check_kernel_closed_forms, 20),
    ("flat-kernel sampler identity", check_flat_sampler_identity, 4),
    ("increment replay determinism", check_replay, 3),
    ("Brownian covariance quadrature", check_brownian_covariance, 4),
    ("hat-map energy bound", check_hat_map_bound, 100),
    ("path-energy inequalities", check_energy_inequalities, 200),
    ("adjoint gradients vs finite differences", check_gradients, 24),
    ("constant-model terminal rate", check_terminal_closed_form, 2),
    ("discrete exponential martingale", check_martingale, 20_000),
)


def run_selftest(stream) -> int:
    """Run every check; print one line each; return the failure count."""
    rng = np.random.default_rng(20240817)
    failures = 0
    for name, check, count in _CHECKS:
        found = check(rng, count)
        if not found:
            stream.write(f"[pass] {name}\n")
        else:
            failures += 1
            stream.write(f"[FAIL] {name}: {len(found)} failures, first: {found[0]}\n")
    stream.write(f"{len(_CHECKS) - failures} of {len(_CHECKS)} checks passed\n")
    return failures
