"""Kernel evaluation, slice integrals, modulus, rescaling, scaling schedules."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from volldp.errors import ConfigurationError, DomainError
from volldp.gaussian import discretize_kernel
from volldp.grids import TimeGrid
from volldp.kernels import (
    KernelBank,
    ScaleEntry,
    ScalingSchedule,
    edge_coefficient,
    eval_lower_triangle,
    kernel_l2_slice,
    limit_kernel_error,
    make_kernel,
    modulus_of_continuity,
    origin_cell_weight,
    rescale_kernel,
    slice_products,
)

from conftest import rl_kernel


def all_families(horizon=0.9):
    return [
        make_kernel("riemann_liouville", hurst=0.3, scale=1.0, horizon=horizon),
        make_kernel("riemann_liouville", hurst=0.75, scale=1.0, horizon=horizon),
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=horizon,
                    log_exponent=2.0),
        make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=horizon),
        make_kernel("molchan_golosov", hurst=0.72, scale=1.0, horizon=horizon),
        make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=horizon,
                    mean_reversion=1.3),
    ]


def _kernel_id(kernel):
    return f"{kernel.family}_{kernel.hurst}"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_power_law_closed_form():
    k = rl_kernel(0.5)
    assert k.eval(0.7, 0.2) == 1.0  # exponent H - 1/2 = 0
    k = rl_kernel(0.3, scale=2.0)
    t, s = 0.8, 0.15
    assert k.eval(t, s) == pytest.approx(2.0 * (t - s) ** (-0.2), rel=1e-14)


def test_log_corrected_closed_form():
    k = make_kernel("log_fbm", hurst=0.5, scale=1.0, horizon=0.9,
                    log_exponent=2.0)
    got = k.eval(0.5, 0.25)
    assert got == pytest.approx((-math.log(0.25)) ** -2, rel=1e-13)
    assert got == pytest.approx(0.5203, abs=2e-4)


def test_vanishes_on_and_above_diagonal():
    for k in all_families():
        assert k.eval(0.3, 0.5) == 0.0
        assert k.eval(0.4, 0.4) == 0.0
        assert k.eval(0.0, 0.0) == 0.0
        grid = np.linspace(0.0, k.horizon, 9)
        tt, ss = np.meshgrid(grid, grid, indexing="ij")
        vals = k.eval(tt, ss)
        assert np.all(vals[ss >= tt] == 0.0)


def test_eval_domain_errors():
    k = rl_kernel(0.4, horizon=1.0)
    with pytest.raises(DomainError):
        k.eval(1.5, 0.2)
    with pytest.raises(DomainError):
        k.eval(0.5, -0.2)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        rl_kernel(0.0)
    with pytest.raises(ConfigurationError):
        rl_kernel(1.0)
    with pytest.raises(ConfigurationError):
        rl_kernel(0.4, scale=0.0)
    with pytest.raises(ConfigurationError):
        rl_kernel(0.4, horizon=-1.0)
    with pytest.raises(ConfigurationError):
        make_kernel("log_fbm", hurst=0.6, scale=1.0, horizon=0.9)
    with pytest.raises(ConfigurationError):
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                    log_exponent=1.0)
    with pytest.raises(ConfigurationError):
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.95)
    with pytest.raises(ConfigurationError):
        make_kernel("fractional_ou", hurst=0.4, scale=1.0, horizon=1.0,
                    mean_reversion=0.0)
    with pytest.raises(ConfigurationError):
        make_kernel("nope", hurst=0.4, scale=1.0, horizon=1.0)


def test_brownian_reduction_of_finite_interval_kernel():
    k = make_kernel("molchan_golosov", hurst=0.5, scale=1.0, horizon=1.0)
    for t, s in [(0.9, 0.1), (0.5, 0.45), (1.0, 0.2)]:
        assert k.eval(t, s) == pytest.approx(1.0, rel=1e-12)


def test_finite_interval_kernel_against_direct_quadrature():
    # independent evaluation of the defining integral representation
    for h in (0.72, 0.3):
        k = make_kernel("molchan_golosov", hurst=h, scale=1.0, horizon=1.0)
        if h > 0.5:
            c = math.sqrt(h * (2 * h - 1) / special.beta(2 - 2 * h, h - 0.5))
        else:
            c = math.sqrt(2 * h / ((1 - 2 * h) * special.beta(1 - 2 * h, h + 0.5)))
        for t, s in [(0.8, 0.3), (0.6, 0.55), (1.0, 0.05)]:
            # weighted quadrature absorbs the algebraic endpoint singularity
            if h > 0.5:
                inner, _ = integrate.quad(
                    lambda u: u ** (h - 0.5), s, t,
                    weight="alg", wvar=(h - 1.5, 0.0), limit=200,
                )
                want = c * s ** (0.5 - h) * inner
            else:
                inner, _ = integrate.quad(
                    lambda u: u ** (h - 1.5), s, t,
                    weight="alg", wvar=(h - 0.5, 0.0), limit=200,
                )
                want = c * (
                    (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
                    - (h - 0.5) * s ** (0.5 - h) * inner
                )
            assert k.eval(t, s) == pytest.approx(want, rel=1e-9)


def _molchan_golosov_oracle(h, t, s):
    """The defining integral of the Molchan-Golosov kernel at 30 digits.

    Integrates in v = u - s, split at geometrically shrinking points so the
    adaptive rule resolves the endpoint singularity v^(H - 3/2) or
    v^(H - 1/2) and, for small s, the u^(H - 3/2) peak near v = 0.
    """
    with mpmath.workdps(30):
        h, t, s = mpmath.mpf(h), mpmath.mpf(t), mpmath.mpf(s)
        pts = [0] + [(t - s) * mpmath.mpf(10) ** -k for k in range(36, -1, -3)]
        if h > 0.5:
            c = mpmath.sqrt(h * (2 * h - 1) / mpmath.beta(2 - 2 * h, h - 0.5))
            inner = mpmath.quad(lambda v: v ** (h - 1.5) * (s + v) ** (h - 0.5), pts)
            return float(c * s ** (0.5 - h) * inner)
        c = mpmath.sqrt(2 * h / ((1 - 2 * h) * mpmath.beta(1 - 2 * h, h + 0.5)))
        inner = mpmath.quad(lambda v: (s + v) ** (h - 1.5) * v ** (h - 0.5), pts)
        return float(c * ((t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
                          - (h - 0.5) * s ** (0.5 - h) * inner))


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_molchan_golosov_against_high_precision_integral(hurst):
    # near the origin the kernel blows up like s^(-|H - 1/2|); the points
    # reach s = 1e-5 there and s -> t at the diagonal
    k = make_kernel("molchan_golosov", hurst=hurst, scale=1.0, horizon=1.0)
    points = [(1.0, 1e-5), (0.5, 1e-5), (1.0, 1e-3), (0.8, 0.3), (0.6, 0.59)]
    for t, s in points:
        want = _molchan_golosov_oracle(hurst, t, s)
        assert k.eval(t, s) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_molchan_golosov_slice_is_fbm_variance(hurst):
    # K is normalized so that Bhat is a standard fBm: the slice norm is
    # t^(2H), which tests the origin-cell rule against a closed form
    k = make_kernel("molchan_golosov", hurst=hurst, scale=1.0, horizon=1.0)
    for t in (1.0 / 32, 0.3, 1.0):
        assert kernel_l2_slice(k, t) == pytest.approx(t ** (2 * hurst), rel=5e-3)


def test_mean_reverting_kernel_against_direct_quadrature():
    a = 1.3
    k = make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=1.0,
                    mean_reversion=a)
    base = make_kernel("molchan_golosov", hurst=0.35, scale=1.0, horizon=1.0)
    for t, s in [(0.8, 0.3), (0.9, 0.7)]:
        mem, _ = integrate.quad(
            lambda u: math.exp(-a * (t - u)) * base.eval(u, s),
            s, t, points=[s], limit=200,
        )
        want = base.eval(t, s) - a * mem
        assert k.eval(t, s) == pytest.approx(want, rel=1e-6)

    # vanishing mean reversion recovers the underlying kernel
    k0 = make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=1.0,
                     mean_reversion=1e-9)
    assert k0.eval(0.8, 0.3) == pytest.approx(base.eval(0.8, 0.3), rel=1e-7)


def test_mean_reverting_kernel_brownian_closed_form():
    # H = 1/2 base kernel is constant 1, so K(t, s) = exp(-a (t - s))
    a = 1.3
    k = make_kernel("fractional_ou", hurst=0.5, scale=1.0, horizon=1.0,
                    mean_reversion=a)
    for t, s in [(0.9, 0.2), (0.6, 0.55), (1.0, 0.0)]:
        assert k.eval(t, s) == pytest.approx(math.exp(-a * (t - s)), rel=1e-13)


# ---------------------------------------------------------------------------
# L2 slices
# ---------------------------------------------------------------------------


def test_l2_slice_closed_forms():
    # int_0^t (t - s)^(2 H - 1) ds = t^(2 H) / (2 H)
    assert kernel_l2_slice(rl_kernel(0.5), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert kernel_l2_slice(rl_kernel(0.75), 1.0, n_quad=1024) == pytest.approx(
        1.0 / 1.5, rel=2e-6
    )
    assert kernel_l2_slice(rl_kernel(0.3), 0.8) == pytest.approx(
        0.8**0.6 / 0.6, rel=1e-3
    )
    assert kernel_l2_slice(rl_kernel(0.3), 0.8, n_quad=4096) == pytest.approx(
        0.8**0.6 / 0.6, rel=2e-4
    )
    assert kernel_l2_slice(rl_kernel(0.3), 0.0) == 0.0


def test_l2_slice_against_adaptive_quadrature():
    # Tolerances reflect the measured accuracy of the composite-midpoint
    # rule on each integrand; refinement must also move toward the oracle.
    cases = [
        (make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                     log_exponent=2.0), 0.5, 5e-7),
        (make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=1.0),
         0.7, 2e-4),
        (make_kernel("molchan_golosov", hurst=0.72, scale=1.0, horizon=1.0),
         0.7, 1e-2),
        (make_kernel("fractional_ou", hurst=0.35, scale=1.0, horizon=1.0,
                     mean_reversion=1.3), 0.8, 5e-4),
    ]
    for kernel, t, tol in cases:
        want, err = integrate.quad(
            lambda s: float(kernel.eval(t, s)) ** 2, 0.0, t,
            points=[t * 0.999999], limit=400,
        )
        assert err < 1e-6
        coarse = abs(kernel_l2_slice(kernel, t, n_quad=512) - want)
        fine = abs(kernel_l2_slice(kernel, t, n_quad=2048) - want)
        assert fine <= want * tol
        assert fine <= coarse + 1e-12


def test_eval_lower_triangle_matches_pointwise_eval():
    # 3 offsets on the lower triangle of 201 nodes: about 60,000 points,
    # which crosses several chunk boundaries
    nodes = TimeGrid(1.0, 200).nodes
    offsets = np.array([0.0, 0.001, 0.004])
    for k in (rl_kernel(0.3),
              make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=1.0)):
        for lag in (0, 1, 2):
            ii, jj = np.tril_indices(nodes.size, -lag)
            want = k.eval(nodes[ii][:, None], nodes[jj][:, None] + offsets)
            got = eval_lower_triangle(k, nodes, offsets, lag=lag)
            assert np.array_equal(got, want)


def _row_loop_discretization(kernel, grid):
    """Convolution weights built one row at a time (the reference layout)."""
    n, dt, t = grid.n_steps, grid.dt, grid.nodes
    kappa = kernel.singular_exponent
    xg, wg = np.polynomial.legendre.leggauss(4)
    weights = np.zeros((n + 1, n))
    for i in range(2, n + 1):
        cells = np.arange(i - 1)
        u = t[cells][None, :] + 0.5 * dt * (xg[:, None] + 1.0)
        vals = kernel.eval(t[i], u)
        weights[i, : i - 1] = 0.5 * np.sum(wg[:, None] * vals, axis=0)
    edge = np.zeros(n + 1)
    for i in range(1, n + 1):
        edge[i] = kernel.eval(t[i], t[i - 1]) / dt**kappa
    return weights, edge


@pytest.mark.parametrize("n_steps", [1, 2, 7, 100])
def test_discretization_matches_row_loop_bitwise(n_steps):
    kernels = [
        rl_kernel(0.3, scale=1.3),
        rl_kernel(0.75),
        rescale_kernel(rl_kernel(0.35), 0.1),
        make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                    log_exponent=2.0),
    ]
    for kernel in kernels:
        grid = TimeGrid(0.9, n_steps)
        weights, edge = _row_loop_discretization(kernel, grid)
        disc = discretize_kernel(kernel, grid)
        assert np.array_equal(disc.mean_weights, weights)
        assert np.array_equal(disc.edge_coeff, edge)


@pytest.mark.parametrize("family", ["molchan_golosov", "fractional_ou"])
@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_first_cell_amplitude_of_origin_singular_kernels(family, hurst):
    # the first cell is both the origin cell and the diagonal cell; its
    # amplitude comes from the cell midpoint, not from the clamp K(t, 0) = 0
    extra = {"mean_reversion": 1.0} if family == "fractional_ou" else {}
    kernel = make_kernel(family, hurst=hurst, scale=1.0, horizon=1.0, **extra)
    grid = TimeGrid(1.0, 32)
    disc = discretize_kernel(kernel, grid)
    assert disc.edge_coeff[1] > 0.0
    t1 = grid.nodes[1]
    assert float(edge_coefficient(kernel, t1, 0.0, grid.dt)) == disc.edge_coeff[1]
    # measured -3.7 % (MG, H = 0.3) to -10.06 % (MG, H = 0.7): the
    # one-cell power law misses the s^(-|H - 1/2|) blow-up at the origin
    want = kernel_l2_slice(kernel, grid.nodes[1])
    assert disc.row_l2()[1] == pytest.approx(want, rel=0.11)


def _l2_between_reference(kernel, t, lo, n_quad):
    """int_lo^t K(t, s)^2 ds by the slice rule, written out on its own."""
    if t <= lo:
        return 0.0
    h = (t - lo) / n_quad
    mids = lo + (np.arange(n_quad - 1) + 0.5) * h
    sq = kernel.eval(t, mids) ** 2
    if lo <= 0.0:
        sq[0] *= origin_cell_weight(kernel)
    interior = float(np.sum(sq)) * h
    a_edge = float(edge_coefficient(kernel, t, t - h, h))
    kappa = kernel.singular_exponent
    return interior + a_edge**2 * h ** (2 * kappa + 1) / (2 * kappa + 1)


@pytest.mark.parametrize("kernel", all_families(), ids=_kernel_id)
def test_slice_norm_matches_reference_rule(kernel):
    for t in (0.05, 0.3, 0.9):
        for n_quad in (2, 64, 256):
            want = _l2_between_reference(kernel, t, 0.0, n_quad)
            assert kernel_l2_slice(kernel, t, n_quad) == pytest.approx(
                want, rel=1e-14
            )
            # the [t1, t2] part of the modulus: no origin cell
            got = slice_products(kernel, t, t, n_quad, lo=0.4 * t)[0]
            want = _l2_between_reference(kernel, t, 0.4 * t, n_quad)
            assert got == pytest.approx(want, rel=1e-14)
    assert np.array_equal(slice_products(kernel, 0.3, [0.3, 0.5], 8, lo=0.3),
                          np.zeros(2))


def test_l2_slice_nondecreasing_in_t():
    probes = np.linspace(0.0, 0.9, 19)
    for k in all_families():
        vals = [kernel_l2_slice(k, t) for t in probes]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_l2_slice_finite_sup():
    for k in all_families():
        sup = max(kernel_l2_slice(k, t) for t in np.linspace(0.0, 0.9, 13))
        assert np.isfinite(sup)


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


def _modulus_oracle(kernel, delta, n_pairs=25):
    """Independent adaptive-quadrature estimate of the L2 modulus."""
    worst = 0.0
    for t1 in np.linspace(0.0, kernel.horizon - delta, n_pairs):
        t2 = t1 + delta
        total = 0.0
        if t1 > 0:
            part, _ = integrate.quad(
                lambda s: (float(kernel.eval(t1, s)) - float(kernel.eval(t2, s))) ** 2,
                0.0, t1, points=[t1 * 0.999999], limit=400,
            )
            total += part
        part, _ = integrate.quad(
            lambda s: float(kernel.eval(t2, s)) ** 2,
            t1, t2, points=[t2 * 0.999999], limit=400,
        )
        worst = max(worst, total + part)
    return worst


def test_modulus_trivial_and_monotone():
    k = rl_kernel(0.3)
    assert modulus_of_continuity(k, 0.0) == 0.0
    assert modulus_of_continuity(k, 0.05) <= modulus_of_continuity(k, 0.1)
    k = rl_kernel(0.75)
    assert modulus_of_continuity(k, 0.05) <= modulus_of_continuity(k, 0.1)


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_modulus_power_law_bound(hurst):
    # Calibrate the bound constant from an independent quadrature estimate at
    # a reference width, then check the library modulus obeys
    # M(delta) <= c * delta^(2 H) across a logarithmic probe set.
    k = rl_kernel(hurst)
    alpha = 2.0 * hurst
    ref = _modulus_oracle(k, 0.1)
    lib = modulus_of_continuity(k, 0.1)
    assert lib == pytest.approx(ref, rel=0.05)
    c = 1.25 * ref / 0.1**alpha
    for delta in (0.02, 0.05, 0.1, 0.2, 0.4):
        assert modulus_of_continuity(k, delta) <= c * delta**alpha


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def _probe_pairs(horizon, n, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, horizon, n)
    s = rng.uniform(0.0, horizon, n)
    return np.maximum(t, s), np.minimum(t, s) * 0.999


def test_rescale_identity():
    k = rl_kernel(0.3)
    r = rescale_kernel(k, 1.0)
    t, s = _probe_pairs(1.0, 50)
    assert np.array_equal(r.eval(t, s), k.eval(t, s))


def test_rescale_power_law_simplification():
    h, c, eta = 0.35, 1.7, 0.2
    k = rl_kernel(h, scale=c)
    r = rescale_kernel(k, eta)
    t, s = _probe_pairs(1.0, 50, seed=1)
    want = eta**h * c * (t - s) ** (h - 0.5)
    assert np.allclose(r.eval(t, s), want, rtol=1e-12)
    assert r.eval(0.3, 0.5) == 0.0


def test_rescale_pointwise_law_for_log_kernel():
    k = make_kernel("log_fbm", hurst=0.4, scale=1.0, horizon=0.9,
                    log_exponent=2.0)
    eta = 0.25
    r = rescale_kernel(k, eta)
    t, s = _probe_pairs(0.9 / eta, 40, seed=2)
    want = np.sqrt(eta) * k.eval(eta * t, eta * s)
    assert np.allclose(r.eval(t, s), want, rtol=1e-12)


def test_rescale_composition():
    k = rl_kernel(0.4)
    a = rescale_kernel(rescale_kernel(k, 0.7), 0.3)
    b = rescale_kernel(k, 0.7 * 0.3)
    t, s = _probe_pairs(1.0, 100, seed=3)
    assert np.max(np.abs(a.eval(t, s) - b.eval(t, s))) <= 1e-12


# ---------------------------------------------------------------------------
# limit-kernel error
# ---------------------------------------------------------------------------


def test_limit_error_exact_construction():
    k = rl_kernel(0.4)
    grid = TimeGrid(1.0, 12)
    limit = rescale_kernel(k, 0.3)
    assert limit_kernel_error(k, 0.3, 1.0, limit, grid) == 0.0


def test_limit_error_self_similar_identity():
    h = 0.35
    k = rl_kernel(h, horizon=1.0)
    grid = TimeGrid(1.0, 16)
    limit = rl_kernel(h, horizon=1.0)
    for eta in (0.1, 0.01, 0.001):
        err = limit_kernel_error(k, eta, eta**h, limit, grid)
        assert err <= 1e-12


def _limit_error_reference(kernel, eta, epsilon, limit, grid):
    tt, ss = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    mask = ss < tt
    scaled = rescale_kernel(kernel, eta)
    diff = scaled.eval(tt[mask], ss[mask]) / epsilon - limit.eval(
        tt[mask], ss[mask]
    )
    return float(np.max(np.abs(diff)))


@pytest.mark.parametrize("kernel", all_families(), ids=_kernel_id)
def test_limit_error_matches_meshgrid_reference_bitwise(kernel):
    limit = rl_kernel(kernel.hurst, scale=1.1, horizon=0.9)
    # 200 steps give 20,100 pairs, more than one chunk of the evaluator
    for grid in (TimeGrid(0.9, 1), TimeGrid(0.9, 12), TimeGrid(0.9, 200)):
        got = limit_kernel_error(kernel, 0.2, 0.2**kernel.hurst, limit, grid)
        assert got > 0.0
        assert got == _limit_error_reference(
            kernel, 0.2, 0.2**kernel.hurst, limit, grid
        )


def test_limit_error_log_kernel_decreasing():
    h, a = 0.4, 2.0
    k = make_kernel("log_fbm", hurst=h, scale=1.0, horizon=0.9, log_exponent=a)
    grid = TimeGrid(0.5, 16)
    limit = rl_kernel(h, horizon=0.5)
    sched = ScalingSchedule.for_log_kernel([1e-2, 1e-3, 1e-4], h, a)
    errs = [
        limit_kernel_error(k, e.eta, e.epsilon, limit, grid) for e in sched
    ]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# scaling schedules
# ---------------------------------------------------------------------------


def test_schedule_self_similar_rule():
    sched = ScalingSchedule.self_similar([0.5, 0.2, 0.1], 0.4)
    assert len(sched) == 3
    for entry in sched:
        assert isinstance(entry, ScaleEntry)
        assert entry.epsilon == pytest.approx(entry.eta**0.4, rel=1e-12)
        assert entry.delta == entry.eta
    single = ScalingSchedule.self_similar(0.3, 0.4)
    assert len(single) == 1
    assert single.entry(0).eta == 0.3


def test_schedule_log_rule_default_exponent():
    h, a = 0.4, 2.0
    sched = ScalingSchedule.for_log_kernel([0.2, 0.1], h, a)
    for entry in sched:
        want = entry.eta**h * (-math.log(entry.eta)) ** (-a)
        assert entry.epsilon == pytest.approx(want, rel=1e-12)
    stronger = ScalingSchedule.for_log_kernel([0.2, 0.1], h, a,
                                              speed_log_exponent=2.0)
    want = 0.2**h * (-math.log(0.2)) ** -1.0
    assert stronger.entry(0).epsilon == pytest.approx(want, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([0.1, 0.2], 0.4)  # not decreasing
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([1.5, 0.2], 0.4)  # out of (0, 1]
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([], 0.4)
    with pytest.raises(ConfigurationError):
        ScalingSchedule(
            eta=(0.5, 0.2), epsilon=(0.9, 0.1), delta=(0.5, 0.2),
            speed_exponent_hurst=0.4, rule="self_similar",
        )  # epsilon inconsistent with the declared rule
    with pytest.raises(ConfigurationError):
        ScalingSchedule(
            eta=(0.5, 0.2), epsilon=(0.5,), delta=(0.5, 0.2),
            speed_exponent_hurst=0.4,
        )  # length mismatch


# ---------------------------------------------------------------------------
# kernel banks
# ---------------------------------------------------------------------------


def test_bank_shared_horizon():
    k1 = rl_kernel(0.3, horizon=1.0)
    k2 = rl_kernel(0.7, horizon=1.0)
    bank = KernelBank((k1, k2))
    assert bank.n_factors == 2
    assert bank.horizon == 1.0
    assert [k for k in bank] == [k1, k2]
    with pytest.raises(ConfigurationError):
        KernelBank((k1, rl_kernel(0.7, horizon=0.5)))
    with pytest.raises(ConfigurationError):
        KernelBank(())
