"""Kernel evaluation, slice integrals, rescaling, limit error, schedules."""

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
    ScalingSchedule,
    edge_coefficient,
    eval_lower_triangle,
    kernel_l2_slice,
    make_kernel,
    origin_cell_weight,
    rescale_kernel,
    slice_products,
)
from volldp.selftest import check_kernel_closed_forms

from conftest import rl_kernel
from reference import limit_kernel_error


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
    assert check_kernel_closed_forms(np.random.default_rng(53), 200) == []


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


def _fou_oracle(h, a, t, s):
    """K_H(t, s) - a int_s^t e^(-a (t - u)) K_H(u, s) du at 30 digits.

    K_H is the hypergeometric closed form in mpmath (itself checked against
    the defining integral above); tanh-sinh quadrature absorbs the
    (u - s)^(H - 1/2) endpoint singularity.
    """
    with mpmath.workdps(30):
        h, a, t, s = (mpmath.mpf(v) for v in (h, a, t, s))
        kappa = h - mpmath.mpf(1) / 2
        if h < 0.5:
            c = mpmath.sqrt(2 * h / ((1 - 2 * h) * mpmath.beta(1 - 2 * h, h + 0.5)))
        else:
            c = mpmath.sqrt(h * (2 * h - 1) / mpmath.beta(2 - 2 * h, h - 0.5))
            c /= kappa

        def k_h(u):
            return c * (u - s) ** kappa * mpmath.hyp2f1(kappa, -kappa, h + 0.5, 1 - u / s)

        mem = mpmath.quad(lambda u: mpmath.exp(-a * (t - u)) * k_h(u), [s, t])
        return float(k_h(t) - a * mem)


def _triangle_index(i, j, lag):
    """Row of pair (i, j) in ``eval_lower_triangle`` output."""
    r = i - lag
    return r * (r + 1) // 2 + j


@pytest.mark.parametrize("horizon", [0.2, 1.0])
@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_fou_grid_values_against_high_precision_integral(hurst, horizon):
    # the discretization's points at N = 128: the first column (j = 0, the
    # s^(-|H - 1/2|) blow-up) at its start row i = 2 (the worst point,
    # measured 7.5e-9) and at its far end, where the pointwise rule alone
    # is off by up to 3.6e-6, and a start row i = j + 2 at the end of the
    # grid
    n = 128
    k = make_kernel("fractional_ou", hurst=hurst, scale=1.0, horizon=horizon,
                    mean_reversion=1.0)
    nodes = TimeGrid(horizon, n).nodes
    xg, _ = np.polynomial.legendre.leggauss(4)
    offsets = 0.5 * (horizon / n) * (xg + 1.0)
    got = eval_lower_triangle(k, nodes, offsets, lag=2)
    for i, j, q in [(2, 0, 0), (n, 0, 0), (n, n - 2, 3)]:
        want = _fou_oracle(hurst, 1.0, nodes[i], nodes[j] + offsets[q])
        assert got[_triangle_index(i, j, 2), q] == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("n_steps", [1, 2, 7, 128])
@pytest.mark.parametrize("hurst", [0.1, 0.35, 0.7, 0.9])
def test_fou_grid_matches_pointwise_rule(hurst, n_steps):
    # the row recursion and the 32-node pointwise rule agree to the
    # accuracy of the pointwise rule (measured 3.6e-6 at most); lag 1 with
    # offset 0 holds the column s = 0, which keeps the clamp K(t, 0) = 0
    k = make_kernel("fractional_ou", hurst=hurst, scale=1.3, horizon=1.0,
                    mean_reversion=1.3)
    nodes = TimeGrid(1.0, n_steps).nodes
    xg, _ = np.polynomial.legendre.leggauss(4)
    cases = [(1, np.array([0.0])), (2, 0.5 * (1.0 / n_steps) * (xg + 1.0))]
    for lag, offsets in cases:
        ii, jj = np.tril_indices(nodes.size, -lag)
        want = k.eval(nodes[ii][:, None], nodes[jj][:, None] + offsets)
        got = eval_lower_triangle(k, nodes, offsets, lag=lag)
        assert got.shape == want.shape
        assert np.all((got == 0.0) == (want == 0.0))
        nonzero = want != 0.0
        assert np.all(np.abs(got[nonzero] / want[nonzero] - 1.0) <= 4e-6)
    s_zero = eval_lower_triangle(k, nodes, 0.0, lag=1)[
        [_triangle_index(i, 0, 1) for i in range(1, nodes.size)], 0
    ]
    assert np.all(s_zero == 0.0)


def _fou_row_loop(kernel, nodes, offsets, lag):
    """Reference grid values of a fractional OU kernel, row by row.

    A point s > 0 of row i steps from row i - 1 when that row lies at least
    one cell width (up to rounding) above s; every other point takes the
    pointwise rule.
    """
    rows, prev = [], None
    for i in range(lag, nodes.size):
        s = nodes[: i - lag + 1, None] + offsets
        row = np.empty(s.shape)
        step = np.zeros(s.shape, dtype=bool)
        if prev is not None:
            t0, t1 = nodes[i - 1], nodes[i]
            above = s[: len(prev)]
            step[: len(prev)] = (
                (t0 - above >= (1.0 - 1e-9) * (t1 - t0)) & (above > 0.0)
            )
            row[step] = kernel._row_step(t0, t1, s[step], prev[step[: len(prev)]])
        row[~step] = kernel.eval(nodes[i], s[~step])
        rows.append(row)
        prev = row
    return np.concatenate(rows) if rows else np.empty((0, offsets.size))


@pytest.mark.parametrize("n_steps", [1, 7, 64])
def test_fou_grid_matches_row_loop_reference_bitwise(n_steps):
    # which points step from the previous row is a choice the tolerance
    # tests cannot pin down; offsets across a cell put points at every
    # distance below the previous row
    k = make_kernel("fractional_ou", hurst=0.35, scale=1.3, horizon=1.0,
                    mean_reversion=1.3)
    nodes = TimeGrid(1.0, n_steps).nodes
    xg, _ = np.polynomial.legendre.leggauss(4)
    for offsets in (np.array([0.0]), 0.5 * (1.0 / n_steps) * (xg + 1.0)):
        for lag in (0, 1, 2):
            got = eval_lower_triangle(k, nodes, offsets, lag=lag)
            assert np.array_equal(got, _fou_row_loop(k, nodes, offsets, lag))


def test_fou_grid_brownian_closed_form():
    # H = 1/2: no forcing, the recursion multiplies e^(-a (t - s)) by e^(-a h)
    a = 1.3
    k = make_kernel("fractional_ou", hurst=0.5, scale=1.0, horizon=1.0,
                    mean_reversion=a)
    nodes = TimeGrid(1.0, 128).nodes
    offsets = np.array([0.0, 0.002, 0.006])
    for lag in (1, 2):
        ii, jj = np.tril_indices(nodes.size, -lag)
        want = np.exp(-a * (nodes[ii][:, None] - nodes[jj][:, None] - offsets))
        got = eval_lower_triangle(k, nodes, offsets, lag=lag)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_fou_grid_work_is_linear_in_the_grid(monkeypatch):
    # counts the (t, s) points handed to the hypergeometric closed form
    # during a fresh discretization: only the start of each column, the
    # edge amplitudes and no cell of the row recursion reach it, so the
    # count grows like N, where the pointwise rule on every cell grew like
    # N^2 (about 1.06 million points at N = 128)
    from volldp.kernels import MolchanGolosovKernel

    counted = []
    raw = MolchanGolosovKernel._raw

    def counting_raw(self, t, s):
        counted[-1] += np.size(t)
        return raw(self, t, s)

    monkeypatch.setattr(MolchanGolosovKernel, "_raw", counting_raw)
    k = make_kernel("fractional_ou", hurst=0.3, scale=1.0, horizon=1.0,
                    mean_reversion=1.0)
    for n in (64, 128):
        counted.append(0)
        discretize_kernel.cache_clear()
        discretize_kernel(k, TimeGrid(1.0, n))
    discretize_kernel.cache_clear()
    assert counted[1] <= 2.2 * counted[0]
    assert counted[1] < 1.06e6 / 20


def test_fou_evaluation_builds_no_kernel(monkeypatch):
    # the fOU kernel holds its base K_H, and with it the closed form's
    # constant, from construction: neither a grid nor a point evaluation
    # builds another kernel
    from volldp.kernels import MolchanGolosovKernel

    k = make_kernel("fractional_ou", hurst=0.3, scale=1.0, horizon=1.0,
                    mean_reversion=1.0)
    built = []
    init = MolchanGolosovKernel.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(MolchanGolosovKernel, "__post_init__", counting_init)
    discretize_kernel.cache_clear()
    discretize_kernel(k, TimeGrid(1.0, 32))
    discretize_kernel.cache_clear()
    k.eval(np.array([0.5, 0.9]), np.array([0.25, 0.1]))
    assert built == []


def test_fou_rescaling_stays_in_the_family():
    # sqrt(eta) K(eta t, eta s) is the fOU kernel with scale eta^H and
    # mean reversion a eta, so the rescaled route keeps the row recursion
    k = make_kernel("fractional_ou", hurst=0.3, scale=1.2, horizon=1.0,
                    mean_reversion=1.3)
    eta = 0.2
    r = rescale_kernel(k, eta)
    assert r.family == "fractional_ou"
    assert r.horizon == pytest.approx(1.0 / eta, rel=1e-15)
    assert r.mean_reversion == pytest.approx(1.3 * eta, rel=1e-15)
    t, s = _probe_pairs(1.0 / eta, 50, seed=4)
    want = np.sqrt(eta) * k.eval(eta * t, eta * s)
    assert np.max(np.abs(r.eval(t, s) / want - 1.0)) <= 1e-14
    # nested rescalings compose up to rounding (eta1^H eta2^H is not
    # bitwise (eta1 eta2)^H)
    nested, once = rescale_kernel(rescale_kernel(k, 0.5), 0.4), rescale_kernel(k, 0.2)
    for field in ("hurst", "scale", "horizon", "mean_reversion"):
        assert getattr(nested, field) == pytest.approx(getattr(once, field), rel=1e-15)

    # discretization on the unit grid is that of the direct route on
    # [0, eta] up to the factors of the time change
    n = 32
    unit = discretize_kernel(r, TimeGrid(1.0, n))
    direct = discretize_kernel(k, TimeGrid(eta, n))
    w_unit, w_direct = unit.mean_weights, np.sqrt(eta) * direct.mean_weights
    assert np.max(np.abs(w_unit - w_direct)) <= 1e-13 * np.max(np.abs(w_direct))
    kappa = k.singular_exponent
    e_unit = unit.edge_coeff * (1.0 / n) ** kappa
    e_direct = np.sqrt(eta) * direct.edge_coeff * (eta / n) ** kappa
    assert np.max(np.abs(e_unit - e_direct)) <= 1e-13 * np.max(np.abs(e_direct))


@pytest.mark.parametrize("eta", [1.5, 0.0, -0.2, float("nan")])
def test_fou_rescaling_rejects_eta_outside_unit_interval(eta):
    # the closed-form fOU rescaling checks eta as RescaledKernel does
    k = make_kernel("fractional_ou", hurst=0.3, scale=1.2, horizon=1.0,
                    mean_reversion=1.3)
    with pytest.raises(ConfigurationError, match="eta must lie"):
        rescale_kernel(k, eta)
    with pytest.raises(ConfigurationError, match="eta must lie"):
        limit_kernel_error(k, eta, 0.5, k, TimeGrid(1.0, 4))


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


def test_slice_products_needs_two_cells():
    # one cell leaves no midpoint cell for the origin weight; none, no width
    for n_quad in (1, 0):
        with pytest.raises(DomainError, match="n_quad must be >= 2"):
            slice_products(rl_kernel(0.3), 0.5, [0.5], n_quad)


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
    # 3 offsets on the lower triangle of 201 nodes: about 60,000 points in
    # 201 row calls of up to 603 points each
    nodes = TimeGrid(1.0, 200).nodes
    offsets = np.array([0.0, 0.001, 0.004])
    for k in (rl_kernel(0.3),
              make_kernel("molchan_golosov", hurst=0.3, scale=1.0, horizon=1.0)):
        for lag in (0, 1, 2):
            ii, jj = np.tril_indices(nodes.size, -lag)
            want = k.eval(nodes[ii][:, None], nodes[jj][:, None] + offsets)
            got = eval_lower_triangle(k, nodes, offsets, lag=lag)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("nodes, offsets, message", [
    ([0.0, 0.5, 1.2], [0.0, 0.1], "exceeds kernel horizon 1.0"),
    ([0.0, 0.5, 1.0], [-0.1, 0.1], "must be nonnegative"),
], ids=["beyond-horizon", "negative-s"])
def test_eval_lower_triangle_checks_the_domain(nodes, offsets, message):
    for lag in (0, 1):
        with pytest.raises(DomainError, match=message):
            eval_lower_triangle(rl_kernel(0.3), nodes, offsets, lag=lag)


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


@pytest.mark.parametrize("hurst", [0.3, 0.72])
def test_molchan_golosov_discretization_matches_row_loop_bitwise(hurst):
    # the pointwise rule of every row, untouched by the fOU recursion; the first
    # edge amplitude is calibrated at the cell midpoint, not in the loop
    kernel = make_kernel("molchan_golosov", hurst=hurst, scale=1.0, horizon=0.9)
    grid = TimeGrid(0.9, 100)
    weights, edge = _row_loop_discretization(kernel, grid)
    disc = discretize_kernel(kernel, grid)
    assert np.array_equal(disc.mean_weights, weights)
    assert np.array_equal(disc.edge_coeff[2:], edge[2:])


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


def _l2_slice_reference(kernel, t, n_quad):
    """int_0^t K(t, s)^2 ds by the slice rule, written out on its own."""
    h = t / n_quad
    mids = (np.arange(n_quad - 1) + 0.5) * h
    sq = kernel.eval(t, mids) ** 2
    sq[0] *= origin_cell_weight(kernel)
    interior = float(np.sum(sq)) * h
    a_edge = float(edge_coefficient(kernel, t, t - h, h))
    kappa = kernel.singular_exponent
    return interior + a_edge**2 * h ** (2 * kappa + 1) / (2 * kappa + 1)


@pytest.mark.parametrize("kernel", all_families(), ids=_kernel_id)
def test_slice_norm_matches_reference_rule(kernel):
    for t in (0.05, 0.3, 0.9):
        for n_quad in (2, 64, 256):
            want = _l2_slice_reference(kernel, t, n_quad)
            assert kernel_l2_slice(kernel, t, n_quad) == pytest.approx(
                want, rel=1e-14
            )


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
    # 200 steps give 20,100 pairs in 200 row calls of the evaluator
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
        limit_kernel_error(k, eta, eps, limit, grid) for eta, eps in sched
    ]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# scaling schedules
# ---------------------------------------------------------------------------


def test_schedule_self_similar_rule():
    sched = ScalingSchedule.self_similar([0.5, 0.2, 0.1], 0.4)
    assert len(sched) == 3
    for eta, eps in sched:
        assert type(eta) is float and type(eps) is float
        assert eps == pytest.approx(eta**0.4, rel=1e-12)
    single = ScalingSchedule.self_similar((0.3,), 0.4)
    assert len(single) == 1
    assert next(iter(single))[0] == 0.3


def test_schedule_log_rule_default_exponent():
    h, a = 0.4, 2.0
    sched = ScalingSchedule.for_log_kernel([0.2, 0.1], h, a)
    for eta, eps in sched:
        want = eta**h * (-math.log(eta)) ** (-a)
        assert eps == pytest.approx(want, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([0.1, 0.2], 0.4)  # not decreasing
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([1.5, 0.2], 0.4)  # out of (0, 1]
    with pytest.raises(ConfigurationError):
        ScalingSchedule.self_similar([], 0.4)
    with pytest.raises(ConfigurationError):
        ScalingSchedule((0.5, 0.2), (0.5,))  # length mismatch


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
