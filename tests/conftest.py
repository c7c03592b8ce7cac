"""Shared builders for the test suite."""

import numpy as np
import pytest

from volldp.grids import TimeGrid
from volldp.kernels import KernelBank, make_kernel
from volldp.model import ConstantMap, ModelCoefficients, make_map


@pytest.fixture
def unit_grid():
    return TimeGrid(1.0, 16)


def rl_kernel(hurst, scale=1.0, horizon=1.0, **kw):
    return make_kernel(
        "riemann_liouville", hurst=hurst, scale=scale, horizon=horizon, **kw
    )


def rl_bank(hurst, scale=1.0, horizon=1.0):
    return KernelBank((rl_kernel(hurst, scale, horizon),))


def constant_coeffs(d, p, sigma, mu=None, sigma_tilde=None):
    """Coefficients with constant maps; sigma is a (d, d) array."""
    sigma = np.asarray(sigma, dtype=float)
    mu = np.zeros(d) if mu is None else np.asarray(mu, dtype=float)
    st = np.zeros((d, p)) if sigma_tilde is None else np.asarray(sigma_tilde, float)
    return ModelCoefficients(
        d=d,
        p=p,
        mu=ConstantMap(mu, p),
        sigma=ConstantMap(sigma, p),
        sigma_tilde=ConstantMap(st, p),
    )


def exp_vol_coeffs(rho, amplitude=0.3, weight=1.0):
    """One-factor model with exponential volatility s(y) = amplitude * e^(w y)."""
    base = make_map(
        "exp_linear",
        shape=(1, 1),
        in_dim=1,
        amplitude=np.array([[amplitude]]),
        weights=np.array([[[weight]]]),
    )
    return ModelCoefficients.one_factor(base, rho=rho)


def affine_vol_coeffs(rho, const=0.5, slope=0.1):
    """One-factor model with Lipschitz volatility s(y) = const + slope * y."""
    base = make_map(
        "affine",
        shape=(1, 1),
        in_dim=1,
        constant=np.array([[const]]),
        linear=np.array([[[slope]]]),
    )
    return ModelCoefficients.one_factor(base, rho=rho)
