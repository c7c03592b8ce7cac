"""Reference implementations the tests compare the package against.

No command, selftest or benchmark reaches these, so they live here rather
than in ``volldp``; each is an independent route to a quantity the package
forms another way.  ``phi_m`` is Phi^m written from its definition, a loop
over blocks, apart from the rate objective's vectorized ``ratefn._phi``;
at m = N it is Phi.
"""

import numpy as np

from volldp.errors import DomainError
from volldp.gaussian import covariance_matrix, path_normals
from volldp.kernels import eval_lower_triangle, rescale_kernel
from volldp.model import _require_nonsingular
from volldp.ratefn import CameronMartinPath


def _require_node_path(path, grid, p: int, name: str) -> np.ndarray:
    """``path`` as an (N + 1, p) array of values at the nodes of ``grid``."""
    path = np.asarray(path, dtype=float)
    if path.shape != (grid.n_steps + 1, p):
        raise DomainError(
            f"{name} has shape {path.shape}, expected ({grid.n_steps + 1}, {p})"
        )
    return path


def j_rate(x: CameronMartinPath, phi, coeffs) -> float:
    """J(x | phi) = 1/2 int (xdot - mu(phi))^T a(phi)^(-1) (xdot - mu(phi)) dt.

    ``phi`` holds the volatility path at the nodes of x's grid, (N + 1, p).
    A singular a(phi) raises ``SingularDiffusionError``.
    """
    phi = _require_node_path(phi, x.grid, coeffs.p, "phi")
    y = phi[: x.grid.n_steps]
    a = coeffs.a(y)
    _require_nonsingular(a, "diffusion matrix")
    resid = x.derivative - coeffs.mu(y)
    w = np.linalg.solve(a, resid[..., None])[..., 0]
    return 0.5 * float(np.sum(resid * w)) * x.grid.dt


def phi_m(f: CameronMartinPath, g, m: int, coeffs) -> CameronMartinPath:
    """Block-frozen correlation integral Phi^m(f, g).

    ``g`` holds the lifted path at the nodes of f's grid, (N + 1, p).  On
    each of the m blocks, sigma_tilde is frozen at g at the block's left
    end and integrated against the increments of f, step by step.
    """
    if f.dim != coeffs.p:
        raise DomainError("f must have one component per factor")
    g = _require_node_path(g, f.grid, coeffs.p, "g")
    f.grid.require_divisible(m)
    n = f.grid.n_steps
    span = n // m
    df = np.diff(f.values, axis=0)
    values = np.zeros((n + 1, coeffs.d))
    for start in range(0, n, span):
        frozen = coeffs.sigma_tilde(g[start])  # (d, p)
        for j in range(start, start + span):
            values[j + 1] = values[j] + frozen @ df[j]
    return CameronMartinPath.from_values(f.grid, values)


def sample_volterra_cholesky(bank, grid, n_paths: int, seed: int,
                             n_quad: int = 256) -> np.ndarray:
    """Bhat (n_paths, N + 1, p) drawn from a Cholesky factor of the
    quadrature covariance ``covariance_matrix``, with a 1e-12-trace jitter."""
    cov = covariance_matrix(bank, grid, n_quad)
    n, p = grid.n_steps, bank.n_factors
    chols = []
    for ell in range(p):
        block = cov[ell]
        jitter = 1e-12 * max(np.trace(block), 1.0)
        chols.append(np.linalg.cholesky(block + jitter * np.eye(n)))
    z = path_normals(seed, 0, n_paths, n * p).reshape(n_paths, n, p)
    out = np.zeros((n_paths, n + 1, p))
    for ell in range(p):
        out[:, 1:, ell] = z[:, :, ell] @ chols[ell].T
    return out


def limit_kernel_error(kernel, eta: float, epsilon: float, limit, grid) -> float:
    """sup over grid pairs s < t of |K^eta(t, s) / epsilon - K_limit(t, s)|."""
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    scaled = rescale_kernel(kernel, eta)
    nodes = grid.nodes
    diff = (
        eval_lower_triangle(scaled, nodes, 0.0, lag=1)[:, 0] / epsilon
        - eval_lower_triangle(limit, nodes, 0.0, lag=1)[:, 0]
    )
    return float(np.max(np.abs(diff)))
