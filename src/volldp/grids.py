"""Uniform time grids and sampled-path containers."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = horizon.

    The grid owns the step size and node vector used by every
    discretization in the package; two grids compare equal iff horizon and
    step count agree.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def require_divisible(self, m: int) -> None:
        """Fail loudly when ``m`` blocks do not tile the grid."""
        if m < 1 or self.n_steps % m != 0:
            raise ConfigurationError(
                f"block count m={m} must divide the number of grid steps "
                f"N={self.n_steps}"
            )


@dataclass
class PathSample:
    """One sampled path: values[i] is the state vector at grid node i."""

    grid: TimeGrid
    values: np.ndarray  # shape (N + 1, dim)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.n_steps + 1:
            raise ConfigurationError(
                f"path has {self.values.shape[0]} nodes, grid has "
                f"{self.grid.n_steps + 1}"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass
class JointSample:
    """A joint draw of the driving Brownian motion and its Volterra convolution.

    ``increments`` holds the per-step Brownian increments (one row per step,
    one column per factor).  ``singular_increments`` holds the per-step
    auxiliary Gaussians used for the kernel-singular adjacent cell; together
    the two arrays reproduce the stored ``volterra`` values exactly through
    the discrete convolution weights (see ``gaussian.replay_volterra``).
    """

    grid: TimeGrid
    brownian: PathSample
    volterra: PathSample
    increments: np.ndarray           # (N, p)
    singular_increments: np.ndarray  # (N, p)

    @property
    def n_factors(self) -> int:
        return self.increments.shape[1]
