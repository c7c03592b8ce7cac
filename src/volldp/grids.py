"""Uniform time grids."""

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
