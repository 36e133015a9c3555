"""The fixed step grid of the diffusion and fluid integrators, and the
time-gridded vector path that the fluid integrator returns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _sample_times, real_array, require_real

# the step of both integrators, and of the fluid experiment's reference path
DEFAULT_DT = 1e-3


def step_count(dt: float, t_end: float) -> int:
    """Fixed steps of size dt that cover [0, t_end]; needs 0 < dt <= t_end,
    t_end / dt below 2^63 (an int64 count), and dt to divide t_end, to
    within 1e-9 of t_end."""
    dt, t_end = require_real("dt", dt), require_real("t_end", t_end)
    if not (0 < dt <= t_end and t_end / dt < 2**63):
        raise ValidationError(
            f"need 0 < dt <= t_end and t_end / dt below 2^63, got dt={dt}, t_end={t_end}"
        )
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ValidationError(f"dt={dt} does not divide t_end={t_end}")
    return steps


@dataclass(frozen=True, eq=False)
class SamplePath:
    """States sampled on an increasing time grid starting at 0.

    times has shape (T,), states has shape (T, d); row k is the state at
    times[k].  Both are read as fresh float copies of finite entries
    (errors.real_array).  The grid is uniform unless an integrator documents
    otherwise.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = real_array("times", self.times)
        states = np.atleast_2d(real_array("states", self.states))
        if times.ndim != 1 or states.shape[0] != times.shape[0]:
            raise ValidationError(
                f"times {times.shape} and states {states.shape} do not line up"
            )
        if times.size == 0 or times[0] != 0.0:
            raise ValidationError("path must start at time 0")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValidationError("path times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def at(self, sample_times) -> np.ndarray:
        """Linear interpolation of each component at the given times."""
        ts = _sample_times(sample_times)
        if not ((ts >= 0) & (ts <= self.times[-1])).all():  # nan fails it too
            raise ValidationError("sample times outside the path's time range")
        out = np.empty((ts.shape[0], self.dimension))
        for j in range(self.dimension):
            out[:, j] = np.interp(ts, self.times, self.states[:, j])
        return out
