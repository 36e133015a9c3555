"""The deterministic fluid-limit ODE d(gamma_x)/dt = e^{b(x)} - e^{d(x)}.

b(x) = (A_b gamma)_x and d(x) = (A_d gamma)_x come from the same
interaction matrices as the chain; the integrator is fixed-step classical
RK4 so runs land on a deterministic grid.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_EXPONENT, DimensionMismatchError, check_exponents
from .paths import SamplePath, step_count
from .spectral import as_square_matrix, as_state

DEFAULT_DT = 1e-3


def _field(birth_matrix, death_matrix, gamma):
    """(field, gamma): the fluid vector field as field(g, time) on the
    stacked matrices [A_b; A_d], and gamma as a flat float array, after
    checking that both matrices are square of one size with finite entries
    and that gamma is finite and of that length."""
    ab = as_square_matrix(birth_matrix)
    ad = as_square_matrix(death_matrix)
    if ab.shape != ad.shape:
        raise DimensionMismatchError(f"matrix shapes {ab.shape} and {ad.shape} differ")
    g0 = as_state(ab, gamma)
    n = g0.shape[0]
    stacked = np.concatenate([ab, ad])

    def field(g, time):
        e = stacked @ g
        if np.abs(e).max() > MAX_EXPONENT:
            # births first, then deaths
            check_exponents(e[:n], time=time)
            check_exponents(e[n:], time=time)
        rates = np.exp(e)
        return rates[:n] - rates[n:]

    return field, g0


def vector_field(birth_matrix, death_matrix, gamma, time: float | None = None) -> np.ndarray:
    """Componentwise exp((A_b gamma)_x) - exp((A_d gamma)_x)."""
    field, g = _field(birth_matrix, death_matrix, gamma)
    return field(g, time)


def rk4_integrate(
    birth_matrix,
    death_matrix,
    gamma0,
    dt: float = DEFAULT_DT,
    t_end: float = 1.0,
) -> SamplePath:
    """Classical fixed-step RK4 for the fluid ODE.

    With A_b = A_d the field vanishes identically and the path is constant.
    Overflowing exponents abort with the offending time and vertex; no
    global-existence claim is made for arbitrary matrices.
    """
    field, g = _field(birth_matrix, death_matrix, gamma0)
    steps = step_count(dt, t_end)
    states = np.empty((steps + 1, g.shape[0]))
    states[0] = g
    for k in range(steps):
        t = k * dt
        k1 = field(g, t)
        k2 = field(g + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = field(g + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = field(g + dt * k3, t + dt)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = g
    return SamplePath(times=np.append(np.arange(steps) * dt, t_end), states=states)
