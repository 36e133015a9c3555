"""The deterministic fluid-limit ODE d(gamma_x)/dt = e^{b(x)} - e^{d(x)}.

b(x) = (A_b gamma)_x and d(x) = (A_d gamma)_x come from the same
interaction matrices as the chain.  Fixed-step classical RK4 (so runs land
on a deterministic grid) works on the 2n rate exponents e = S gamma,
S = [A_b; A_d]: the field is [I, -I] exp(e), so a stage state gamma + c dt k
has exponents e + c dt [S, -S] r, r the previous stage's rates.  Each stage
is guarded by one dot product, e.e <= 700^2, which implies |e_i| <= 700;
only when it fails (or is nan) is each exponent checked.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import MAX_EXPONENT, DimensionMismatchError, ValidationError, check_exponents
from .paths import SamplePath, step_count
from .spectral import as_square_matrix, as_state

DEFAULT_DT = 1e-3

# bytes of physical memory, where the platform reports it
_PHYSICAL_MEMORY = (
    os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if hasattr(os, "sysconf") else np.inf
)


def _system(birth_matrix, death_matrix, gamma):
    """(S, gamma): the stacked exponent matrix S = [A_b; A_d] and gamma as a
    flat float array, after checking that both matrices are square of one
    size with finite entries and that gamma is finite and of that length."""
    ab = as_square_matrix(birth_matrix)
    ad = as_square_matrix(death_matrix)
    if ab.shape != ad.shape:
        raise DimensionMismatchError(f"matrix shapes {ab.shape} and {ad.shape} differ")
    return np.concatenate([ab, ad]), as_state(ab, gamma)


def _check_stage(e, time):
    """check_exponents on the births of e, then on its deaths."""
    n = e.shape[0] // 2
    check_exponents(e[:n], time=time)
    check_exponents(e[n:], time=time)


def vector_field(birth_matrix, death_matrix, gamma, time: float | None = None) -> np.ndarray:
    """Componentwise exp((A_b gamma)_x) - exp((A_d gamma)_x)."""
    stacked, g = _system(birth_matrix, death_matrix, gamma)
    e = stacked.dot(g)
    if not e.dot(e) <= MAX_EXPONENT**2:
        _check_stage(e, time)
    rates, n = np.exp(e), g.shape[0]
    return rates[:n] - rates[n:]


def rk4_integrate(
    birth_matrix,
    death_matrix,
    gamma0,
    dt: float = DEFAULT_DT,
    t_end: float = 1.0,
) -> SamplePath:
    """Classical fixed-step RK4 for the fluid ODE, on the rate exponents.

    Each step recomputes e from gamma (so nothing drifts), writes the four
    stage rates into a (4, 2n) buffer R and adds (dt/6)(1, 2, 2, 1) R,
    births minus deaths.  With A_b = A_d the path is constant.  An exponent
    past the bound, or nan, raises RateOverflowError with the stage time
    (t, t + dt/2, t + dt/2 or t + dt) and vertex; no global-existence claim
    is made.  A grid larger than physical memory raises ValidationError.
    """
    stacked, g = _system(birth_matrix, death_matrix, gamma0)
    steps, n = step_count(dt, t_end), g.shape[0]
    grid_bytes = (steps + 1) * (n + 1) * 8  # the states and the times
    if grid_bytes > _PHYSICAL_MEMORY:
        raise ValidationError(
            f"dt={dt} needs {steps} RK4 steps: {grid_bytes} bytes, past physical memory"
        )
    jump = np.concatenate([stacked, -stacked], axis=1)
    half, full = (0.5 * dt) * jump, dt * jump
    weights = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    rates = np.empty((4, 2 * n))
    r1, r2, r3, r4 = rates
    limit = MAX_EXPONENT**2
    states = np.empty((steps + 1, n))
    states[0] = g
    # ndarray.dot, not @: on operands this small the matmul ufunc's dispatch
    # costs more than the arithmetic
    for k in range(steps):
        t = k * dt
        e = stacked.dot(g)
        if not e.dot(e) <= limit:
            _check_stage(e, t)
        np.exp(e, out=r1)
        s = e + half.dot(r1)
        if not s.dot(s) <= limit:
            _check_stage(s, t + 0.5 * dt)
        np.exp(s, out=r2)
        s = e + half.dot(r2)
        if not s.dot(s) <= limit:
            _check_stage(s, t + 0.5 * dt)
        np.exp(s, out=r3)
        s = e + full.dot(r3)
        if not s.dot(s) <= limit:
            _check_stage(s, t + dt)
        np.exp(s, out=r4)
        w = weights.dot(rates)
        g = g + (w[:n] - w[n:])
        states[k + 1] = g
    return SamplePath(times=np.append(np.arange(steps) * dt, t_end), states=states)
