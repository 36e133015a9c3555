"""The deterministic fluid-limit ODE d(gamma_x)/dt = e^{b(x)} - e^{d(x)}.

b(x) = (A_b gamma)_x and d(x) = (A_d gamma)_x come from the same
interaction matrices as the chain.  Fixed-step classical RK4 (so runs land
on a deterministic grid) works on the 2n rate exponents e = S gamma,
S = [A_b; A_d]: the field is [I, -I] exp(e), so a stage state gamma + c dt k
has exponents e + c dt [S, -S] r, r the previous stage's rates.  Each step
writes its four stages into buffers made once per call and is guarded by
one dot product over all of their exponents, sum e.e <= 700^2, which implies
|e_i| <= 700.  Only when it fails (or is nan) does the step go through
_check_stages: births, then deaths, stage by stage, so the first exponent
past the bound is named.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_EXPONENT, DimensionMismatchError, check_exponents, require_memory
from .paths import DEFAULT_DT, SamplePath, step_count
from .spectral import as_square_matrix, as_state


def _check_stages(exponents, times) -> None:
    """check_exponents on the births and then the deaths of each row of
    exponents, row by row, naming that row's time."""
    n = exponents.shape[1] // 2
    for e, time in zip(exponents, times):
        check_exponents(e[:n], time=time)
        check_exponents(e[n:], time=time)


def rk4_integrate(
    birth_matrix,
    death_matrix,
    gamma0,
    dt: float = DEFAULT_DT,
    t_end: float = 1.0,
) -> SamplePath:
    """Classical fixed-step RK4 for the fluid ODE, on the rate exponents.

    Each step recomputes e from gamma (so nothing drifts), writes the four
    stage exponents into a (4, 2n) buffer E and their rates into a (4, 2n)
    buffer R, and adds (dt/6)(1, 2, 2, 1) R, births minus deaths; every
    intermediate goes into a buffer made once per call.  With A_b = A_d the
    path is constant.  One dot product over all of E guards the step; when
    it fails, each stage is checked in order, and an exponent past the
    bound, or nan, raises RateOverflowError with the first such stage's time
    (t, t + dt/2, t + dt/2 or t + dt) and vertex; no global-existence claim
    is made.  Later stages are formed before earlier ones are checked, so
    the loop runs with numpy's overflow, invalid and underflow reports off:
    an inf or nan stage is never returned, as the check raises first.  The
    buffers change no float operation: the path is bit for bit that of the
    same scheme with a fresh array and a guard per stage, as at 851a78d.
    A grid larger than physical memory raises ValidationError.
    """
    ab, ad = as_square_matrix(birth_matrix), as_square_matrix(death_matrix)
    if ab.shape != ad.shape:
        raise DimensionMismatchError(f"matrix shapes {ab.shape} and {ad.shape} differ")
    stacked, g = np.concatenate([ab, ad]), as_state(ab, gamma0)
    steps, n = step_count(dt, t_end), g.shape[0]
    # the states and the times
    require_memory((steps + 1) * (n + 1) * 8, f"dt={dt} needs {steps} RK4 steps")
    jump = np.concatenate([stacked, -stacked], axis=1)
    half, full = (0.5 * dt) * jump, dt * jump
    weights = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    exponents, rates = np.empty((4, 2 * n)), np.empty((4, 2 * n))
    e1, e2, e3, e4 = exponents
    r1, r2, r3, r4 = rates
    flat = exponents.reshape(-1)
    tmp, w, dg = np.empty(2 * n), np.empty(2 * n), np.empty(n)
    births, deaths = w[:n], w[n:]
    limit = MAX_EXPONENT**2
    states = np.empty((steps + 1, n))
    states[0] = g
    # ndarray.dot, not @, and every out positional: on operands this small
    # numpy's dispatch costs more than the arithmetic
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(steps):
            g = states[k]
            stacked.dot(g, e1)
            np.exp(e1, r1)
            half.dot(r1, tmp)
            np.add(e1, tmp, e2)
            np.exp(e2, r2)
            half.dot(r2, tmp)
            np.add(e1, tmp, e3)
            np.exp(e3, r3)
            full.dot(r3, tmp)
            np.add(e1, tmp, e4)
            np.exp(e4, r4)
            if not flat.dot(flat) <= limit:
                t = k * dt
                _check_stages(exponents, (t, t + 0.5 * dt, t + 0.5 * dt, t + dt))
            weights.dot(rates, w)
            np.subtract(births, deaths, dg)
            np.add(g, dg, states[k + 1])
    return SamplePath(times=np.append(np.arange(steps) * dt, t_end), states=states)
