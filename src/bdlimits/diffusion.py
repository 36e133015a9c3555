"""The linear additive-noise limit SDE du = A u dt + sqrt(2) dW.

A is the net interaction matrix A_b - A_d.  The module provides an
Euler-Maruyama ensemble, the exact Gaussian transition law (mean and
covariance from one block matrix exponential), and the stationary Gaussian
law for Hurwitz A (a Lyapunov solve).  The Euler-Maruyama recursion
x_{k+1} = B x_k + sqrt(2 dt) z_k, B = I + dt A, is linear in Gaussian
noise, so its terminal law after K steps is Gaussian with mean B^K u0 and
covariance C_K = 2 dt sum_{j<K} B^j (B^j)'; the ensemble takes both by
binary powering in O(d^3 log K) and draws one normal vector per path.
When the diagonal of A is negative the components are interacting
Ornstein-Uhlenbeck processes with unit-variance-rate noise.  scipy.linalg
is imported inside stationary_gaussian; exact_transition reaches scipy
only through spectral.matrix_exp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHurwitzError,
    NumericError,
    ValidationError,
    real_array,
    require_integer,
    require_memory,
    require_real,
    seeded_rng,
)
from .paths import DEFAULT_DT, step_count
from .spectral import as_square_matrix, as_state, is_hurwitz, matrix_exp


def euler_maruyama_terminal(
    a,
    u0,
    dt: float = DEFAULT_DT,
    t_end: float = 1.0,
    n_paths: int = 1000,
    seed=None,
) -> np.ndarray:
    """Terminal states of n_paths independent Euler-Maruyama paths, (N, d).

    One step is x_{k+1} = B x_k + sqrt(2 dt) z_k with B = I + dt A, so K
    steps give x_K ~ N(B^K u0, C_K), C_K = 2 dt sum_{j<K} B^j (B^j)'.  The
    pair (B^n, C_n) is taken by binary powering of (B, 2 dt I), with
    C_{m+n} = C_n + B^n C_m (B^n)', in about log2 K steps of a few d x d
    products.  The rows are mean + Z L' with L = cholesky(C_K) and
    Z = seeded_rng(seed).standard_normal((N, d)): the law of K per-step
    updates, exactly, from N * d normals.  A mean or C_K past the float
    range (a growing B) or a C_K that Cholesky refuses raises NumericError.
    N * d normals and terminal values past physical memory raise
    ValidationError before anything is allocated, and so does a seed that
    numpy.random.default_rng rejects.
    """
    m = as_square_matrix(a)
    u = as_state(m, u0)
    steps = step_count(dt, t_end)
    if require_integer("n_paths", n_paths) < 1:
        raise ValidationError("n_paths must be positive")
    d = m.shape[0]
    require_memory(
        16 * n_paths * d, f"normals and terminal states of {n_paths} paths in {d} dimensions"
    )
    rng = seeded_rng(seed)
    # (power, cov) = (B^n, C_n) at n = 2^i while bit i of steps is read, and
    # (pk, ck) = (B^k, C_k) for k the bits of steps below i
    power, cov = np.eye(d) + dt * m, 2.0 * dt * np.eye(d)
    pk, ck = np.eye(d), np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        while steps:
            if steps & 1:
                ck = ck + pk @ cov @ pk.T
                pk = pk @ power
            cov = cov + power @ cov @ power.T
            power = power @ power
            steps >>= 1
        mean = pk @ u
    if not (np.isfinite(mean).all() and np.isfinite(ck).all()):
        raise NumericError(f"Euler-Maruyama law overflows at t_end={t_end}, dt={dt}")
    try:
        chol = np.linalg.cholesky(0.5 * (ck + ck.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Euler-Maruyama covariance at t_end={t_end}, dt={dt} is not positive definite"
        ) from exc
    out = rng.standard_normal((n_paths, d)) @ chol.T
    out += mean
    return out


def exact_transition(a, u0, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian law of u(t): mean e^{At} u0 and covariance
    C(t) = 2 * integral_0^t e^{As} e^{A's} ds.

    Van Loan's block exponential exp([[-A, 2I], [0, A']] s) holds e^{A's}
    in its lower right block and e^{-As} C(s) in its upper right one.  It is
    taken at s = t / 2^k, with k the smallest count giving ||A||_1 s <= 1,
    and doubled k times by C(2s) = C(s) + e^{As} C(s) e^{A's}: the block
    exponential taken at large t itself loses the covariance to the
    e^{-At} growth of its upper left block.  The covariance is linear in
    the block's noise entry 2I s, which passes 2I only where ||A||_1 < 1 and
    t > 1; there the block holds 2I and the covariance is scaled by s after
    the doublings, so it overflows only where the law does.  Counting that
    entry in k instead would take e^{As} at an s where it rounds to I.
    """
    m = as_square_matrix(a)
    u = as_state(m, u0)
    if require_real("t", t) < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")
    d = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max(initial=0.0))
    # log2(||A||_1 t) as a sum of logs, finite where the product overflows
    doublings = max(0, math.ceil(math.log2(norm) + math.log2(t))) if norm and t else 0
    s = math.ldexp(t, -doublings)
    block = np.block([[-m * s, 2.0 * min(s, 1.0) * np.eye(d)], [np.zeros((d, d)), m.T * s]])
    f = matrix_exp(block)
    e = f[d:, d:].T
    cov = e @ f[:d, d:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(doublings):
            cov = cov + e @ cov @ e.T
            e = e @ e
        mean = e @ u
        cov = max(s, 1.0) * cov
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericError(f"transition law overflows at t={t}")
    return mean, 0.5 * (cov + cov.T)


def stationary_gaussian(a) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean stationary Gaussian law of the SDE for Hurwitz A.

    The covariance solves A S + S A' = -2I (Bartels-Stewart); for symmetric
    A it equals (-A)^{-1}.
    """
    import scipy.linalg

    m = as_square_matrix(a)
    if not is_hurwitz(m):
        raise NotHurwitzError(
            "A has an eigenvalue with nonnegative real part; the limit "
            "diffusion has no stationary law"
        )
    d = m.shape[0]
    cov = scipy.linalg.solve_continuous_lyapunov(m, -2.0 * np.eye(d))
    cov = 0.5 * (cov + cov.T)
    return np.zeros(d), cov


def lyapunov_residual(a, cov) -> float:
    """Max-norm of A S + S A' + 2I (S shaped like A); 0 for the stationary covariance."""
    m = as_square_matrix(a)
    s = real_array("cov", cov)
    if s.shape != m.shape:
        raise DimensionMismatchError(f"covariance shape {s.shape} does not match {m.shape}")
    return float(np.abs(m @ s + s @ m.T + 2.0 * np.eye(m.shape[0])).max())
