"""The linear additive-noise limit SDE du = A u dt + sqrt(2) dW.

A is the net interaction matrix A_b - A_d.  The module provides the drift,
an Euler-Maruyama ensemble, the exact Gaussian transition law (mean and
covariance from one block matrix exponential), and the stationary Gaussian
law for Hurwitz A (a Lyapunov solve).  The ensemble runs the linear
recursion x_{k+1} = x_k B + sqrt(2 dt) z_k, B = I + dt A', in groups of
64 paths, each with its own normal stream, run on the usable CPUs, and in
blocks of up to 64 steps: one normal draw, one batched product of each
step's normals with its weight, and a sum over the steps per block, on two
buffers of at most 2^16 normals per group that last the whole group.  Each
group draws the same normals in the same order as a per-step loop on its
stream and equals it up to rounding.  When the diagonal of A is negative
the components are interacting Ornstein-Uhlenbeck processes with
unit-variance-rate noise.  scipy.linalg is imported inside
stationary_gaussian; exact_transition reaches scipy only through
spectral.matrix_exp.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    NotHurwitzError,
    NumericError,
    ValidationError,
    real_array,
    require_integer,
    require_memory,
    require_real,
    seeded_rng,
    thread_map,
)
from .paths import DEFAULT_DT, step_count
from .spectral import as_square_matrix, as_state, is_hurwitz, is_symmetric, matrix_exp

# Euler-Maruyama steps per block, the most normals one block may hold, and
# the paths of one group, which draws from its own stream
_EM_BLOCK = 64
_EM_BLOCK_VALUES = 2**16
_EM_GROUP = 64

# bytes a group's spawned generator holds, with its slots in the group
# list: 1 079 in RSS over 200 000 spawned in one rng.spawn
_EM_GROUP_BYTES = 1080


def drift(a, u) -> np.ndarray:
    """A u; componentwise this is b(x, u) - d(x, u) for the source matrices."""
    m = as_square_matrix(a)
    return m @ as_state(m, u)


def euler_maruyama_terminal(
    a,
    u0,
    dt: float = DEFAULT_DT,
    t_end: float = 1.0,
    n_paths: int = 1000,
    seed=None,
) -> np.ndarray:
    """Terminal states of n_paths independent Euler-Maruyama paths, (N, d).

    With rows as states, one step is x_{k+1} = x_k B + sqrt(2 dt) z_k with
    B = I + dt A', so K steps are x_{k+K} = x_k B^K + sum_j sqrt(2 dt)
    z_{k+j} B^{K-1-j}.  The paths advance K steps at a time (K = 64, fewer
    when a block of K * N * d normals would pass 2^16 values): one
    standard_normal fills a (K, N, d) buffer, which gives the same normals
    in the same order as K per-step draws.  One batched matmul takes step
    j's (N, d) normals times its (d, d) weight sqrt(2 dt) B^(K-1-j) into a
    second (K, N, d) buffer, and its sum over j is the block's noise, so
    the normals are never copied.  The leftover steps (steps mod K) use the
    leading part of both buffers and the trailing weights.  The result
    equals the per-step recursion up to rounding, not bit for bit.

    The paths run in groups of _EM_GROUP = 64, the last one shorter, and K
    is sized for a group of min(N, 64) paths.  Group 0 draws from the
    seeded generator and group g >= 1 from the (g - 1)-th of its
    rng.spawn(G - 1) children, and the groups' terminal rows are stacked in
    group order.  So the result does not depend on how many CPUs run the
    groups (errors.thread_map), and a call of at most 64 paths draws
    exactly what the one-stream recursion drew before the groups.  Each
    group has its own two buffers, allocated once per group, about 0.2 MB
    at d = 3; at most one group per CPU is in flight.  N * d terminal
    values and the groups' generators, at 1 080 bytes each, past physical
    memory raise ValidationError before anything is allocated, and so does
    a seed that numpy.random.default_rng rejects.
    """
    m = as_square_matrix(a)
    u = as_state(m, u0)
    steps = step_count(dt, t_end)
    if require_integer("n_paths", n_paths) < 1:
        raise ValidationError("n_paths must be positive")
    d = m.shape[0]
    groups = -(-n_paths // _EM_GROUP)
    require_memory(
        8 * n_paths * d + _EM_GROUP_BYTES * groups,
        f"terminal states of {n_paths} paths in {d} dimensions and {groups} generators",
    )
    rng = seeded_rng(seed)
    width = min(n_paths, _EM_GROUP)
    block = min(steps, _EM_BLOCK, max(1, _EM_BLOCK_VALUES // (width * d)))
    # powers[i] = B^i; weights[j] = sqrt(2 dt) B^{block-1-j} for j < block
    powers = np.empty((block + 1, d, d))
    powers[0] = np.eye(d)
    b = powers[0] + dt * m.T
    for i in range(block):
        np.matmul(powers[i], b, out=powers[i + 1])
    weights = np.sqrt(2.0 * dt) * powers[block - 1 :: -1]
    full, tail = divmod(steps, block)
    out = np.empty((n_paths, d))

    def run(group):
        g, group_rng = group
        rows = out[g * _EM_GROUP : (g + 1) * _EM_GROUP]
        n = rows.shape[0]
        states = np.tile(u, (n, 1))
        zbuf = np.empty(block * n * d)
        pbuf = np.empty_like(zbuf)
        for k in chain(repeat(block, full), repeat(tail, 1 if tail else 0)):
            z = zbuf[: k * n * d].reshape(k, n, d)
            prod = pbuf[: k * n * d].reshape(k, n, d)
            group_rng.standard_normal(out=z)
            np.matmul(z, weights[block - k :], out=prod)
            states = states @ powers[k] + prod.sum(axis=0)
        rows[:] = states

    thread_map(run, enumerate([rng, *rng.spawn(groups - 1)]))
    return out


def exact_transition(a, u0, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian law of u(t): mean e^{At} u0 and covariance
    C(t) = 2 * integral_0^t e^{As} e^{A's} ds.

    Van Loan's block exponential exp([[-A, 2I], [0, A']] s) holds e^{A's}
    in its lower right block and e^{-As} C(s) in its upper right one.  It is
    taken at s = t / 2^k, with k the smallest count giving ||A||_1 s <= 1,
    and doubled k times by C(2s) = C(s) + e^{As} C(s) e^{A's}: the block
    exponential taken at large t itself loses the covariance to the
    e^{-At} growth of its upper left block.
    """
    m = as_square_matrix(a)
    u = as_state(m, u0)
    if require_real("t", t) < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")
    d = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max(initial=0.0))
    # log2(||A||_1 t) as a sum of logs, finite where the product overflows
    doublings = max(0, math.ceil(math.log2(norm) + math.log2(t))) if norm and t else 0
    block = np.block([[-m, 2.0 * np.eye(d)], [np.zeros((d, d)), m.T]])
    f = matrix_exp(block, math.ldexp(t, -doublings))
    e = f[d:, d:].T
    cov = e @ f[:d, d:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(doublings):
            cov = cov + e @ cov @ e.T
            e = e @ e
        mean = e @ u
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


def stationary_log_density_unnormalized(a, u) -> float:
    """(1/2)(A u, u): log of the invariant density up to a constant.

    Requires symmetric A; its gradient A u is exactly the drift, which is
    the Langevin/gradient-flow form of the SDE.
    """
    m = as_square_matrix(a)
    v = as_state(m, u)
    if not is_symmetric(m):
        raise AsymmetricMatrixError("log-density form requires symmetric A")
    return 0.5 * float(v @ (m @ v))
