import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import bdlimits as bd


def noise_free_euler(a, u0, dt, t_end):
    """Explicit Euler for du/dt = A u at t_end.  The scheme is linear in its
    start, so two runs on one seed, from u0 and from 0, differ by the
    noise-free iterate, up to rounding."""
    def run(start):
        return bd.euler_maruyama_terminal(a, start, dt=dt, t_end=t_end, n_paths=1, seed=0)

    return (run(u0) - run(np.zeros_like(u0)))[0]


def test_noise_free_euler_is_exponential_decay():
    term = noise_free_euler(-np.eye(1), np.array([1.0]), dt=1e-3, t_end=2.0)
    assert term[0] == pytest.approx(np.exp(-2.0), abs=5e-3)


def test_noise_free_euler_error_halves_with_dt():
    exact = np.exp(-1.0)
    errs = []
    for dt in (1e-2, 5e-3):
        term = noise_free_euler(-np.eye(1), np.array([1.0]), dt=dt, t_end=1.0)[0]
        errs.append(abs(term - exact))
    ratio = errs[1] / errs[0]
    assert 0.3 < ratio < 0.7


def test_zero_drift_variance_is_brownian():
    # du = sqrt(2) dW so Var(u(1)) = 2
    term = bd.euler_maruyama_terminal(
        np.zeros((1, 1)), [0.0], dt=1e-3, t_end=1.0, n_paths=4000, seed=11
    )
    var = term.var(ddof=1)
    se = var * np.sqrt(2.0 / (len(term) - 1))
    assert abs(var - 2.0) < 4 * se


def test_exact_transition_at_zero_time():
    mean, cov = bd.exact_transition(np.array([[-1.0, 0.5], [0.5, -1.0]]), [1.0, 2.0], 0.0)
    assert np.array_equal(mean, [1.0, 2.0])
    assert np.array_equal(cov, np.zeros((2, 2)))


def test_exact_transition_scalar_ou():
    a = np.array([[-1.0]])
    mean, cov = bd.exact_transition(a, [1.0], 1.0)
    assert mean[0] == pytest.approx(np.exp(-1.0), abs=1e-10)
    assert cov[0, 0] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-8)
    _, cov_long = bd.exact_transition(a, [1.0], 30.0)
    assert cov_long[0, 0] == pytest.approx(1.0, abs=1e-7)
    # one block exponential taken at t = 1000 overflows to nan
    _, cov_1000 = bd.exact_transition(a, [1.0], 1000.0)
    assert np.isfinite(cov_1000).all()
    assert cov_1000[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_exact_transition_pure_brownian():
    mean, cov = bd.exact_transition(np.zeros((2, 2)), [3.0, -1.0], 1.0)
    assert np.allclose(mean, [3.0, -1.0])
    assert np.allclose(cov, 2.0 * np.eye(2), atol=1e-9)


def test_exact_transition_overflow_is_a_numeric_error():
    # e^{1000 t} passes the float range; the law is refused, not returned as inf
    with pytest.raises(bd.NumericError, match="transition law overflows at t=10.0"):
        bd.exact_transition([[1000.0]], [1.0], 10.0)
    # and at a horizon where ||A||_1 t passes the float range
    with pytest.raises(bd.NumericError, match="transition law overflows at t=1e"):
        bd.exact_transition([[0.5]], [0.0], 1e308)


def test_exact_transition_at_a_tiny_drift_and_a_huge_horizon():
    # ||A||_1 t = 1 takes no doubling; the block's noise entry 2t = 2e300 is
    # held at 2 and the covariance scaled by t after, so the law is finite
    a, t = 1e-300, 1e300
    mean, cov = bd.exact_transition([[a]], [1.0], t)
    assert mean[0] == pytest.approx(math.exp(a * t), rel=1e-12)
    assert cov[0, 0] == pytest.approx(math.expm1(2.0 * a * t) / a, rel=1e-12)


def test_exact_transition_of_zero_drift_is_brownian_up_to_the_float_range():
    mean, cov = bd.exact_transition(np.zeros((2, 2)), [3.0, -1.0], 1e300)
    assert np.array_equal(mean, [3.0, -1.0])
    assert np.allclose(cov, 2e300 * np.eye(2), rtol=1e-12, atol=0.0)
    # 2t passes the float range: refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bd.NumericError, match="transition law overflows at t=1e"):
            bd.exact_transition(np.zeros((1, 1)), [1.0], 1e308)


@pytest.mark.parametrize(
    "a", [[[-1.0]], [[-2.0]], [[-2.0, 1.0], [1.0, -2.0]], [[-1.0, 0.3], [0.2, -0.7]]]
)
def test_exact_transition_at_the_largest_horizons_is_the_stationary_law(a):
    # ||A||_1 t passes 2^1024 for every a here; the doublings are counted
    # from log2 ||A||_1 + log2 t, so the product never has to fit a float
    _, stat = bd.stationary_gaussian(a)
    for t in (1e308, np.finfo(float).max):
        mean, cov = bd.exact_transition(a, np.ones(len(a)), t)
        assert np.array_equal(mean, np.zeros(len(a)))
        assert np.abs(cov - stat).max() <= 1e-15 * np.abs(stat).max()


def test_exact_transition_covariance_symmetric_psd():
    rng = np.random.default_rng(5)
    for _ in range(4):
        a = rng.normal(scale=0.6, size=(3, 3))
        _, cov = bd.exact_transition(a, rng.normal(size=3), 0.8)
        assert np.abs(cov - cov.T).max() < 1e-12
        assert bd.eigen_sym(cov).min() >= -1e-10


def test_exact_transition_converges_to_stationary():
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    _, stat = bd.stationary_gaussian(a)
    horizon = 50.0 / 1.0  # slowest eigenvalue of a is -1
    _, cov = bd.exact_transition(a, [0.3, -0.4], horizon)
    rel = np.linalg.norm(cov - stat) / np.linalg.norm(stat)
    assert rel < 1e-6


def test_exact_transition_matches_stationary_oracle():
    # for Hurwitz A, C(t) = S - e^{At} S e^{A't} with S the stationary covariance
    rng = np.random.default_rng(31)
    drifts = [np.array([[-2.0, 1.0], [1.0, -2.0]])]
    for d in (3, 20):
        b = rng.normal(size=(d, d))
        drifts.append(b - (np.linalg.eigvals(b).real.max() + 0.5) * np.eye(d))
    for a in drifts:
        _, stat = bd.stationary_gaussian(a)
        for t in (0.3, 5.0, 50.0, 200.0):
            _, cov = bd.exact_transition(a, np.zeros(a.shape[0]), t)
            e = scipy.linalg.expm(a * t)
            ref = stat - e @ stat @ e.T
            assert np.abs(cov - ref).max() <= 1e-12 * np.abs(ref).max()


def test_stationary_gaussian_symmetric_cases():
    mean, cov = bd.stationary_gaussian(-np.eye(3))
    assert np.array_equal(mean, np.zeros(3))
    assert np.allclose(cov, np.eye(3), atol=1e-12)
    _, cov2 = bd.stationary_gaussian(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert np.allclose(cov2, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12)


def test_stationary_gaussian_not_hurwitz():
    with pytest.raises(bd.NotHurwitzError):
        bd.stationary_gaussian(np.array([[1.0]]))


def test_stationary_gaussian_general_hurwitz_lyapunov():
    a = np.array([[-1.0, 0.8], [-0.3, -1.5]])  # not symmetric, Hurwitz
    assert bd.is_hurwitz(a)
    _, cov = bd.stationary_gaussian(a)
    assert bd.lyapunov_residual(a, cov) < 1e-9
    assert np.abs(cov - cov.T).max() < 1e-12


def test_lyapunov_residual_for_symmetric_closed_form():
    a = bd.alpha_beta_matrix(bd.path_graph(3), -2.0, 0.5)
    _, cov = bd.stationary_gaussian(a)
    assert bd.lyapunov_residual(a, cov) < 1e-9


@pytest.mark.parametrize("cov", [[[1.0, 2.0], [3.0, 4.0]], 1.0], ids=["2x2", "scalar"])
def test_lyapunov_residual_refuses_a_covariance_of_another_shape(cov):
    with pytest.raises(bd.DimensionMismatchError, match="covariance shape"):
        bd.lyapunov_residual([[-1.0]], cov)


def test_euler_maruyama_matches_exact_transition():
    a = np.array([[-1.0, 0.4], [0.4, -1.0]])
    u0 = np.array([1.0, -0.5])
    t = 1.0
    mean, cov = bd.exact_transition(a, u0, t)
    term = bd.euler_maruyama_terminal(a, u0, dt=1e-3, t_end=t, n_paths=3000, seed=21)
    n = term.shape[0]
    emp_mean = term.mean(axis=0)
    emp_cov = np.cov(term, rowvar=False, ddof=1)
    se_mean = term.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(emp_mean - mean) < 4 * se_mean)
    for i in range(2):
        for j in range(i, 2):
            se = np.sqrt((emp_cov[i, i] * emp_cov[j, j] + emp_cov[i, j] ** 2) / (n - 1))
            assert abs(emp_cov[i, j] - cov[i, j]) < 4 * se


def per_step_law(a, u0, dt, steps):
    """Mean and covariance of the Euler-Maruyama recursion one step at a
    time: m_{k+1} = B m_k and C_{k+1} = B C_k B' + 2 dt I, B = I + dt A."""
    m = np.asarray(a, dtype=float)
    b = np.eye(len(m)) + dt * m
    mean, cov = np.asarray(u0, dtype=float), np.zeros_like(m)
    for _ in range(steps):
        mean, cov = b @ mean, b @ cov @ b.T + 2.0 * dt * np.eye(len(m))
    return mean, cov


_NON_SYMMETRIC = np.array([[-1.0, 0.7, 0.0], [-0.3, -2.0, 0.5], [0.2, 0.0, -0.5]])
_WIDE = -2.0 * np.eye(12) + 0.3 * np.random.default_rng(4).standard_normal((12, 12))
_D20 = -2.0 * np.eye(20) + 0.1 * np.random.default_rng(5).standard_normal((20, 20))
_D513 = -2.0 * np.eye(513) + 0.01 * np.random.default_rng(6).standard_normal((513, 513))


@pytest.mark.parametrize(
    "a, u0, steps, n_paths",
    [
        ([[-1.0]], [0.5], 100, 7),
        ([[0.3]], [-2.0], 64, 1),
        (_NON_SYMMETRIC, [1.0, -0.5, 2.0], 150, 1),
        (_NON_SYMMETRIC, [1.0, -0.5, 2.0], 130, 40),
        (_D20, np.linspace(-1.0, 1.0, 20), 120, 100),
        (_D513, np.linspace(-1.0, 1.0, 513), 3, 70),
        (_WIDE, np.linspace(-1.0, 1.0, 12), 150, 50),
    ],
    ids=[
        "d1",
        "d1-growing-power-of-two-steps",
        "d3-one-path",
        "d3",
        "d20",
        "d513",
        "d12",
    ],
)
def test_euler_maruyama_draws_the_per_step_law(a, u0, steps, n_paths):
    dt = 1e-2
    seed = 17
    d = len(u0)

    def run(start, n):
        return bd.euler_maruyama_terminal(a, start, dt=dt, t_end=steps * dt, n_paths=n, seed=seed)

    mean, cov = per_step_law(a, u0, dt, steps)
    shift = run(u0, n_paths) - run(np.zeros(d), n_paths)
    assert shift.shape == (n_paths, d)
    assert np.abs(shift - mean).max() <= 1e-12 * np.abs(mean).max()
    # the rows from 0 are Z L' with Z the seed's (n, d) standard normals and
    # L L' the covariance; 4 d rows keep Z well conditioned
    n = max(n_paths, 4 * d)
    z = np.random.default_rng(seed).standard_normal((n, d))
    root = np.linalg.lstsq(z, run(np.zeros(d), n), rcond=None)[0]
    assert np.abs(root.T @ root - cov).max() <= 1e-12 * np.abs(cov).max()


def test_euler_maruyama_takes_10_to_the_15_steps_in_about_50_products():
    start = time.perf_counter()
    out = bd.euler_maruyama_terminal([[-1.0]], [0.0], dt=1e-9, t_end=1e6, n_paths=3, seed=0)
    assert time.perf_counter() - start < 0.5
    # the law is the recursion's stationary one, variance 1 / (1 - dt / 2);
    # B = 1 - 1e-9 holds dt to about 1e-7
    z = np.random.default_rng(0).standard_normal((3, 1))
    assert np.isfinite(out).all()
    assert np.abs(out / z - 1.0).max() < 1e-6


def test_euler_maruyama_growth_past_the_float_range_is_a_numeric_error():
    # B^K = 1.001^(10^7) passes the float range: refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bd.NumericError, match="law overflows at t_end=10000.0"):
            bd.euler_maruyama_terminal([[1.0]], [0.0], dt=1e-3, t_end=1e4, n_paths=3, seed=0)


def test_euler_maruyama_refused_cholesky_is_a_numeric_error(monkeypatch):
    def refuse(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(bd.NumericError, match="not positive definite") as raised:
        bd.euler_maruyama_terminal([[-1.0]], [0.0], dt=0.1, t_end=1.0, n_paths=3, seed=0)
    assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)


def test_euler_maruyama_peak_is_its_two_path_arrays():
    n_paths, d = 300, 3
    a = bd.alpha_beta_matrix(bd.path_graph(d), -2.0, 0.5)
    # warm up numpy's lazy state (np.random, the BLAS) outside the trace
    bd.euler_maruyama_terminal(a, np.zeros(d), dt=1e-3, t_end=0.2, n_paths=n_paths, seed=1)
    tracemalloc.start()
    try:
        bd.euler_maruyama_terminal(a, np.zeros(d), dt=1e-3, t_end=5.0, n_paths=n_paths, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (N, d) normals and the (N, d) terminal states; the d x d powers
    # and the generator took about 3.5 KiB more, so 8 KiB is the slack
    state_bytes = 8 * n_paths * d
    assert peak <= 2 * state_bytes + 8 * 1024


def test_euler_maruyama_refuses_paths_past_memory_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(bd.ValidationError, match="past physical memory"):
            bd.euler_maruyama_terminal([[-1.0]], [0.0], n_paths=10**12, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_pd_verdict_consistent_with_stationary_gaussian():
    g = bd.cycle_graph(3)
    report = bd.classify_pd(g, -3.0, 1.0)
    assert report.positive_definite
    bd.stationary_gaussian(bd.alpha_beta_matrix(g, -3.0, 1.0))  # must not raise
    report2 = bd.classify_pd(g, -2.0, 1.0)  # boundary: min eigenvalue 0
    assert not report2.positive_definite
    with pytest.raises(bd.NotHurwitzError):
        bd.stationary_gaussian(bd.alpha_beta_matrix(g, -2.0, 1.0))


def test_matrix_exp_agrees_with_scipy():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = rng.normal(scale=0.8, size=(4, 4))
        t = float(rng.uniform(0.1, 3.0))
        ours = bd.matrix_exp(m, t)
        ref = scipy.linalg.expm(m * t)
        assert np.abs(ours - ref).max() / max(np.abs(ref).max(), 1.0) < 1e-10


_NAN_A = np.array([[-1.0, np.nan], [np.nan, -1.0]])
_INF_A = np.array([[-np.inf, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: bd.eigen_sym(_NAN_A),
        lambda: bd.eigen_sym(_INF_A),
        lambda: bd.matrix_exp(_NAN_A),
        lambda: bd.matrix_exp(_INF_A),
        lambda: bd.matrix_exp(-np.eye(2), np.nan),
        lambda: bd.is_hurwitz(_NAN_A),
        lambda: bd.is_hurwitz(_INF_A),
        lambda: bd.exact_transition(_NAN_A, [1.0, 0.0], 1.0),
        lambda: bd.exact_transition(_INF_A, [1.0, 0.0], 1.0),
        lambda: bd.exact_transition(-np.eye(2), [1.0, 0.0], np.nan),
        lambda: bd.exact_transition(-np.eye(2), [1.0, 0.0], np.inf),
        lambda: bd.exact_transition(-np.eye(2), [np.nan, 0.0], 1.0),
        lambda: bd.stationary_gaussian(_NAN_A),
        lambda: bd.stationary_gaussian(_INF_A),
        lambda: bd.euler_maruyama_terminal(-np.eye(2), [np.inf, 0.0]),
        lambda: bd.euler_maruyama_terminal(-np.eye(2), [1.0, 0.0], t_end=np.inf),
        lambda: bd.euler_maruyama_terminal(-np.eye(2), [1.0, 0.0], t_end=np.nan),
    ],
    ids=[
        "eigen_sym-nan", "eigen_sym-inf", "matrix_exp-nan", "matrix_exp-inf",
        "matrix_exp-t-nan", "is_hurwitz-nan", "is_hurwitz-inf",
        "exact_transition-nan", "exact_transition-inf", "exact_transition-t-nan",
        "exact_transition-t-inf", "exact_transition-u0-nan", "stationary_gaussian-nan",
        "stationary_gaussian-inf", "euler_maruyama_terminal-u0-inf",
        "euler_maruyama_terminal-t_end-inf", "euler_maruyama_terminal-t_end-nan",
    ],
)
def test_non_finite_input_rejected(call):
    with pytest.raises(bd.ValidationError, match="finite"):
        call()


@pytest.mark.parametrize("dt", [0.3, 0.6])
def test_euler_maruyama_rejects_a_step_that_misses_the_horizon(dt):
    with pytest.raises(bd.ValidationError, match=f"dt={dt} does not divide t_end=1.0"):
        bd.euler_maruyama_terminal([[-1.0]], [0.0], dt=dt, t_end=1.0, n_paths=3, seed=0)


@pytest.mark.parametrize("n_paths", [2.5, np.float64(3.0), "3", True, None])
def test_euler_maruyama_terminal_rejects_non_integer_path_counts(n_paths):
    with pytest.raises(bd.ValidationError, match="n_paths must be an integer"):
        bd.euler_maruyama_terminal([[-1.0]], [0.0], n_paths=n_paths)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_euler_maruyama_terminal_rejects_path_counts_below_one(n_paths):
    with pytest.raises(bd.ValidationError, match="n_paths must be positive"):
        bd.euler_maruyama_terminal([[-1.0]], [0.0], n_paths=n_paths)


@pytest.mark.parametrize("seed", [2.5, -1])
def test_euler_maruyama_terminal_rejects_seeds_numpy_rejects(seed):
    with pytest.raises(bd.ValidationError, match="seed"):
        bd.euler_maruyama_terminal([[-1.0]], [0.0], t_end=0.01, n_paths=3, seed=seed)


@pytest.mark.parametrize("n_paths", [3, np.int32(3), np.int64(3)])
def test_euler_maruyama_terminal_takes_python_and_numpy_integers(n_paths):
    out = bd.euler_maruyama_terminal([[-1.0]], [0.0], t_end=0.01, n_paths=n_paths, seed=0)
    assert out.shape == (3, 1)
