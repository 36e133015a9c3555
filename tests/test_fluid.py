import warnings

import numpy as np
import pytest

import bdlimits as bd
from bdlimits.errors import check_exponents


@pytest.mark.parametrize("dt", [0.3, 0.6])
def test_rk4_rejects_a_step_that_misses_the_horizon(dt):
    with pytest.raises(bd.ValidationError, match=f"dt={dt} does not divide t_end=1.0"):
        bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=dt, t_end=1.0)


@pytest.mark.parametrize(
    "integrate",
    [lambda **kw: bd.rk4_integrate([[0.0]], [[1.0]], [0.0], **kw),
     lambda **kw: bd.euler_maruyama_terminal([[-1.0]], [0.0], n_paths=3, seed=0, **kw)],
    ids=["rk4_integrate", "euler_maruyama_terminal"],
)
def test_step_count_past_the_float_range_is_refused(integrate):
    with pytest.raises(bd.ValidationError, match=r"dt=0.001, t_end=1e\+308"):
        integrate(dt=1e-3, t_end=1e308)
    # 10^300 steps: a finite ratio, past any int64 step count
    with pytest.raises(bd.ValidationError, match=r"dt=1e-300, t_end=1.0"):
        integrate(dt=1e-300, t_end=1.0)


def test_rk4_grid_ends_exactly_at_the_horizon():
    # 3 * 0.3 is 0.8999999999999999 in floating point
    path = bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=0.3, t_end=0.9)
    assert path.times[-1] == 0.9
    assert path.at([0.9])[0, 0] == path.terminal[0]


def test_rk4_dimension_checks():
    with pytest.raises(bd.DimensionMismatchError, match="matrix shapes"):
        bd.rk4_integrate(np.zeros((2, 2)), np.zeros((3, 3)), [0.0, 0.0])
    with pytest.raises(bd.DimensionMismatchError):
        bd.rk4_integrate(np.zeros((2, 2)), np.zeros((2, 2)), [0.0, 0.0, 0.0])


def test_constant_path_for_equal_matrices():
    m = np.array([[0.4, -0.1], [-0.1, 0.4]])
    path = bd.rk4_integrate(m, m, [1.0, -2.0], dt=0.01, t_end=3.0)
    assert np.abs(path.states - np.array([1.0, -2.0])).max() == 0.0


def _decay(gamma0, t):
    # gamma' = 1 - e^gamma (A_b = 0, A_d = 1): e^-gamma relaxes to 1 like e^-t
    return -np.log1p((np.exp(-gamma0) - 1.0) * np.exp(-t))


def test_rk4_path_matches_closed_form():
    # a lower-order scheme would be about 1e-5 off at this step
    path = bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=0.01, t_end=1.0)
    assert np.abs(path.states[:, 0] - _decay(1.0, path.times)).max() < 1e-9


def test_single_vertex_decay_toward_fixed_point():
    path = bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=1e-3, t_end=5.0)
    vals = path.states[:, 0]
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] > 0.0
    assert abs(path.terminal[0] - _decay(1.0, 5.0)) < 1e-10


def test_step_halving_shrinks_error_sixteen_fold():
    reference = _decay(1.0, 2.0)
    errs = []
    for dt in (0.1, 0.05):
        errs.append(abs(bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=dt, t_end=2.0).terminal[0] - reference))
    ratio = errs[1] / errs[0]
    assert 1 / 24 < ratio < 1 / 10


def test_fixed_point_stays_fixed():
    # exp((A_b g)_x) = exp((A_d g)_x) at g* = 0 for any matrices
    path = bd.rk4_integrate([[0.2]], [[0.7]], [0.0], dt=1e-2, t_end=10.0)
    assert np.abs(path.states).max() < 1e-10


def test_origin_is_fixed_for_coupled_matrices():
    # every exponent is 0 at the origin, so each stage's rates cancel exactly
    ab = np.array([[0.5, 0.2], [0.2, 0.5]])
    ad = np.array([[-0.3, 0.0], [0.0, -0.3]])
    path = bd.rk4_integrate(ab, ad, [0.0, 0.0], dt=0.1, t_end=2.0)
    assert np.array_equal(path.states, np.zeros((21, 2)))


@pytest.mark.parametrize("gamma0", [-1.5, -0.2, 0.3, 2.0])
def test_path_moves_toward_the_fixed_point_from_either_side(gamma0):
    # gamma' = 1 - e^gamma has the sign of -gamma, so the path is monotone
    # toward 0 and never crosses it; the closed form is met to 7.7e-9 at
    # gamma0 = 2, where the field is steepest, and to 2e-11 elsewhere
    path = bd.rk4_integrate([[0.0]], [[1.0]], [gamma0], dt=1e-2, t_end=3.0)
    vals = path.states[:, 0]
    assert np.all(np.sign(np.diff(vals)) == -np.sign(gamma0))
    assert np.all(np.sign(vals) == np.sign(gamma0))
    assert np.abs(vals - _decay(gamma0, path.times)).max() < 1e-8


def test_overflow_reports_time_and_vertex():
    # explosive field: gamma' = e^gamma, blows past exp range in finite time
    with pytest.raises(bd.RateOverflowError) as exc:
        bd.rk4_integrate([[1.0]], [[0.0]], [5.0], dt=1e-3, t_end=50.0)
    assert (exc.value.vertex, exc.value.time) == (0, 0.0075)


def test_sample_path_validation():
    with pytest.raises(bd.ValidationError):
        bd.SamplePath(times=np.array([0.0, 1.0, 0.5]), states=np.zeros((3, 1)))
    with pytest.raises(bd.ValidationError):
        bd.SamplePath(times=np.array([0.5, 1.0]), states=np.zeros((2, 1)))
    for times, states in (([0.0, 1.0], np.zeros((3, 1))), ([[0.0, 1.0]], np.zeros((2, 1)))):
        with pytest.raises(bd.ValidationError, match="do not line up"):
            bd.SamplePath(times=np.array(times), states=states)
    for times, states, name in (([0.0, 1.0], [[np.nan], [1.0]], "states"),
                                ([0.0, np.inf], [[0.0], [1.0]], "times")):
        with pytest.raises(bd.ValidationError, match=f"non-finite {name}"):
            bd.SamplePath(times=times, states=states)
    path = bd.SamplePath(times=np.array([0.0, 1.0]), states=np.array([[0.0], [2.0]]))
    assert path.at([0.5])[0, 0] == pytest.approx(1.0)
    bad = ([2.0], [-0.5], [np.nan], [0.5, np.nan],
           [[0.1, 0.2], [0.3, 0.4]], [[0.5]], np.zeros((1, 1, 1)))
    for times in bad:
        with pytest.raises(bd.ValidationError, match="sample times"):
            path.at(times)


def test_overflow_on_death_side_reports_its_vertex():
    # gamma_1' = 1 - e^{-gamma_1} runs off to -inf from gamma_1 = -5, so the
    # death exponent -gamma_1 at vertex 1 crosses 700 while every birth
    # exponent stays 0
    ad = np.array([[0.0, 0.0], [0.0, -1.0]])
    with pytest.raises(bd.RateOverflowError) as exc:
        bd.rk4_integrate(np.zeros((2, 2)), ad, [0.0, -5.0], dt=1e-3, t_end=50.0)
    assert (exc.value.vertex, exc.value.time) == (1, 0.0075)
    assert exc.value.exponent > 700


def _stage_four_crossing():
    # gamma_0' = 1 - e^{-10 gamma_0} is about 1, so vertex 1's birth exponent
    # K gamma_0 passes 700 near t = 6.07: after the half-step stages of the
    # step from t = 6.0 (698) and before its full-step stage (703)
    ab = np.array([[0.0, 0.0], [700 / 7.07, 0.0]])
    ad = np.array([[-10.0, 0.0], [0.0, 0.0]])
    return ab, ad, [1.0, 0.0], 10.0


def _births_and_deaths_past_the_bound():
    # vertex 1's birth exponent (1000) and vertex 0's death exponent (2000)
    # both pass 700 at the first stage: the births are checked first
    return [[0.0, 0.0], [0.0, 1000.0]], [[2000.0, 0.0], [0.0, 0.0]], [1.0, 1.0], 1.0


@pytest.mark.parametrize(
    "spec, vertex, time",
    [(lambda: ([[1000.0]], [[0.0]], [1.0], 1.0), 0, 0.0), (_stage_four_crossing, 1, 6.1),
     (_births_and_deaths_past_the_bound, 1, 0.0)],
    ids=["first-stage", "fourth-stage", "births-before-deaths"],
)
def test_overflow_reports_its_stage_time(spec, vertex, time):
    ab, ad, gamma0, t_end = spec()
    with pytest.raises(bd.RateOverflowError) as exc:
        bd.rk4_integrate(ab, ad, gamma0, dt=0.1, t_end=t_end)
    assert exc.value.vertex == vertex
    assert exc.value.time == pytest.approx(time, abs=1e-12)


@pytest.mark.parametrize("t_end", [np.inf, np.nan])
def test_rk4_rejects_non_finite_horizon(t_end):
    with pytest.raises(bd.ValidationError, match="finite"):
        bd.rk4_integrate([[0.0]], [[1.0]], [1.0], t_end=t_end)


@pytest.mark.parametrize(
    "ab, ad, gamma",
    [([[np.nan]], [[0.0]], [1.0]), ([[0.0]], [[0.0]], [np.nan]), ([[np.inf]], [[0.0]], [0.0])],
    ids=["nan-birth", "nan-start", "inf-birth"],
)
def test_non_finite_input_is_rejected(ab, ad, gamma):
    with pytest.raises(bd.ValidationError, match="non-finite"):
        bd.rk4_integrate(ab, ad, gamma)


def _per_stage_rk4(ab, ad, gamma0, dt, steps):
    # the textbook scheme on the state, one field call per stage
    def field(g):
        return np.exp(ab @ g) - np.exp(ad @ g)

    g = np.asarray(gamma0, dtype=float)
    states = [g]
    for _ in range(steps):
        k1 = field(g)
        k2 = field(g + 0.5 * dt * k1)
        k3 = field(g + 0.5 * dt * k2)
        k4 = field(g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(g)
    return np.array(states)


def _cycle10_spec():
    # the benchmark's fluid spec on cycle(10)
    g = bd.cycle_graph(10)
    ab, ad = bd.alpha_beta_matrix(g, 0.0, 0.2), bd.alpha_beta_matrix(g, 1.0, 0.0)
    return ab, ad, np.linspace(-0.5, 0.5, 10)


def _random_spec():
    # dense and non-symmetric, so every exponent couples to every vertex
    rng = np.random.default_rng(4)
    return rng.normal(0.0, 0.4, (4, 4)), rng.normal(0.0, 0.4, (4, 4)), rng.normal(0.0, 0.5, 4)


@pytest.mark.parametrize("spec, dt, t_end", [(_cycle10_spec, 4e-4, 2.0), (_random_spec, 1e-3, 1.0)],
                         ids=["cycle10", "random4"])
def test_exponent_route_matches_per_stage_rk4(spec, dt, t_end):
    ab, ad, gamma0 = spec()
    path = bd.rk4_integrate(ab, ad, gamma0, dt=dt, t_end=t_end)
    reference = _per_stage_rk4(ab, ad, gamma0, dt, round(t_end / dt))
    assert np.abs(path.states - reference).max() < 1e-12
    assert np.abs(path.states[-1] - path.states[0]).max() > 1e-2


def test_exponents_within_bound_with_large_norm_integrate():
    # every exponent is 600, so e.e = 4 * 600^2 fails the dot-product guard,
    # but no single exponent passes 700: the path must go on, and stay put
    m = np.eye(2)
    gamma0 = [600.0, 600.0]
    path = bd.rk4_integrate(m, m, gamma0, dt=0.1, t_end=1.0)
    assert np.array_equal(path.states, np.full((11, 2), 600.0))


def test_check_exponents_raises_on_nan():
    with pytest.raises(bd.RateOverflowError) as exc:
        check_exponents(np.array([1.0, np.nan]))
    assert exc.value.vertex == 1


def test_rk4_refuses_a_grid_past_physical_memory():
    with pytest.raises(bd.ValidationError, match="10000000000000 RK4 steps: .* bytes"):
        bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=1e-13, t_end=1.0)


def _reference_rk4(ab, ad, gamma0, dt, t_end):
    # the step loop of 851a78d, kept verbatim bar its guards (which read the
    # exponents and change no float): each stage's exponents are formed
    # with fresh temporaries, in the order the buffered loop must keep
    stacked = np.concatenate([np.asarray(ab, dtype=float), np.asarray(ad, dtype=float)])
    g = np.asarray(gamma0, dtype=float)
    steps, n = round(t_end / dt), g.shape[0]
    jump = np.concatenate([stacked, -stacked], axis=1)
    half, full = (0.5 * dt) * jump, dt * jump
    weights = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    rates = np.empty((4, 2 * n))
    r1, r2, r3, r4 = rates
    states = np.empty((steps + 1, n))
    states[0] = g
    for k in range(steps):
        e = stacked.dot(g)
        np.exp(e, out=r1)
        s = e + half.dot(r1)
        np.exp(s, out=r2)
        s = e + half.dot(r2)
        np.exp(s, out=r3)
        s = e + full.dot(r3)
        np.exp(s, out=r4)
        w = weights.dot(rates)
        g = g + (w[:n] - w[n:])
        states[k + 1] = g
    return np.append(np.arange(steps) * dt, t_end), states


def _bench_spec(graph):
    # the benchmark's fluid coefficients
    def spec():
        n = graph.num_vertices
        ab, ad = bd.alpha_beta_matrix(graph, 0.0, 0.2), bd.alpha_beta_matrix(graph, 1.0, 0.0)
        return ab, ad, np.linspace(-0.5, 0.5, n)
    return spec


@pytest.mark.parametrize(
    "spec, dt, t_end",
    [(_bench_spec(bd.path_graph(2)), 4e-4, 0.4), (_bench_spec(bd.cycle_graph(10)), 4e-4, 0.4),
     (_bench_spec(bd.cycle_graph(50)), 4e-4, 0.4), (_random_spec, 1e-3, 1.0)],
    ids=["path2", "cycle10", "cycle50", "random4"],
)
def test_rk4_path_is_bit_identical_to_reference_loop(spec, dt, t_end):
    ab, ad, gamma0 = spec()
    path = bd.rk4_integrate(ab, ad, gamma0, dt=dt, t_end=t_end)
    times, states = _reference_rk4(ab, ad, gamma0, dt, t_end)
    assert np.array_equal(path.times, times)
    assert np.array_equal(path.states, states)


def test_guard_overflow_is_a_rate_overflow_under_strict_float_errors():
    # e^699.9 puts the second stage's exponent near 1e303, past 1e154, so the
    # guard's dot product overflows; that must be neither a warning nor a
    # FloatingPointError, but the exponent check's verdict
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(bd.RateOverflowError) as exc:
            bd.rk4_integrate([[1.0]], [[0.0]], [699.9], dt=0.1, t_end=1.0)
    assert (exc.value.vertex, exc.value.time) == (0, 0.05)
