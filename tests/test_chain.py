import math
import sys
import threading
import warnings
from bisect import bisect_left, bisect_right
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd
from bdlimits import chain, errors
from bdlimits.chain import (
    _LOCKSTEP_CHUNK,
    _RNG_BUFFER,
    _UNIFORM_ROWS,
    _WINDOW,
    _rate_blocks,
    _run_replicas,
    _simulate_lockstep,
    _simulate_vector,
    _start,
)
from bdlimits.errors import (
    MAX_EXPONENT,
    BudgetExceededError,
    RateOverflowError,
    SingularSystemError,
    thread_map,
)


def two_state_spec():
    return bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)


def rates_at(spec, spins):
    """(birth, death): the rate of each vertex at one configuration, read
    off _rate_blocks, with 0 where the jump is blocked by the box."""
    birth, death = np.zeros(spec.num_vertices), np.zeros(spec.num_vertices)
    for x, up, up_rate, down, down_rate in _rate_blocks(spec, np.array([spins])):
        birth[x] = up_rate[0] if up.size else 0.0
        death[x] = down_rate[0] if down.size else 0.0
    return birth, death


def test_chain_spec_validation():
    g = bd.path_graph(2)
    with pytest.raises(bd.ValidationError):
        bd.ChainSpec(g, np.zeros((2, 2)), np.zeros((2, 2)), l=-1, r=1)
    with pytest.raises(bd.ValidationError):
        bd.ChainSpec(g, np.zeros((2, 2)), np.zeros((2, 2)), l=0, r=0)
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    with pytest.raises(bd.PatternViolationError):
        bd.ChainSpec(bd.path_graph(3), bad, np.zeros((3, 3)), l=0, r=1)


def test_birth_rate_blocked_at_top():
    spec = two_state_spec()
    birth, death = rates_at(spec, [1])
    assert (birth[0], death[0]) == (0.0, 1.0)
    # the generator row of the top state holds its death jump only
    assert np.array_equal(bd.build_generator(spec).toarray()[1], [1.0, -1.0])


def test_birth_rate_unit_for_zero_matrix():
    spec = two_state_spec()
    birth, death = rates_at(spec, [0])
    assert (birth[0], death[0]) == (1.0, 0.0)
    assert np.array_equal(bd.build_generator(spec).toarray()[0], [-1.0, 1.0])


def test_birth_rate_hand_value():
    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, [[-1.0, 0.5], [0.5, -1.0]], np.zeros((2, 2)), l=0, r=3)
    # exponent -1*1 + 0.5*2 = 0
    assert rates_at(spec, [1, 2])[0][0] == pytest.approx(1.0)


def test_death_rate_blocked_at_bottom():
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=2, r=1)
    birth, death = rates_at(spec, [-2])
    assert (birth[0], death[0]) == (1.0, 0.0)


def test_death_rate_values():
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=3)
    assert rates_at(spec, [2])[1][0] == 1.0
    spec2 = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[1.0]], l=0, r=3)
    assert rates_at(spec2, [2])[1][0] == pytest.approx(math.exp(2.0))


def test_rate_overflow_guard():
    spec = bd.ChainSpec(bd.single_vertex(), [[800.0]], [[0.0]], l=0, r=2)
    with pytest.raises(bd.RateOverflowError) as exc:
        rates_at(spec, [1])
    assert exc.value.vertex == 0
    with pytest.raises(bd.RateOverflowError):
        bd.simulate(spec, [1], 1.0, seed=0)


def test_rate_overflow_guard_on_coupled_path():
    # in the box only the birth exponent of 2 (360 xi_1) and the death
    # exponent of 1 (-350 xi_0) can pass 700, at |xi_1| = 2 or |xi_0| = 3
    g = bd.path_graph(3)
    ab = np.array([[0.0, 300.0, 0.0], [0.0, 0.0, 0.0], [0.0, 360.0, 0.0]])
    ad = np.array([[0.0, 0.0, 0.0], [-350.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    spec = bd.ChainSpec(g, ab, ad, l=3, r=3)
    seen = set()
    for seed in range(5):
        with pytest.raises(bd.RateOverflowError) as exc:
            bd.simulate(spec, [0, 0, 0], 100.0, seed=seed, max_events=10_000)
        seen.add((exc.value.vertex, abs(exc.value.exponent)))
    assert seen == {(2, 720.0), (1, 1050.0)}


def test_rate_overflow_names_first_exponent_of_the_jump():
    # a jump of vertex 1 to +-2 pushes the birth exponents of both 0
    # (400 xi_1) and 2 (500 xi_1) past 700; the error names the first one
    # the jump changed, vertex 0, not the largest
    g = bd.path_graph(3)
    ab = np.zeros((3, 3))
    ab[0, 1], ab[2, 1] = 400.0, 500.0
    spec = bd.ChainSpec(g, ab, np.zeros((3, 3)), l=2, r=2)
    seen = set()
    for seed in range(20):
        with pytest.raises(bd.RateOverflowError) as exc:
            bd.simulate(spec, [0, 1, 0], 100.0, seed=seed, max_events=10_000)
        seen.add((exc.value.vertex, exc.value.exponent))
    assert seen == {(0, 800.0), (0, -800.0)}


def test_configuration_validation():
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=1, r=3)
    assert np.array_equal(spec.validate_configuration([2]), [2])
    with pytest.raises(bd.ValidationError):
        spec.validate_configuration([4])  # above r
    with pytest.raises(bd.ValidationError):
        spec.validate_configuration([-2])  # below -l
    with pytest.raises(bd.ValidationError):
        spec.validate_configuration([0, 0])  # wrong length
    with pytest.raises(bd.ValidationError):
        spec.validate_configuration([0.5])  # not integer
    # checked against the box before the int64 cast, which would wrap 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bd.ValidationError, match=r"\[-1, 3\]: \[1e\+300\]"):
            bd.simulate(spec, [1e300], 1.0, seed=0)
    with pytest.raises(bd.ValidationError):
        bd.simulate(spec, [0], -1.0, seed=0)


@pytest.mark.parametrize("seed", [2.5, -1])
def test_simulate_rejects_seeds_numpy_rejects(seed):
    with pytest.raises(bd.ValidationError, match="seed"):
        bd.simulate(two_state_spec(), [0], 1.0, seed=seed)


def test_simulate_takes_every_seed_form_numpy_takes():
    spec = two_state_spec()
    by_int = bd.simulate(spec, [0], 5.0, seed=7)
    for seed in (np.random.SeedSequence(7), np.int64(7), [7]):
        assert np.array_equal(bd.simulate(spec, [0], 5.0, seed=seed).times, by_int.times)
    assert bd.simulate(spec, [0], 5.0, seed=None).t_end == 5.0


def test_zero_horizon_gives_empty_trajectory():
    spec = two_state_spec()
    traj = bd.simulate(spec, [0], 0.0, seed=1)
    assert traj.num_events == 0
    assert np.array_equal(traj.final_state(), [0])


def test_two_state_occupation_fraction():
    # unit-rate flip chain: stationary law is (1/2, 1/2); the bound is
    # 3 * sqrt(p(1-p)/cycles) with one regeneration cycle every ~2 time units
    spec = two_state_spec()
    t_end = 10_000.0
    traj = bd.simulate(spec, [0], t_end, seed=42)
    holds = np.diff(np.concatenate([[0.0], traj.times, [t_end]]))
    states = np.concatenate([[0], np.cumsum(traj.signs)])
    frac = holds[states == 1].sum() / t_end
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / (t_end / 2.0))


def test_trajectory_times_strictly_increasing_and_in_box():
    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, [[0.2, 0.1], [0.1, 0.2]], [[0.4, 0.0], [0.0, 0.4]], l=2, r=3)
    traj = bd.simulate(spec, [0, 1], 50.0, seed=7)
    assert np.all(np.diff(traj.times) > 0)
    grid = np.linspace(0.0, traj.t_end, 257)
    states = traj.states_at(grid)
    assert states.min() >= -2 and states.max() <= 3
    assert np.array_equal(traj.states_at([traj.t_end])[0], traj.final_state())


@pytest.mark.parametrize("times", [[-0.1], [11.0], [np.nan], [0.5, np.nan]])
def test_states_at_rejects_times_outside_the_path(times):
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=1, r=1)
    traj = bd.simulate(spec, [0], 10.0, seed=3)
    with pytest.raises(bd.ValidationError, match="t_end"):
        traj.states_at(times)


@pytest.mark.parametrize("times", [[[0.1, 0.2], [0.3, 0.4]], [[0.5]], np.zeros((1, 1, 1))])
def test_states_at_refuses_sample_times_of_more_than_one_dimension(times):
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=1, r=1)
    traj = bd.simulate(spec, [0], 10.0, seed=3)
    with pytest.raises(bd.ValidationError, match="sample times"):
        traj.states_at(times)


def test_simulate_deterministic_given_seed():
    g = bd.path_graph(3)
    spec = bd.ChainSpec(
        g, bd.alpha_beta_matrix(g, -0.2, 0.1), np.zeros((3, 3)), l=1, r=2
    )
    a = bd.simulate(spec, [0, 1, 0], 30.0, seed=123)
    b = bd.simulate(spec, [0, 1, 0], 30.0, seed=123)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.signs, b.signs)


def _sequential_finals(spec, start, t_end, seeds):
    rows = []
    for seed in seeds:
        traj = bd.simulate(spec, [start], t_end, seed=seed)
        hits = traj.boundary_hits(spec.l, spec.r)
        rows.append((int(traj.final_state()[0]), traj.num_events, hits))
    return rows


def _seeds(base, count):
    return [np.random.SeedSequence(entropy=(base, 0, rep)) for rep in range(count)]


# (b, d, l, r, start, t_end, replicas): single-vertex specs with A_b = [[b]]
# and A_d = [[d]]
LOCKSTEP_CASES = {
    # one full chunk and a chunk of one
    "chunk-boundary": (0.0, 2.0**-4, 16, 16, 4, 16.0, _LOCKSTEP_CHUNK + 1),
    # multiples of -0.3 and 0.2 are inexact, so rates can differ in the
    # last bit from simulate's accumulated exponents
    "inexact-coefficients": (-0.3, 0.2, 2, 4, 1, 25.0, 40),
    # every event lands on 0 or 1
    "l0-all-hits": (0.0, 0.0, 0, 1, 0, 20.0, 40),
    # about 9000 events per replica, past the 8192-row block
    "refill": (0.0, 2.0**-10, 1024, 1024, 1024, 4200.0, 6),
    # |d| max(l, r) = 800 > 700 turns the guard on; the mean-reverting
    # replicas never reach an unsafe spin
    "guarded-safe": (0.0, 2.0, 400, 400, 0, 50.0, 30),
    # two wells: replicas that settle near r = 64 jump about ten times as
    # often as those near -64, so they stop after 300 to 2 700 events, in
    # four or more of the 512-row uniform sub-blocks
    "uniform-ring": (2.0**-5, 2.0**-7, 64, 64, 0, 800.0, 20),
    # the birth share 1 / (1 + e^(-1.1 v)) runs from 0.1 at v = -2 to 0.99 at
    # v = 4, so a window's jumps guessed at its start spin are often wrong
    "steep": (0.7, -0.4, 3, 5, 0, 60.0, 50),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
@pytest.mark.parametrize("base", [0, 1, 2])
def test_lockstep_matches_sequential_simulate(case, base):
    b, d, l, r, start, t_end, replicas = LOCKSTEP_CASES[case]
    spec = bd.ChainSpec(bd.single_vertex(), [[b]], [[d]], l=l, r=r)
    seeds = _seeds(base, replicas)
    finals, events, hits = _simulate_lockstep(spec, np.array([start]), t_end, seeds)
    expected = _sequential_finals(spec, start, t_end, seeds)
    assert list(zip(finals.tolist(), events.tolist(), hits.tolist())) == expected
    if case == "l0-all-hits":
        assert np.array_equal(hits, events)
    if case == "refill":
        assert events.min() > 8192
    if case == "uniform-ring":
        assert len(set((events // _UNIFORM_ROWS).tolist())) >= 4


@pytest.mark.parametrize("row", [_WINDOW - 1, _WINDOW, _UNIFORM_ROWS - 1, _UNIFORM_ROWS])
def test_lockstep_stops_on_window_and_ring_edges(row):
    # t_end sits halfway between replica 0's own events row - 1 and row
    # (counting from 0), so it takes exactly row events and stops on the
    # last row of a window or uniform sub-block, or on the first of the next
    b, d, l, r, start, _, _ = LOCKSTEP_CASES["chunk-boundary"]
    spec = bd.ChainSpec(bd.single_vertex(), [[b]], [[d]], l=l, r=r)
    seeds = _seeds(9, 10)
    times = bd.simulate(spec, [start], 1000.0, seed=seeds[0]).times
    t_end = (times[row - 1] + times[row]) / 2
    finals, events, hits = _simulate_lockstep(spec, np.array([start]), t_end, seeds)
    expected = _sequential_finals(spec, start, t_end, seeds)
    assert list(zip(finals.tolist(), events.tolist(), hits.tolist())) == expected
    assert events[0] == row


def test_lockstep_raises_the_earlier_of_budget_and_overflow_in_one_window():
    # the birth exponent 17.5625 * 40 = 702.5 passes 700 at r = 40 only.
    # A budget of m events raises BudgetExceededError on event m, and the
    # landing on r raises RateOverflowError on its own event u, before the
    # budget check of that event; so m < u raises the budget and m >= u the
    # overflow.  Both routes must agree for a budget crossing before the
    # landing, on its event and after it, all in the landing's window.
    spec = bd.ChainSpec(bd.single_vertex(), [[17.5625]], [[17.5]], l=0, r=40)
    seeds = _seeds(0, 1)
    xi0 = np.array([0])

    def sequential(budget):
        try:
            _run_replicas(spec, xi0, 50.0, seeds, budget, bd.Trajectory.final_state)
        except bd.NumericError as exc:
            return type(exc), getattr(exc, "vertex", None), getattr(exc, "exponent", None)
        return None

    landed = lambda m: sequential(m)[0] is RateOverflowError  # noqa: E731
    u = 1 + bisect_left(range(1, 10_000), True, key=landed)
    first = (u - 1) // _WINDOW * _WINDOW
    assert first > 0 and first < u - 1
    orders = {}
    for budget in (u - 1, u, first + _WINDOW):
        expected = sequential(budget)
        got = None
        try:
            _simulate_lockstep(spec, xi0, 50.0, seeds, budget)
        except bd.NumericError as exc:
            got = type(exc), getattr(exc, "vertex", None), getattr(exc, "exponent", None)
        assert got == expected, budget
        orders[budget] = expected
    assert orders[u - 1] == (BudgetExceededError, None, None)
    assert orders[u] == orders[first + _WINDOW] == (RateOverflowError, 0, 702.5)


def _lockstep_prediction(runs, budget, chunk):
    """The error the lockstep must raise, or None, from each replica's
    sequential run (events, RateOverflowError or None).  A chunk steps its
    replicas row by row: on row i every replica with more than i events
    takes one, and the earliest row whose step lands on an unsafe spin
    (the first such replica) or brings the running total to what is left
    of the budget decides, the landing first."""
    left = budget
    for first in range(0, len(runs), chunk):
        part = runs[first:first + chunk]
        rows = max(events for events, _ in part)
        running = np.cumsum([sum(events > i for events, _ in part) for i in range(rows)])
        crossed = np.flatnonzero(running >= left)
        landings = [(events - 1, j) for j, (events, exc) in enumerate(part) if exc]
        if landings and (not crossed.size or min(landings)[0] <= crossed[0]):
            return part[min(landings)[1]][1]
        if crossed.size:
            return BudgetExceededError
        left -= int(running[-1]) if rows else 0
    return None


def _sequential_run(spec, start, t_end, seed, cap):
    """(events, RateOverflowError or None) of simulate on one seed with at
    most cap events; a path that reaches cap events reports cap."""
    def run(m):
        try:
            return bd.simulate(spec, [start], t_end, seed=seed, max_events=m).num_events
        except (BudgetExceededError, RateOverflowError) as exc:
            return exc

    first = run(cap)
    if isinstance(first, BudgetExceededError):
        return cap, None
    if isinstance(first, RateOverflowError):
        # a budget below the landing's event raises first, one at it does not
        landed = lambda m: isinstance(run(m), RateOverflowError)  # noqa: E731
        return 1 + bisect_left(range(1, cap + 1), True, key=landed), first
    return first, None


# dyadic coefficients, whose multiples by a spin are exact, so the
# lockstep's rate tables equal simulate's running exponents: small ones,
# and the multiples of 1/16 just past 700 / v for v = 1..8, whose exponent
# first passes 700 at spin v or -v
_UNSAFE_AT = [math.ldexp(math.floor(math.ldexp(700.0 / v, 4)) + 1, -4) for v in range(1, 9)]
_COEFFICIENTS = st.one_of(
    st.builds(math.ldexp, st.integers(-40, 40), st.integers(-6, 2)),
    st.sampled_from(_UNSAFE_AT + [-c for c in _UNSAFE_AT]),
)


@st.composite
def _lockstep_draws(draw):
    l, r = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    return dict(
        b=draw(_COEFFICIENTS),
        d=draw(_COEFFICIENTS),
        l=l,
        r=r,
        start=draw(st.integers(-l, r)),
        t_end=draw(st.floats(0.0, 40.0)),
        replicas=draw(st.integers(1, 12)),
        budget=draw(st.integers(0, 3_000)),
        # a chunk of 3 puts chunk boundaries, and the budget left after
        # each chunk, inside a dozen replicas
        chunk=draw(st.sampled_from([3, _LOCKSTEP_CHUNK])),
        base=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=100, deadline=None)
@given(_lockstep_draws())
def test_lockstep_matches_per_seed_simulate_on_random_specs(draw):
    spec = bd.ChainSpec(
        bd.single_vertex(), [[draw["b"]]], [[draw["d"]]], l=draw["l"], r=draw["r"]
    )
    start, t_end, budget = draw["start"], draw["t_end"], draw["budget"]
    seeds = _seeds(draw["base"], draw["replicas"])
    xi0 = np.array([start])
    try:
        _start(spec, xi0, t_end)
    except RateOverflowError as exc:
        expected = exc
    else:
        runs = [_sequential_run(spec, start, t_end, seed, max(budget, 1)) for seed in seeds]
        expected = _lockstep_prediction(runs, budget, draw["chunk"])
    with mock.patch.object(chain, "_LOCKSTEP_CHUNK", draw["chunk"]):
        if expected is None:
            finals, hits, events = _run_replicas(spec, xi0, t_end, seeds, budget)
            lockstep = _simulate_lockstep(spec, xi0, t_end, seeds, budget)
        else:
            with pytest.raises(bd.NumericError) as raised:
                _run_replicas(spec, xi0, t_end, seeds, budget)
    if expected is None:
        per_seed = _sequential_finals(spec, start, t_end, seeds)
        assert list(zip(*(a.tolist() for a in lockstep))) == per_seed
        assert finals[:, 0].tolist() == [final for final, _, _ in per_seed]
        assert hits == sum(h for _, _, h in per_seed)
        assert events == sum(n for _, n, _ in per_seed)
    elif expected is BudgetExceededError:
        assert type(raised.value) is BudgetExceededError
    else:
        assert type(raised.value) is RateOverflowError
        got = raised.value.vertex, raised.value.exponent
        assert got == (expected.vertex, expected.exponent)


def test_lockstep_budget_is_the_running_total():
    # both routes raise once the replicas' running event total reaches the
    # budget, so a budget of exactly the total raises and one more does not
    b, d, l, r, start, t_end, _ = LOCKSTEP_CASES["chunk-boundary"]
    spec = bd.ChainSpec(bd.single_vertex(), [[b]], [[d]], l=l, r=r)
    seeds = _seeds(5, _LOCKSTEP_CHUNK + 1)
    xi0 = np.array([start])
    total = sum(events for _, events, _ in _sequential_finals(spec, start, t_end, seeds))
    routes = (
        lambda budget: _simulate_lockstep(spec, xi0, t_end, seeds, budget),
        lambda budget: _run_replicas(
            spec, xi0, t_end, seeds, budget, bd.Trajectory.final_state
        ),
    )
    for budget in (total - 1, total, total + 1):
        for route in routes:
            if budget > total:
                route(budget)
            else:
                with pytest.raises(bd.BudgetExceededError):
                    route(budget)


@pytest.mark.parametrize("items", [0, 1, 10])
@pytest.mark.parametrize("cpus", [1, 4])
def test_thread_map_keeps_item_order_on_every_worker_count(monkeypatch, cpus, items):
    # no items start no thread, and one item or one CPU runs on the caller alone
    monkeypatch.setattr(errors, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    out = thread_map(lambda x: (x * x, threading.current_thread()), range(items))
    assert [square for square, _ in out] == [x * x for x in range(items)]
    assert len({thread for _, thread in out}) == min(items, cpus)
    assert all(thread is threading.current_thread() for _, thread in out[:1])
    assert threading.active_count() == before
    if items:
        with pytest.raises(ZeroDivisionError):
            thread_map(lambda x: 1 / (x - items + 1), range(items))


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    b, d, l, r, start, t_end, _ = LOCKSTEP_CASES["chunk-boundary"]
    spec = bd.ChainSpec(bd.single_vertex(), [[b]], [[d]], l=l, r=r)
    seeds = _seeds(8, _LOCKSTEP_CHUNK + 1)
    runs = []
    # more workers than cores, switching threads as often as the
    # interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 4):
            monkeypatch.setattr(errors, "_usable_cpus", lambda: cpus)
            runs.append(_simulate_lockstep(spec, np.array([start]), t_end, seeds))
    finally:
        sys.setswitchinterval(interval)
    for one, four in zip(*runs):
        assert one.dtype == four.dtype and np.array_equal(one, four)


def test_lockstep_rate_overflow_matches_sequential():
    # death exponent -2 xi passes 700 at xi = -351, which replicas drifting
    # down reach; others climb to r = 5 and stay there
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[-2.0]], l=400, r=5)
    seeds = _seeds(3, 10)
    with pytest.raises(bd.RateOverflowError) as sequential:
        _sequential_finals(spec, 0, 50.0, seeds)
    with pytest.raises(bd.RateOverflowError) as lockstep:
        _simulate_lockstep(spec, np.array([0]), 50.0, seeds)
    assert lockstep.value.vertex == sequential.value.vertex == 0
    assert lockstep.value.exponent == sequential.value.exponent == 702.0


def test_simulate_event_budget():
    spec = two_state_spec()
    with pytest.raises(bd.BudgetExceededError):
        bd.simulate(spec, [0], 1000.0, seed=0, max_events=10)


def test_boundary_hits_counted():
    # l=0 keeps the spin pinned against 0 half the time: every down-move to 0
    # and every up-move to r is a hit
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)
    traj = bd.simulate(spec, [0], 20.0, seed=3)
    assert traj.boundary_hits(spec.l, spec.r) == traj.num_events


def test_simulate_marginal_matches_generator_expm():
    # independent oracle: exact marginal law from the dense generator
    import scipy.linalg

    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, [[-0.4, 0.3], [0.3, -0.4]], [[0.2, 0.0], [0.0, 0.2]], l=2, r=2)
    t, reps = 1.5, 4000
    q = bd.build_generator(spec).toarray()
    p0 = np.zeros(q.shape[0])
    p0[bd.state_index(spec, [1, -1])] = 1.0
    exact = scipy.linalg.expm(q.T * t) @ p0
    counts = np.zeros(q.shape[0])
    for rep in range(reps):
        traj = bd.simulate(spec, [1, -1], t, seed=(99, rep))
        counts[bd.state_index(spec, traj.final_state())] += 1
    freq = counts / reps
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / reps)
    assert np.all(np.abs(freq - exact) < 5 * se + 1e-9)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_non_finite_horizon_rejected(t_end):
    # max_events bounds the run if the horizon check ever regresses
    spec = bd.ChainSpec(bd.path_graph(2), np.zeros((2, 2)), np.zeros((2, 2)), l=0, r=1)
    with pytest.raises(bd.ValidationError, match="t_end"):
        bd.simulate(spec, [0, 0], t_end, seed=0, max_events=1000)


def _dense_states(traj):
    """(events + 1, n) states, row k = state after k events."""
    n = len(traj.initial)
    out = np.empty((traj.num_events + 1, n), dtype=np.int64)
    out[0] = traj.initial
    for v in range(n):
        hits = traj.vertices == v
        out[1:, v] = traj.initial[v] + np.cumsum(np.where(hits, traj.signs, 0))
    return out


def test_states_at_and_boundary_hits_match_dense_construction():
    rng = np.random.default_rng(2024)
    l, r = 2, 3
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 60))
        t_end = 10.0
        trajectory = bd.Trajectory(
            initial=rng.integers(-l, r + 1, size=n),
            times=np.sort(rng.uniform(0.0, t_end, size=m)),
            vertices=rng.integers(0, n, size=m),
            signs=rng.choice([-1, 1], size=m),
            t_end=t_end,
        )
        dense = _dense_states(trajectory)
        grid = np.concatenate(
            [[0.0, t_end], trajectory.times, rng.uniform(0.0, t_end, size=25)]
        )
        expected = dense[np.searchsorted(trajectory.times, grid, side="right")]
        got = trajectory.states_at(grid)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        after = dense[1:][np.arange(m), trajectory.vertices]
        assert trajectory.boundary_hits(l, r) == np.count_nonzero(
            (after == r) | (after == -l)
        )


def test_local_updates_replay_from_scratch_rates():
    # A_b couples 0 <- 1 only (A_b[0, 1] != 0, A_b[1, 0] = 0) and A_d has
    # only an off-diagonal entry, so a jump at 1 must refresh the birth rate
    # of 0 and the death rate of 2; updating by rows instead of columns
    # would leave stale rates and change the waiting times and picks.
    g = bd.path_graph(3)
    ab = np.array([[-0.3, 0.8, 0.0], [0.0, 0.2, 0.0], [0.0, -0.4, 0.1]])
    ad = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.7, 0.0]])
    spec = bd.ChainSpec(g, ab, ad, l=2, r=2)
    xi0 = spec.validate_configuration([0, 1, -1])
    seed = 314
    traj = _simulate_vector(spec, xi0, 40.0, np.random.default_rng(seed), None)
    assert traj.num_events > 100

    rng = np.random.default_rng(seed)
    ebuf = rng.standard_exponential(8192)
    ubuf = rng.random(8192)
    assert traj.num_events < 8192
    state = xi0.copy()
    t = 0.0
    for k in range(traj.num_events):
        birth, death = rates_at(spec, state)
        rates = birth.tolist() + death.tolist()
        total = math.fsum(rates)
        wait = traj.times[k] - t
        assert wait == pytest.approx(ebuf[k] / total, rel=1e-12, abs=1e-12 * traj.times[k])
        u = ubuf[k] * total
        pick = int(np.searchsorted(np.cumsum(rates), u, side="right"))
        x, s = (pick, 1) if pick < 3 else (pick - 3, -1)
        assert (traj.vertices[k], traj.signs[k]) == (x, s), f"event {k}"
        state[x] += s
        t = traj.times[k]
    assert np.array_equal(traj.final_state(), state)


# A frozen copy of the event loop with one column loop for the births and
# one for the deaths, kept as the oracle that _simulate_vector must match
# path for path and error for error.
def _column_support(matrix: np.ndarray, x: int) -> list[tuple[int, float]]:
    """(y, matrix[y, x]) for y = x and every y with a nonzero in column x."""
    ys = sorted(set(np.flatnonzero(matrix[:, x]).tolist()) | {x})
    return [(y, float(matrix[y, x])) for y in ys]


def _reference_simulate_vector(spec, xi0, t_end, rng, max_events):
    # Rates sit in one list, the n births first and then the n deaths.  The
    # total is the last running sum and the pick bisects the same sums, so
    # the pick cannot run past the last index.  Only exponents touched by
    # the jump can newly leave the safe range, so each is checked as its
    # rate is recomputed, births before deaths.
    n = spec.num_vertices
    l, r = spec.l, spec.r
    ab, ad = spec.birth_matrix, spec.death_matrix
    bcols = [_column_support(ab, x) for x in range(n)]
    dcols = [_column_support(ad, x) for x in range(n)]
    spins = xi0.tolist()
    bexp = (ab @ xi0.astype(float)).tolist()
    dexp = (ad @ xi0.astype(float)).tolist()
    rates = [math.exp(e) if v < r else 0.0 for e, v in zip(bexp, spins)]
    rates += [math.exp(e) if v > -l else 0.0 for e, v in zip(dexp, spins)]
    exp, top = math.exp, MAX_EXPONENT
    cap = math.inf if max_events is None else max_events

    times: list[float] = []
    verts: list[int] = []
    signs: list[int] = []
    t = 0.0
    k = _RNG_BUFFER
    while True:
        cum = list(accumulate(rates))
        total = cum[-1]
        if not total > 0.0:  # unreachable: every vertex always has a move
            raise SingularSystemError("total rate vanished; this is a bug")
        if k == _RNG_BUFFER:
            ebuf = rng.standard_exponential(_RNG_BUFFER).tolist()
            ubuf = rng.random(_RNG_BUFFER).tolist()
            k = 0
        t_next = t + ebuf[k] / total
        if t_next > t_end:
            break
        i = bisect_right(cum, ubuf[k] * total)
        k += 1
        t = t_next
        x, s = (i, 1) if i < n else (i - n, -1)
        spins[x] += s
        for y, c in bcols[x]:
            e = bexp[y] = bexp[y] + s * c
            if not -top <= e <= top:
                raise RateOverflowError(y, e)
            rates[y] = exp(e) if spins[y] < r else 0.0
        for y, c in dcols[x]:
            e = dexp[y] = dexp[y] + s * c
            if not -top <= e <= top:
                raise RateOverflowError(y, e)
            rates[n + y] = exp(e) if spins[y] > -l else 0.0
        times.append(t)
        verts.append(x)
        signs.append(s)
        if len(times) >= cap:
            raise BudgetExceededError(
                f"simulation exceeded max_events={max_events} before t_end"
            )
    return bd.Trajectory(
        initial=xi0,
        times=np.asarray(times, dtype=float),
        vertices=np.asarray(verts, dtype=np.int64),
        signs=np.asarray(signs, dtype=np.int64),
        t_end=float(t_end),
    )


def _outcome(run, spec, xi0, seed, t_end=20.0, max_events=5_000):
    """The (times, vertices, signs) of run on one draw, or the class,
    vertex and exponent of the error it raises."""
    try:
        traj = run(spec, xi0, t_end, np.random.default_rng(seed), max_events)
    except bd.NumericError as exc:
        return type(exc), getattr(exc, "vertex", None), getattr(exc, "exponent", None)
    return traj.times.tolist(), traj.vertices.tolist(), traj.signs.tolist()


def test_event_loop_matches_reference_loop():
    # random specs on four graphs and four coefficient scales; large scales
    # reach RateOverflowError and fast ones the event budget, and every
    # outcome, path or error, must be the reference loop's
    rng = np.random.default_rng(20)
    graphs = [bd.single_vertex(), bd.path_graph(2), bd.path_graph(5), bd.cycle_graph(12)]
    outcomes = set()
    for draw in range(100):
        g = graphs[draw % 4]
        n = g.num_vertices
        scale = (0.01, 0.3, 3.0, 150.0)[(draw // 4) % 4]
        pattern = np.eye(n) + g.adjacency_matrix()
        ab = scale * rng.standard_normal((n, n)) * pattern
        ad = scale * rng.standard_normal((n, n)) * pattern
        l, r = int(rng.integers(0, 6)), int(rng.integers(1, 6))
        spec = bd.ChainSpec(g, ab, ad, l=l, r=r)
        start = rng.integers(-l, r + 1, size=n)
        seed = int(rng.integers(2**32))
        try:
            xi0 = _start(spec, start, 20.0)
        except bd.RateOverflowError:
            continue
        got = _outcome(_simulate_vector, spec, xi0, seed)
        assert got == _outcome(_reference_simulate_vector, spec, xi0, seed), f"draw {draw}"
        outcomes.add(got[0] if isinstance(got[0], type) else "path")
    # the draws reach all three outcomes
    assert outcomes == {"path", RateOverflowError, BudgetExceededError}


_BUDGET_GRAPHS = {
    "single": bd.single_vertex(),
    "path2": bd.path_graph(2),
    "path5": bd.path_graph(5),
    "cycle12": bd.cycle_graph(12),
}


@settings(max_examples=100, deadline=None)
@given(graph=st.sampled_from(sorted(_BUDGET_GRAPHS)),
       scale=st.sampled_from([0.01, 0.3, 3.0, 150.0]),
       l=st.integers(0, 5), r=st.integers(1, 5), t_end=st.floats(0.0, 20.0),
       max_events=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_reference_loop_under_any_event_budget(
    graph, scale, l, r, t_end, max_events, seed
):
    # the path, or the class, vertex and exponent of the error, under a
    # budget small enough to stop many paths early
    g = _BUDGET_GRAPHS[graph]
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    pattern = np.eye(n) + g.adjacency_matrix()
    ab = scale * rng.standard_normal((n, n)) * pattern
    ad = scale * rng.standard_normal((n, n)) * pattern
    spec = bd.ChainSpec(g, ab, ad, l=l, r=r)
    try:
        xi0 = _start(spec, rng.integers(-l, r + 1, size=n), t_end)
    except bd.RateOverflowError:
        return
    # simulate takes the generator as its seed and draws from it unchanged
    got = _outcome(bd.simulate, spec, xi0, seed, t_end, max_events)
    assert got == _outcome(_reference_simulate_vector, spec, xi0, seed, t_end, max_events)


def test_state_index_is_exact_past_int64():
    # 129^12 states: int64 weights would wrap at the all-r corner
    n = 12
    spec = bd.ChainSpec(bd.cycle_graph(n), np.zeros((n, n)), np.zeros((n, n)), l=64, r=64)
    corner = bd.state_index(spec, np.full(n, 64))
    assert corner == spec.num_states() - 1 == 21236186150528020865123840
    assert bd.state_index(spec, np.full(n, -64)) == 0
