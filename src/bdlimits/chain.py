"""Truncated interacting birth-and-death chain on a finite graph.

Spins live in {-l, ..., r}, one per vertex.  A spin below r increases by 1
at rate exp((A_b xi)_x) and a spin above -l decreases by 1 at rate
exp((A_d xi)_x), where A_b and A_d are interaction matrices on the graph.

This module provides the event-driven simulator, the exact sparse generator
and its stationary solve by sparse LU (for large reversible specs a float32
factor refined in float64), the closed-form Gibbs measure (the
stationary law of every spec with symmetric A_b - A_d), and the
detailed-balance residual of that measure under the chain's own rates.
The simulator keeps the 2n rate exponents [A_b; A_d] xi stacked, births
first, as the fluid integrator does, and one loop per event re-rates the
entries the jump changes.
The exact-law functions share _gibbs_table (states, Gibbs log weights) and
_jumps (every jump and both its rates, from one pass of _rate_blocks).
Single-vertex replicas that need only their final state run in lockstep:
numpy moves a chunk of them 64 events at a time, guessing the window's
jumps at its start spin, walking the guesses with one cumulative sum and
deciding again until the decisions equal the guesses, so every replica
takes exactly simulate's path.  They refill their exponential blocks on
every usable CPU (errors.thread_map, on the threading module that numpy
already loads), so importing this module loads no new module, and every
live replica draws its uniforms at each 512-row sub-block.
scipy.sparse is imported inside build_generator and stationary_solve, so
importing this module, or simulating, loads no scipy module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import accumulate, islice

import numpy as np

from . import errors
from .errors import (
    MAX_EXPONENT,
    AsymmetricMatrixError,
    BudgetExceededError,
    NumericError,
    RateOverflowError,
    SingularSystemError,
    StateSpaceTooLargeError,
    ValidationError,
    check_exponents,
    require_integer,
    require_real,
    seeded_rng,
    thread_map,
)
from .graphs import Graph, validate_interaction
from .spectral import is_symmetric

DEFAULT_STATE_CAP = 200_000

_RNG_BUFFER = 8192

# bytes an event of _simulate_vector's record holds at its peak, when its
# lists become arrays: 84 in RSS over a 2 M-event path on path(2); the
# arrays of boundary_hits and states_at peak lower (48, tracemalloc)
_EVENT_BYTES = 84

# replicas per lockstep chunk, enough for 100 in one: its (8192, chunk)
# exponential and (512, chunk) uniform buffers then take 8.9 MB, where the
# 20 000 replicas of the acceptance test at once would take 1.4 GB
_LOCKSTEP_CHUNK = 128

# rows of uniforms a lockstep replica draws at a time, held in a ring of
# that many rows; it divides _RNG_BUFFER, so a replica that reaches the
# block's end has drawn it whole
_UNIFORM_ROWS = 512

# rows a lockstep window decides at once; it divides _UNIFORM_ROWS, so no
# window straddles a refill
_WINDOW = 64

# stationary_solve factors a reversible spec's system in float32 and refines
# in float64 at or past this bandwidth B = (l + r + 1)^(n - 1) and this many
# vertices: below them the refinement steps cost more than the float32
# factor saves (B = 169 to 441 on path(3) and cycle(3): 0.54-1.04 of the
# float64 time; on path(2), whose fill is far below N B, B = 201 to 401:
# 1.0-3.2 of it).  It refines for at most _REFINE_STEPS steps, and keeps the
# law only within _SINGLE_GIBBS_GAP of the Gibbs law: half of 1e-12, so the
# law is within 1e-12 of the float64 route's whenever that one is within
# 5e-13 of the Gibbs law, and closer to the Gibbs law than it otherwise.
_SINGLE_MIN_BLOCK = 200
_SINGLE_MIN_VERTICES = 3
_REFINE_STEPS = 30
_SINGLE_GIBBS_GAP = 5e-13

# bytes of an LU factor of the stationary system per state and unit of
# bandwidth B, by the itemsize of its entries: nnz(L + U) was measured at
# 0.43-0.68 N B, and a factor takes up to 23 bytes per nonzero in float64
# and 0.71 of that in float32 (peak RSS, cycle(3), path(3) and cycle(4))
_FACTOR_BYTES = {4: 11, 8: 16}


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Graph, interaction matrices, and truncation bounds of one chain.

    Spins take values in {-l, ..., r}; l >= 0 and r >= 1 so every spin has
    at least two values.  Matrices are validated against the graph's
    adjacency pattern at construction.  Immutable and safe to share.
    """

    graph: Graph
    birth_matrix: np.ndarray
    death_matrix: np.ndarray
    l: int
    r: int

    def __post_init__(self):
        l, r = require_integer("l", self.l), require_integer("r", self.r)
        if l < 0 or r < 1:
            raise ValidationError(f"need l >= 0 and r >= 1, got l={l}, r={r}")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)
        object.__setattr__(
            self, "birth_matrix", validate_interaction(self.graph, self.birth_matrix)
        )
        object.__setattr__(
            self, "death_matrix", validate_interaction(self.graph, self.death_matrix)
        )

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def drift_matrix(self) -> np.ndarray:
        """Net interaction A = A_b - A_d."""
        return self.birth_matrix - self.death_matrix

    @property
    def num_spin_values(self) -> int:
        return self.l + self.r + 1

    def num_states(self) -> int:
        """Total number of configurations, as an exact Python int."""
        return self.num_spin_values ** self.num_vertices

    def validate_configuration(self, spins) -> np.ndarray:
        """Return spins as a fresh int64 vector, checked against the box."""
        try:
            xi = np.asarray(spins)
        except ValueError:  # a ragged sequence
            raise ValidationError(f"configuration {spins!r} is a ragged sequence") from None
        if xi.shape != (self.num_vertices,):
            raise ValidationError(
                f"configuration shape {xi.shape} does not match "
                f"{self.num_vertices} vertices"
            )
        try:  # np.floor refuses complex numbers, words and None
            integral = np.all(xi == np.floor(xi))
        except TypeError:
            integral = False
        if not integral:
            raise ValidationError("configuration must be integer-valued")
        # before the cast, which would wrap a value past int64
        if xi.min() < -self.l or xi.max() > self.r:
            raise ValidationError(
                f"configuration leaves the box [-{self.l}, {self.r}]: {xi.tolist()}"
            )
        return xi.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event record of one simulated path on [0, t_end].

    Events are (time, vertex, sign) with strictly increasing times; the
    state just after event k is initial plus the first k signed unit jumps.
    """

    initial: np.ndarray
    times: np.ndarray
    vertices: np.ndarray
    signs: np.ndarray
    t_end: float

    @property
    def num_events(self) -> int:
        return len(self.times)

    def _vertex_walks(self):
        """Events grouped by vertex, each group in time order.

        Returns (order, values, bounds): order is the stable sort of event
        indices by vertex, events bounds[v]:bounds[v+1] of order belong to
        vertex v, and values[i] is that vertex's spin just after event
        order[i].  Memory is linear in the number of events.
        """
        n = len(self.initial)
        order = np.argsort(self.vertices, kind="stable")
        counts = np.bincount(self.vertices, minlength=n)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        steps = np.cumsum(self.signs[order])
        before = np.concatenate(([0], steps))[bounds[:-1]]
        values = steps + np.repeat(self.initial - before, counts)
        return order, values, bounds

    def final_state(self) -> np.ndarray:
        n = len(self.initial)
        delta = np.bincount(
            self.vertices, weights=self.signs.astype(float), minlength=n
        )
        return self.initial + delta.astype(np.int64)

    def states_at(self, sample_times) -> np.ndarray:
        """States at the given times (right-continuous path), shape (T, n)."""
        ts = errors._sample_times(sample_times)
        if not ((ts >= 0) & (ts <= self.t_end)).all():  # nan fails it too
            raise ValidationError("sample times must lie in [0, t_end]")
        idx = np.searchsorted(self.times, ts, side="right")
        order, values, bounds = self._vertex_walks()
        out = np.empty((ts.size, len(self.initial)), dtype=np.int64)
        for v, start in enumerate(self.initial):
            lo, hi = bounds[v], bounds[v + 1]
            # events of v among the first idx events of the path
            seen = np.searchsorted(order[lo:hi], idx, side="left")
            out[:, v] = np.concatenate(([start], values[lo:hi]))[seen]
        return out

    def boundary_hits(self, l: int, r: int) -> int:
        """Number of events that land a spin exactly on -l or r."""
        _, values, _ = self._vertex_walks()
        return int(np.count_nonzero((values == r) | (values == -l)))


def simulate(
    spec: ChainSpec,
    initial,
    t_end: float,
    seed=None,
    max_events: int | None = None,
) -> Trajectory:
    """Statistically exact event-driven sample path on [0, t_end].

    Waiting times are exponential in the total rate and events are chosen
    proportionally to their rates (Gillespie's direct method).  Rates are
    updated locally: a jump at x changes only the exponents in column x of
    [A_b; A_d], which the adjacency pattern confines to x and its
    neighbours, so an event costs O(deg x) updates plus one O(n) running
    sum.  Each event consumes one exponential and one uniform, drawn in
    blocks of 8192 of each.  Deterministic given (spec, initial, seed).

    Raises ValidationError for a negative or non-finite t_end, a
    max_events that is neither None nor a nonnegative integer, or a seed
    that numpy.random.default_rng rejects, RateOverflowError when the path
    reaches a state where a rate exponent exceeds magnitude 700 (it names
    the first such exponent the jump changed: births before deaths, and
    vertices in increasing order), and BudgetExceededError once max_events
    events happen before t_end, or once the event record, at 84 bytes an
    event, would pass physical memory.
    """
    if max_events is not None and require_integer("max_events", max_events) < 0:
        raise ValidationError(f"max_events must be nonnegative, got {max_events}")
    xi0 = _start(spec, initial, t_end)
    rng = seeded_rng(seed)
    return _simulate_vector(spec, xi0, t_end, rng, max_events)


def _start(spec: ChainSpec, initial, t_end: float) -> np.ndarray:
    """The checked start configuration.

    Raises ValidationError for a negative or non-finite t_end and
    RateOverflowError if an exponent at the start already passes
    MAX_EXPONENT; the event loops check every exponent they change.
    """
    xi0 = spec.validate_configuration(initial)
    if require_real("t_end", t_end) < 0:
        raise ValidationError(f"t_end must be nonnegative, got {t_end}")
    check_exponents(spec.birth_matrix @ xi0)
    check_exponents(spec.death_matrix @ xi0)
    return xi0


def _simulate_vector(spec, xi0, t_end, rng, max_events):
    # The 2n exponents [A_b; A_d] xi and their rates sit in two lists, the
    # n births first and then the n deaths.  cols[x] holds (j, y, c, wall)
    # for j = x, j = n + x and every other nonzero row j of column x of
    # [A_b; A_d]: entry j belongs to vertex y, has coefficient c, and its
    # rate is 0 while spins[y] is at wall.  A jump at x updates, checks and
    # re-rates them in stack order.  The total is the last running sum and
    # the pick bisects the same sums, so it cannot run past the last index.
    n = spec.num_vertices
    l, r = spec.l, spec.r
    ab, ad = spec.birth_matrix, spec.death_matrix
    stacked = np.concatenate([ab, ad])
    walls = [r] * n + [-l] * n
    cols = []
    for x in range(n):
        rows = sorted(set(np.flatnonzero(stacked[:, x]).tolist()) | {x, n + x})
        cols.append([(j, j % n, float(stacked[j, x]), walls[j]) for j in rows])
    spins = xi0.tolist()
    exps = (ab @ xi0.astype(float)).tolist() + (ad @ xi0.astype(float)).tolist()
    rates = [math.exp(e) if v != w else 0.0 for e, v, w in zip(exps, spins * 2, walls)]
    exp, top = math.exp, MAX_EXPONENT
    cap = min(math.inf if max_events is None else max_events,
              errors._PHYSICAL_MEMORY / _EVENT_BYTES)

    times: list[float] = []
    verts: list[int] = []
    signs: list[int] = []
    t = 0.0
    k = _RNG_BUFFER
    while True:
        cum = list(accumulate(rates))
        total = cum[-1]
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
        for j, y, c, wall in cols[x]:
            e = exps[j] = exps[j] + s * c
            if not -top <= e <= top:
                raise RateOverflowError(y, e)
            rates[j] = exp(e) if spins[y] != wall else 0.0
        times.append(t)
        verts.append(x)
        signs.append(s)
        if len(times) >= cap:
            raise BudgetExceededError(
                f"simulation exceeded max_events={max_events} before t_end"
                if cap == max_events else
                f"event record of {len(times)} events at {_EVENT_BYTES} bytes each "
                f"reaches physical memory ({errors._PHYSICAL_MEMORY} bytes) before t_end"
            )
    return Trajectory(
        initial=xi0,
        times=np.asarray(times, dtype=float),
        vertices=np.asarray(verts, dtype=np.int64),
        signs=np.asarray(signs, dtype=np.int64),
        t_end=float(t_end),
    )


def _run_replicas(spec, xi0, t_end, seeds, budget, statistic=None):
    """(statistic(trajectory) per replica, boundary hits, events) of one
    replica per seed, each drawing as simulate does, until their events
    together reach budget (BudgetExceededError).  statistic None takes the
    final state, and a single-vertex spec then runs in lockstep; any other
    replica is one _simulate_vector call after one check of the start.
    """
    if statistic is None and spec.num_vertices == 1:
        finals, events, hits = _simulate_lockstep(spec, xi0, t_end, seeds, budget)
        return finals[:, None], int(hits.sum()), int(events.sum())
    xi0 = _start(spec, xi0, t_end)
    statistic = statistic or Trajectory.final_state
    values = []
    hits = used = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        traj = _simulate_vector(spec, xi0, t_end, rng, budget - used)
        used += traj.num_events
        hits += traj.boundary_hits(spec.l, spec.r)
        values.append(statistic(traj))
    return np.array(values), hits, used


def _simulate_lockstep(spec, xi0, t_end, seeds, max_events=None):
    """(final spins, events, boundary hits) of replicas of a single-vertex
    spec, one entry per seed, stepped in lockstep chunks of _LOCKSTEP_CHUNK.
    seeds may be any iterable; it is read one chunk at a time.

    Replica j draws from default_rng(seeds[j]) exactly as simulate does: a
    block of 8192 exponentials and then one of 8192 uniforms.  They fill its
    column of two Fortran-order buffers, (8192, chunk) for the exponentials
    and a ring of (_UNIFORM_ROWS, chunk) for the uniforms (8.9 MB at 128
    replicas).  Every live replica of a chunk has taken the same number of
    rows, the chunk's one row counter, and sits at row k = row % 8192 of its
    blocks; numpy moves them all by a window of _WINDOW rows, decided
    speculatively and checked exactly: guess every row's jump at the
    window's start spin (total(spin) * U < birth(spin)), walk the guesses
    with one cumulative sum of +-1 steps clipped to the box, and decide
    every row again at the spin the walk reached before it, until the
    decisions equal the guesses.  A pass leaves the rows before the first
    wrong one as they were and corrects that one, so a window settles within
    _WINDOW passes; a walk that agrees with its decisions never crosses a
    wall, where the blocked rate decides.  The times are one cumulative sum
    of t and E / total(spin), the sequential loop's order of additions; a
    replica takes the rows up to its first time past t_end, and its hits are
    the wall landings among them.
    The live replicas refill their exponentials at k = 0, whole, since the
    ziggurat takes a variable number of generator outputs, on the usable
    CPUs (errors.thread_map): each replica's generator fills only its own
    column, so the draws do not depend on the CPU count.  At every
    sub-block of _UNIFORM_ROWS rows, every live replica draws its uniforms,
    serially (too small to gain from a thread), into a ring read at row
    k % _UNIFORM_ROWS.  A float64 uniform is one PCG64 output, so a replica
    that reaches row 8192 has drawn the same stream as one whole fill; one
    that stops inside a sub-block has drawn uniforms it never reads, and its
    generator is dropped with the chunk.  _WINDOW divides _UNIFORM_ROWS, so
    no window straddles a refill.
    Rates come from per-spin tables of math.exp(b * spin) and
    math.exp(d * spin).  simulate instead adds b or d to the exponent at
    each jump; the two give the same floats whenever those multiples are
    exact (any dyadic coefficient, such as the schedule-scaled fixtures) and
    can otherwise differ in the last bit.

    Raises BudgetExceededError once the replicas' events together reach
    max_events, and RateOverflowError (vertex 0, the birth exponent if both
    pass) when a replica reaches a spin whose exponent passes MAX_EXPONENT;
    the earliest row that reaches either decides, the overflow first within
    a row and then the first such replica of the chunk, as in a row-by-row
    loop.  The landed spins are checked only when the table holds an unsafe
    spin.
    """
    xi0 = _start(spec, xi0, t_end)
    l, r = spec.l, spec.r
    b = float(spec.birth_matrix[0, 0])
    d = float(spec.death_matrix[0, 0])
    # Tables are indexed by the spin's offset from -l.  An unsafe spin's
    # rates stay 0: a replica that lands there raises before its next
    # event, whose time E / 0 is past every t_end.
    values = np.arange(-l, r + 1, dtype=float)
    up, down = b * values, d * values
    worst = np.where(np.abs(up) > MAX_EXPONENT, up, down)
    unsafe = np.abs(worst) > MAX_EXPONENT
    safe = ~unsafe
    birth_t, death_t = np.zeros(values.size), np.zeros(values.size)
    birth_t[safe] = list(map(math.exp, up[safe].tolist()))
    death_t[safe] = list(map(math.exp, down[safe].tolist()))
    top = values.size - 1
    birth_t[top] = death_t[0] = 0.0
    total_t = birth_t + death_t
    guarded = bool(unsafe.any())
    wall = np.zeros(top + 1, dtype=bool)
    wall[[0, top]] = True

    ebuf = np.empty((_RNG_BUFFER, _LOCKSTEP_CHUNK), order="F")
    ubuf = np.empty((_UNIFORM_ROWS, _LOCKSTEP_CHUNK), order="F")
    seeds = iter(seeds)
    # per chunk, the final spin offset, events and hits of each replica
    chunks = []
    left = math.inf if max_events is None else max_events
    while rngs := [np.random.default_rng(s) for s in islice(seeds, _LOCKSTEP_CHUNK)]:
        count = len(rngs)
        out = np.empty((3, count), dtype=np.int64)
        # the live replicas' columns and their state, compacted after each
        # window; every live replica has taken row events
        live = np.arange(count)
        pos = np.full(count, int(xi0[0]) + l)
        t = np.zeros(count)
        h = np.zeros(count, dtype=np.int64)
        row = used = 0
        while True:
            k = row % _RNG_BUFFER
            if k == 0:
                thread_map(
                    lambda j: rngs[j].standard_exponential(out=ebuf[:, j]), live.tolist()
                )
            ring = k % _UNIFORM_ROWS
            if ring == 0:
                for j in live.tolist():
                    rngs[j].random(out=ubuf[:, j])
            e = ebuf[k:k + _WINDOW, live]
            u = ubuf[ring:ring + _WINDOW, live]
            # walk[i] is the spin before row i's event, walk[_WINDOW] the last
            walk = np.empty((_WINDOW + 1, live.size), dtype=np.int64)
            walk[0] = pos
            births = total_t[pos] * u < birth_t[pos]
            while True:
                np.cumsum(np.where(births, 1, -1), axis=0, out=walk[1:])
                walk[1:] += pos
                np.minimum(walk, top, out=walk)
                np.maximum(walk, 0, out=walk)
                before = walk[:-1]
                total = total_t[before]
                decided = total * u < birth_t[before]
                if (decided == births).all():
                    break
                births = decided
            times = np.empty((_WINDOW + 1, live.size))
            times[0] = t
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(e, total, out=times[1:])
                np.cumsum(times, axis=0, out=times)
            # times never decrease, so each replica takes a prefix of rows
            go = times[1:] <= t_end
            taken = go.sum(axis=0)
            ran = int(taken.sum())
            over = None
            if guarded and (bad := unsafe[walk[1:]] & go).any():
                row = int(bad.any(axis=1).argmax())
                over = row, float(worst[walk[row + 1, bad[row].argmax()]])
            if ran and used + ran >= left:
                crossed = used + np.cumsum(go.sum(axis=1)) >= left
                if over is None or crossed.argmax() < over[0]:
                    raise BudgetExceededError(
                        f"replicas reached the event budget ({left} left) before t_end"
                    )
            if over is not None:
                raise RateOverflowError(0, over[1])
            used += ran
            h += (wall[walk[1:]] & go).sum(axis=0)
            last = np.arange(live.size)
            pos, t = walk[taken, last], times[taken, last]
            if ran < _WINDOW * live.size:
                stop = taken < _WINDOW
                out[:, live[stop]] = pos[stop], row + taken[stop], h[stop]
                keep = ~stop
                live, pos, t, h = live[keep], pos[keep], t[keep], h[keep]
                if not live.size:
                    break
            row += _WINDOW
        chunks.append(out)
        left -= used
    final, events, hits = np.concatenate(chunks, axis=1)
    return final - l, events, hits


def enumerate_states(spec: ChainSpec, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """All configurations, shape (N, n), in canonical order.

    Canonical order is the mixed-radix odometer with vertex 0 the fastest
    digit and spin value -l first; every vector indexed by states in this
    module uses it.
    """
    count = _capped_count(spec, cap)
    n = spec.num_vertices
    base = spec.num_spin_values
    idx = np.arange(count, dtype=np.int64)[:, None]
    digits = (idx // base ** np.arange(n, dtype=np.int64)) % base
    return digits - spec.l


def _capped_count(spec: ChainSpec, cap) -> int:
    """spec.num_states(), or StateSpaceTooLargeError past the integer cap."""
    count = spec.num_states()
    if count > require_integer("cap", cap):
        raise StateSpaceTooLargeError(f"{count} configurations exceed the cap of {cap}")
    return count


def state_index(spec: ChainSpec, spins) -> int:
    """Canonical index of one configuration, as an exact Python int."""
    xi = spec.validate_configuration(spins)
    base = spec.num_spin_values
    return sum((v + spec.l) * base**x for x, v in enumerate(xi.tolist()))


def _rate_blocks(spec: ChainSpec, states: np.ndarray):
    """Yield (x, up, up_rates, down, down_rates) for every vertex x.

    states is any (N, n) integer array of configurations in the box.  up and
    down index its rows whose spin at x can rise or fall, and the rates are
    exp((A_b xi)_x) and exp((A_d xi)_x) at those rows.  Raises
    RateOverflowError if an exponent at any row exceeds MAX_EXPONENT.
    """
    for x in range(spec.num_vertices):
        be = states @ spec.birth_matrix[x]
        de = states @ spec.death_matrix[x]
        check_exponents(be, x)
        check_exponents(de, x)
        up = np.flatnonzero(states[:, x] < spec.r)
        down = np.flatnonzero(states[:, x] > -spec.l)
        yield x, up, np.exp(be[up]), down, np.exp(de[down])


def _per_spec(table):
    """lru_cache(maxsize=1) of table(spec, cap), keyed on cap only once
    require_integer has passed it: a nan cap compares False with every
    count and would switch the state cap off, and a list is unhashable."""
    cached = lru_cache(maxsize=1)(table)
    return wraps(table)(lambda spec, cap: cached(spec, require_integer("cap", cap)))


@_per_spec
def _jumps(spec: ChainSpec, cap: int) -> tuple[np.ndarray, ...]:
    """(up, down, up_rate, down_rate) over every jump of the chain: state
    up[i] jumps to down[i] at rate up_rate[i], and back at rate down_rate[i].

    The blocks of _rate_blocks on the states of _gibbs_table, concatenated
    over the vertices: in canonical order the rows that can rise at x and
    those that can fall at x are the same states one step apart, in the same
    order.  Read-only and kept for the last (spec, cap).
    """
    states, _ = _gibbs_table(spec, cap)
    blocks = [block[1:] for block in _rate_blocks(spec, states)]
    up, up_rate, down, down_rate = (np.concatenate(b) for b in zip(*blocks))
    for a in (up, down, up_rate, down_rate):
        a.setflags(write=False)
    return up, down, up_rate, down_rate


def _generator_entries(spec: ChainSpec, cap: int):
    """COO entries (rows, cols, rates) of the generator Q in canonical order.

    Every jump up -> down, then every jump down -> up, then one diagonal
    entry per state, minus its total out-rate, so every row sums to zero.
    """
    up, down, up_rate, down_rate = _jumps(spec, cap)
    diag = np.arange(spec.num_states())
    rows = np.concatenate((up, down, diag))
    off = np.concatenate((up_rate, down_rate))
    out_rate = np.bincount(rows[: off.size], weights=off, minlength=diag.size)
    return rows, np.concatenate((down, up, diag)), np.concatenate((off, -out_rate))


def build_generator(
    spec: ChainSpec, cap: int = DEFAULT_STATE_CAP
) -> "scipy.sparse.csr_matrix":
    """Sparse generator Q over all configurations in canonical order.

    Q[i, j] is the jump rate from state i to j; diagonal entries make the
    rows sum to zero.
    """
    import scipy.sparse as sp

    rows, cols, rates = _generator_entries(spec, cap)
    count = spec.num_states()
    return sp.csr_matrix((rates, (rows, cols)), shape=(count, count))


def stationary_solve(spec: ChainSpec, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """Stationary distribution from pi Q = 0, sum(pi) = 1, by sparse LU.

    One state p is pinned to pi_p = 1: row p of Q^T becomes the unit row
    e_p, column p moves to the right-hand side, and the N-system M x = rhs
    is factored by SuperLU in symmetric mode under the MMD_AT_PLUS_A
    ordering (the generator's pattern is the structurally symmetric grid;
    cleared of its row and column, p is a lone diagonal entry and adds no
    fill), solved and normalised.  p is the mode of the Gibbs weight
    exp((1/2)[(A_s xi, xi) - (alpha, xi)] - (delta, xi)), with A_s the
    symmetric part of A = A_b - A_d: the exact mode for a reversible spec
    and a guess otherwise.  A pin of low mass would scale the other
    unknowns past float64: on a single vertex with A_b = 0, A_d = 1 and
    l = r = 30, a pin at either end leaves an exactly singular factor.
    Works for any (possibly asymmetric) interaction matrices; the chain is
    irreducible because all interior rates are positive.

    Two routes factor M.  In canonical order the generator is banded, with
    bandwidth B = (l + r + 1)^(n - 1), the states one level of the last
    vertex spans.  A reversible spec with B >= 200 and n >= 3, whose
    nonzero |entries| of M and rhs all lie in float32's normal range, takes
    the float32 route first: M is factored in float32, and the solve is
    refined in float64 (Langou et al. 2006).  Each step solves the float64
    residual rhs - M x, scaled to unit max-norm, with the float32 factor
    and adds the correction in float64, until a correction is not at most
    half the one before, or for 30 steps.  Smaller or two-vertex specs
    would lose more to the steps than the float32 factor saves.  A
    RuntimeError from that factor, a non-finite step, or a law that fails
    a gate, with the Gibbs gate at 5e-13, sends the call on to the float64
    route.  That route, and the only route of every other spec, factors M
    in float64 and takes one step of iterative refinement; its gate
    failures raise.  Irreversible specs never take the float32 route: no
    exact law would catch a float32 solve that settles off the law (one
    random path(2) spec, l = 9, r = 6, came out 8.4e-9 off GTH, where the
    float64 route is 3.5e-11 off).  Entries of the law below float32's
    normal range (about 1e-38 of the largest) come out of the float32
    route exact only to absolute rounding, which the absolute gates accept.

    SingularSystemError is raised when the float64 factor is singular,
    when the balance residual max |Q^T pi| exceeds 1e-10, when an entry is
    below -1e-12, or, for a reversible spec, when pi is more than 1e-9 off
    the Gibbs law, which is exact there; the law returned is always the
    solve's own.

    Known limit: a metastable double well whose barrier passes float64
    defeats every pin, and the residual gate does not see it.  On a single
    vertex with A_b = 0.1, A_d = 0 and l = r = 40 the solve is about 0.96
    off the Gibbs law; that spec is reversible, so it raises.  An
    irreversible spec has no exact law to check against, and no error is
    raised when the solve is wrong: of 293 random irreversible specs on
    path(2) with l = r = 4, 31 came back more than 1e-9 off a GTH solve, up
    to 0.64 on A_b = [[0.66, 0.993], [2.552, 0.968]] and A_d = [[-4.075,
    -1.736], [-0.598, 2.142]], where the solve puts 0.999 on state 80 and
    the law is 0.641 on state 0.

    Memory is set by the fill of the factor, not by N^2: nnz(L + U) was
    measured at 0.43-0.68 N B.  Before it enumerates a state, the call
    counts the factor of the route that will run at _FACTOR_BYTES bytes
    per state and unit of B (16 in float64, 11 in float32) and raises
    StateSpaceTooLargeError, naming the bytes, past physical memory; a
    fallback from the float32 route counts the float64 factor again before
    it factors.  Measured on cycle(4) with l = r and coefficients of the
    size used by the benchmark, on a 2-vCPU host, float64 route against
    float32 route: 0.41-0.50 s against 0.24-0.26 s at 6561 states (peak RSS
    111 against 93 MB), and 3.6 s against 1.9-2.2 s at 14 641 states (235
    against 187 MB).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    count = _capped_count(spec, cap)
    block = spec.num_spin_values ** (spec.num_vertices - 1)
    single = (
        block >= _SINGLE_MIN_BLOCK
        and spec.num_vertices >= _SINGLE_MIN_VERTICES
        and is_symmetric(spec.drift_matrix)
    )
    _require_factor_memory(count, block, np.float32 if single else np.float64)
    _, log_weight = _gibbs_table(spec, cap)
    rows, cols, rates = _generator_entries(spec, cap)
    # (A xi, xi) = (A_s xi, xi), so the Gibbs log weight needs no A_s
    p = int(np.argmax(log_weight))
    # Q[i, j] is Q^T[j, i].  Row p of Q^T becomes e_p, and column p, times
    # pi_p = 1, moves to the right-hand side, so p leaves the factor's graph
    from_p = rows == p
    pinned = np.where(from_p | (cols == p), rows == cols, rates)
    m = sp.csc_matrix((pinned, (cols, rows)), shape=(count, count))
    m.eliminate_zeros()
    rhs = np.bincount(cols, weights=np.where(from_p, -rates, 0.0), minlength=count)
    rhs[p] = 1.0
    options = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    if single and _fits_float32(m.data) and _fits_float32(rhs):
        pi = _refined_float32_solve(m, rhs, options)
        if pi is not None and not _gate_failure(
            spec, cap, rows, cols, rates, pi, _SINGLE_GIBBS_GAP
        ):
            return pi
        _require_factor_memory(count, block, np.float64)
    try:
        lu = splu(m, **options)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise SingularSystemError(
            "balance system is singular; the chain should be irreducible"
        ) from exc
    pi = lu.solve(rhs)
    # one step of iterative refinement sharpens ill-conditioned solves
    pi += lu.solve(rhs - m @ pi)
    pi /= pi.sum()
    failure = _gate_failure(spec, cap, rows, cols, rates, pi, 1e-9)
    if failure:
        raise SingularSystemError(failure)
    return pi


def _require_factor_memory(count: int, block: int, dtype) -> None:
    """Raise StateSpaceTooLargeError, naming the bytes, if the LU factor of
    count states at bandwidth block, in dtype, would pass physical memory."""
    dtype = np.dtype(dtype)
    nbytes = _FACTOR_BYTES[dtype.itemsize] * count * block
    if nbytes > errors._PHYSICAL_MEMORY:
        raise StateSpaceTooLargeError(
            f"the {dtype.name} LU factor of {count} states at bandwidth {block} "
            f"needs about {nbytes} bytes, past physical memory"
        )


def _fits_float32(values: np.ndarray) -> bool:
    """True iff every nonzero |value| lies in float32's normal range."""
    big = np.abs(values[values != 0])
    info = np.finfo(np.float32)
    return bool(big.min(initial=np.inf) >= info.tiny and big.max(initial=0.0) <= info.max)


def _refined_float32_solve(m, rhs: np.ndarray, options: dict) -> np.ndarray | None:
    """The normalised solution of m x = rhs from a float32 factor of m,
    refined in float64 until a correction is not at most half the one
    before, or for _REFINE_STEPS steps; None if the factor raises or a
    step or the sum is not finite."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(m.astype(np.float32), **options)
    except RuntimeError:
        return None
    x = np.zeros_like(rhs)
    residual, last = rhs, np.inf
    # an overflow past float32 or float64 shows as a non-finite step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_REFINE_STEPS):
            # the residual is scaled to unit max-norm, so that its cast
            # neither overflows nor flushes to zero
            scale = np.abs(residual).max()
            if scale == 0.0:
                break
            step = lu.solve((residual / scale).astype(np.float32)) * scale
            size = float(np.abs(step).max())
            if not math.isfinite(size):
                return None
            x += step
            if not size <= last / 2:
                break
            last = size
            residual = rhs - m @ x
        total = x.sum()
    return x / total if math.isfinite(total) else None


def _gate_failure(spec, cap, rows, cols, rates, pi, gibbs_gap: float) -> str:
    """Why the law pi fails a gate of stationary_solve, or "" if it passes:
    a balance residual max |Q^T pi| past 1e-10, an entry below -1e-12, or,
    for a reversible spec, a distance to the Gibbs law past gibbs_gap."""
    balance = np.bincount(cols, weights=rates * pi[rows], minlength=pi.size)
    residual = float(np.abs(balance).max())
    if not residual <= 1e-10:
        return (
            f"stationary residual {residual:.3e} exceeds 1e-10; "
            "conditioning is off for this spec"
        )
    low = float(pi.min())
    if not low >= -1e-12:
        return (
            f"stationary entry {low:.3e} is below -1e-12; conditioning is off "
            "for this spec"
        )
    if is_symmetric(spec.drift_matrix):
        gap = float(np.abs(pi - gibbs_measure(spec, cap).probabilities).max())
        if not gap <= gibbs_gap:
            return (
                f"stationary law is {gap:.3e} off the exact Gibbs law, past "
                f"{np.format_float_scientific(gibbs_gap, trim='-', exp_digits=1)}; "
                "conditioning is off for this spec"
            )
    return ""


@dataclass(frozen=True, eq=False)
class GibbsDistribution:
    """Stationary law of a reversible spec, with its log partition value."""

    probabilities: np.ndarray
    log_partition: float


def gibbs_exponent(spec: ChainSpec, states: np.ndarray) -> np.ndarray:
    """(1/2)[(A xi, xi) - (alpha, xi)] rowwise; alpha is the diagonal of A."""
    a = spec.drift_matrix
    s = states.astype(float)
    quad = np.einsum("ij,ij->i", s @ a, s)
    lin = s @ np.diag(a)
    return 0.5 * (quad - lin)


def gibbs_measure(spec: ChainSpec, cap: int = DEFAULT_STATE_CAP) -> GibbsDistribution:
    """Closed-form stationary law for symmetric A = A_b - A_d.

    Probabilities are proportional to
    exp((1/2)[(A xi, xi) - (alpha, xi)] - (delta, xi)), where alpha and
    delta are the diagonals of A and A_d; the log partition value is
    computed with the usual max-shift so large exponents cannot overflow.
    The chain is then reversible (Kelly 1979): a jump xi -> xi + e_x
    multiplies the weight by exp((A xi)_x - delta_x), the ratio of its
    birth rate at xi to the death rate exp((A_d xi)_x + delta_x) at
    xi + e_x.
    """
    if not is_symmetric(spec.drift_matrix):
        raise AsymmetricMatrixError(
            "A_b - A_d is not symmetric; the closed-form stationary "
            "distribution only applies to the reversible case"
        )
    _, energy = _gibbs_table(spec, cap)
    shift = energy.max()
    log_z = float(np.log(np.exp(energy - shift).sum()) + shift)
    probs = np.exp(energy - log_z)
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise NumericError(
            f"gibbs probabilities sum to {total!r}; numeric trouble"
        )
    probs.setflags(write=False)
    return GibbsDistribution(probabilities=probs, log_partition=log_z)


@_per_spec
def _gibbs_table(spec: ChainSpec, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(enumerate_states, unnormalised log Gibbs weight of each state), the
    weight being gibbs_exponent - (delta, xi) with delta the diagonal of A_d.

    Both are read-only and kept for the last (spec, cap), so that _jumps
    (for its states), stationary_solve (for its pin) and gibbs_measure on
    one spec enumerate and weigh once; a spec never changes, and neither do
    its states.
    """
    states = enumerate_states(spec, cap)
    weight = gibbs_exponent(spec, states) - states @ np.diag(spec.death_matrix)
    states.setflags(write=False)
    weight.setflags(write=False)
    return states, weight


def check_detailed_balance(spec: ChainSpec, cap: int = DEFAULT_STATE_CAP) -> float:
    """Max |q(xi, xi + e_x) mu(xi) - q(xi + e_x, xi) mu(xi + e_x)| over every
    jump of the chain, for mu the Gibbs law; both rates are the chain's own,
    from _jumps.
    """
    mu = gibbs_measure(spec, cap).probabilities
    up, down, up_rate, down_rate = _jumps(spec, cap)
    return float(np.abs(up_rate * mu[up] - down_rate * mu[down]).max())
