"""Reproducible scaling-limit experiments at desk scale.

Three drivers share the same schedule machinery and take each level's
chain and jump rates from bdlimits.chain:

* diffusion scaling: rates from eps^2-scaled matrices, time sped up by
  eps^-2, space shrunk by eps; the rescaled marginal is compared against
  the exact Gaussian transition law of the limit SDE.
* fluid scaling: rates from eps-scaled matrices, time sped up by eps^-1;
  the rescaled path is compared in sup distance against the RK4 solution
  of the limit ODE.
* generator convergence: the discrete generator applied to a smooth
  compactly-supported bump, compared pointwise against the limit
  second-order operator; the sup error is first order in eps.

The two Monte-Carlo drivers share one replica loop.  Every replica draws
its own generator seeded by (seed, level, replica), so results are
independent of execution order and reproducible bit-for-bit.  The
diffusion driver needs only final states, so on a single-vertex graph its
replicas run in lockstep chunks (chain._simulate_lockstep) with the same
final states, events and boundary hits as one simulate call each; every
other replica is one simulate call.  Each driver validates its matrices
once; the per-level specs are scaled copies of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain import ChainSpec, Trajectory, _rate_blocks, _simulate_lockstep, simulate
from .diffusion import exact_transition
from .errors import BudgetExceededError, SupportNotCoveredError, ValidationError
from .fluid import rk4_integrate
from .graphs import Graph, validate_interaction

DEFAULT_EVENT_BUDGET = 100_000_000

REGIMES = ("diffusion", "fluid")


@dataclass(frozen=True, eq=False)
class ScalingSchedule:
    """Finite prefix of a scaling sequence (eps_n, l_n = r_n) plus the start point.

    eps_n must decrease strictly while l_n * eps_n increases strictly, so
    the truncation box grows faster than the space rescaling shrinks it.
    """

    epsilons: np.ndarray
    box_sizes: np.ndarray
    initial_point: np.ndarray
    regime: str

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        boxes = np.asarray(self.box_sizes, dtype=np.int64)
        u = np.atleast_1d(np.asarray(self.initial_point, dtype=float))
        if self.regime not in REGIMES:
            raise ValidationError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if eps.ndim != 1 or eps.size == 0:
            raise ValidationError("epsilons must be a nonempty 1-d sequence")
        if not (np.isfinite(eps).all() and np.isfinite(u).all()):
            raise ValidationError("epsilons and initial_point must be finite")
        if boxes.shape != eps.shape:
            raise ValidationError("box_sizes must match epsilons in length")
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValidationError("epsilons must be positive and strictly decreasing")
        if np.any(boxes < 1):
            raise ValidationError("box sizes must be positive")
        scaled = eps * boxes
        if np.any(np.diff(scaled) <= 0):
            raise ValidationError(
                "l_n * eps_n must increase strictly (box must outgrow the rescaling)"
            )
        for name, arr in (("epsilons", eps), ("box_sizes", boxes), ("initial_point", u)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_levels(self) -> int:
        return int(self.epsilons.size)


def geometric_schedule(
    regime: str,
    initial_point,
    num_levels: int,
    coarsest_log2_eps: int = -2,
    step_log2: int = 1,
) -> ScalingSchedule:
    """eps_n = 2^(coarsest - n*step) with boxes l_n = ceil(eps_n^-2).

    The default start 2^-2 and unit step give eps_n = 2^(-n-2), for which
    l_n * eps_n = eps_n^-1 doubles every level.
    """
    if num_levels < 1:
        raise ValidationError("need at least one level")
    eps = 2.0 ** (coarsest_log2_eps - step_log2 * np.arange(num_levels, dtype=float))
    boxes = np.ceil(eps**-2.0).astype(np.int64)
    return ScalingSchedule(
        epsilons=eps, box_sizes=boxes, initial_point=initial_point, regime=regime
    )


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    epsilon: float
    statistic: str
    empirical: float
    limit: float | None = None
    abs_error: float | None = None
    mc_stderr: float | None = None


@dataclass
class ConvergenceTable:
    """Per-level experiment results, one row per (level, statistic)."""

    rows: list[ConvergenceRow] = field(default_factory=list)

    def add(self, *args, **kwargs) -> None:
        self.rows.append(ConvergenceRow(*args, **kwargs))

    def statistic(self, name: str) -> list[ConvergenceRow]:
        return [row for row in self.rows if row.statistic == name]

    def errors(self, name: str) -> np.ndarray:
        """abs_error of one statistic across levels, in level order."""
        rows = sorted(self.statistic(name), key=lambda r: r.level)
        return np.array([row.abs_error for row in rows], dtype=float)


def _time_scale(regime: str, eps: float) -> float:
    """eps^2 (diffusion) or eps (fluid): the factor on the interaction
    matrices at one level, and the inverse of its time speed-up."""
    return eps**2 if regime == "diffusion" else eps


def _check_schedule(graph: Graph, schedule: ScalingSchedule, regime: str, **finite):
    """The schedule's regime, its initial point against the graph, and the
    named values being finite; shared by the three drivers' configs."""
    if schedule.regime != regime:
        raise ValidationError(f"schedule regime must be {regime!r}")
    if schedule.initial_point.shape[0] != graph.num_vertices:
        raise ValidationError(
            "schedule initial point does not match the number of vertices"
        )
    for name, value in finite.items():
        if not np.isfinite(value).all():
            raise ValidationError(f"{name} must be finite, got {value}")


def rescaled_chain_spec(
    graph: Graph,
    birth_matrix,
    death_matrix,
    schedule: ScalingSchedule,
    level: int,
) -> tuple[ChainSpec, np.ndarray]:
    """ChainSpec at one schedule level plus its discretized start configuration.

    Matrices scale by eps^2 in the diffusion regime and by eps in the fluid
    regime; the start configuration is the componentwise nearest integer to
    u/eps, clamped into the box.
    """
    if not 0 <= level < schedule.num_levels:
        raise ValidationError(f"level {level} outside schedule of {schedule.num_levels}")
    ab = validate_interaction(graph, birth_matrix)
    ad = validate_interaction(graph, death_matrix)
    _check_schedule(graph, schedule, schedule.regime)
    return _level_spec(graph, ab, ad, schedule, level)


def _level_spec(graph, ab, ad, schedule, level) -> tuple[ChainSpec, np.ndarray]:
    """rescaled_chain_spec for matrices the caller has validated once."""
    eps = float(schedule.epsilons[level])
    scale = _time_scale(schedule.regime, eps)
    box = int(schedule.box_sizes[level])
    spec = ChainSpec._prevalidated(graph, scale * ab, scale * ad, box)
    xi0 = np.clip(np.rint(schedule.initial_point / eps), -box, box).astype(np.int64)
    return spec, xi0


def _check_projected_budget(
    spec: ChainSpec, xi0: np.ndarray, horizon: float, replicas: int, budget: int
) -> None:
    # crude projection from the initial total rate; mean-reverting benchmark
    # specs stay near this rate for their whole run
    blocks = _rate_blocks(spec, xi0[None, :])
    rate = sum(float(up.sum() + down.sum()) for _, _, up, _, down in blocks)
    projected = rate * horizon * replicas
    if projected > budget:
        raise BudgetExceededError(
            f"projected {projected:.3g} events exceed the budget of {budget}"
        )


def _replica_seed(seed: int, level: int, replica: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(seed), int(level), int(replica)))


def _replica_table(config, ab, ad, tabulate, path_statistic=None) -> ConvergenceTable:
    """The per-level replica loop of the two Monte-Carlo drivers, on the
    matrices ab and ad the driver validated from config.

    Each level runs `replicas` copies of the rescaled chain to t / eps^2 or
    t / eps under what is left of the event budget, reduces each copy to
    path_statistic(eps, trajectory), or to its final state when
    path_statistic is None, lets tabulate(table, level, eps, values) add the
    driver's rows, and adds the boundary_hits and events rows.
    """
    schedule = config.schedule
    table = ConvergenceTable()
    events_used = 0
    for level in range(schedule.num_levels):
        eps = float(schedule.epsilons[level])
        spec, xi0 = _level_spec(config.graph, ab, ad, schedule, level)
        horizon = config.t / _time_scale(schedule.regime, eps)
        left = config.event_budget - events_used
        _check_projected_budget(spec, xi0, horizon, config.replicas, left)
        # built as the replicas run, so a level holds at most one chunk of them
        seeds = (_replica_seed(config.seed, level, rep) for rep in range(config.replicas))
        if path_statistic is None and spec.num_vertices == 1:
            spins, counts, hit_counts = _simulate_lockstep(
                spec, xi0, horizon, seeds, left
            )
            values = spins[:, None]
            hits, events = int(hit_counts.sum()), int(counts.sum())
        else:
            statistic = (
                partial(path_statistic, eps) if path_statistic else Trajectory.final_state
            )
            values, hits, events = _sequential_replicas(
                spec, xi0, horizon, seeds, left, statistic
            )
        events_used += events
        tabulate(table, level, eps, values)
        table.add(level, eps, "boundary_hits", float(hits), 0.0, float(hits), None)
        table.add(level, eps, "events", float(events_used), None, None, None)
    return table


def _sequential_replicas(spec, xi0, horizon, seeds, budget, statistic):
    """(statistic per replica, boundary hits, events) of one level's
    replicas, each a simulate call under what is left of budget."""
    values = []
    hits = used = 0
    for seed in seeds:
        traj = simulate(spec, xi0, horizon, seed=seed, max_events=budget - used)
        used += traj.num_events
        hits += traj.boundary_hits(spec.l, spec.r)
        values.append(statistic(traj))
    return np.array(values), hits, used


@dataclass(frozen=True, eq=False)
class DiffusionExperimentConfig:
    graph: Graph
    birth_matrix: np.ndarray
    death_matrix: np.ndarray
    schedule: ScalingSchedule
    t: float
    replicas: int = 2000
    seed: int = 0
    event_budget: int = DEFAULT_EVENT_BUDGET

    def __post_init__(self):
        _check_schedule(self.graph, self.schedule, "diffusion", t=self.t)
        if self.t <= 0 or self.replicas < 1:
            raise ValidationError("need t > 0 and at least one replica")


def run_diffusion_experiment(config: DiffusionExperimentConfig) -> ConvergenceTable:
    """Rescaled chain marginal at time t versus the exact OU transition law.

    For each level the chain runs to time t/eps^2 in `replicas` independent
    copies; the empirical mean and covariance of eps * xi(final) are tabled
    against the Gaussian law with Monte-Carlo standard errors.
    """
    ab = validate_interaction(config.graph, config.birth_matrix)
    ad = validate_interaction(config.graph, config.death_matrix)
    u = config.schedule.initial_point
    exact_mean, exact_cov = exact_transition(ab - ad, u, config.t)
    d = config.graph.num_vertices
    n = config.replicas

    def tabulate(table, level, eps, finals):
        samples = eps * finals
        emp_mean = samples.mean(axis=0)
        emp_cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
        se_mean = samples.std(axis=0, ddof=1) / math.sqrt(n)
        rows = [(f"mean_{x}", emp_mean[x], exact_mean[x], se_mean[x]) for x in range(d)]
        for i in range(d):
            for j in range(i, d):
                # gaussian standard error of a covariance entry
                se = math.sqrt(
                    (emp_cov[i, i] * emp_cov[j, j] + emp_cov[i, j] ** 2) / (n - 1)
                )
                rows.append((f"cov_{i}_{j}", emp_cov[i, j], exact_cov[i, j], se))
        for name, emp, exact, se in rows:
            emp, exact = float(emp), float(exact)
            table.add(level, eps, name, emp, exact, abs(emp - exact), float(se))

    return _replica_table(config, ab, ad, tabulate)


@dataclass(frozen=True, eq=False)
class FluidExperimentConfig:
    graph: Graph
    birth_matrix: np.ndarray
    death_matrix: np.ndarray
    schedule: ScalingSchedule
    t: float
    replicas: int = 1
    grid_points: int = 200
    ode_dt: float = 1e-3
    seed: int = 0
    event_budget: int = DEFAULT_EVENT_BUDGET

    def __post_init__(self):
        _check_schedule(self.graph, self.schedule, "fluid", t=self.t, ode_dt=self.ode_dt)
        if self.t <= 0 or self.replicas < 1 or self.grid_points < 2:
            raise ValidationError("need t > 0, replicas >= 1, grid_points >= 2")


def run_fluid_experiment(config: FluidExperimentConfig) -> ConvergenceTable:
    """Sup distance of the rescaled chain path to the fluid ODE solution.

    D_n is the max over a fixed observation grid on [0, t] of the max-norm
    distance between eps * xi(s/eps) and the RK4 reference path; with more
    than one replica the mean of D_n is reported with its standard error.
    """
    ab = validate_interaction(config.graph, config.birth_matrix)
    ad = validate_interaction(config.graph, config.death_matrix)
    reference = rk4_integrate(
        ab, ad, config.schedule.initial_point, dt=config.ode_dt, t_end=config.t
    )
    grid = np.linspace(0.0, config.t, config.grid_points)
    ref_states = reference.at(grid)

    def sup_distance(eps, traj):
        return float(np.abs(eps * traj.states_at(grid / eps) - ref_states).max())

    def tabulate(table, level, eps, sups):
        d_level = float(sups.mean())
        n = len(sups)
        stderr = float(sups.std(ddof=1) / math.sqrt(n)) if n > 1 else None
        table.add(level, eps, "sup_distance", d_level, 0.0, d_level, stderr)

    return _replica_table(config, ab, ad, tabulate, sup_distance)


def _bump_frame(points, center, radius: float):
    """(p, c, g, inside): points as rows, the center, g = 1 - |p - c|^2 / rho^2
    and the points where the bump is not negligibly small."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.asarray(center, dtype=float).reshape(-1)
    g = 1.0 - ((p - c) ** 2).sum(axis=1) / radius**2
    inside = g > 1e-8  # exp(-1/g) underflows to 0 long before this floor
    return p, c, g, inside


def bump_value(points, center, radius: float) -> np.ndarray:
    """Smooth bump exp(-1/(1 - |u-c|^2/rho^2)) inside the ball, 0 outside."""
    p, _, g, inside = _bump_frame(points, center, radius)
    out = np.zeros(p.shape[0])
    out[inside] = np.exp(-1.0 / g[inside])
    return out


def bump_gradient(points, center, radius: float) -> np.ndarray:
    """Partial derivatives of the bump, shape (num_points, d)."""
    p, c, g, inside = _bump_frame(points, center, radius)
    out = np.zeros_like(p)
    gi = g[inside]
    f = np.exp(-1.0 / gi)
    gprime = -2.0 * (p[inside] - c) / radius**2
    out[inside] = (f / gi**2)[:, None] * gprime
    return out


def bump_second_diag(points, center, radius: float) -> np.ndarray:
    """Pure second partials d^2 f / du_x^2 of the bump, shape (num_points, d)."""
    p, c, g, inside = _bump_frame(points, center, radius)
    out = np.zeros_like(p)
    gi = g[inside][:, None]
    f = np.exp(-1.0 / gi)
    gprime = -2.0 * (p[inside] - c) / radius**2
    out[inside] = f * (
        (gprime / gi**2) ** 2 - 2.0 / (radius**2 * gi**2) - 2.0 * gprime**2 / gi**3
    )
    return out


@dataclass(frozen=True, eq=False)
class GeneratorCheckConfig:
    graph: Graph
    birth_matrix: np.ndarray
    death_matrix: np.ndarray
    schedule: ScalingSchedule
    center: np.ndarray | None = None
    radius: float = 2.0
    grid_points: int = 41

    def __post_init__(self):
        c = (
            np.zeros(self.graph.num_vertices)
            if self.center is None
            else np.atleast_1d(np.asarray(self.center, dtype=float))
        )
        _check_schedule(
            self.graph, self.schedule, "diffusion", center=c, radius=self.radius
        )
        if c.shape[0] != self.graph.num_vertices:
            raise ValidationError("bump center does not match the number of vertices")
        if self.radius <= 0 or self.grid_points < 3:
            raise ValidationError("need radius > 0 and grid_points >= 3")
        object.__setattr__(self, "center", c)


def generator_convergence_check(config: GeneratorCheckConfig) -> ConvergenceTable:
    """Sup distance between the discrete and limit generators on a bump.

    For each level: E_n = max over a grid of u in the bump's support of
    |L_n f(eps * round(u/eps)) - L f(u)| where L_n applies the jump-rate
    finite differences of the eps^2-scaled chain (the rates of
    rescaled_chain_spec, under the chain's exponent guard) and L is the
    limit operator sum_x f''_xx + sum_x (A u)_x f'_x.  Also reports
    E_n / eps_n, which stays bounded under the first-order error expansion.
    Raises RateOverflowError if a rate exponent on the grid exceeds
    MAX_EXPONENT.
    """
    graph = config.graph
    d = graph.num_vertices
    ab = validate_interaction(graph, config.birth_matrix)
    ad = validate_interaction(graph, config.death_matrix)
    a = ab - ad
    c, rho = config.center, config.radius
    axes = [
        np.linspace(c[x] - rho, c[x] + rho, config.grid_points) for x in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    limit_values = bump_second_diag(points, c, rho).sum(axis=1) + (
        (points @ a.T) * bump_gradient(points, c, rho)
    ).sum(axis=1)

    unit = np.eye(d, dtype=np.int64)
    table = ConvergenceTable()
    for level in range(config.schedule.num_levels):
        eps = float(config.schedule.epsilons[level])
        spec, _ = _level_spec(graph, ab, ad, config.schedule, level)
        half_width = eps * spec.r
        if np.any(c - rho < -half_width) or np.any(c + rho > half_width):
            raise SupportNotCoveredError(
                f"bump support radius {rho} around {c.tolist()} exceeds the "
                f"scaled box half-width {half_width} at level {level}"
            )
        xi = np.rint(points / eps).astype(np.int64)
        f0 = bump_value(eps * xi, c, rho)
        ln = np.zeros(points.shape[0])
        for x, up, up_rate, down, down_rate in _rate_blocks(spec, xi):
            f_up = bump_value(eps * (xi[up] + unit[x]), c, rho)
            f_down = bump_value(eps * (xi[down] - unit[x]), c, rho)
            ln[up] += (f_up - f0[up]) * up_rate
            ln[down] += (f_down - f0[down]) * down_rate
        ln /= eps**2
        sup_error = float(np.abs(ln - limit_values).max())
        table.add(level, eps, "sup_error", sup_error, 0.0, sup_error, None)
        table.add(level, eps, "error_ratio", sup_error / eps, None, None, None)
    return table
