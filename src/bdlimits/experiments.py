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

The three configs validate their matrices once, at construction, and
build each level's spec as a scaled copy of them.  Every level's replicas
run through one entry, chain._run_replicas, and each draws its own
generator seeded by (seed, level, replica), so results are independent of
execution order and reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain import ChainSpec, _rate_blocks, _run_replicas
from .diffusion import exact_transition
from .errors import (
    BudgetExceededError,
    NumericError,
    SupportNotCoveredError,
    ValidationError,
    real_array,
    require_integer,
    require_memory,
    require_real,
    require_seed,
)
from .fluid import DEFAULT_DT, rk4_integrate
from .graphs import Graph, validate_interaction

DEFAULT_EVENT_BUDGET = 100_000_000

REGIMES = ("diffusion", "fluid")

# an eps at or below 2^-31.5 has a box ceil(eps^-2) of 2^63 or more, past int64
_LOG2_EPS_FLOOR = -31.5


@dataclass(frozen=True, eq=False)
class ScalingSchedule:
    """Finite prefix of a scaling sequence (eps_n, l_n = r_n) plus the start point.

    eps_n must decrease strictly while l_n * eps_n increases strictly, so the
    truncation box grows faster than the space rescaling shrinks it.  box_sizes
    None means l_n = ceil(eps_n^-2), which needs every eps_n above 2^-31.5 to
    fit int64 and every eps_n^-2 above the float underflow (eps_n below about
    2^537.5); eps_n^2 scales diffusion time, so there eps_n is below 2^512.
    """

    epsilons: np.ndarray
    box_sizes: np.ndarray | None
    initial_point: np.ndarray
    regime: str

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        eps = real_array("epsilons", self.epsilons)
        u = np.atleast_1d(real_array("initial_point", self.initial_point))
        try:
            raw = None if self.box_sizes is None else np.asarray(self.box_sizes)
        except ValueError:  # a ragged sequence
            raise ValidationError("box sizes must be finite integers") from None
        if self.regime not in REGIMES:
            raise ValidationError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if eps.ndim != 1 or eps.size == 0:
            raise ValidationError("epsilons must be a nonempty 1-d sequence")
        if u.ndim != 1:
            raise ValidationError("initial_point must be a 1-d vector")
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValidationError("epsilons must be positive and strictly decreasing")
        too_coarse = eps[eps >= 2.0**512].tolist()
        if self.regime == "diffusion" and too_coarse:
            raise ValidationError(
                f"epsilons {too_coarse} are at or above 2^512: their squares, "
                "the diffusion time scale, pass the float range"
            )
        if raw is None:
            too_fine = eps[~(np.log2(eps) > _LOG2_EPS_FLOOR)].tolist()
            if too_fine:
                raise ValidationError(
                    f"epsilons {too_fine} are at or below 2^{_LOG2_EPS_FLOOR}: "
                    "their boxes ceil(eps^-2) pass int64"
                )
            raw = np.ceil(eps**-2.0)
            underflow = eps[raw == 0].tolist()
            if underflow:
                raise ValidationError(
                    f"epsilons {underflow} are so coarse that eps^-2 underflows to 0: "
                    "their boxes ceil(eps^-2) would be empty"
                )
        # strings and bools cast cleanly, and ints past int64 not at all; a
        # cast that changes a value would run a box the caller did not ask for
        with np.errstate(invalid="ignore"):
            boxes = raw.astype(np.int64) if raw.dtype.kind in "iuf" else None
        if boxes is None or not np.array_equal(boxes, raw):
            raise ValidationError("box sizes must be finite integers")
        if boxes.shape != eps.shape:
            raise ValidationError("box_sizes must match epsilons in length")
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
    l_n * eps_n = eps_n^-1 doubles every level.  Before any array is made,
    raises ValidationError for a count or exponent that is not an integer
    (integral floats such as 1.0 too), for a step_log2 <= 0 over two or more
    levels (eps would not decrease), for a finest eps of 2^-31.5 or less,
    whose box would not fit int64, and for a coarsest eps past the float
    range; ScalingSchedule refuses a diffusion eps of 2^512 or more, and an
    eps whose eps^-2 underflows to 0, which would give an empty box.
    """
    levels = require_integer("num_levels", num_levels)
    coarsest_log2_eps = require_integer("coarsest_log2_eps", coarsest_log2_eps)
    step_log2 = require_integer("step_log2", step_log2)
    if levels < 1:
        raise ValidationError("need at least one level")
    if levels >= 2 and not step_log2 > 0:
        raise ValidationError(f"step_log2 must be positive over {levels} levels")
    finest = coarsest_log2_eps - step_log2 * (levels - 1)
    if not (finest > _LOG2_EPS_FLOOR and coarsest_log2_eps < 1024):
        raise ValidationError(
            f"eps from 2^{coarsest_log2_eps} to 2^{finest} is not a float, or its "
            "box ceil(eps^-2) passes int64"
        )
    # both ends are now floats, and one level never reads the step
    eps = 2.0 ** np.linspace(coarsest_log2_eps, finest, levels)
    return ScalingSchedule(eps, None, initial_point, regime)


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


@dataclass(frozen=True, eq=False)
class _ScaledModel:
    """Graph, interaction matrices and scaling schedule of one experiment;
    the matrices are validated once, at construction, and kept as read-only
    copies, so changing the caller's arrays later changes nothing here."""

    graph: Graph
    birth_matrix: np.ndarray
    death_matrix: np.ndarray
    schedule: ScalingSchedule

    def __post_init__(self, regime: str):
        for name in ("birth_matrix", "death_matrix"):
            matrix = validate_interaction(self.graph, getattr(self, name))
            object.__setattr__(self, name, matrix)
        if self.schedule.initial_point.shape[0] != self.graph.num_vertices:
            raise ValidationError(
                "schedule initial point does not match the number of vertices"
            )
        if self.schedule.regime != regime:
            raise ValidationError(f"schedule regime must be {regime!r}")

    def _level_chain(self, level: int) -> tuple[ChainSpec, np.ndarray]:
        """ChainSpec at one level (matrices times eps^2 in the diffusion
        regime, eps in the fluid one) and its start configuration: u/eps
        rounded componentwise and clamped into the box."""
        eps = float(self.schedule.epsilons[level])
        scale = _time_scale(self.schedule.regime, eps)
        box = int(self.schedule.box_sizes[level])
        spec = ChainSpec(
            self.graph, scale * self.birth_matrix, scale * self.death_matrix, box, box
        )
        start = np.rint(self.schedule.initial_point / eps)
        return spec, np.clip(start, -box, box).astype(np.int64)


def _replica_seed(seed: int, level: int, replica: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(seed), int(level), int(replica)))


def _require_seed_and_budget(seed, event_budget) -> None:
    """The seed and event budget of a Monte-Carlo experiment config."""
    require_seed(seed)
    if require_integer("event_budget", event_budget) < 0:
        raise ValidationError(f"event_budget must be nonnegative, got {event_budget}")


def _replica_table(config, tabulate, path_statistic=None) -> ConvergenceTable:
    """The per-level replica loop of the two Monte-Carlo drivers.

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
        spec, xi0 = config._level_chain(level)
        horizon = config.t / _time_scale(schedule.regime, eps)
        left = config.event_budget - events_used
        # crude projection from the initial total rate; mean-reverting
        # benchmark specs stay near this rate for their whole run
        blocks = _rate_blocks(spec, xi0[None, :])
        rate = sum(float(up.sum() + down.sum()) for _, _, up, _, down in blocks)
        # per replica, so that no count of replicas overflows a float
        projected = rate * horizon
        if projected > left / config.replicas:
            raise BudgetExceededError(
                f"projected {projected:.3g} events per replica times "
                f"{config.replicas} replicas exceed the budget of {left}"
            )
        # built as the replicas run, so a level holds at most one chunk of them
        seeds = (_replica_seed(config.seed, level, rep) for rep in range(config.replicas))
        statistic = path_statistic and partial(path_statistic, eps)
        values, hits, events = _run_replicas(spec, xi0, horizon, seeds, left, statistic)
        events_used += events
        tabulate(table, level, eps, values)
        table.add(level, eps, "boundary_hits", float(hits), 0.0, float(hits), None)
        table.add(level, eps, "events", float(events_used), None, None, None)
    return table


@dataclass(frozen=True, eq=False)
class DiffusionExperimentConfig(_ScaledModel):
    t: float
    replicas: int = 2000
    seed: int = 0
    event_budget: int = DEFAULT_EVENT_BUDGET

    def __post_init__(self):
        super().__post_init__("diffusion")
        # the tabled covariance and standard errors divide by replicas - 1
        if require_real("t", self.t) <= 0 or require_integer("replicas", self.replicas) < 2:
            raise ValidationError("need t > 0 and at least two replicas")
        _require_seed_and_budget(self.seed, self.event_budget)


def run_diffusion_experiment(config: DiffusionExperimentConfig) -> ConvergenceTable:
    """Rescaled chain marginal at time t versus the exact OU transition law.

    For each level the chain runs to time t/eps^2 in `replicas` independent
    copies; the empirical mean and covariance of eps * xi(final) are tabled
    against the Gaussian law with Monte-Carlo standard errors.
    """
    a = config.birth_matrix - config.death_matrix
    exact_mean, exact_cov = exact_transition(a, config.schedule.initial_point, config.t)
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

    return _replica_table(config, tabulate)


@dataclass(frozen=True, eq=False)
class FluidExperimentConfig(_ScaledModel):
    t: float
    replicas: int = 1
    grid_points: int = 200
    ode_dt: float = DEFAULT_DT
    seed: int = 0
    event_budget: int = DEFAULT_EVENT_BUDGET

    def __post_init__(self):
        super().__post_init__("fluid")
        require_real("ode_dt", self.ode_dt)
        replicas = require_integer("replicas", self.replicas)
        grid_points = require_integer("grid_points", self.grid_points)
        if require_real("t", self.t) <= 0 or replicas < 1 or grid_points < 2:
            raise ValidationError("need t > 0, replicas >= 1, grid_points >= 2")
        _require_seed_and_budget(self.seed, self.event_budget)
        # the grid, the reference and each replica's states on it peak at
        # about 3.7 arrays of grid_points * (n + 1) floats (tracemalloc)
        n = self.graph.num_vertices
        require_memory(4 * 8 * grid_points * (n + 1), f"grid_points={grid_points}")


def run_fluid_experiment(config: FluidExperimentConfig) -> ConvergenceTable:
    """Sup distance of the rescaled chain path to the fluid ODE solution.

    D_n is the max over a fixed observation grid on [0, t] of the max-norm
    distance between eps * xi(s/eps) and the RK4 reference path; with more
    than one replica the mean of D_n is reported with its standard error.
    """
    reference = rk4_integrate(
        config.birth_matrix, config.death_matrix, config.schedule.initial_point,
        dt=config.ode_dt, t_end=config.t,
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

    return _replica_table(config, tabulate, sup_distance)


def _bump_frame(points, center, radius: float):
    """(inside, s, g, f): where the bump is not negligible, and there s = (u - c) / rho,
    g = 1 - |s|^2 and f = exp(-1/g) as columns; no term overflows before 1/rho^2 does."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s = (p - np.asarray(center, dtype=float).reshape(-1)) / radius
    with np.errstate(over="ignore"):  # |s|^2 = inf puts the point outside, as it is
        g = 1.0 - (s**2).sum(axis=1)
    inside = g > 1e-8  # exp(-1/g) underflows to 0 long before this floor
    g = g[inside][:, None]
    return inside, s[inside], g, np.exp(-1.0 / g)


def bump_value(points, center, radius: float) -> np.ndarray:
    """Smooth bump exp(-1/(1 - |u-c|^2/rho^2)) inside the ball, 0 outside."""
    inside, _, _, f = _bump_frame(points, center, radius)
    out = np.zeros(inside.size)
    out[inside] = f[:, 0]
    return out


def bump_gradient(points, center, radius: float) -> np.ndarray:
    """Partial derivatives of the bump, shape (num_points, d)."""
    inside, s, g, f = _bump_frame(points, center, radius)
    out = np.zeros((inside.size, s.shape[1]))
    out[inside] = -2.0 * f * s / (radius * g**2)
    return out


def bump_second_diag(points, center, radius: float) -> np.ndarray:
    """Pure second partials d^2 f / du_x^2 of the bump, shape (num_points, d)."""
    inside, s, g, f = _bump_frame(points, center, radius)
    out = np.zeros((inside.size, s.shape[1]))
    out[inside] = f * (4.0 * s**2 / g**4 - 2.0 / g**2 - 8.0 * s**2 / g**3) / radius**2
    return out


@dataclass(frozen=True, eq=False)
class GeneratorCheckConfig(_ScaledModel):
    """Radius (at least 1e-150: the second partials carry 1/rho^2) and mesh of the
    generator check; the bump around the schedule's start must fit the coarsest box."""

    radius: float = 2.0
    grid_points: int = 41

    def __post_init__(self):
        super().__post_init__("diffusion")
        c = self.schedule.initial_point
        grid_points = require_integer("grid_points", self.grid_points)
        if not (require_real("radius", self.radius) >= 1e-150 and grid_points >= 3):
            raise ValidationError(
                f"need radius >= 1e-150 and grid_points >= 3, got radius={self.radius!r}, "
                f"grid_points={grid_points}"
            )
        # l_n * eps_n increases strictly, so the coarsest scaled box is the narrowest
        half_width = self.schedule.epsilons[0] * self.schedule.box_sizes[0]
        if np.any(np.abs(c) + self.radius > half_width):
            raise SupportNotCoveredError(
                f"bump support radius {self.radius} around {c.tolist()} exceeds the "
                f"scaled box half-width {half_width} at level 0"
            )
        # the mesh, its points and the bump's derivatives peak at about 10
        # arrays of grid_points^d * (d + 1) floats (tracemalloc)
        d = self.graph.num_vertices
        require_memory(
            10 * 8 * grid_points**d * (d + 1), f"grid_points={grid_points} on {d} vertices"
        )


def generator_convergence_check(config: GeneratorCheckConfig) -> ConvergenceTable:
    """Sup distance between the discrete and limit generators on a bump.

    For each level: E_n = max over a grid of u in the support of the bump
    around the schedule's initial point of |L_n f(eps * round(u/eps)) - L f(u)|
    where L_n applies the jump-rate finite differences of the eps^2-scaled
    chain (the rates of the level's ChainSpec, under the chain's exponent
    guard) and L is the limit operator sum_x f''_xx + sum_x (A u)_x f'_x.  Also reports
    E_n / eps_n, which stays bounded under the first-order error expansion.
    Raises RateOverflowError if a rate exponent on the grid exceeds
    MAX_EXPONENT, and NumericError if E_n or E_n / eps_n is not finite.
    """
    d = config.graph.num_vertices
    a = config.birth_matrix - config.death_matrix
    c, rho = config.schedule.initial_point, config.radius
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
        spec, _ = config._level_chain(level)
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
        if not math.isfinite(sup_error / eps):
            raise NumericError(
                f"generator check at level {level} (eps={eps!r}, radius={rho!r}): "
                f"sup error {sup_error!r} or its ratio to eps is not finite"
            )
        table.add(level, eps, "sup_error", sup_error, 0.0, sup_error, None)
        table.add(level, eps, "error_ratio", sup_error / eps, None, None, None)
    return table
