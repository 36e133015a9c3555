import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd
from bdlimits import experiments
from bdlimits.experiments import bump_gradient, bump_second_diag, bump_value
from bdlimits.graphs import validate_interaction


def test_schedule_validation():
    with pytest.raises(bd.ValidationError):
        bd.ScalingSchedule([0.25, 0.5], [16, 4], [0.0], "diffusion")  # eps increasing
    with pytest.raises(bd.ValidationError):
        bd.ScalingSchedule([0.5, 0.25], [4, 4], [0.0], "diffusion")  # box*eps shrinks
    with pytest.raises(bd.ValidationError):
        bd.ScalingSchedule([0.5, 0.25], [4, 16], [0.0], "ballistic")
    sched = bd.ScalingSchedule([0.5, 0.25], [4, 16], [1.0], "fluid")
    assert sched.num_levels == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite(bad):
    with pytest.raises(bd.ValidationError, match="finite"):
        bd.ScalingSchedule([0.5, bad], [4, 16], [0.0], "diffusion")
    with pytest.raises(bd.ValidationError, match="finite"):
        bd.ScalingSchedule([bad], [4], [0.0], "diffusion")
    with pytest.raises(bd.ValidationError, match="finite"):
        bd.ScalingSchedule([0.5, 0.25], [4, 16], [0.0, bad], "diffusion")


def test_schedule_leaves_the_callers_arrays_writable():
    eps, boxes, u = np.array([0.5, 0.25]), np.array([4, 16]), np.array([1.0])
    sched = bd.ScalingSchedule(eps, boxes, u, "diffusion")
    eps[0], boxes[0], u[0] = 0.75, 5, 2.0
    assert np.array_equal(sched.epsilons, [0.5, 0.25])
    assert np.array_equal(sched.box_sizes, [4, 16])
    assert np.array_equal(sched.initial_point, [1.0])
    assert not sched.initial_point.flags.writeable


@pytest.mark.parametrize(
    "boxes",
    [[4.9, 16.5], [4, 16.5], [4, np.nan], [4, np.inf], [4, 1e30], [4, 2**70], ["4", "16"]],
)
def test_schedule_rejects_non_integer_box_sizes(boxes):
    with pytest.raises(bd.ValidationError, match="box sizes must be finite integers"):
        bd.ScalingSchedule([0.5, 0.25], boxes, [0.0], "diffusion")


def test_schedule_takes_integral_float_box_sizes():
    sched = bd.ScalingSchedule([0.5, 0.25], [4.0, 16.0], [0.0], "diffusion")
    assert sched.box_sizes.dtype == np.int64
    assert np.array_equal(sched.box_sizes, [4, 16])


@pytest.mark.parametrize(
    "epsilons, boxes, point",
    [
        ([0.5, 0.25], [4, [16]], [0.0]),
        ([0.5, [0.25]], [4, 16], [0.0]),
        ([0.5, 0.25], [4, 16], [[0.0], [1.0, 2.0]]),
        ([0.5, 0.25], [4, 16], "x"),
        (["a", "b"], [4, 16], [0.0]),
        ([0.5, 0.25], [4, 16], [[0.0]]),
        ([], [], [0.0]),
        ([[0.5, 0.25]], [4, 16], [0.0]),
        ([0.5, 0.25], [4], [0.0]),
        ([0.5, 0.25], [0, 16], [0.0]),
        ([0.5, 0.25], [-4, 16], [0.0]),
    ],
    ids=["ragged-boxes", "ragged-eps", "ragged-point", "text-point", "text-eps", "2d-point",
         "empty-eps", "2d-eps", "short-boxes", "zero-box", "negative-box"],
)
def test_schedule_rejects_ragged_or_non_numeric_vectors(epsilons, boxes, point):
    with pytest.raises(bd.ValidationError):
        bd.ScalingSchedule(epsilons, boxes, point, "diffusion")


def test_schedule_default_boxes_fit_int64():
    # box_sizes None means ceil(eps^-2): 2^62 at eps = 2^-31, while eps =
    # 2^-32 (and 2^-31.5, the bound) would need a box past int64
    sched = bd.ScalingSchedule([2.0**-30, 2.0**-31], None, [0.0], "diffusion")
    assert sched.box_sizes.tolist() == [2**60, 2**62]
    for finest in (-32, -31.5):
        with pytest.raises(bd.ValidationError, match=r"epsilons \[.*\] are at or below 2\^-31.5"):
            bd.ScalingSchedule([2.0**-31, 2.0**finest], None, [0.0], "diffusion")


_COARSE_DIFFUSION_SCHEDULES = {
    "explicit": lambda: bd.ScalingSchedule([1e160, 1e159], [1, 100], [0.0], "diffusion"),
    "geometric": lambda: bd.geometric_schedule("diffusion", [0.0], 1, coarsest_log2_eps=512),
}


@pytest.mark.parametrize("schedule", _COARSE_DIFFUSION_SCHEDULES.values(),
                         ids=_COARSE_DIFFUSION_SCHEDULES.keys())
@pytest.mark.parametrize(
    "make",
    [
        lambda schedule: _diffusion_config(schedule=schedule()),
        lambda schedule: bd.generator_convergence_check(
            _generator_config(radius=1e-150, schedule=schedule())
        ),
    ],
    ids=["diffusion", "generator"],
)
def test_diffusion_epsilons_must_have_float_squares(make, schedule):
    # eps^2 scales a diffusion level's rates and time; from 2^512 on it is no
    # float, and the schedule refuses such epsilons before any level runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bd.ValidationError, match=r"epsilons \[.*\] are at or above 2\^512"):
            make(schedule)


def test_epsilons_just_below_2_to_the_512_and_fluid_epsilons_stay():
    below = float(np.nextafter(2.0**512, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bd.ScalingSchedule([below], [1], [0.0], "diffusion").epsilons[0] == below
        # the fluid regime scales by eps alone
        assert bd.ScalingSchedule([1e160, 1e159], [1, 100], [0.0], "fluid").num_levels == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: bd.geometric_schedule("fluid", [0.0], 1, coarsest_log2_eps=600),
        lambda: bd.ScalingSchedule([2.0**600, 2.0**538], None, [0.0], "fluid"),
    ],
    ids=["geometric", "explicit"],
)
def test_default_boxes_refuse_epsilons_whose_inverse_square_underflows(make):
    # eps^-2 rounds to 0 from eps = 2^537.5 on, so the default box
    # ceil(eps^-2) would be empty; 2^-1074, the least float, still gives 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refusal = r"epsilons \[.*\] are so coarse that eps\^-2 underflows to 0"
        with pytest.raises(bd.ValidationError, match=refusal):
            make()
        least = bd.geometric_schedule("fluid", [0.0], 1, coarsest_log2_eps=537)
        assert least.box_sizes.tolist() == [1]


def test_geometric_schedule_defaults():
    sched = bd.geometric_schedule("diffusion", [1.0], 4)
    assert np.allclose(sched.epsilons, [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5])
    assert np.array_equal(sched.box_sizes, [16, 64, 256, 1024])
    assert np.all(np.diff(sched.epsilons * sched.box_sizes) > 0)


def test_rescaled_spec_scaling_rules():
    g = bd.single_vertex()
    ab, ad = np.array([[0.8]]), np.array([[0.3]])
    diff_sched = bd.ScalingSchedule([0.5], [8], [1.0], "diffusion")
    config = bd.DiffusionExperimentConfig(g, ab, ad, diff_sched, t=1.0)
    spec, xi0 = config._level_chain(0)
    assert spec.birth_matrix[0, 0] == pytest.approx(0.8 * 0.25)  # eps^2
    fluid_sched = bd.ScalingSchedule([0.5], [8], [1.0], "fluid")
    spec2, _ = bd.FluidExperimentConfig(g, ab, ad, fluid_sched, t=1.0)._level_chain(0)
    assert spec2.birth_matrix[0, 0] == pytest.approx(0.8 * 0.5)  # eps
    assert spec2.l == spec2.r == 8


def test_rescaled_spec_initial_rounding_and_clamp():
    g = bd.single_vertex()
    sched = bd.ScalingSchedule([0.25], [16], [1.0], "diffusion")
    config = bd.DiffusionExperimentConfig(g, [[0.0]], [[0.0]], sched, t=1.0)
    _, xi0 = config._level_chain(0)
    assert xi0[0] == 4
    tight = bd.ScalingSchedule([0.25], [2], [1.0], "diffusion")
    config = bd.DiffusionExperimentConfig(g, [[0.0]], [[0.0]], tight, t=1.0)
    _, clamped = config._level_chain(0)
    assert clamped[0] == 2  # round(4) clamped into the box


def test_bump_value_support():
    pts = np.array([[0.0], [1.9], [2.0], [2.5], [-3.0]])
    vals = bump_value(pts, [0.0], 2.0)
    assert vals[0] == pytest.approx(np.exp(-1.0))
    assert vals[1] > 0
    assert vals[2] == 0.0 and vals[3] == 0.0 and vals[4] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_bump_derivatives_match_finite_differences(dim):
    rng = np.random.default_rng(4)
    center = rng.normal(scale=0.2, size=dim)
    radius = 1.7
    pts = rng.uniform(-1.2, 1.2, size=(40, dim)) + center
    h = 1e-5
    grad = bump_gradient(pts, center, radius)
    hess = bump_second_diag(pts, center, radius)
    for x in range(dim):
        e = np.zeros(dim)
        e[x] = h
        up, down, mid = (
            bump_value(pts + e, center, radius),
            bump_value(pts - e, center, radius),
            bump_value(pts, center, radius),
        )
        fd_grad = (up - down) / (2 * h)
        fd_hess = (up - 2 * mid + down) / h**2
        assert np.abs(grad[:, x] - fd_grad).max() < 1e-6
        assert np.abs(hess[:, x] - fd_hess).max() < 1e-4


def test_generator_check_first_order():
    g = bd.single_vertex()
    sched = bd.geometric_schedule("diffusion", [0.0], 4, coarsest_log2_eps=-3)
    cfg = bd.GeneratorCheckConfig(
        graph=g, birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=sched, radius=2.0, grid_points=41,
    )
    table = bd.generator_convergence_check(cfg)
    errs = table.errors("sup_error")
    assert np.all(np.diff(errs) < 0)
    ratios = np.array([r.empirical for r in table.statistic("error_ratio")])
    med = float(np.median(ratios))
    assert np.all(ratios >= 0.3 * med) and np.all(ratios <= 3.0 * med)


def test_generator_check_halving_rate():
    # E roughly halves per eps halving; individual pairs wobble with the
    # lattice alignment so the geometric-mean factor is the stable measure
    g = bd.single_vertex()
    sched = bd.geometric_schedule("diffusion", [0.0], 7, coarsest_log2_eps=-3)
    cfg = bd.GeneratorCheckConfig(
        graph=g, birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=sched, radius=2.0, grid_points=41,
    )
    errs = bd.generator_convergence_check(cfg).errors("sup_error")
    factors = errs[1:] / errs[:-1]
    geo_mean = float(np.exp(np.mean(np.log(factors))))
    assert 0.3 < geo_mean < 0.7


def test_generator_check_drift_cancellation():
    # A_b = A_d leaves the pure second-difference Laplacian; the first-order
    # rate survives and the errors stay bounded relative to eps
    g = bd.single_vertex()
    m = [[0.5]]
    sched = bd.geometric_schedule("diffusion", [0.0], 3, coarsest_log2_eps=-4)
    cfg = bd.GeneratorCheckConfig(
        graph=g, birth_matrix=m, death_matrix=m, schedule=sched,
        radius=2.0, grid_points=41,
    )
    table = bd.generator_convergence_check(cfg)
    ratios = [r.empirical for r in table.statistic("error_ratio")]
    assert max(ratios) < 50.0


def test_generator_check_two_vertices():
    g = bd.path_graph(2)
    sched = bd.geometric_schedule("diffusion", [0.0, 0.0], 3, coarsest_log2_eps=-3)
    cfg = bd.GeneratorCheckConfig(
        graph=g, birth_matrix=np.zeros((2, 2)),
        death_matrix=[[1.0, -0.3], [-0.3, 1.0]],
        schedule=sched, radius=1.5, grid_points=21,
    )
    errs = bd.generator_convergence_check(cfg).errors("sup_error")
    assert errs[-1] < errs[0]


def test_generator_check_support_guard():
    g = bd.single_vertex()
    sched = bd.ScalingSchedule([0.25], [4], [0.0], "diffusion")  # eps*box = 1 < radius
    with pytest.raises(bd.SupportNotCoveredError):
        bd.GeneratorCheckConfig(
            graph=g, birth_matrix=[[0.0]], death_matrix=[[1.0]],
            schedule=sched, radius=2.0,
        )


@pytest.mark.parametrize(
    "center, radius, covered",
    [([0.0], 1e308, False), ([0.5], 0.5, True), ([-0.5], 0.5, True),
     ([0.75], 0.5, False), ([-0.75], 0.5, False)],
)
def test_generator_check_support_is_checked_on_the_coarsest_box(center, radius, covered):
    # scaled half-widths 1 then 2: the bump around the schedule's start must
    # fit in the first, and a radius of 1e308 is refused before its square overflows
    sched = bd.ScalingSchedule([0.25, 0.125], [4, 16], center, "diffusion")
    build = partial(
        bd.GeneratorCheckConfig, graph=bd.single_vertex(), birth_matrix=[[0.0]],
        death_matrix=[[1.0]], schedule=sched, radius=radius,
    )
    if covered:
        assert bd.generator_convergence_check(build()).rows
    else:
        with pytest.raises(bd.SupportNotCoveredError, match="half-width 1.0 at level 0"):
            build()


def _tiny_diffusion_config(replicas=300, levels=2, seed=5, **kw):
    g = bd.single_vertex()
    sched = bd.geometric_schedule("diffusion", [0.0], levels)
    return bd.DiffusionExperimentConfig(
        graph=g, birth_matrix=[[0.0]], death_matrix=[[0.0]],
        schedule=sched, t=1.0, replicas=replicas, seed=seed, **kw,
    )


def test_diffusion_experiment_zero_drift_variance():
    # with no interaction the rescaled marginal is sqrt(2) * Brownian motion:
    # variance exactly 2t at every level, so only Monte-Carlo error remains
    table = bd.run_diffusion_experiment(_tiny_diffusion_config())
    for row in table.statistic("cov_0_0"):
        assert row.limit == pytest.approx(2.0, abs=1e-8)
        assert row.abs_error < 4 * row.mc_stderr


def test_diffusion_experiment_table_structure():
    cfg = _tiny_diffusion_config(replicas=40, levels=3)
    table = bd.run_diffusion_experiment(cfg)
    assert sorted({row.level for row in table.rows}) == [0, 1, 2]
    stats = {row.statistic for row in table.rows}
    assert stats == {"mean_0", "cov_0_0", "boundary_hits", "events"}
    assert len(table.statistic("mean_0")) == 3


def test_diffusion_experiment_deterministic():
    a = bd.run_diffusion_experiment(_tiny_diffusion_config(replicas=50))
    b = bd.run_diffusion_experiment(_tiny_diffusion_config(replicas=50))
    assert a.rows == b.rows


def test_diffusion_experiment_budget_guard():
    cfg = bd.DiffusionExperimentConfig(
        graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[0.0]],
        schedule=bd.geometric_schedule("diffusion", [0.0], 2),
        t=1.0, replicas=500, seed=0, event_budget=100,
    )
    with pytest.raises(bd.BudgetExceededError):
        bd.run_diffusion_experiment(cfg)


@pytest.mark.parametrize("replicas", [1, 0])
def test_diffusion_experiment_needs_two_replicas(replicas):
    # one replica has no sample covariance: the table would hold nan
    with pytest.raises(bd.ValidationError, match="at least two replicas"):
        _tiny_diffusion_config(replicas=replicas)


def test_diffusion_experiment_regime_check():
    with pytest.raises(bd.ValidationError):
        bd.DiffusionExperimentConfig(
            graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[0.0]],
            schedule=bd.geometric_schedule("fluid", [0.0], 2), t=1.0,
        )


def test_fluid_experiment_lazy_walk():
    # A_b = A_d = 0 gives gamma == 0; the rescaled walk wanders at the
    # sqrt(eps) scale, so the sup distance shrinks from coarse to fine
    g = bd.single_vertex()
    sched = bd.geometric_schedule("fluid", [0.0], 4, coarsest_log2_eps=-2)
    cfg = bd.FluidExperimentConfig(
        graph=g, birth_matrix=[[0.0]], death_matrix=[[0.0]],
        schedule=sched, t=1.0, seed=2,
    )
    table = bd.run_fluid_experiment(cfg)
    sups = table.errors("sup_distance")
    assert np.all(sups >= 0)
    assert sups[-1] < sups[0]
    assert sups[-1] < 0.5
    hits = [row.empirical for row in table.statistic("boundary_hits")]
    assert hits == [0.0] * 4


def test_fluid_experiment_multi_replica_stderr():
    g = bd.single_vertex()
    sched = bd.geometric_schedule("fluid", [1.0], 2, coarsest_log2_eps=-3)
    cfg = bd.FluidExperimentConfig(
        graph=g, birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=sched, t=1.0, replicas=4, seed=3,
    )
    rows = bd.run_fluid_experiment(cfg).statistic("sup_distance")
    assert all(row.mc_stderr is not None and row.mc_stderr > 0 for row in rows)


def test_no_boundary_hits_on_benchmark_fine_levels():
    # with boxes l = r = ceil(eps^-2) the spin scale sd ~ 1/eps sits far
    # inside the box; the coarsest default level (box 16, about 4.3 sigma)
    # can see rare hits, so the guarantee is asserted from level 1 on
    cfg = _tiny_diffusion_config(replicas=200, levels=3, seed=11)
    table = bd.run_diffusion_experiment(cfg)
    hits = {row.level: row.empirical for row in table.statistic("boundary_hits")}
    assert hits[1] == 0.0 and hits[2] == 0.0


def test_generator_check_rate_overflow():
    # eps^2 * 40000 * xi reaches 10^4 on the coarsest grid; the chain's
    # exponent guard refuses it instead of returning a nan table
    cfg = bd.GeneratorCheckConfig(
        graph=bd.single_vertex(), birth_matrix=[[40000.0]], death_matrix=[[0.0]],
        schedule=bd.geometric_schedule("diffusion", [0.0], 2, coarsest_log2_eps=-3),
    )
    with pytest.raises(bd.RateOverflowError):
        bd.generator_convergence_check(cfg)


def test_fluid_projected_budget_on_many_vertices():
    # 12 vertices with boxes of 64: the canonical index stride 129^11 of the
    # generator does not fit in int64, but the projection needs no index
    g = bd.cycle_graph(12)
    cfg = bd.FluidExperimentConfig(
        graph=g, birth_matrix=np.zeros((12, 12)), death_matrix=np.zeros((12, 12)),
        schedule=bd.geometric_schedule("fluid", np.zeros(12), 2, coarsest_log2_eps=-3),
        t=1.0, event_budget=10,
    )
    with pytest.raises(bd.BudgetExceededError, match="projected"):
        bd.run_fluid_experiment(cfg)


def _fluid_config(**kw):
    args = dict(
        graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=bd.geometric_schedule("fluid", [1.0], 2), t=1.0,
    )
    return bd.FluidExperimentConfig(**{**args, **kw})


def test_fluid_experiment_step_ending_at_an_inexact_horizon():
    # 3 * 0.3 falls short of 0.9 in floating point; the reference path must
    # still reach the last observation time
    table = bd.run_fluid_experiment(_fluid_config(t=0.9, ode_dt=0.3))
    assert len(table.statistic("sup_distance")) == 2


def _generator_config(**kw):
    args = dict(
        graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=bd.geometric_schedule("diffusion", [0.0], 2, coarsest_log2_eps=-3),
    )
    return bd.GeneratorCheckConfig(**{**args, **kw})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: _fluid_config(t=bad),
        lambda bad: _fluid_config(ode_dt=bad),
        lambda bad: bd.DiffusionExperimentConfig(
            graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[0.0]],
            schedule=bd.geometric_schedule("diffusion", [0.0], 2), t=bad,
        ),
        lambda bad: _generator_config(radius=bad),
        lambda bad: _generator_config(
            schedule=bd.geometric_schedule("diffusion", [bad], 2, coarsest_log2_eps=-3)
        ),
    ],
    ids=["fluid-t", "fluid-ode_dt", "diffusion-t", "gen-radius", "gen-center"],
)
def test_experiment_configs_reject_non_finite(make, bad):
    with pytest.raises(bd.ValidationError, match="finite"):
        make(bad)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _fluid_config(t=0.0), "need t > 0"),
        (lambda: _fluid_config(replicas=0), "replicas >= 1"),
        (lambda: _fluid_config(grid_points=1), "grid_points >= 2"),
        (lambda: _generator_config(grid_points=2), "grid_points >= 3"),
        (lambda: _generator_config(radius=0.0), "radius >= 1e-150"),
        (lambda: _generator_config(radius=-1.0), r"radius=-1\.0"),
        (lambda: _generator_config(radius=1e-153), "radius=1e-153"),
        (lambda: _generator_config(radius=1e-200), "radius=1e-200"),
    ],
    ids=["fluid-t", "fluid-replicas", "fluid-grid", "gen-grid",
         "gen-radius-zero", "gen-radius-negative", "gen-radius-1e-153", "gen-radius-1e-200"],
)
def test_experiment_configs_refuse_out_of_range_values(make, message):
    with pytest.raises(bd.ValidationError, match=message):
        make()


def test_generator_check_runs_at_the_radius_floor():
    # in units of the radius no term overflows before 1/rho^2 does: at
    # rho = 1e-150 the bump's second partials stay finite, warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid_points in (41, 2001):
            config = _generator_config(radius=1e-150, grid_points=grid_points)
            sups = bd.generator_convergence_check(config).errors("sup_error")
            assert np.isfinite(sups).all() and (sups > 1e290).all()


def test_generator_check_refuses_a_non_finite_error_ratio():
    # E_n near 7.7e300 at the radius floor is finite, but E_n / eps at
    # eps = 2^-28 passes the float range; the table must not hold inf
    config = _generator_config(
        radius=1e-150,
        schedule=bd.geometric_schedule("diffusion", [0.0], 2, coarsest_log2_eps=-28),
    )
    with pytest.raises(bd.NumericError, match=r"level 0 \(eps=3.7.*radius=1e-150\)"):
        bd.generator_convergence_check(config)


def test_far_neighbours_lie_outside_the_bump():
    # |s|^2 overflows to inf 1e155 radii out; the point is outside, not an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = np.array([[1e5], [-1e5], [0.0]])
        assert bump_value(pts, [0.0], 1e-150).tolist() == [0.0, 0.0, np.exp(-1.0)]
        assert bump_value([[1e5, 1e5]], [0.0, 0.0], 1e-150).tolist() == [0.0]
        config = _generator_config(
            radius=1e-150,
            schedule=bd.ScalingSchedule([1e5, 1e4], [1, 100], [0.0], "diffusion"),
        )
        assert np.isfinite(bd.generator_convergence_check(config).errors("sup_error")).all()


@pytest.mark.parametrize(
    "make",
    [
        lambda sched: _fluid_config(schedule=sched("fluid")),
        lambda sched: bd.DiffusionExperimentConfig(
            graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[0.0]],
            schedule=sched("diffusion"), t=1.0,
        ),
        lambda sched: _generator_config(schedule=sched("diffusion")),
    ],
    ids=["fluid", "diffusion", "generator"],
)
def test_experiment_configs_reject_initial_point_length(make):
    def two_vertex_start(regime):
        return bd.geometric_schedule(regime, [0.0, 0.0], 2)

    with pytest.raises(bd.ValidationError, match="initial point"):
        make(two_vertex_start)


@pytest.mark.parametrize(
    "run",
    [
        lambda: bd.run_diffusion_experiment(_tiny_diffusion_config(replicas=10)),
        lambda: bd.run_fluid_experiment(_fluid_config()),
        lambda: bd.generator_convergence_check(_generator_config()),
    ],
    ids=["diffusion", "fluid", "generator"],
)
def test_drivers_validate_each_matrix_once(run, monkeypatch):
    # the per-level specs are scaled copies of the matrices validated here
    calls = []

    def counting(graph, matrix):
        calls.append(matrix)
        return validate_interaction(graph, matrix)

    monkeypatch.setattr(experiments, "validate_interaction", counting)
    run()
    assert len(calls) == 2


def _diffusion_config(**kw):
    args = dict(
        graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=bd.geometric_schedule("diffusion", [1.0], 2), t=1.0, replicas=20,
    )
    return bd.DiffusionExperimentConfig(**{**args, **kw})


CONFIG_RUNS = {
    "diffusion": (_diffusion_config, bd.run_diffusion_experiment),
    "fluid": (_fluid_config, bd.run_fluid_experiment),
    "generator": (_generator_config, bd.generator_convergence_check),
}


@pytest.mark.parametrize("kind", sorted(CONFIG_RUNS))
def test_configs_keep_their_own_copies(kind):
    make, run = CONFIG_RUNS[kind]
    ab, ad, point = np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1)
    # the generator check's bump is centred on its schedule's start point
    extra = {}
    if kind == "generator":
        extra["schedule"] = bd.geometric_schedule("diffusion", point, 2, coarsest_log2_eps=-3)
    config = make(birth_matrix=ab, death_matrix=ad, **extra)
    before = run(config).rows
    ab[0, 0], ad[0, 0], point[0] = 0.5, 5.0, 0.5
    assert run(config).rows == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["birth_matrix", "death_matrix"])
@pytest.mark.parametrize("kind", sorted(CONFIG_RUNS))
def test_configs_reject_non_finite_matrices(kind, name, bad):
    make, _ = CONFIG_RUNS[kind]
    with pytest.raises(bd.ValidationError, match="not finite"):
        make(**{name: [[bad]]})


def test_two_vertex_replicas_check_the_start_once_per_level(monkeypatch):
    calls = []
    check = bd.ChainSpec.validate_configuration

    def counting(spec, spins):
        calls.append(spins)
        return check(spec, spins)

    monkeypatch.setattr(bd.ChainSpec, "validate_configuration", counting)
    config = _diffusion_config(
        graph=bd.path_graph(2), birth_matrix=np.zeros((2, 2)), death_matrix=np.eye(2),
        schedule=bd.geometric_schedule("diffusion", [0.5, 0.0], 2), t=0.25, replicas=5,
    )
    bd.run_diffusion_experiment(config)
    assert len(calls) == config.schedule.num_levels


def _two_state_spec(l=0, r=1):
    return bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=l, r=r)


_COUNT_CALLS = {
    "graph-vertices-float": lambda: bd.Graph(2.5, [(0, 1), (1, 2)]),
    "graph-vertices-bool": lambda: bd.Graph(True, []),
    "graph-edge-float": lambda: bd.Graph(3, [(0, 1), (1, 2.5)]),
    "spec-l-nan": lambda: _two_state_spec(l=np.nan),
    "spec-r-inf": lambda: _two_state_spec(r=np.inf),
    "spec-r-float": lambda: _two_state_spec(r=1.5),
    "diffusion-replicas": lambda: _tiny_diffusion_config(replicas=2.5),
    "fluid-replicas": lambda: _fluid_config(replicas=2.5),
    "fluid-grid-points": lambda: _fluid_config(grid_points=2.5),
    "gen-check-grid-points": lambda: _generator_config(grid_points=2.5),
    "geometric-levels": lambda: bd.geometric_schedule("diffusion", [0.0], 2.5),
    "star-leaves": lambda: bd.star_spectrum(2.5, -3.0, 1.0),
    "path-steps": lambda: bd.path_spectrum(np.float64(1.0), -3.0, 1.0),
    "diffusion-seed": lambda: _tiny_diffusion_config(seed=2.5),
    "fluid-seed": lambda: _fluid_config(seed=2.5),
    "diffusion-budget-nan": lambda: _tiny_diffusion_config(event_budget=np.nan),
    "fluid-budget-float": lambda: _fluid_config(event_budget=1e6),
    "simulate-max-events-nan": lambda: bd.simulate(
        _two_state_spec(), [0], 1.0, max_events=np.nan
    ),
    "simulate-max-events-float": lambda: bd.simulate(
        _two_state_spec(), [0], 1.0, max_events=10.0
    ),
}


@pytest.mark.parametrize("call", list(_COUNT_CALLS.values()), ids=list(_COUNT_CALLS))
def test_count_arguments_must_be_integers(call):
    # one check for every count: a float is not silently truncated, and a
    # non-finite one is a ValidationError rather than a bare ValueError
    with pytest.raises(bd.ValidationError, match="must be an integer"):
        call()


def test_count_arguments_take_numpy_integers():
    assert bd.Graph(np.int64(2), [(np.int32(0), np.int64(1))]).num_vertices == 2
    spec = _two_state_spec(l=np.int64(1), r=np.int32(2))
    assert (spec.l, spec.r) == (1, 2) and type(spec.l) is int
    assert _fluid_config(replicas=np.int64(2), grid_points=np.int64(5)).replicas == 2
    config = _tiny_diffusion_config(seed=np.uint64(2**64 - 1), event_budget=np.int64(0))
    assert (config.seed, config.event_budget) == (2**64 - 1, 0)
    assert bd.simulate(_two_state_spec(), [0], 0.0, max_events=np.int64(0)).num_events == 0


_OUT_OF_RANGE_CALLS = {
    "diffusion-seed-negative": lambda: _tiny_diffusion_config(seed=-1),
    "fluid-seed-past-64-bits": lambda: _fluid_config(seed=2**64),
    "diffusion-budget-negative": lambda: _tiny_diffusion_config(event_budget=-1),
    "simulate-max-events-negative": lambda: bd.simulate(
        _two_state_spec(), [0], 1.0, max_events=-1
    ),
}


@pytest.mark.parametrize(
    "call", list(_OUT_OF_RANGE_CALLS.values()), ids=list(_OUT_OF_RANGE_CALLS)
)
def test_seeds_budgets_and_event_caps_checked_on_entry(call):
    # seeds are unsigned 64-bit integers, and a budget or cap is at least 0,
    # checked when the config is built or simulate is called
    with pytest.raises(bd.ValidationError, match="seed must be|must be nonnegative"):
        call()


def test_geometric_schedule_refuses_before_it_allocates():
    with pytest.raises(bd.ValidationError, match="need at least one level"):
        bd.geometric_schedule("diffusion", [0.0], 0)
    # a trillion levels would ask numpy for 7.28 TiB of epsilons, and 1100
    # unit steps reach eps = 2^-1101, whose box ceil(eps^-2) passes int64
    for levels in (10**12, 1100):
        with pytest.raises(bd.ValidationError, match="passes int64"):
            bd.geometric_schedule("diffusion", [0.0], levels)
    # the finest level at 2^-31 has a box of 2^62, which int64 holds
    sched = bd.geometric_schedule("diffusion", [0.0], 30, coarsest_log2_eps=-2)
    assert sched.box_sizes[-1] == 2**62
    with pytest.raises(bd.ValidationError, match="passes int64"):
        bd.geometric_schedule("diffusion", [0.0], 31, coarsest_log2_eps=-2)
    # exponents past the float range are refused before numpy sees them
    with pytest.raises(bd.ValidationError, match="passes int64"):
        bd.geometric_schedule("diffusion", [0.0], 2, step_log2=10**400)
    with pytest.raises(bd.ValidationError, match="is not a float"):
        bd.geometric_schedule("diffusion", [0.0], 2, coarsest_log2_eps=10**400)
    assert bd.geometric_schedule("diffusion", [1.0], 1, step_log2=10**400).num_levels == 1
    # a step that does not shrink eps is refused over two or more levels
    for step in (0, -1):
        with pytest.raises(bd.ValidationError, match="step_log2 must be positive"):
            bd.geometric_schedule("diffusion", [0.0], 10**12, step_log2=step)
        assert bd.geometric_schedule("diffusion", [0.0], 1, step_log2=step).num_levels == 1


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.complex_numbers(),
    st.text(max_size=3),
)

_VECTORS = st.one_of(
    _JUNK,
    st.lists(st.one_of(st.floats(), st.integers(), _JUNK), max_size=4),
    st.lists(st.lists(st.floats(), max_size=2), max_size=3),
    st.lists(st.floats(min_value=1e-12, max_value=2.0), min_size=1, max_size=4).map(
        lambda v: sorted(v, reverse=True)
    ),
    st.lists(st.integers(min_value=-2, max_value=2**64), min_size=1, max_size=4).map(sorted),
)


def _check_schedule(sched):
    eps, boxes, u = sched.epsilons, sched.box_sizes, sched.initial_point
    assert eps.dtype == float and eps.ndim == 1 and np.isfinite(eps).all()
    assert (eps > 0).all() and (np.diff(eps) < 0).all()
    assert boxes.dtype == np.int64 and boxes.shape == eps.shape and (boxes >= 1).all()
    assert (np.diff(eps * boxes) > 0).all()
    assert u.dtype == float and u.ndim == 1 and np.isfinite(u).all()
    if sched.regime == "diffusion":
        assert (eps < 2.0**512).all()


@given(_VECTORS, st.one_of(st.none(), _VECTORS), _VECTORS,
       st.sampled_from(["diffusion", "fluid", "ballistic"]))
@settings(max_examples=300, deadline=None)
def test_schedule_is_built_or_refused_with_a_validation_error(
    epsilons, box_sizes, initial_point, regime
):
    try:
        sched = bd.ScalingSchedule(epsilons, box_sizes, initial_point, regime)
    except bd.ValidationError:
        return
    _check_schedule(sched)


@given(st.sampled_from(["diffusion", "fluid"]), _VECTORS,
       st.one_of(st.integers(), _JUNK), st.one_of(st.integers(), _JUNK),
       st.one_of(st.integers(), _JUNK))
@settings(max_examples=300, deadline=None)
def test_geometric_schedule_is_built_or_refused_with_a_validation_error(
    regime, initial_point, num_levels, coarsest_log2_eps, step_log2
):
    try:
        sched = bd.geometric_schedule(
            regime, initial_point, num_levels, coarsest_log2_eps, step_log2
        )
    except bd.ValidationError:
        return
    _check_schedule(sched)
    assert sched.num_levels == num_levels


def test_geometric_schedule_refuses_fractional_exponents():
    # a step of 1e-12 would pass the finest-eps bound and ask numpy for a
    # trillion epsilons, and a step of 0.5 would give a sqrt(2) grid; both
    # exponents must be integers, as the CLI already requires
    for kwargs in (
        dict(num_levels=10**12, step_log2=1e-12),
        dict(num_levels=3, step_log2=0.5),
        dict(num_levels=3, step_log2=1.0),
        dict(num_levels=3, coarsest_log2_eps=-2.5),
        dict(num_levels=3, coarsest_log2_eps=-2.0),
    ):
        name = "step_log2" if "step_log2" in kwargs else "coarsest_log2_eps"
        with pytest.raises(bd.ValidationError, match=f"{name} must be an integer"):
            bd.geometric_schedule("diffusion", [0.0], **kwargs)
    sched = bd.geometric_schedule("diffusion", [0.0], 3, np.int64(-2), np.int64(1))
    assert sched.epsilons.tolist() == [0.25, 0.125, 0.0625]


def test_grid_sized_configs_check_physical_memory(monkeypatch):
    # 4 arrays of grid_points * (n + 1) floats for the fluid observation
    # grid, and 10 of grid_points^d * (d + 1) for the generator check's mesh
    fluid_bytes = 4 * 8 * 200 * 2
    mesh_bytes = 10 * 8 * 41 * 2
    for config, nbytes in ((_fluid_config, fluid_bytes), (_generator_config, mesh_bytes)):
        monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", nbytes)
        config()
        monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", nbytes - 1)
        with pytest.raises(bd.ValidationError, match="past physical memory"):
            config()


def test_event_record_is_capped_by_physical_memory(monkeypatch):
    # the record holds 84 bytes an event at its peak, so a path of n events
    # fits in 84 * (n + 1) bytes, and simulate and every replica of a driver
    # refuse a longer one
    spec = bd.ChainSpec(bd.path_graph(2), np.zeros((2, 2)), np.zeros((2, 2)), 4, 4)
    traj = bd.simulate(spec, [0, 0], 20.0, seed=1)
    n = traj.num_events
    fluid = _fluid_config(
        graph=bd.path_graph(2), birth_matrix=np.zeros((2, 2)),
        death_matrix=np.zeros((2, 2)),
        schedule=bd.geometric_schedule("fluid", [0.0, 0.0], 2), t=20.0, ode_dt=0.1,
    )
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 84 * (n + 1))
    assert np.array_equal(bd.simulate(spec, [0, 0], 20.0, seed=1).times, traj.times)
    with pytest.raises(bd.BudgetExceededError, match=f"max_events={n} "):
        bd.simulate(spec, [0, 0], 20.0, seed=1, max_events=n)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 84 * n)
    with pytest.raises(bd.BudgetExceededError, match=rf"physical memory \({84 * n} bytes\)"):
        bd.simulate(spec, [0, 0], 20.0, seed=1)
    # 320 events a replica at the coarsest level, and an RK4 grid of 4.8 kB
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 84 * 100)
    with pytest.raises(bd.BudgetExceededError, match=r"physical memory \(8400 bytes\)"):
        bd.run_fluid_experiment(fluid)


def _budget_configs():
    """Small single-vertex and path(2) configs of both drivers, each with its
    driver, at the default event budget."""
    one, two = bd.single_vertex(), bd.path_graph(2)
    ab2 = [[0.0, 0.5], [0.5, 0.0]]

    def schedule(regime, u):
        coarsest = -2 if regime == "diffusion" else -3
        return bd.geometric_schedule(regime, u, 2, coarsest_log2_eps=coarsest)

    diffusion = partial(bd.DiffusionExperimentConfig, t=0.5, replicas=12)
    fluid = partial(bd.FluidExperimentConfig, t=1.0, replicas=2, grid_points=20, ode_dt=0.01)
    return [
        (bd.run_diffusion_experiment,
         diffusion(one, [[0.0]], [[1.0]], schedule("diffusion", [1.0]))),
        (bd.run_diffusion_experiment,
         diffusion(two, ab2, np.eye(2), schedule("diffusion", [1.0, -0.5]))),
        (bd.run_fluid_experiment, fluid(one, [[0.0]], [[1.0]], schedule("fluid", [1.0]))),
        (bd.run_fluid_experiment, fluid(two, ab2, np.eye(2), schedule("fluid", [1.0, -0.5]))),
    ]


_BUDGET_CONFIGS = _budget_configs()
_DEFAULT_TABLES = {}


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(_BUDGET_CONFIGS) - 1), seed=st.integers(0, 2),
       share=st.floats(0.0, 2.0))
def test_an_event_budget_refuses_a_run_or_leaves_its_table_unchanged(case, seed, share):
    # a run under any budget either raises BudgetExceededError or returns
    # exactly the default-budget table, whose events stay below the budget
    run, config = _BUDGET_CONFIGS[case]
    if (case, seed) not in _DEFAULT_TABLES:
        _DEFAULT_TABLES[case, seed] = run(dataclasses.replace(config, seed=seed))
    default = _DEFAULT_TABLES[case, seed]
    budget = int(share * default.statistic("events")[-1].empirical)
    try:
        table = run(dataclasses.replace(config, seed=seed, event_budget=budget))
    except bd.BudgetExceededError:
        return
    assert table.rows == default.rows
    assert table.statistic("events")[-1].empirical < budget
