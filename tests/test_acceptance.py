"""End-to-end acceptance checks, one per headline guarantee.

Each test pins its tolerance and its runtime budget and prints one
PASS line (run with -s to see them).  Monte-Carlo checks use frozen seeds;
the fluid-limit schedule is the pilot-calibrated fixture recorded in
FLUID_SCHEDULE below.
"""

import os
import time

import numpy as np
import pytest

import bdlimits as bd
from bdlimits.cli import cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _randomized_reversible_specs():
    """Ten bounded random specs on graphs with <= 3 vertices and l + r <= 4.

    A = A_b - A_d is symmetric and the death matrices carry no diagonal, so
    the closed-form measure is the exact stationary law (a death diagonal
    delta would tilt it by exp(-(delta, xi)); see test_measure).
    """
    rng = np.random.default_rng(20260810)
    graphs = [bd.single_vertex(), bd.path_graph(2), bd.path_graph(3), bd.cycle_graph(3)]
    specs = []
    for k in range(10):
        graph = graphs[k % 4]
        n = graph.num_vertices
        pattern = graph.adjacency_matrix() + np.eye(n)
        sym = rng.uniform(-0.75, 0.75, size=(n, n))
        sym = 0.5 * (sym + sym.T) * pattern
        split = rng.uniform(-0.5, 0.5, size=(n, n)) * graph.adjacency_matrix()
        l = int(rng.integers(0, 3))
        r = int(rng.integers(1, 5 - l))
        specs.append(bd.ChainSpec(graph, sym + split, split, l=l, r=r))
    return specs


def test_gibbs_matches_generator_kernel():
    start = time.monotonic()
    worst = 0.0
    for spec in _randomized_reversible_specs():
        assert spec.num_states() <= 125
        diff = np.abs(
            bd.gibbs_measure(spec).probabilities - bd.stationary_solve(spec)
        ).max()
        worst = max(worst, float(diff))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    _report("gibbs vs generator kernel", f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_detailed_balance_residual():
    worst = 0.0
    for spec in _randomized_reversible_specs():
        worst = max(worst, bd.check_detailed_balance(spec))
    assert worst < 1e-12
    _report("detailed balance", f"max residual {worst:.2e}")


def test_closed_form_spectra_match_numeric_eigensolver():
    start = time.monotonic()
    worst = 0.0
    for alpha in (-3.0, -1.0):
        for beta in (-2.0, -0.5, 0.5, 2.0):
            for m in range(2, 51):
                closed = bd.star_spectrum(m, alpha, beta).eigenvalues
                numeric = bd.eigen_sym(
                    -bd.alpha_beta_matrix(bd.star_graph(m), alpha, beta)
                )
                worst = max(worst, float(np.abs(closed - numeric).max()))
            for n in range(0, 51):
                closed = bd.path_spectrum(n, alpha, beta).eigenvalues
                numeric = bd.eigen_sym(
                    -bd.alpha_beta_matrix(bd.path_graph(n + 2), alpha, beta)
                )
                worst = max(worst, float(np.abs(closed - numeric).max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    _report("closed-form spectra", f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_pd_verdict_flips_at_criterion_boundaries():
    eps = 1e-6
    for m, beta in ((9, 1.0), (4, -1.5)):
        boundary = abs(beta) * np.sqrt(m)
        inside = bd.classify_pd(bd.star_graph(m), -boundary - eps, beta)
        outside = bd.classify_pd(bd.star_graph(m), -boundary + eps, beta)
        assert inside.positive_definite and not outside.positive_definite
    for n, beta in ((3, 1.0), (5, -0.8)):
        boundary = 2.0 * abs(beta) * np.cos(np.pi / (n + 3))
        inside = bd.classify_pd(bd.path_graph(n + 2), -boundary - eps, beta)
        outside = bd.classify_pd(bd.path_graph(n + 2), -boundary + eps, beta)
        assert inside.positive_definite and not outside.positive_definite
    _report("PD boundary flips", f"star and path verdicts flip within {eps}")


def test_ou_stationary_law_from_euler_maruyama():
    start = time.monotonic()
    a = bd.alpha_beta_matrix(bd.path_graph(3), -2.0, 0.5)
    _, target = bd.stationary_gaussian(a)
    assert bd.lyapunov_residual(a, target) < 1e-9
    n_paths = 2000
    terminal = bd.euler_maruyama_terminal(
        a, np.zeros(3), dt=1e-3, t_end=20.0, n_paths=n_paths, seed=7
    )
    emp = np.cov(terminal, rowvar=False, ddof=1)
    worst_sigma = 0.0
    for i in range(3):
        for j in range(i, 3):
            se = np.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / (n_paths - 1))
            pull = abs(emp[i, j] - target[i, j]) / se
            worst_sigma = max(worst_sigma, float(pull))
            assert pull < 4.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        "OU stationary law",
        f"covariance within {worst_sigma:.2f} se of (-A)^-1, {elapsed:.1f}s",
    )


def test_diffusion_scaling_limit():
    start = time.monotonic()
    schedule = bd.geometric_schedule("diffusion", [1.0], 4)  # eps 2^-2 .. 2^-5
    config = bd.DiffusionExperimentConfig(
        graph=bd.single_vertex(),
        birth_matrix=[[0.0]],
        death_matrix=[[1.0]],
        schedule=schedule,
        t=1.0,
        replicas=20_000,
        seed=0,
    )
    table = bd.run_diffusion_experiment(config)
    mean_limit = float(np.exp(-1.0))
    var_limit = float(1.0 - np.exp(-2.0))
    finest = {row.statistic: row for row in table.rows if row.level == 3}
    assert finest["mean_0"].limit == pytest.approx(mean_limit, abs=1e-9)
    assert finest["cov_0_0"].limit == pytest.approx(var_limit, abs=1e-7)
    for stat in ("mean_0", "cov_0_0"):
        row = finest[stat]
        assert row.abs_error < 4.0 * row.mc_stderr
        errs = table.errors(stat)
        assert errs[-1] < errs[0]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        "diffusion scaling",
        f"mean err {finest['mean_0'].abs_error:.4f} < 4se "
        f"{4 * finest['mean_0'].mc_stderr:.4f}, var err "
        f"{finest['cov_0_0'].abs_error:.4f} < 4se "
        f"{4 * finest['cov_0_0'].mc_stderr:.4f}, {elapsed:.0f}s",
    )


def _exact_chain_laws(config):
    """{level: (mean, cov)} of eps * xi(t / eps^2) under the chain's exact
    law, expm_multiply(Q^T t / eps^2) e_start (Al-Mohy & Higham 2011), on
    the spec each level runs: matrices times eps^2, boxes l = r = ceil(eps^-2)
    and the start u / eps rounded."""
    from scipy.sparse.linalg import expm_multiply

    laws = {}
    for level, eps in enumerate(config.schedule.epsilons.tolist()):
        box = int(np.ceil(eps**-2.0))
        spec = bd.ChainSpec(
            config.graph, eps**2 * config.birth_matrix, eps**2 * config.death_matrix, box, box
        )
        p0 = np.zeros(spec.num_states())
        p0[bd.state_index(spec, np.rint(config.schedule.initial_point / eps))] = 1.0
        p = expm_multiply(bd.build_generator(spec).T.tocsr() * (config.t / eps**2), p0)
        x = eps * bd.enumerate_states(spec)
        mean = p @ x
        laws[level] = (mean, (x - mean).T @ ((x - mean) * p[:, None]))
    return laws


def _ou_fixture(**kw):
    """The acceptance fixture: one vertex, A_d = 1, u = 1, t = 1, eps 2^-2 .. 2^-5."""
    schedule = bd.geometric_schedule("diffusion", [1.0], 4)
    return bd.DiffusionExperimentConfig(
        graph=bd.single_vertex(), birth_matrix=[[0.0]], death_matrix=[[1.0]],
        schedule=schedule, t=1.0, **kw,
    )


def test_exact_chain_law_is_first_order_in_eps():
    # no sampling: the chain's own law against the OU law, level by level
    start = time.monotonic()
    config = _ou_fixture()
    mean_ou, cov_ou = bd.exact_transition([[-1.0]], [1.0], 1.0)
    laws = _exact_chain_laws(config)
    eps = config.schedule.epsilons
    mean_rate = np.array([abs(laws[k][0][0] - mean_ou[0]) for k in laws]) / eps
    var_rate = np.array([abs(laws[k][1][0, 0] - cov_ou[0, 0]) for k in laws]) / eps
    assert np.all((mean_rate >= 0.30) & (mean_rate <= 0.35)), mean_rate
    assert np.all((var_rate >= 0.06) & (var_rate <= 0.09)), var_rate
    _report(
        "exact chain law first order",
        f"|mean - OU|/eps {np.round(mean_rate, 4).tolist()}, |var - OU|/eps "
        f"{np.round(var_rate, 4).tolist()}, {time.monotonic() - start:.2f}s",
    )


@pytest.mark.parametrize(
    "make",
    [
        *(lambda seed=seed: _ou_fixture(replicas=2000, seed=seed) for seed in (0, 1, 2)),
        lambda: bd.DiffusionExperimentConfig(
            graph=bd.path_graph(2), birth_matrix=np.zeros((2, 2)),
            death_matrix=[[1.0, -0.3], [-0.3, 1.0]],
            schedule=bd.geometric_schedule("diffusion", [0.5, -0.5], 2),
            t=1.0, replicas=2000, seed=0,
        ),
    ],
    ids=["single-seed0", "single-seed1", "single-seed2", "path2-seed0"],
)
def test_replicas_match_the_exact_chain_law(make):
    # the Monte-Carlo experiment against the chain it simulates, not against
    # the OU limit, so the O(eps) scaling bias does not enter: the lockstep
    # (one vertex) and the _simulate_vector replicas (path(2)) at every level
    start = time.monotonic()
    config = make()
    table = bd.run_diffusion_experiment(config)
    laws = _exact_chain_laws(config)
    z = []
    for row in table.rows:
        kind, *index = row.statistic.split("_")
        if kind in ("mean", "cov"):
            mean, cov = laws[row.level]
            exact = mean[int(index[0])] if kind == "mean" else cov[int(index[0]), int(index[1])]
            z.append(abs(row.empirical - exact) / row.mc_stderr)
    assert len(z) == config.schedule.num_levels * (2 if config.graph.num_vertices == 1 else 5)
    assert max(z) < 4.0
    _report(
        "replicas against the exact chain law",
        f"{config.graph.num_vertices} vertex(es), seed {config.seed}: max |z| {max(z):.2f} "
        f"over {len(z)} statistics, {time.monotonic() - start:.1f}s",
    )


# pilot-calibrated fixture: per-path sup distance fluctuates at the
# sqrt(eps) scale, so reaching 0.05 on one path needs eps near 2^-13;
# verified stable across 20 seeds before freezing seed 0
FLUID_SCHEDULE = dict(num_levels=4, coarsest_log2_eps=-4, step_log2=3)

FLUID_SEED = 0


def test_fluid_scaling_limit():
    start = time.monotonic()
    schedule = bd.geometric_schedule("fluid", [1.0], **FLUID_SCHEDULE)
    config = bd.FluidExperimentConfig(
        graph=bd.single_vertex(),
        birth_matrix=[[0.0]],
        death_matrix=[[1.0]],
        schedule=schedule,
        t=2.0,
        replicas=1,
        seed=FLUID_SEED,
    )
    table = bd.run_fluid_experiment(config)
    sups = table.errors("sup_distance")
    assert sups[-1] < sups[0]
    assert sups[-1] < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        "fluid scaling",
        f"D {np.array2string(sups, precision=4)} decreasing, finest < 0.05, "
        f"{elapsed:.1f}s",
    )


def test_generator_convergence_first_order_band():
    start = time.monotonic()
    schedule = bd.geometric_schedule("diffusion", [0.0], 4, coarsest_log2_eps=-3)
    config = bd.GeneratorCheckConfig(
        graph=bd.single_vertex(),
        birth_matrix=[[0.0]],
        death_matrix=[[1.0]],
        schedule=schedule,
        radius=2.0,
        grid_points=41,
    )
    table = bd.generator_convergence_check(config)
    errs = table.errors("sup_error")
    assert np.all(np.diff(errs) < 0)
    ratios = np.array([row.empirical for row in table.statistic("error_ratio")])
    median = float(np.median(ratios))
    assert np.all(ratios >= 0.3 * median)
    assert np.all(ratios <= 3.0 * median)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        "generator convergence",
        f"E decreasing, ratios in [{ratios.min():.2f}, {ratios.max():.2f}] "
        f"vs median {median:.2f}, {elapsed:.2f}s",
    )


def test_cli_outputs_reproducible(tmp_path):
    runs = [
        (["simulate", "--config", os.path.join(CONFIG_DIR, "sim_two_site.cfg")],
         "trajectory.csv"),
        (["gibbs", "--config", os.path.join(CONFIG_DIR, "two_site.cfg")], "gibbs.csv"),
        (["stationary", "--config", os.path.join(CONFIG_DIR, "two_site.cfg")],
         "stationary.csv"),
        (["balance-check", "--config", os.path.join(CONFIG_DIR, "two_site.cfg")],
         "balance.csv"),
        (["classify", "--graph", os.path.join(CONFIG_DIR, "star5.g"),
          "--alpha", "-3", "--beta", "1"], "spectral_report.csv"),
        (["spectrum", "--graph", os.path.join(CONFIG_DIR, "cycle3.g"),
          "--alpha", "-3", "--beta", "1"], "eigenvalues.csv"),
        (["exp-diffusion", "--config", os.path.join(CONFIG_DIR, "diffusion_small.cfg")],
         "diffusion_table.csv"),
        (["exp-fluid", "--config", os.path.join(CONFIG_DIR, "fluid_small.cfg")],
         "fluid_table.csv"),
        (["gen-check", "--config", os.path.join(CONFIG_DIR, "gencheck.cfg")],
         "generator_table.csv"),
    ]
    for k, (args, artifact) in enumerate(runs):
        first = tmp_path / f"run{k}a"
        second = tmp_path / f"run{k}b"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        a = (first / artifact).read_bytes()
        b = (second / artifact).read_bytes()
        assert a == b, f"{args[0]} output differs between identical runs"
    _report("CLI determinism", f"{len(runs)} subcommands byte-identical on rerun")
