"""Command-line driver.

Subcommands: simulate, stationary, gibbs, balance-check, spectrum,
classify, exp-diffusion, exp-fluid, gen-check.  Each reads a flat config
file (and/or direct flags for the spectral commands), writes CSV files
into an output directory, and prints one stable summary line of the form
'<subcommand> ok key=value ...'.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as bio
from .chain import (
    DEFAULT_STATE_CAP,
    check_detailed_balance,
    gibbs_measure,
    simulate,
    stationary_solve,
)
from .errors import ConfigError, NumericError, ValidationError
from .experiments import (
    DEFAULT_EVENT_BUDGET,
    DiffusionExperimentConfig,
    FluidExperimentConfig,
    GeneratorCheckConfig,
    ScalingSchedule,
    generator_convergence_check,
    geometric_schedule,
    run_diffusion_experiment,
    run_fluid_experiment,
)
from .graphs import alpha_beta_matrix, load_graph
from .spectral import classify_pd, numeric_report

MAX_SEED = 2**64


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ConfigError(message)


def _summary(subcommand: str, pairs: list[tuple[str, object]]) -> None:
    tokens = []
    for key, value in pairs:
        if isinstance(value, str):
            tokens.append(f"{key}={value}")
        else:
            tokens.append(f"{key}={bio._fmt(value)}")
    print(f"{subcommand} ok " + " ".join(tokens))


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _view(args) -> bio.ConfigView:
    if args.config is None:
        raise ConfigError("missing required flag --config")
    entries = bio.read_config(args.config)
    return bio.ConfigView(entries, base_dir=os.path.dirname(os.path.abspath(args.config)))


def _checked_seed(value: int) -> int:
    if not 0 <= value < MAX_SEED:
        raise ConfigError(f"field 'seed' must be an unsigned 64-bit integer, got {value}")
    return value


def _seed_from(view: bio.ConfigView, args, default: int = 0) -> int:
    seed = view.get_int("seed", default)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return _checked_seed(seed)


def _cmd_simulate(args) -> int:
    view = _view(args)
    spec = bio.load_chain_spec(view)
    t_end = view.get_float("t_end", required=True)
    initial = view.get_vector("initial", default=np.zeros(spec.num_vertices))
    seed = _seed_from(view, args)
    max_events = view.get_int("max_events")
    view.reject_unknown()
    traj = simulate(spec, initial, t_end, seed=seed, max_events=max_events)
    out = _out_dir(args)
    bio.write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
    _summary(
        "simulate",
        [
            ("events", traj.num_events),
            ("boundary_hits", traj.boundary_hits(spec.l, spec.r)),
            ("t_end", t_end),
            ("seed", seed),
        ],
    )
    return 0


def _cmd_stationary(args) -> int:
    view = _view(args)
    spec = bio.load_chain_spec(view)
    cap = view.get_int("cap", DEFAULT_STATE_CAP)
    view.reject_unknown()
    pi = stationary_solve(spec, cap)
    out = _out_dir(args)
    bio.write_distribution_csv(os.path.join(out, "stationary.csv"), spec, pi)
    _summary(
        "stationary",
        [("states", len(pi)), ("max_prob", float(pi.max()))],
    )
    return 0


def _cmd_gibbs(args) -> int:
    view = _view(args)
    spec = bio.load_chain_spec(view)
    cap = view.get_int("cap", DEFAULT_STATE_CAP)
    view.reject_unknown()
    dist = gibbs_measure(spec, cap)
    out = _out_dir(args)
    bio.write_distribution_csv(
        os.path.join(out, "gibbs.csv"), spec, dist.probabilities
    )
    _summary(
        "gibbs",
        [
            ("states", len(dist.probabilities)),
            ("log_z", dist.log_partition),
        ],
    )
    return 0


def _cmd_balance_check(args) -> int:
    view = _view(args)
    spec = bio.load_chain_spec(view)
    cap = view.get_int("cap", DEFAULT_STATE_CAP)
    view.reject_unknown()
    residual = check_detailed_balance(spec, cap)
    out = _out_dir(args)
    bio.write_scalar_csv(os.path.join(out, "balance.csv"), "max_residual", residual)
    _summary("balance-check", [("residual", residual)])
    return 0


def _spectral_inputs(args):
    graph_path, alpha, beta = args.graph, args.alpha, args.beta
    if args.config is not None:
        view = _view(args)
        graph_path = graph_path or view.get_path("graph", required=True)
        if alpha is None:
            alpha = view.get_float("alpha", required=True)
        if beta is None:
            beta = view.get_float("beta", required=True)
        view.used.update({"graph", "alpha", "beta"})
        view.reject_unknown()
    if graph_path is None or alpha is None or beta is None:
        raise ConfigError("need --graph, --alpha and --beta (or a --config providing them)")
    return load_graph(graph_path), float(alpha), float(beta)


def _write_report(args, subcommand: str, report) -> int:
    out = _out_dir(args)
    bio.write_spectral_report_csv(os.path.join(out, "spectral_report.csv"), report)
    bio.write_eigenvalues_csv(os.path.join(out, "eigenvalues.csv"), report.eigenvalues)
    _summary(
        subcommand,
        [
            ("pd", report.positive_definite),
            ("min_eig", report.min_eigenvalue),
            ("method", report.method),
        ],
    )
    return 0


def _cmd_spectrum(args) -> int:
    graph, alpha, beta = _spectral_inputs(args)
    report = numeric_report(-alpha_beta_matrix(graph, alpha, beta))
    return _write_report(args, "spectrum", report)


def _cmd_classify(args) -> int:
    graph, alpha, beta = _spectral_inputs(args)
    report = classify_pd(graph, alpha, beta)
    return _write_report(args, "classify", report)


def _schedule_from(view: bio.ConfigView, regime: str, u: np.ndarray) -> ScalingSchedule:
    eps = view.get_vector("epsilons")
    boxes = view.get_vector("box_sizes")
    if eps is None:
        levels = view.get_int("levels", required=True)
        coarsest = view.get_int("coarsest_log2_eps", -2)
        step = view.get_int("step_log2", 1)
        return geometric_schedule(regime, u, levels, coarsest, step)
    if boxes is None:
        boxes = np.ceil(eps**-2.0)
    return ScalingSchedule(
        epsilons=eps,
        box_sizes=boxes.astype(np.int64),
        initial_point=u,
        regime=regime,
    )


def _experiment_common(view: bio.ConfigView, regime: str):
    graph = load_graph(view.get_path("graph", required=True))
    ab = bio.parse_matrix(view, "ab", graph)
    ad = bio.parse_matrix(view, "ad", graph)
    u = view.get_vector("u", required=True)
    t = view.get_float("t", required=True)
    schedule = _schedule_from(view, regime, u)
    return graph, ab, ad, schedule, t


def _cmd_exp_diffusion(args) -> int:
    view = _view(args)
    graph, ab, ad, schedule, t = _experiment_common(view, "diffusion")
    config = DiffusionExperimentConfig(
        graph=graph,
        birth_matrix=ab,
        death_matrix=ad,
        schedule=schedule,
        t=t,
        replicas=view.get_int("replicas", 2000),
        seed=_seed_from(view, args),
        event_budget=view.get_int("event_budget", DEFAULT_EVENT_BUDGET),
    )
    view.reject_unknown()
    table = run_diffusion_experiment(config)
    out = _out_dir(args)
    bio.write_table_csv(os.path.join(out, "diffusion_table.csv"), table)
    mean_errs = table.errors("mean_0")
    _summary(
        "exp-diffusion",
        [
            ("levels", schedule.num_levels),
            ("coarsest_mean_err", float(mean_errs[0])),
            ("finest_mean_err", float(mean_errs[-1])),
        ],
    )
    return 0


def _cmd_exp_fluid(args) -> int:
    view = _view(args)
    graph, ab, ad, schedule, t = _experiment_common(view, "fluid")
    config = FluidExperimentConfig(
        graph=graph,
        birth_matrix=ab,
        death_matrix=ad,
        schedule=schedule,
        t=t,
        replicas=view.get_int("replicas", 1),
        grid_points=view.get_int("grid_points", 200),
        ode_dt=view.get_float("ode_dt", 1e-3),
        seed=_seed_from(view, args),
        event_budget=view.get_int("event_budget", DEFAULT_EVENT_BUDGET),
    )
    view.reject_unknown()
    table = run_fluid_experiment(config)
    out = _out_dir(args)
    bio.write_table_csv(os.path.join(out, "fluid_table.csv"), table)
    sups = table.errors("sup_distance")
    _summary(
        "exp-fluid",
        [
            ("levels", schedule.num_levels),
            ("d_coarsest", float(sups[0])),
            ("d_finest", float(sups[-1])),
        ],
    )
    return 0


def _cmd_gen_check(args) -> int:
    view = _view(args)
    graph = load_graph(view.get_path("graph", required=True))
    ab = bio.parse_matrix(view, "ab", graph)
    ad = bio.parse_matrix(view, "ad", graph)
    center = view.get_vector("center", default=np.zeros(graph.num_vertices))
    schedule = _schedule_from(view, "diffusion", center)
    config = GeneratorCheckConfig(
        graph=graph,
        birth_matrix=ab,
        death_matrix=ad,
        schedule=schedule,
        center=center,
        radius=view.get_float("radius", 2.0),
        grid_points=view.get_int("grid_points", 41),
    )
    view.reject_unknown()
    table = generator_convergence_check(config)
    out = _out_dir(args)
    bio.write_table_csv(os.path.join(out, "generator_table.csv"), table)
    errs = table.errors("sup_error")
    ratios = [row.empirical for row in table.statistic("error_ratio")]
    _summary(
        "gen-check",
        [
            ("levels", schedule.num_levels),
            ("e_finest", float(errs[-1])),
            ("ratio_finest", float(ratios[-1])),
        ],
    )
    return 0


def _add_common(sub, with_seed: bool = False, config_aliases: tuple[str, ...] = ()):
    sub.add_argument(
        "--config", *config_aliases, default=None, help="path to the config file"
    )
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    if with_seed:
        sub.add_argument("--seed", type=int, default=None, help="64-bit unsigned seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bdlimits",
        description="Interacting truncated birth-and-death chains and their scaling limits.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="event-driven chain simulation")
    _add_common(sim, with_seed=True, config_aliases=("--spec",))
    sim.set_defaults(handler=_cmd_simulate)

    stat = subs.add_parser("stationary", help="stationary law from the generator")
    _add_common(stat, config_aliases=("--spec",))
    stat.set_defaults(handler=_cmd_stationary)

    gibbs = subs.add_parser("gibbs", help="closed-form reversible stationary law")
    _add_common(gibbs, config_aliases=("--spec",))
    gibbs.set_defaults(handler=_cmd_gibbs)

    bal = subs.add_parser("balance-check", help="detailed-balance residual")
    _add_common(bal, config_aliases=("--spec",))
    bal.set_defaults(handler=_cmd_balance_check)

    for name, handler, help_text in (
        ("spectrum", _cmd_spectrum, "numeric spectrum of -(alpha E + beta adjacency)"),
        ("classify", _cmd_classify, "positive-definiteness verdict with auto dispatch"),
    ):
        sp = subs.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--graph", default=None, help="graph file (n/e format)")
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.set_defaults(handler=handler)

    expd = subs.add_parser("exp-diffusion", help="diffusion-scaling experiment")
    _add_common(expd, with_seed=True)
    expd.set_defaults(handler=_cmd_exp_diffusion)

    expf = subs.add_parser("exp-fluid", help="fluid-scaling experiment")
    _add_common(expf, with_seed=True)
    expf.set_defaults(handler=_cmd_exp_fluid)

    gen = subs.add_parser("gen-check", help="generator convergence on a bump function")
    _add_common(gen)
    gen.set_defaults(handler=_cmd_gen_check)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
