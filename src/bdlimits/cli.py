"""Command-line driver.

Subcommands: simulate, stationary, gibbs, balance-check, spectrum,
classify, exp-diffusion, exp-fluid, gen-check.  Each reads a flat config
file (and/or direct flags for the spectral commands), writes CSV files
into an output directory, and prints one stable summary line of the form
'<subcommand> ok key=value ...'.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.

A call builds the argument parser of the one subcommand its first word
names; a first word that names none (nothing, -h/--help, a typo) gets all
nine, so help and usage errors list every subcommand.  All nine take
1.1-1.8 ms to build and one about 0.25 ms, where classify, gibbs and
stationary cost 1.8-2.8 ms in-process with all nine and 0.8-1.3 ms with
one (medians, 2-vCPU x86-64 host).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as bio
from .chain import check_detailed_balance, gibbs_measure, simulate, stationary_solve
from .errors import ConfigError, NumericError, ValidationError, require_seed
from .experiments import (
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


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ConfigError(message)


def _out(args, name: str) -> str:
    """Path of one output file under --out, which is made here, so only
    once a handler has computed what it writes."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _view(args) -> bio.ConfigView:
    if args.config is None:
        raise ConfigError("missing required flag --config")
    entries = bio.read_config(args.config)
    return bio.ConfigView(entries, base_dir=os.path.dirname(os.path.abspath(args.config)))


def _seed_from(view: bio.ConfigView, args) -> int:
    seed = view.get_int("seed", 0)
    if args.seed is not None:
        seed = args.seed
    return require_seed(seed)


# Each handler reads its inputs, computes, writes its CSVs and returns the
# key=value pairs of its summary line.


def _cmd_simulate(args):
    view = _view(args)
    spec = bio.load_chain_spec(view)
    t_end = view.get_float("t_end", required=True)
    initial = view.get_vector("initial", default=np.zeros(spec.num_vertices))
    seed = _seed_from(view, args)
    max_events = view.get_int("max_events")
    view.reject_unknown()
    traj = simulate(spec, initial, t_end, seed=seed, max_events=max_events)
    bio.write_trajectory_csv(_out(args, "trajectory.csv"), traj)
    return [
        ("events", traj.num_events),
        ("boundary_hits", traj.boundary_hits(spec.l, spec.r)),
        ("t_end", t_end),
        ("seed", seed),
    ]


def _chain_inputs(args):
    """The spec of a stationary, gibbs or balance-check config, and its cap
    as a keyword argument if the file sets one."""
    view = _view(args)
    spec = bio.load_chain_spec(view)
    cap = view.optional(cap=int)
    view.reject_unknown()
    return spec, cap


def _cmd_stationary(args):
    spec, cap = _chain_inputs(args)
    pi = stationary_solve(spec, **cap)
    bio.write_distribution_csv(_out(args, "stationary.csv"), spec, pi)
    return [("states", len(pi)), ("max_prob", pi.max())]


def _cmd_gibbs(args):
    spec, cap = _chain_inputs(args)
    dist = gibbs_measure(spec, **cap)
    bio.write_distribution_csv(_out(args, "gibbs.csv"), spec, dist.probabilities)
    return [("states", len(dist.probabilities)), ("log_z", dist.log_partition)]


def _cmd_balance_check(args):
    spec, cap = _chain_inputs(args)
    residual = check_detailed_balance(spec, **cap)
    bio.write_scalar_csv(_out(args, "balance.csv"), "max_residual", residual)
    return [("residual", residual)]


def _spectral_inputs(args):
    graph_path, alpha, beta = args.graph, args.alpha, args.beta
    if args.config is not None:
        view = _view(args)
        # every key the file sets is parsed, and then a flag overrides it
        file_graph = view.get_path("graph", required=graph_path is None)
        file_alpha = view.get_float("alpha", required=alpha is None)
        file_beta = view.get_float("beta", required=beta is None)
        view.reject_unknown()
        graph_path = graph_path or file_graph
        alpha = file_alpha if alpha is None else alpha
        beta = file_beta if beta is None else beta
    if graph_path is None or alpha is None or beta is None:
        raise ConfigError("need --graph, --alpha and --beta (or a --config providing them)")
    return load_graph(graph_path), float(alpha), float(beta)


def _report(args, report):
    bio.write_spectral_report_csv(_out(args, "spectral_report.csv"), report)
    bio.write_eigenvalues_csv(_out(args, "eigenvalues.csv"), report.eigenvalues)
    return [
        ("pd", report.positive_definite),
        ("min_eig", report.min_eigenvalue),
        ("method", report.method),
    ]


def _cmd_spectrum(args):
    graph, alpha, beta = _spectral_inputs(args)
    return _report(args, numeric_report(-alpha_beta_matrix(graph, alpha, beta)))


def _cmd_classify(args):
    return _report(args, classify_pd(*_spectral_inputs(args)))


def _schedule_from(view: bio.ConfigView, regime: str, u: np.ndarray) -> ScalingSchedule:
    # reject_unknown refuses box_sizes next to levels, and levels next to epsilons
    eps = view.get_vector("epsilons")
    if eps is None:
        levels = view.get_int("levels", required=True)
        steps = view.optional(coarsest_log2_eps=int, step_log2=int)
        return geometric_schedule(regime, u, levels, **steps)
    return ScalingSchedule(eps, view.get_vector("box_sizes"), u, regime)


def _experiment_inputs(view: bio.ConfigView, regime: str) -> dict:
    """The fields shared by the two Monte-Carlo experiment configs."""
    graph, ab, ad = bio._load_model(view)
    u = view.get_vector("u", required=True)
    t = view.get_float("t", required=True)
    return dict(
        graph=graph,
        birth_matrix=ab,
        death_matrix=ad,
        schedule=_schedule_from(view, regime, u),
        t=t,
    )


def _cmd_exp_diffusion(args):
    view = _view(args)
    config = DiffusionExperimentConfig(
        **_experiment_inputs(view, "diffusion"),
        seed=_seed_from(view, args),
        **view.optional(replicas=int, event_budget=int),
    )
    view.reject_unknown()
    table = run_diffusion_experiment(config)
    bio.write_table_csv(_out(args, "diffusion_table.csv"), table)
    mean_errs = table.errors("mean_0")
    return [
        ("levels", config.schedule.num_levels),
        ("coarsest_mean_err", mean_errs[0]),
        ("finest_mean_err", mean_errs[-1]),
    ]


def _cmd_exp_fluid(args):
    view = _view(args)
    config = FluidExperimentConfig(
        **_experiment_inputs(view, "fluid"),
        seed=_seed_from(view, args),
        **view.optional(replicas=int, grid_points=int, ode_dt=float, event_budget=int),
    )
    view.reject_unknown()
    table = run_fluid_experiment(config)
    bio.write_table_csv(_out(args, "fluid_table.csv"), table)
    sups = table.errors("sup_distance")
    return [
        ("levels", config.schedule.num_levels),
        ("d_coarsest", sups[0]),
        ("d_finest", sups[-1]),
    ]


def _cmd_gen_check(args):
    view = _view(args)
    graph, ab, ad = bio._load_model(view)
    center = view.get_vector("center", default=np.zeros(graph.num_vertices))
    config = GeneratorCheckConfig(
        graph=graph,
        birth_matrix=ab,
        death_matrix=ad,
        schedule=_schedule_from(view, "diffusion", center),
        **view.optional(radius=float, grid_points=int),
    )
    view.reject_unknown()
    table = generator_convergence_check(config)
    bio.write_table_csv(_out(args, "generator_table.csv"), table)
    return [
        ("levels", config.schedule.num_levels),
        ("e_finest", table.errors("sup_error")[-1]),
        ("ratio_finest", table.statistic("error_ratio")[-1].empirical),
    ]


# name, handler, help text, and the flags it takes beyond --config and --out:
# "spec" (an alias of --config), "seed", and "spectral" (--graph, --alpha,
# --beta)
_SUBCOMMANDS = (
    ("simulate", _cmd_simulate, "event-driven chain simulation", ("spec", "seed")),
    ("stationary", _cmd_stationary, "stationary law from the generator", ("spec",)),
    ("gibbs", _cmd_gibbs, "closed-form reversible stationary law", ("spec",)),
    ("balance-check", _cmd_balance_check, "detailed-balance residual", ("spec",)),
    ("spectrum", _cmd_spectrum, "numeric spectrum of -(alpha E + beta adjacency)",
     ("spectral",)),
    ("classify", _cmd_classify, "positive-definiteness verdict with auto dispatch",
     ("spectral",)),
    ("exp-diffusion", _cmd_exp_diffusion, "diffusion-scaling experiment", ("seed",)),
    ("exp-fluid", _cmd_exp_fluid, "fluid-scaling experiment", ("seed",)),
    ("gen-check", _cmd_gen_check, "generator convergence on a bump function", ()),
)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of all nine subcommands, or of `only` alone."""
    parser = _ArgumentParser(
        prog="bdlimits",
        description="Interacting truncated birth-and-death chains and their scaling limits.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler, help_text, flags in _SUBCOMMANDS:
        if only is not None and name != only:
            continue
        sub = subs.add_parser(name, help=help_text)
        aliases = ("--spec",) if "spec" in flags else ()
        sub.add_argument(
            "--config", *aliases, default=None, help="path to the config file"
        )
        sub.add_argument("--out", default="out", help="output directory (default: out)")
        if "seed" in flags:
            sub.add_argument("--seed", type=int, default=None, help="64-bit unsigned seed")
        if "spectral" in flags:
            sub.add_argument("--graph", default=None, help="graph file (n/e format)")
            sub.add_argument("--alpha", type=float, default=None)
            sub.add_argument("--beta", type=float, default=None)
        sub.set_defaults(handler=handler)
    return parser


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # see the module docstring: only the subparser that runs is built
    names = [name for name, *_ in _SUBCOMMANDS]
    only = argv[0] if argv and argv[0] in names else None
    try:
        args = build_parser(only).parse_args(argv)
        pairs = args.handler(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    print(f"{args.subcommand} ok " + " ".join(f"{k}={bio._fmt(v)}" for k, v in pairs))
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
