"""The four benchmark workloads: inputs made from a seed, the ops of one round,
and the correctness check of every op.

A round is a fixed list of ops whose sizes never depend on the seed; only
coefficients, start points and simulation seeds do.  Round r draws its
inputs from the workload seed and r, so a run that fits more rounds measures
more inputs of the same shape.  Oracles are computed inside the checks,
which run outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import scipy.linalg

import bdlimits as bd

# tolerances pinned by tests/test_acceptance.py
GIBBS_TOL = 1e-9
BALANCE_TOL = 1e-12
SPECTRUM_TOL = 1e-10
MC_SIGMAS = 4.0
# exact_transition's covariance quadrature stops at a 1e-8 relative change,
# so it is held to 1e-7 of the Van Loan reference; the mean and the
# Lyapunov solve are direct and held tighter
MEAN_RTOL = 1e-10
COV_RTOL = 1e-7
LYAPUNOV_RTOL = 1e-8

# dense state-count cap handed to every chain call; the largest case is 6561
STATE_CAP = 10_000


class Op:
    """One timed call.  `run` does the work; `check` returns (layer, message)
    failures for its result and runs outside the timed region."""

    __slots__ = ("kind", "layer", "run", "check")

    def __init__(self, kind, layer, run, check):
        self.kind = kind
        self.layer = layer
        self.run = run
        self.check = check


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *keys])


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _rel_err(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    return float(np.abs(value - reference).max(initial=0.0)) / scale


class Workload:
    name = ""
    # the kind of computation the reference is (bench/run.py, Reference)
    reference_kind = "interpreter"
    # the traced run also times a bare interpreter start and a fresh
    # `import bdlimits`, as child processes
    times_startup = False

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self) -> list[Op]:
        """Ops run untimed before timing starts."""
        return self.round_ops(0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def finish(self) -> list[tuple[str, str]]:
        """Checks over the whole run; a failure here fails every op."""
        return []


# ---------------------------------------------------------------- diffusion


class DiffusionLimit(Workload):
    """Many short replicas: the acceptance OU fixture plus an EM ensemble."""

    name = "diffusion-limit"
    # replicas per level of the three experiment calls in one round
    REPLICAS = (16, 40, 100)
    T = 1.0
    EM_PATHS = 300
    EM_T_END = 5.0
    EM_DT = 1e-3

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.graph = bd.single_vertex()
        self.schedule = bd.geometric_schedule("diffusion", [1.0], 4)  # eps 2^-2..2^-5
        self.mean_limit = math.exp(-self.T)
        self.var_limit = 1.0 - math.exp(-2.0 * self.T)
        self.em_a = bd.alpha_beta_matrix(bd.path_graph(3), -2.0, 0.5)
        self.em_cov = scipy.linalg.solve_continuous_lyapunov(self.em_a, -2.0 * np.eye(3))
        # about 2 events per unit of sped-up time at every level
        self.events_per_replica = 2.0 * sum(self.T / e**2 for e in self.schedule.epsilons)
        # (round, op) -> pooled statistics; keyed so a repeated pass on the
        # same inputs is not counted twice
        self.finest: dict[tuple[int, int], tuple[int, float, float]] = {}
        self.em: dict[tuple[int, int], np.ndarray] = {}

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for k, reps in enumerate(self.REPLICAS):
            config = bd.DiffusionExperimentConfig(
                graph=self.graph,
                birth_matrix=np.zeros((1, 1)),
                death_matrix=np.ones((1, 1)),
                schedule=self.schedule,
                t=self.T,
                replicas=reps,
                seed=_seed_from(rng),
                event_budget=int(20 * reps * self.events_per_replica),
            )
            em_seed = _seed_from(rng)
            ops.append(Op(f"experiment_r{reps}", "experiments",
                          self._runner(config, em_seed), self._checker((r, k), reps)))
        return ops

    def _runner(self, config, em_seed):
        a = self.em_a

        def run():
            table = bd.run_diffusion_experiment(config)
            terminal = bd.euler_maruyama_terminal(
                a, np.zeros(3), dt=self.EM_DT, t_end=self.EM_T_END,
                n_paths=self.EM_PATHS, seed=em_seed,
            )
            _, cov = bd.stationary_gaussian(a)
            return table, terminal, cov

        return run

    def _checker(self, key, reps):
        def check(result):
            table, terminal, cov = result
            bad = []
            last = self.schedule.num_levels - 1
            finest = {row.statistic: row for row in table.rows if row.level == last}
            if abs(finest["mean_0"].limit - self.mean_limit) > 1e-9:
                bad.append(("diffusion", f"exact mean {finest['mean_0'].limit} != e^-t"))
            if abs(finest["cov_0_0"].limit - self.var_limit) > 1e-7:
                bad.append(("diffusion", f"exact var {finest['cov_0_0'].limit} != 1-e^-2t"))
            mean, var = finest["mean_0"].empirical, finest["cov_0_0"].empirical
            if not (math.isfinite(mean) and math.isfinite(var)):
                bad.append(("experiments", "non-finite finest-level moments"))
            self.finest[key] = (reps, mean, var)
            if terminal.shape != (self.EM_PATHS, 3) or not np.isfinite(terminal).all():
                bad.append(("diffusion", f"EM terminal states malformed: {terminal.shape}"))
            else:
                self.em[key] = np.cov(terminal, rowvar=False, ddof=1)
            err = _rel_err(cov, self.em_cov)
            if err > LYAPUNOV_RTOL:
                bad.append(("diffusion", f"stationary_gaussian off Lyapunov by {err:.2e}"))
            return bad

        return check

    def finish(self):
        """Finest-level mean/var and EM covariance, pooled over the run, within
        4 standard errors of the exact laws (standard errors from the exact
        variance, so an undershooting sample cannot shrink its own bound)."""
        bad = []
        if self.finest:
            n = sum(reps for reps, _, _ in self.finest.values())
            dof = sum(reps - 1 for reps, _, _ in self.finest.values())
            mean = sum(reps * m for reps, m, _ in self.finest.values()) / n
            var = sum((reps - 1) * v for reps, _, v in self.finest.values()) / dof
            se_mean = math.sqrt(self.var_limit / n)
            se_var = self.var_limit * math.sqrt(2.0 / dof)
            if abs(mean - self.mean_limit) > MC_SIGMAS * se_mean:
                bad.append(("experiments", f"pooled finest mean {mean:.5f} vs "
                            f"{self.mean_limit:.5f} beyond 4 se ({se_mean:.5f})"))
            if abs(var - self.var_limit) > MC_SIGMAS * se_var:
                bad.append(("experiments", f"pooled finest var {var:.5f} vs "
                            f"{self.var_limit:.5f} beyond 4 se ({se_var:.5f})"))
        if self.em:
            dof = len(self.em) * (self.EM_PATHS - 1)
            emp = sum(self.em.values()) / len(self.em)
            s = self.em_cov
            se = np.sqrt((np.outer(np.diag(s), np.diag(s)) + s**2) / dof)
            pull = float((np.abs(emp - s) / se).max())
            if pull > MC_SIGMAS:
                bad.append(("diffusion", f"pooled EM covariance {pull:.2f} se off"))
        return bad


# -------------------------------------------------------------------- fluid


class FluidLimit(Workload):
    """Few long paths on coupled graphs of 2, 10 and 50 vertices."""

    name = "fluid-limit"
    GRAPHS = (("path2", 2), ("cycle10", 10), ("cycle50", 50))
    T = 2.0
    ODE_DT = 4e-4
    LEVELS = dict(num_levels=3, coarsest_log2_eps=-1, step_log2=3)  # eps 2^-1, 2^-4, 2^-7

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.cases = []
        for label, n in self.GRAPHS:
            g = bd.path_graph(n) if label.startswith("path") else bd.cycle_graph(n)
            self.cases.append((label, g, bd.alpha_beta_matrix(g, 0.0, 0.2),
                               bd.alpha_beta_matrix(g, 1.0, 0.0)))

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for label, g, ab, ad in self.cases:
            n = g.num_vertices
            # a fixed start point, so that every round does the same expected
            # work and the seed only sets the sample paths
            schedule = bd.geometric_schedule("fluid", np.linspace(-0.5, 0.5, n), **self.LEVELS)
            # rates stay within e^{+-1.2} of 1 on these specs
            expected = 2.0 * n * sum(self.T / e for e in schedule.epsilons)
            config = bd.FluidExperimentConfig(
                graph=g, birth_matrix=ab, death_matrix=ad, schedule=schedule,
                t=self.T, replicas=1, ode_dt=self.ODE_DT, seed=_seed_from(rng),
                event_budget=int(20 * expected),
            )
            ops.append(Op(label, "experiments",
                          lambda config=config: bd.run_fluid_experiment(config),
                          self._check))
        return ops

    @staticmethod
    def _check(table):
        sups = table.errors("sup_distance")
        if not np.isfinite(sups).all():
            return [("experiments", f"non-finite sup distances {sups}")]
        # as test_fluid_scaling_limit: the finest level beats the coarsest
        if not sups[-1] < sups[0]:
            return [("experiments", f"sup distance not decreasing: {sups}")]
        return []


# --------------------------------------------------------------- exact laws


def _spec(graph, l, r, rng, scale):
    """Reversible spec as in the acceptance suite: symmetric A = A_b - A_d,
    zero death diagonal, coefficients shrunk by `scale` on wide boxes."""
    n = graph.num_vertices
    adj = graph.adjacency_matrix()
    sym = rng.uniform(-0.75, 0.75, size=(n, n)) * scale
    sym = 0.5 * (sym + sym.T) * (adj + np.eye(n))
    split = rng.uniform(-0.5, 0.5, size=(n, n)) * scale * adj
    return bd.ChainSpec(graph, sym + split, split, l=l, r=r)


def _gibbs_reference(spec) -> np.ndarray:
    """Closed-form Gibbs law over the documented canonical state order
    (mixed radix, vertex 0 fastest, spin -l first)."""
    n, base = spec.num_vertices, spec.num_spin_values
    idx = np.arange(base**n, dtype=np.int64)[:, None]
    states = ((idx // base ** np.arange(n)) % base - spec.l).astype(float)
    a = spec.birth_matrix - spec.death_matrix
    energy = 0.5 * (np.einsum("ij,ij->i", states @ a, states) - states @ np.diag(a))
    weights = np.exp(energy - energy.max())
    return weights / weights.sum()


def _irregular_graph(d, rng):
    """Random tree plus d/10 chords; degrees are not constant, so
    classify_pd takes its general route."""
    while True:
        edges = {(int(rng.integers(0, k)), k) for k in range(1, d)}
        while len(edges) < d - 1 + d // 10:
            u, v = sorted(int(x) for x in rng.choice(d, size=2, replace=False))
            edges.add((u, v))
        g = bd.build_graph(d, edges)
        degs = np.sort(g.degrees)
        if degs[0] != degs[-1] and degs[-1] < d - 1 and degs[-1] > 2:
            return g


def _star_spectrum(m, alpha, beta):
    root = math.sqrt(m)
    return np.sort(np.r_[-alpha - beta * root, np.full(m - 1, -alpha), -alpha + beta * root])


def _path_spectrum(vertices, alpha, beta):
    k = np.arange(1, vertices + 1)
    return np.sort(-alpha - 2.0 * beta * np.cos(k * math.pi / (vertices + 1)))


def _van_loan(a, t):
    """(e^{At}, 2 * int_0^t e^{As} e^{A's} ds) from one block exponential."""
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -a
    block[:d, d:] = 2.0 * np.eye(d)
    block[d:, d:] = a.T
    e = scipy.linalg.expm(block * t)
    f = e[d:, d:]
    return f.T, f.T @ e[:d, d:]


class ExactLaws(Workload):
    """No simulation: stationary laws of reversible specs and the spectral
    and Gaussian-law routines on matrices of dimension 3 to 200."""

    name = "exact-laws"
    # most of a round is dense LU: the 6561- and 1000-state stationary solves
    reference_kind = "dense"
    # (graph, l, r): the acceptance specs' graphs and boxes (l + r <= 4, at
    # most 125 states), then six of 1000 states and one of 6561
    SMALL_SPECS = (("single", 0, 1), ("single", 2, 2), ("path2", 1, 1), ("path2", 0, 4),
                   ("path2", 2, 2), ("path3", 1, 1), ("path3", 0, 3), ("path3", 2, 2),
                   ("cycle3", 1, 2), ("cycle3", 2, 2))
    # each small size runs this often per round, so that the median op falls
    # inside their block rather than on the edge of a slower kind
    SMALL_REPEATS = 10
    MID_SPECS = (("path3", 4, 5), ("cycle3", 4, 5)) * 3
    LARGE_SPEC = ("cycle4", 4, 4)
    # (family, dimension); routines past HURWITZ_DIM_MAX / LYAPUNOV_DIM_MAX
    # are skipped (the Kronecker Lyapunov solve grows as d^6)
    MATRIX_CASES = (("star", 3), ("path", 10), ("cycle", 20), ("irregular", 50),
                    ("irregular", 100), ("star", 200))
    HURWITZ_DIM_MAX = 100
    LYAPUNOV_DIM_MAX = 50

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.graphs = {"single": bd.single_vertex(), "path2": bd.path_graph(2),
                       "path3": bd.path_graph(3), "cycle3": bd.cycle_graph(3),
                       "cycle4": bd.cycle_graph(4)}

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for _ in range(self.SMALL_REPEATS):
            for label, l, rr in self.SMALL_SPECS:
                spec = _spec(self.graphs[label], l, rr, rng, 1.0)
                ops.append(self._spec_op(f"spec_{label}_{spec.num_states()}", spec))
        for label, l, rr in self.MID_SPECS + (self.LARGE_SPEC,):
            spec = _spec(self.graphs[label], l, rr, rng, 2.0 / max(l, rr))
            ops.append(self._spec_op(f"spec_{label}_{spec.num_states()}", spec))
        for family, d in self.MATRIX_CASES:
            ops.append(self._matrix_op(family, d, rng))
        return ops

    def warm_up_ops(self):
        # the 6561-state spec needs no warming and would take 5 s
        large = self.LARGE_SPEC[0]
        return [op for op in self.round_ops(0) if not op.kind.startswith(f"spec_{large}_")]

    @staticmethod
    def _spec_op(kind, spec):
        def run():
            q = bd.build_generator(spec, STATE_CAP)
            pi = bd.stationary_solve(spec, STATE_CAP)
            gibbs = bd.gibbs_measure(spec, STATE_CAP).probabilities
            residual = bd.check_detailed_balance(spec, STATE_CAP)
            return q, pi, gibbs, residual

        def check(result):
            q, pi, gibbs, residual = result
            bad = []
            count = spec.num_states()
            diag = np.abs(q.diagonal()).max()
            if q.shape != (count, count) or np.abs(q.sum(axis=1)).max() > 1e-12 * max(1.0, diag):
                bad.append(("chain", "generator rows do not sum to zero"))
            reference = _gibbs_reference(spec)
            if pi.shape != (count,) or np.abs(pi - gibbs).max() > GIBBS_TOL:
                bad.append(("chain", "stationary_solve differs from gibbs_measure"))
            if np.abs(gibbs - reference).max() > GIBBS_TOL:
                bad.append(("chain", "gibbs_measure differs from the closed form"))
            if not residual <= BALANCE_TOL:
                bad.append(("chain", f"detailed-balance residual {residual:.2e}"))
            return bad

        return Op(kind, "chain", run, check)

    def _matrix_op(self, family, d, rng):
        if family == "star":
            g = bd.star_graph(d - 1)
        elif family == "path":
            g = bd.path_graph(d)
        elif family == "cycle":
            g = bd.cycle_graph(d)
        else:
            g = _irregular_graph(d, rng)
        alpha = float(rng.uniform(-3.0, -1.0))
        beta = float(rng.uniform(-1.0, 1.0))
        a_sym = bd.alpha_beta_matrix(g, alpha, beta)
        # non-symmetric drift on the graph pattern, shifted to be Hurwitz
        # with margin in [0.5, 1.5]
        b = rng.uniform(-1.0, 1.0, size=(d, d)) * (g.adjacency_matrix() + np.eye(d))
        shift = float(np.linalg.eigvals(b).real.max()) + rng.uniform(0.5, 1.5)
        a_ns = b - shift * np.eye(d)
        u0 = rng.standard_normal(d)
        full = d <= self.HURWITZ_DIM_MAX

        def run():
            out = {
                "classify": bd.classify_pd(g, alpha, beta),
                "eigen": bd.eigen_sym(-a_sym),
            }
            if full:
                out["hurwitz_sym"] = bd.is_hurwitz(a_sym)
                out["hurwitz_ns"] = bd.is_hurwitz(a_ns)
                out["transition"] = bd.exact_transition(a_ns, u0, 1.0)
            if d <= self.LYAPUNOV_DIM_MAX:
                out["stationary"] = bd.stationary_gaussian(a_ns)
            return out

        def check(out):
            bad = []
            ref = np.linalg.eigvalsh(-a_sym)
            if np.abs(out["eigen"] - ref).max() > SPECTRUM_TOL:
                bad.append(("spectral", "eigen_sym differs from eigvalsh"))
            report = out["classify"]
            if np.abs(report.eigenvalues - ref).max() > SPECTRUM_TOL:
                bad.append(("spectral", "classify_pd eigenvalues differ from eigvalsh"))
            if family in ("star", "path"):
                closed = (_star_spectrum(d - 1, alpha, beta) if family == "star"
                          else _path_spectrum(d, alpha, beta))
                if np.abs(out["eigen"] - closed).max() > SPECTRUM_TOL:
                    bad.append(("spectral", "eigen_sym differs from the closed form"))
                if report.method != f"closed_form_{family}":
                    bad.append(("spectral", f"classify_pd took route {report.method}"))
            if report.positive_definite != (ref[0] > 1e-10):
                bad.append(("spectral", "classify_pd verdict differs from eigvalsh"))
            if full:
                if out["hurwitz_sym"] != (ref[0] > 1e-10):
                    bad.append(("spectral", "is_hurwitz verdict wrong on symmetric A"))
                if out["hurwitz_ns"] is not True:
                    bad.append(("spectral", "is_hurwitz rejects a Hurwitz drift"))
                mean, cov = out["transition"]
                expm, cov_ref = _van_loan(a_ns, 1.0)
                if _rel_err(mean, expm @ u0) > MEAN_RTOL:
                    bad.append(("diffusion", "exact_transition mean off expm"))
                if _rel_err(cov, cov_ref) > COV_RTOL:
                    bad.append(("diffusion", "exact_transition covariance off Van Loan"))
            if "stationary" in out:
                mean, cov = out["stationary"]
                lyap = scipy.linalg.solve_continuous_lyapunov(a_ns, -2.0 * np.eye(d))
                if np.abs(mean).max() != 0.0 or _rel_err(cov, lyap) > LYAPUNOV_RTOL:
                    bad.append(("diffusion", "stationary_gaussian off the Lyapunov solve"))
            return bad

        return Op(f"{family}{d}", "spectral", run, check)


# ---------------------------------------------------------------- CLI demos

# the arguments of test_cli_outputs_reproducible, with the artifact compared
# on rerun and whether the subcommand takes --seed
CLI_RUNS = (
    ("simulate", ["--config", "sim_two_site.cfg"], "trajectory.csv", True),
    ("gibbs", ["--config", "two_site.cfg"], "gibbs.csv", False),
    ("stationary", ["--config", "two_site.cfg"], "stationary.csv", False),
    ("balance-check", ["--config", "two_site.cfg"], "balance.csv", False),
    ("classify", ["--graph", "star5.g", "--alpha", "-3", "--beta", "1"],
     "spectral_report.csv", False),
    ("spectrum", ["--graph", "cycle3.g", "--alpha", "-3", "--beta", "1"],
     "eigenvalues.csv", False),
    ("exp-diffusion", ["--config", "diffusion_small.cfg"], "diffusion_table.csv", True),
    ("exp-fluid", ["--config", "fluid_small.cfg"], "fluid_table.csv", True),
    ("gen-check", ["--config", "gencheck.cfg"], "generator_table.csv", False),
)


class CliDemos(Workload):
    """Each subcommand on demos/configs through `bdlimits.cli.cli_main`, and
    one of them also as a fresh `python -m bdlimits.cli` process."""

    name = "cli-demos"
    times_startup = True
    # run as a fresh process too, so that interpreter start and the import of
    # the package are part of every round; the cheapest subcommand, so that
    # they are most of that op
    FRESH = "spectrum"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.cli = importlib.import_module("bdlimits.cli")
        configs = os.path.join(root, "demos", "configs")
        rng = _rng(seed)
        self.argv = []
        for sub, args, artifact, seeded in CLI_RUNS:
            argv = [sub] + [a if a.startswith("-") or not a.endswith((".cfg", ".g"))
                            else os.path.join(configs, a) for a in args]
            if seeded:
                argv += ["--seed", str(int(rng.integers(0, 2**32)))]
            self.argv.append((sub, argv, artifact))
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        # bytes of each artifact's first run; every later run, in this process
        # or a fresh one, must reproduce them
        self.artifacts: dict[str, bytes] = {}
        self.child_peak_rss_kb = 0

    def round_ops(self, r):
        out_root = os.path.join(self.workdir, "cli")
        shutil.rmtree(out_root, ignore_errors=True)
        os.makedirs(out_root)
        ops = []
        for sub, argv, artifact in self.argv:
            out = os.path.join(out_root, sub)
            ops.append(Op(sub, "cli", self._runner(argv + ["--out", out]),
                          self._checker(sub, os.path.join(out, artifact))))
            if sub == self.FRESH:
                out = os.path.join(out_root, f"{sub}-process")
                ops.append(Op(f"{sub}-process", "cli", self._process(argv + ["--out", out], out),
                              self._checker(sub, os.path.join(out, artifact))))
        return ops

    def _runner(self, argv):
        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.cli_main(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        return run

    def _process(self, argv, log):
        cmd = [sys.executable, "-m", "bdlimits.cli"] + argv

        def run():
            with open(log + ".out", "w+b") as out, open(log + ".err", "w+b") as err:
                proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                        stdout=out, stderr=err)
                try:
                    # wait4 rather than wait: it also returns the child's peak RSS
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:  # the op's time limit; do not leave the child
                    proc.kill()
                    proc.wait()
                    raise
                self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                return (os.waitstatus_to_exitcode(status), out.read().decode(),
                        err.read().decode())

        return run

    def peak_rss_mb(self):
        return max(super().peak_rss_mb(), self.child_peak_rss_kb / 1024.0)

    def _checker(self, sub, artifact):
        def check(result):
            code, stdout, stderr = result
            if code != 0:
                return [("cli", f"{sub} exited {code}: {stderr.strip()[-200:]}")]
            if not any(line.startswith(f"{sub} ok ") for line in stdout.splitlines()):
                return [("cli", f"{sub} printed no '{sub} ok' summary line")]
            if not os.path.isfile(artifact):
                return [("io", f"{sub} wrote no {os.path.basename(artifact)}")]
            with open(artifact, "rb") as fh:
                data = fh.read()
            if self.artifacts.setdefault(sub, data) != data:
                return [("io", f"{sub} output differs from its first run")]
            return []

        return check


WORKLOADS = {cls.name: cls for cls in (DiffusionLimit, FluidLimit, ExactLaws, CliDemos)}
