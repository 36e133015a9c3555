"""Benchmark of bdlimits: one workload per fresh process, every op checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads: diffusion-limit, fluid-limit, exact-laws, cli-demos
(see bench/README.md).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a run that records spans around the package's public
calls.  Earlier lines starting with '#' record the environment and how many
ops and rounds were timed.  Exits 0 even when an op fails (the result then
says ``"correct": false``); exits 2 without a result when the package cannot
be imported.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import glob
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
# wall-clock limit on one op, and on everything this process does
OP_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0
# fresh interpreters timed for cli.interpreter_s and cli.import_s
STARTUP_SAMPLES = 3

# mallopt parameter number in glibc's malloc.h
M_MMAP_THRESHOLD = -3

LAYERS = ("chain", "diffusion", "fluid", "spectral", "experiments", "io", "cli")

STARTED = time.perf_counter()


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded its wall-clock limit of {OP_LIMIT_S:.0f} s")


def _failing_layer(exc: BaseException, default: str) -> str:
    """Innermost bdlimits layer module in the traceback, else `default`."""
    layer = default
    tb = exc.__traceback__
    pkg = os.path.join(SRC, "bdlimits") + os.sep
    while tb is not None:
        path = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if path.startswith(pkg):
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem in LAYERS:
                layer = stem
        tb = tb.tb_next
    return layer


class Reference:
    """A fixed computation, timed between ops all through a run.

    On a 2-vCPU VM of a shared machine (bench/README.md, Baseline), the same
    code ran up to twice as slow from one minute to the next.  End-to-end times are
    therefore given in units of this computation's time at the moment the
    op ran (unit ``ref``).  Interpreted code and dense LAPACK slowed by
    different amounts, so each workload names the kind of computation its
    time goes to:

    - ``interpreter``: a pure-Python arithmetic loop, a loop of dict and list
      churn, many small numpy calls and two small dense solves;
    - ``dense``: three dense LU solves of order 512 (one BLAS thread).
    """

    # a reference runs before an op once this long has passed since the last
    EVERY_S = 0.25
    # an op is divided by the median of this many references nearest it
    NEAREST = 4

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(1606)
        self._np = np
        order = {"interpreter": 256, "dense": 512}[kind]
        self._matrix = rng.standard_normal((order, order)) + order * np.eye(order)
        self._rhs = rng.standard_normal(order)
        self._vector = rng.standard_normal(64)
        self._work = self._interpreter if kind == "interpreter" else self._dense
        self.starts: list[float] = []
        self.times: list[float] = []
        self._last = -math.inf

    def _interpreter(self):
        np = self._np
        draw = random.Random(1).random
        t, x, acc = 0.0, 0, 0.0
        for _ in range(30_000):
            t -= math.log(1.0 - draw())
            x += 1 if draw() < 0.5 else -1
            acc += x * t
        counts, recent = {}, []
        for i in range(20_000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            recent.append([i, str(i % 10)])
            if len(recent) > 500:
                recent = recent[250:]
        v = self._vector
        for _ in range(600):
            v = np.tanh(v) * 0.5 + v.sum() * 1e-3
        for _ in range(2):
            np.linalg.solve(self._matrix, self._rhs)
        return acc, v

    def _dense(self):
        for _ in range(3):
            self._np.linalg.solve(self._matrix, self._rhs)

    def run(self) -> None:
        start = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.starts.append(start)
        self.times.append(self._last - start)

    def run_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.run()

    def at(self, t: float) -> float:
        """Median time of the references run nearest to moment `t`."""
        i = bisect.bisect(self.starts, t)
        half = self.NEAREST // 2
        return statistics.median(self.times[max(0, i - half):i + half])


class Recorder:
    """Op times and failures of one pass over the rounds."""

    def __init__(self, reference: Reference | None = None):
        self.reference = reference
        self.attempted = 0
        # timed rounds, and the op kinds of one round in order
        self.rounds = 0
        self.round_kinds: list[str] = []
        # (kind, start, seconds) of every timed op
        self.times: list[tuple[str, float, float]] = []
        self.failed_ops = 0
        self.failures: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.messages: list[str] = []

    def fail(self, layer: str, message: str) -> None:
        self.failures[layer] = self.failures.get(layer, 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"{layer}: {message}")

    def execute(self, op, timed: bool = True) -> float:
        """Run one op under the wall-clock limit, then check it; return its
        seconds.  An op run to warm up is checked but its time is not kept."""
        if self.reference is not None:
            self.reference.run_if_due()
        remaining = RUN_LIMIT_S - (time.perf_counter() - STARTED)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, min(OP_LIMIT_S, remaining)))
        start = time.perf_counter()
        problems = None
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [(_failing_layer(exc, op.layer), repr(exc))]
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.attempted += 1
        if timed:
            self.times.append((op.kind, start, elapsed))
        if problems is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                problems = [(op.layer, f"check raised {exc!r}")]
        if problems:
            self.failed_ops += 1
            for layer, message in problems:
                self.fail(layer, f"{op.kind}: {message}")
        return elapsed


def _keep_going(phase_start: float, round_walls: list[float], seconds: float) -> bool:
    now = time.perf_counter()
    expected = statistics.median(round_walls)
    return (now - phase_start + expected <= seconds
            and now - STARTED + expected <= RUN_LIMIT_S - OP_LIMIT_S)


def warm_up(workload, rec: Recorder) -> None:
    """Run the workload's warm-up ops untimed, so that lazy imports and
    caches are in place before timing starts."""
    ops = workload.warm_up_ops()
    gc.collect()
    for op in ops:
        rec.execute(op, timed=False)


def run_untraced(workload, seconds: float) -> Recorder:
    rec = Recorder(Reference(workload.reference_kind))
    warm_up(workload, rec)
    phase_start = time.perf_counter()
    round_walls: list[float] = []
    r = 1
    while True:
        t0 = time.perf_counter()
        ops = workload.round_ops(r)
        gc.collect()  # start each round from the same collector state
        for op in ops:
            rec.execute(op)
        rec.rounds += 1
        rec.round_kinds = [op.kind for op in ops]
        round_walls.append(time.perf_counter() - t0)
        r += 1
        if not _keep_going(phase_start, round_walls, seconds):
            rec.reference.run()  # so that the last ops have references after them too
            return rec


def run_traced(workload, seconds: float, tracer):
    """Each round runs untraced, then traced on the same inputs; returns the
    record of both passes, the number of rounds, and the overhead ratios."""
    rec = Recorder()
    warm_up(workload, rec)
    phase_start = time.perf_counter()
    round_walls: list[float] = []
    ratios: list[float] = []
    r = 1
    while True:
        t0 = time.perf_counter()
        ops = workload.round_ops(r)
        gc.collect()
        base = sum(rec.execute(op) for op in ops)
        ops = workload.round_ops(r)
        gc.collect()
        with tracer.installed():
            cost = sum(rec.execute(op) for op in ops)
        ratios.append(cost / base - 1.0)
        round_walls.append(time.perf_counter() - t0)
        r += 1
        if not _keep_going(phase_start, round_walls, seconds):
            return rec, r - 1, ratios


def measure_setup(args) -> tuple[float, list[str]]:
    """Median wall time of fresh processes that import bdlimits and make the
    workload's first-round inputs."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples, errors = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append("setup process timed out")
            continue
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            errors.append(f"setup process exited {proc.returncode}: {proc.stderr[-300:]}")
    # with no sample at all the run already fails; report the limit itself
    return (statistics.median(samples) if samples else SETUP_TIMEOUT_S), errors


def _fresh_python_s(code: str, env, errors: list[str]) -> float:
    """Median wall time of fresh interpreters running `code`."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            errors.append(f"python -c {code!r} exited {proc.returncode}: {proc.stderr[-300:]}")
    return statistics.median(times)


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, rec: Recorder, setup_s: float) -> dict:
    """Each op's time is divided by the reference's time at that moment; an
    op kind counts with the median of its ratios (see bench/README.md)."""
    ratios: dict[str, list[float]] = {}
    seconds: dict[str, list[float]] = {}
    for kind, start, t in rec.times:
        ratios.setdefault(kind, []).append(t / rec.reference.at(start))
        seconds.setdefault(kind, []).append(t)
    per_op = [statistics.median(ratios[kind]) for kind in rec.round_kinds]
    raw = sum(statistics.median(seconds[kind]) for kind in rec.round_kinds)
    print(f"# {len(rec.times)} ops timed in {rec.rounds} rounds of {len(per_op)}, "
          f"{len(rec.reference.times)} references of median "
          f"{statistics.median(rec.reference.times) * 1e3:.3f} ms; "
          f"a round of median op times takes {raw:.4f} s")
    return {
        "setup_s": _metric(setup_s, "s"),
        "round_ref": _metric(sum(per_op), "ref"),
        "op_p50_ref": _metric(statistics.median(per_op), "ref"),
        "op_max_ref": _metric(max(per_op), "ref"),
        "peak_rss_mb": _metric(workload.peak_rss_mb(), "MB"),
        "ok_frac": _metric((rec.attempted - rec.failed_ops) / rec.attempted, "frac"),
    }


def per_layer(rec: Recorder, rounds: int, ratios, spans, startup) -> dict:
    def row(key):
        return spans.get(key, {})

    def per_round(key, field="busy_s"):
        return row(key).get(field, 0) / rounds

    def ratio(key, num, den, scale):
        d = row(key).get(den, 0)
        return row(key).get(num, 0) * scale / d if d else 0.0

    def mean_ms(key):
        calls = row(key).get("calls", 0)
        return row(key).get("busy_s", 0.0) * 1e3 / calls if calls else 0.0

    m = {
        "chain.simulate.calls": _metric(per_round("chain.simulate", "calls"), "count"),
        "chain.simulate.events": _metric(per_round("chain.simulate", "events"), "count"),
        "chain.simulate.busy_s": _metric(per_round("chain.simulate"), "s"),
    }
    for n in (1, 2, 10, 50):
        m[f"chain.simulate.us_per_event_n{n}"] = _metric(
            ratio(f"chain.simulate[n={n}]", "busy_s", "events", 1e6), "us")
    m["chain.trajectory.busy_s"] = _metric(sum(
        per_round(f"chain.trajectory.{name}")
        for name in ("final_state", "states_at", "boundary_hits")), "s")
    for name in ("run_diffusion_experiment", "run_fluid_experiment"):
        m[f"experiments.{name}.self_s"] = _metric(
            per_round(f"experiments.{name}", "self_s"), "s")
    m["chain.build_generator.busy_s"] = _metric(per_round("chain.build_generator"), "s")
    m["chain.stationary_solve.calls"] = _metric(
        per_round("chain.stationary_solve", "calls"), "count")
    m["chain.stationary_solve.states"] = _metric(
        per_round("chain.stationary_solve", "states"), "count")
    m["chain.stationary_solve.busy_s"] = _metric(per_round("chain.stationary_solve"), "s")
    for size in ("small", "mid", "large"):
        m[f"chain.stationary_solve.{size}_ms"] = _metric(
            mean_ms(f"chain.stationary_solve[{size}]"), "ms")
    m["chain.gibbs_measure.busy_s"] = _metric(per_round("chain.gibbs_measure"), "s")
    m["chain.check_detailed_balance.busy_s"] = _metric(
        per_round("chain.check_detailed_balance"), "s")
    for name in ("spectral.eigen_sym", "spectral.classify_pd", "spectral.is_hurwitz",
                 "spectral.matrix_exp", "diffusion.exact_transition",
                 "diffusion.stationary_gaussian"):
        m[f"{name}.calls"] = _metric(per_round(name, "calls"), "count")
        m[f"{name}.busy_s"] = _metric(per_round(name), "s")
    em = "diffusion.euler_maruyama_terminal"
    m[f"{em}.busy_s"] = _metric(per_round(em), "s")
    m[f"{em}.ns_per_path_step"] = _metric(ratio(em, "busy_s", "path_steps", 1e9), "ns")
    rk4 = "fluid.rk4_integrate"
    m[f"{rk4}.calls"] = _metric(per_round(rk4, "calls"), "count")
    m[f"{rk4}.busy_s"] = _metric(per_round(rk4), "s")
    m[f"{rk4}.us_per_step"] = _metric(ratio(rk4, "busy_s", "steps", 1e6), "us")
    m["cli.interpreter_s"] = _metric(startup[0], "s")
    m["cli.import_s"] = _metric(startup[1], "s")
    m["cli.cli_main.busy_s"] = _metric(per_round("cli.cli_main"), "s")
    m["io.write.busy_s"] = _metric(per_round("io.write"), "s")
    m["io.bytes_written"] = _metric(per_round("io.write", "bytes"), "bytes")
    for layer in LAYERS:
        m[f"{layer}.failed"] = _metric(rec.failures.get(layer, 0), "count")
    m["trace.overhead_frac"] = _metric(statistics.median(ratios), "frac")
    return m


def _fix_mmap_threshold() -> None:
    """Send every allocation of 128 KiB or more to mmap, so that it is
    returned on free.  glibc otherwise raises the threshold after the first
    large free, and whether a later large array lands on the heap decided
    whether fluid-limit peaked at 94 or 114 MB."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: peak RSS may then depend on allocation history
        return
    libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("diffusion-limit", "fluid-limit", "exact-laws", "cli-demos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the first round's inputs, then exit "
                             "(timed by the parent run for setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, inherited by every child: on a shared 2-vCPU host two
    # threads made dense solves swing threefold between runs (bench/README.md)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _fix_mmap_threshold()
    if not os.path.isfile(os.path.join(SRC, "bdlimits", "__init__.py")):
        print(f"error: no bdlimits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bdlimits

    if not os.path.abspath(bdlimits.__file__).startswith(os.path.join(SRC, "bdlimits")):
        print(f"error: bdlimits imported from {bdlimits.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    setup_errors: list[str] = []
    try:
        if args.setup_only:
            workload.round_ops(0)
            return 0
        signal.signal(signal.SIGALRM, _on_alarm)
        print("# env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            startup = (0.0, 0.0)
            if workload.times_startup:
                startup = (_fresh_python_s("pass", workload.env, setup_errors),
                           _fresh_python_s("import bdlimits", workload.env, setup_errors))
            rec, rounds, ratios = run_traced(workload, args.seconds, tracer)
        else:
            setup_s, setup_errors = measure_setup(args)
            rec = run_untraced(workload, args.seconds)
        for layer, message in workload.finish():
            rec.fail(layer, message)
            rec.failed_ops = rec.attempted
        metrics = (per_layer(rec, rounds, ratios, tracer.summary(), startup)
                   if args.trace else end_to_end(workload, rec, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in setup_errors + rec.messages:
        print(f"# failure {message}")
    result = {
        "correct": rec.failed_ops == 0 and not setup_errors,
        "attempted": rec.attempted,
        "failed": rec.failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
