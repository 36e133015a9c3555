"""Spans around the public calls of bdlimits, recorded from outside the package.

The tracer swaps each traced public function for a wrapper in every
``bdlimits`` module namespace that holds it (modules import each other's
names with ``from .x import y``, so patching the defining module alone would
miss calls made by the experiment functions and the CLI).  Spans stay in
memory as (name, start, end, parent, info) and are summarised after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time


def _simulate_info(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"events": result.num_events, "n": spec.num_vertices}


def _stationary_info(args, kwargs, result):
    return {"states": len(result)}


def _rk4_info(args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _em_terminal_info(bound_args, result):
    steps = int(round(bound_args["t_end"] / bound_args["dt"]))
    return {"path_steps": result.shape[0] * steps}


def _write_info(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, info extractor); Trajectory methods are
# patched on the class.  An extractor taking two arguments receives the
# call's arguments bound to the signature, with defaults applied.
TARGETS = [
    ("chain", "simulate", "chain.simulate", _simulate_info),
    ("chain", "build_generator", "chain.build_generator", None),
    ("chain", "stationary_solve", "chain.stationary_solve", _stationary_info),
    ("chain", "gibbs_measure", "chain.gibbs_measure", None),
    ("chain", "check_detailed_balance", "chain.check_detailed_balance", None),
    ("chain", "Trajectory.final_state", "chain.trajectory.final_state", None),
    ("chain", "Trajectory.states_at", "chain.trajectory.states_at", None),
    ("chain", "Trajectory.boundary_hits", "chain.trajectory.boundary_hits", None),
    ("diffusion", "euler_maruyama_terminal", "diffusion.euler_maruyama_terminal",
     _em_terminal_info),
    ("diffusion", "exact_transition", "diffusion.exact_transition", None),
    ("diffusion", "stationary_gaussian", "diffusion.stationary_gaussian", None),
    ("spectral", "eigen_sym", "spectral.eigen_sym", None),
    ("spectral", "classify_pd", "spectral.classify_pd", None),
    ("spectral", "is_hurwitz", "spectral.is_hurwitz", None),
    ("spectral", "matrix_exp", "spectral.matrix_exp", None),
    ("fluid", "rk4_integrate", "fluid.rk4_integrate", _rk4_info),
    ("experiments", "run_diffusion_experiment",
     "experiments.run_diffusion_experiment", None),
    ("experiments", "run_fluid_experiment", "experiments.run_fluid_experiment", None),
    ("cli", "cli_main", "cli.cli_main", None),
]

# every CSV writer of bdlimits.io is one span name
IO_WRITER_PREFIX = "write_"


class Tracer:
    """In-memory span recorder; `installed()` patches bdlimits for its duration."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        bind = None
        if info is not None and len(inspect.signature(info).parameters) == 2:
            sig = inspect.signature(fn)

            def bind(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, extra)
            if info is not None:
                extra = info(bind(args, kwargs), result) if bind else info(
                    args, kwargs, result
                )
                spans[idx] = (name, start, end, parent, extra)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in every loaded bdlimits module; undo on exit."""
        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(f"bdlimits.{mod_name}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "bdlimits" or key.startswith("bdlimits."))
        ]
        targets = list(TARGETS) + [
            ("io", attr, "io.write", _write_info)
            for attr in vars(sys.modules["bdlimits.io"])
            if attr.startswith(IO_WRITER_PREFIX)
        ]
        undo = []
        for mod_name, attr, span_name, info in targets:
            home = sys.modules[f"bdlimits.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span_name, original, info))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy (inclusive) seconds, self seconds, info sums.

        Info values are summed per name, and also per (name, n) for simulate
        so that µs/event can be split by vertex count.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, extra) in enumerate(self.spans):
            keys = [name]
            if extra and "n" in extra:
                keys.append(f"{name}[n={extra['n']}]")
            if extra and "states" in extra:
                keys.append(f"{name}[{_state_class(extra['states'])}]")
            for key in keys:
                row = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["busy_s"] += end - start
                row["self_s"] += end - start - child_time[idx]
                for k, v in (extra or {}).items():
                    if k != "n":
                        row[k] = row.get(k, 0) + v
        return out


# stationary_solve size classes: the acceptance specs, about 10^3, and the
# largest dense case near 6561 states
SMALL_STATES = 125
MID_STATES = 2000


def _state_class(states: int) -> str:
    if states <= SMALL_STATES:
        return "small"
    return "mid" if states <= MID_STATES else "large"
