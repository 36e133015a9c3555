"""Exception hierarchy and the input checks shared by all bdlimits modules.

Two branches matter for callers (and for CLI exit codes): ValidationError
for rejected inputs, NumericError for computations that failed or refused
to proceed at runtime.  Each rule has one check here: require_integer for
counts, require_real and real_array for finite real numbers and arrays of
them, _sample_times for the times a path is read at, require_seed for
seeds (the CLI's too), seeded_rng for the seeds the simulators hand to
numpy, check_exponents for the bound on the rate exponents that the chain
and the fluid field share, require_memory for the arrays sized by an input
(the graph's adjacency, the closed-form spectra, the RK4 grid, the fluid
experiment's observation grid and the generator check's mesh), and
read_text for the config and graph files.  thread_map is the one place that
runs work on more than one CPU: the lockstep chain simulator hands it its
exponential refills, which numpy runs without the GIL when given out=.
"""

import math
import numbers
import os
import threading

import numpy as np

# exp() is finite up to ~709.7; the chain's jump rates and the fluid field
# refuse any exponent past this magnitude well before that
MAX_EXPONENT = 700.0

# seeds are unsigned 64-bit integers
MAX_SEED = 2**64

# bytes of physical memory, where the platform reports it
_PHYSICAL_MEMORY = (
    os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if hasattr(os, "sysconf") else np.inf
)


class BdlimitsError(Exception):
    """Base class for all library errors."""


class ValidationError(BdlimitsError, ValueError):
    """Invalid input: bad graph, matrix pattern, configuration, or config file."""


class NumericError(BdlimitsError, ArithmeticError):
    """A numeric computation failed or would produce garbage."""


def require_integer(name: str, value) -> int:
    """value as an int if it is a Python or numpy integer; bools, floats
    (integral ones too), strings and None raise ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """value as a float if it is a finite real number; bools, strings, None,
    complex numbers, sequences, nan and +-inf raise ValidationError."""
    try:
        if isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ValidationError(f"{name} must be a finite real number, got {value!r}")


def _reals(name: str, value) -> np.ndarray:
    """value as a fresh float array, nan and inf allowed, if numpy reads it as
    ints or floats; anything else raises ValidationError naming name."""
    try:
        a = np.asarray(value)
    except ValueError as exc:  # a ragged sequence
        raise ValidationError(f"{name} must be real numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be real numbers, not {a.dtype}")
    return a.astype(float)


def _sample_times(value) -> np.ndarray:
    """value as a 1-D float array of times, nan and inf allowed (a scalar is
    one time); an array of more than one dimension raises ValidationError."""
    ts = np.atleast_1d(_reals("sample times", value))
    if ts.ndim > 1:
        raise ValidationError(f"sample times must be a scalar or 1-D, got shape {ts.shape}")
    return ts


def real_array(name: str, value) -> np.ndarray:
    """_reals(name, value) with every entry finite; a nan or infinite entry
    raises ValidationError naming name and its index."""
    a = _reals(name, value)
    if not np.isfinite(a).all():
        index = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValidationError(f"non-finite {name}: {float(a[index])!r} at {index} is not finite")
    return a


def require_seed(value) -> int:
    """value as an int if it is an integer in [0, MAX_SEED); anything else
    raises ValidationError."""
    seed = require_integer("seed", value)
    if not 0 <= seed < MAX_SEED:
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def require_memory(nbytes: int, what: str) -> None:
    """Raise ValidationError, naming what needs nbytes, if nbytes pass
    physical memory: an array that large cannot be built."""
    if nbytes > _PHYSICAL_MEMORY:
        raise ValidationError(f"{what}: {nbytes} bytes, past physical memory")


def seeded_rng(seed) -> "np.random.Generator":
    """np.random.default_rng(seed); a seed that numpy rejects (a float, a
    negative integer, a string) raises ValidationError.  The annotation is a
    string because numpy loads np.random lazily, and importing bdlimits
    should not load it."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            "seed must be one that numpy.random.default_rng accepts (None, a "
            f"nonnegative integer or a sequence of them, a SeedSequence), got {seed!r}"
        ) from exc


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform
    has one, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_map(fn, items) -> list:
    """[fn(x) for x in items], run on min(len(items), usable CPUs) threads.

    Worker w takes items w, w + W, ... in order, and the calling thread is
    worker 0, so one worker runs everything inline.  The other threads are
    started by the call and joined before it returns, and the first
    exception a worker raised is raised then.  Only work that releases the
    GIL gains, and calls on different items must touch disjoint mutable
    state.
    """
    items = list(items)
    workers = max(1, min(len(items), _usable_cpus()))
    results = [None] * len(items)
    errors = []

    def work(w):
        try:
            for i in range(w, len(items), workers):
                results[i] = fn(items[i])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class InvalidEdgeError(ValidationError):
    """Edge is a self-loop, out of range, or duplicated."""


class DisconnectedGraphError(ValidationError):
    """Graph has no path between some pair of vertices."""


class PatternViolationError(ValidationError):
    """Matrix has a nonzero entry at a non-adjacent vertex pair."""

    def __init__(self, x: int, y: int, value: float):
        self.x = x
        self.y = y
        self.value = value
        super().__init__(
            f"nonzero entry {value!r} at non-adjacent pair ({x}, {y})"
        )


class StateSpaceTooLargeError(ValidationError):
    """Enumeration of all configurations would exceed the state cap."""


class AsymmetricMatrixError(ValidationError):
    """Operation requires a symmetric matrix: the net interaction A_b - A_d,
    or the input of the symmetric eigensolver."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix dimensions do not agree."""


class SupportNotCoveredError(ValidationError):
    """Test function support sticks out of the scaled spin box."""


class ConfigError(ValidationError):
    """Config file is malformed; message names the offending field."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at path; a file that is missing,
    unreadable or not UTF-8 raises ConfigError naming what it is and path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        reason = "not found"
    except OSError as exc:
        reason = f"unreadable ({exc.strerror})"
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ConfigError(f"{what} {reason}: {path}")


class RateOverflowError(NumericError):
    """A rate exponent of the chain or the fluid field left the safe range
    for exp(); time is the ODE time of the fluid field's, else None."""

    def __init__(self, vertex: int, exponent: float, time: float | None = None):
        self.vertex = vertex
        self.exponent = exponent
        self.time = time
        at = "" if time is None else f" at t={time!r}"
        super().__init__(
            f"rate exponent {exponent!r} at vertex {vertex}{at} "
            f"exceeds safe magnitude {MAX_EXPONENT:g}"
        )


def check_exponents(e, vertex: int | None = None, time: float | None = None) -> None:
    """Raise RateOverflowError if an exponent in e passes MAX_EXPONENT in
    magnitude or is nan, naming vertex, or else the index of the first nan
    or the largest one (argmax puts nan first)."""
    worst = int(np.abs(e).argmax())
    if not abs(e[worst]) <= MAX_EXPONENT:
        raise RateOverflowError(
            worst if vertex is None else vertex, float(e[worst]), time
        )


class SingularSystemError(NumericError):
    """Balance equations were singular; the chain should be irreducible."""


class NotHurwitzError(NumericError):
    """Drift matrix has a nonnegative real eigenvalue; no stationary law."""


class InconclusiveSpectrumError(NumericError):
    """Neither spectral certificate resolves the eigenvalue sign at tolerance."""


class BudgetExceededError(NumericError):
    """Projected or actual event count exceeds the experiment budget."""
