import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd
from bdlimits.errors import real_array, require_real


@pytest.mark.parametrize(
    "value, expected",
    [(2, 2.0), (-0.5, -0.5), (np.float32(0.25), 0.25), (np.int64(-3), -3.0),
     (Fraction(1, 4), 0.25), (1e308, 1e308)],
)
def test_require_real_takes_finite_real_numbers(value, expected):
    out = require_real("x", value)
    assert type(out) is float and out == expected


@pytest.mark.parametrize(
    "value",
    [True, np.True_, None, "1.0", 1j, [1.0], np.array(1.0), math.nan, math.inf,
     -math.inf, np.float64(np.nan), 10**400],
)
def test_require_real_refuses_everything_else(value):
    with pytest.raises(bd.ValidationError, match=r"^x must be a finite real number, got "):
        require_real("x", value)


def test_real_array_returns_a_fresh_float_copy():
    value = np.array([[1, 2], [3, 4]])
    out = real_array("m", value)
    assert out.dtype == float and out.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    floats = np.array([0.5, 1.5])
    assert not np.shares_memory(real_array("v", floats), floats)


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1.0, 2.0], [3.0, np.inf]], r"^non-finite m: inf at \(1, 1\) is not finite$"),
        ([0.0, -np.inf, np.nan], r"^non-finite m: -inf at \(1,\) is not finite$"),
        (np.nan, r"^non-finite m: nan at \(\) is not finite$"),
        (np.array([1j]), r"^m must be real numbers, not complex128$"),
        ([1j], r"^m must be real numbers, not complex128$"),
        ("x", r"^m must be real numbers, not <U1$"),
        (None, r"^m must be real numbers, not object$"),
        ([True], r"^m must be real numbers, not bool$"),
        ([[1.0, 2.0], [3.0]], r"^m must be real numbers: .*inhomogeneous"),
        ([10**400], r"^m must be real numbers, not object$"),
    ],
)
def test_real_array_names_the_parameter_and_the_entry(value, message):
    with pytest.raises(bd.ValidationError, match=message):
        real_array("m", value)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.complex_numbers(),
    st.text(max_size=5), st.binary(max_size=5), st.fractions(), st.decimals(),
)

_ANYTHING = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
    max_leaves=12,
)


@given(_ANYTHING)
@settings(max_examples=300, deadline=None)
def test_require_real_returns_a_finite_float_or_raises_validation_error(value):
    try:
        out = require_real("x", value)
    except bd.ValidationError:
        return
    assert type(out) is float and math.isfinite(out)
    assert not isinstance(value, (bool, str, bytes, complex, list, tuple))


@given(_ANYTHING)
@settings(max_examples=300, deadline=None)
def test_real_array_returns_finite_floats_or_raises_validation_error(value):
    try:
        out = real_array("x", value)
    except bd.ValidationError:
        return
    assert isinstance(out, np.ndarray) and out.dtype == float
    assert np.isfinite(out).all()


# Each public entry point below takes one real-valued parameter, given the
# bad value; the rest of the call is valid.  The message must start with the
# name the library gives that parameter.
_G = bd.single_vertex()
_SPEC = bd.ChainSpec(_G, [[0.0]], [[0.0]], l=1, r=1)
_TRAJECTORY = bd.simulate(_SPEC, [0], 1.0, seed=0)
_PATH = bd.rk4_integrate([[0.0]], [[1.0]], [1.0], dt=0.1, t_end=1.0)
_SCHEDULE = bd.geometric_schedule("diffusion", [0.0], 2, coarsest_log2_eps=-3)
_MODEL = dict(graph=_G, birth_matrix=[[0.0]], death_matrix=[[1.0]], schedule=_SCHEDULE)
_FLUID = dict(_MODEL, schedule=bd.geometric_schedule("fluid", [0.0], 2))

ENTRY_POINTS = {
    "ChainSpec": ("matrix", lambda bad: bd.ChainSpec(_G, bad, [[0.0]], l=1, r=1)),
    "validate_interaction": ("matrix", lambda bad: bd.validate_interaction(_G, bad)),
    "simulate-t_end": (
        "t_end", lambda bad: bd.simulate(_SPEC, [0], bad, seed=0, max_events=100),
    ),
    "simulate-initial": ("configuration", lambda bad: bd.simulate(_SPEC, bad, 1.0, seed=0)),
    "state_index": ("configuration", lambda bad: bd.state_index(_SPEC, bad)),
    "Trajectory.states_at": ("sample times", lambda bad: _TRAJECTORY.states_at(bad)),
    "SamplePath.at": ("sample times", lambda bad: _PATH.at(bad)),
    "alpha_beta_matrix": ("alpha", lambda bad: bd.alpha_beta_matrix(_G, bad, 0.5)),
    "star_spectrum": ("beta", lambda bad: bd.star_spectrum(4, -3.0, bad)),
    "path_spectrum": ("alpha", lambda bad: bd.path_spectrum(1, bad, 1.0)),
    "classify_pd": ("beta", lambda bad: bd.classify_pd(bd.cycle_graph(4), -3.0, bad)),
    "eigen_sym": ("matrix", bd.eigen_sym),
    "is_hurwitz": ("matrix", bd.is_hurwitz),
    "matrix_exp": ("t", lambda bad: bd.matrix_exp([[0.0]], bad)),
    "euler_maruyama_terminal": (
        "dt", lambda bad: bd.euler_maruyama_terminal([[-1.0]], [0.0], bad, n_paths=2, seed=0),
    ),
    "exact_transition": ("t", lambda bad: bd.exact_transition([[-1.0]], [1.0], bad)),
    "stationary_gaussian": ("matrix", bd.stationary_gaussian),
    "lyapunov_residual": ("cov", lambda bad: bd.lyapunov_residual([[-1.0]], bad)),
    "rk4_integrate": ("t_end", lambda bad: bd.rk4_integrate([[0.0]], [[1.0]], [1.0], t_end=bad)),
    "rk4_integrate-state": ("state", lambda bad: bd.rk4_integrate([[0.0]], [[1.0]], bad)),
    "SamplePath-times": ("times", lambda bad: bd.SamplePath(bad, [[0.0], [1.0]])),
    "SamplePath-states": ("states", lambda bad: bd.SamplePath([0.0, 1.0], bad)),
    "ScalingSchedule": (
        "epsilons", lambda bad: bd.ScalingSchedule(bad, [4, 16], [0.0], "diffusion"),
    ),
    "geometric_schedule": (
        "initial_point", lambda bad: bd.geometric_schedule("diffusion", bad, 2),
    ),
    "DiffusionExperimentConfig": (
        "t", lambda bad: bd.DiffusionExperimentConfig(**_MODEL, t=bad),
    ),
    "FluidExperimentConfig": (
        "ode_dt", lambda bad: bd.FluidExperimentConfig(**_FLUID, t=1.0, ode_dt=bad),
    ),
    "GeneratorCheckConfig": ("radius", lambda bad: bd.GeneratorCheckConfig(**_MODEL, radius=bad)),
}

BAD_VALUES = {
    "None": None, "word": "x", "complex": 1j, "complex-list": [1j],
    "ragged": [[1.0, 2.0], [3.0]], "nan": math.nan, "inf-list": [math.inf],
}


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_real_inputs_raise_validation_errors_naming_the_parameter(entry, bad):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(bd.ValidationError) as exc:
        call(BAD_VALUES[bad])
    assert re.match(rf"(non-finite )?{name}[ :]", str(exc.value)), str(exc.value)
