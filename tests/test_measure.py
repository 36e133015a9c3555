import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd
from bdlimits import chain
from bdlimits.chain import gibbs_exponent

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_two_state_generator():
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)
    q = bd.build_generator(spec).toarray()
    assert np.array_equal(q, [[-1.0, 1.0], [1.0, -1.0]])


def test_generator_rows_sum_to_zero():
    g = bd.cycle_graph(3)
    spec = bd.ChainSpec(
        g, bd.alpha_beta_matrix(g, -0.5, 0.2), bd.alpha_beta_matrix(g, 0.1, 0.0), l=1, r=2
    )
    q = bd.build_generator(spec)
    assert np.abs(np.asarray(q.sum(axis=1)).ravel()).max() < 1e-12


def test_two_path_generator_structure():
    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, np.zeros((2, 2)), np.zeros((2, 2)), l=0, r=1)
    q = bd.build_generator(spec).toarray()
    assert q.shape == (4, 4)
    # with l=0, r=1 each vertex has exactly one allowed move per state
    off = q - np.diag(np.diag(q))
    assert np.all((off > 0).sum(axis=1) == 2)


def test_state_cap():
    g = bd.path_graph(3)
    spec = bd.ChainSpec(g, np.zeros((3, 3)), np.zeros((3, 3)), l=10, r=10)
    with pytest.raises(bd.StateSpaceTooLargeError):
        bd.build_generator(spec, cap=100)
    with pytest.raises(bd.StateSpaceTooLargeError):
        bd.gibbs_measure(spec, cap=100)
    # a nan cap compares False with every count, and a list one is unhashable
    exact_laws = (
        bd.enumerate_states,
        bd.build_generator,
        bd.stationary_solve,
        bd.gibbs_measure,
        bd.check_detailed_balance,
    )
    for cap in (float("nan"), "10", None, [10]):
        for function in exact_laws:
            with pytest.raises(bd.ValidationError, match="cap must be an integer"):
                function(spec, cap=cap)


def test_state_enumeration_order():
    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, np.zeros((2, 2)), np.zeros((2, 2)), l=1, r=1)
    states = bd.enumerate_states(spec)
    # vertex 0 is the fastest digit, value -l comes first
    assert np.array_equal(states[0], [-1, -1])
    assert np.array_equal(states[1], [0, -1])
    assert np.array_equal(states[2], [1, -1])
    assert np.array_equal(states[3], [-1, 0])
    for idx in range(states.shape[0]):
        assert bd.state_index(spec, states[idx]) == idx


def test_two_state_stationary():
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)
    assert np.allclose(bd.stationary_solve(spec), [0.5, 0.5], atol=1e-12)
    assert np.allclose(bd.gibbs_measure(spec).probabilities, [0.5, 0.5], atol=1e-12)


def test_three_state_geometric_weights():
    spec = bd.ChainSpec(bd.single_vertex(), [[-np.log(2.0)]], [[0.0]], l=0, r=2)
    expected = np.array([0.4, 0.4, 0.2])
    assert np.allclose(bd.stationary_solve(spec), expected, atol=1e-12)
    assert np.allclose(bd.gibbs_measure(spec).probabilities, expected, atol=1e-12)


def test_single_vertex_product_formula_oracle():
    # birth-death chains have the classic product-form stationary law:
    # w(k+1)/w(k) = birth(k) / death(k+1)
    rng = np.random.default_rng(8)
    for _ in range(5):
        b, d = rng.uniform(-0.8, 0.8, size=2)
        l, r = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        spec = bd.ChainSpec(bd.single_vertex(), [[b]], [[d]], l=l, r=r)
        values = np.arange(-l, r + 1)
        w = [1.0]
        for k in values[:-1]:
            w.append(w[-1] * np.exp(b * k) / np.exp(d * (k + 1)))
        w = np.array(w) / np.sum(w)
        assert np.abs(bd.stationary_solve(spec) - w).max() < 1e-12


@pytest.mark.parametrize(
    "ab, ad, box, tol",
    [
        # the law sits near spin 0 and both ends weigh below 1e-188 of its
        # mode, so a pin at either end leaves an exactly singular factor; at
        # box 30 an end comes out as -3e-84, which the sign gate lets pass
        (0.0, 1.0, 30, 1e-12),
        (0.0, 1.0, 60, 1e-12),
        (0.0, 1.0, 300, 1e-12),
        (0.0, 2.0, 300, 1e-12),
        # a double well: births grow with the spin and nothing pulls back
        (0.1, 0.0, 20, 1e-9),
    ],
)
def test_wide_single_vertex_box_matches_gibbs(ab, ad, box, tol):
    spec = bd.ChainSpec(bd.single_vertex(), [[ab]], [[ad]], l=box, r=box)
    diff = np.abs(bd.stationary_solve(spec) - bd.gibbs_measure(spec).probabilities)
    assert diff.max() <= tol


def test_pair_weights_on_two_path():
    beta = 0.9
    g = bd.path_graph(2)
    spec = bd.ChainSpec(g, [[0.0, beta], [beta, 0.0]], np.zeros((2, 2)), l=0, r=1)
    dist = bd.gibbs_measure(spec)
    w = np.array([1.0, 1.0, 1.0, np.exp(beta)])
    assert np.allclose(dist.probabilities, w / w.sum(), atol=1e-14)
    assert dist.log_partition == pytest.approx(np.log(w.sum()))
    assert np.abs(dist.probabilities - bd.stationary_solve(spec)).max() < 1e-12


def test_single_vertex_two_level_measure_is_uniform_for_any_alpha():
    for alpha in (-2.0, 0.0, 1.3):
        spec = bd.ChainSpec(bd.single_vertex(), [[alpha]], [[0.0]], l=0, r=1)
        assert np.allclose(bd.gibbs_measure(spec).probabilities, [0.5, 0.5], atol=1e-14)


def test_asymmetric_net_matrix_refused():
    g = bd.path_graph(2)
    ab = np.array([[0.0, 0.4], [0.1, 0.0]])
    spec = bd.ChainSpec(g, ab, np.zeros((2, 2)), l=0, r=1)
    with pytest.raises(bd.AsymmetricMatrixError):
        bd.gibbs_measure(spec)
    with pytest.raises(bd.AsymmetricMatrixError):
        bd.check_detailed_balance(spec)


def _random_symmetric_spec(seed: int, zero_death_diagonal: bool) -> bd.ChainSpec:
    rng = np.random.default_rng(seed)
    graph = [bd.single_vertex(), bd.path_graph(2), bd.path_graph(3), bd.cycle_graph(3)][
        seed % 4
    ]
    n = graph.num_vertices
    pattern = graph.adjacency_matrix() + np.eye(n)
    sym = rng.uniform(-0.75, 0.75, size=(n, n))
    sym = 0.5 * (sym + sym.T) * pattern
    split_pattern = graph.adjacency_matrix() if zero_death_diagonal else pattern
    split = rng.uniform(-0.5, 0.5, size=(n, n)) * split_pattern
    l = int(rng.integers(0, 3))
    r = int(rng.integers(1, 5 - l))
    return bd.ChainSpec(graph, sym + split, split, l=l, r=r)


_EXACT_LAWS = (
    bd.enumerate_states,
    bd.build_generator,
    bd.stationary_solve,
    bd.gibbs_measure,
    bd.check_detailed_balance,
)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_every_exact_law_keeps_the_state_cap(seed):
    # the per-spec tables are cached on (spec, cap): a spec solved under a
    # larger cap must still be refused under a smaller one
    spec = _random_symmetric_spec(seed, zero_death_diagonal=seed % 2 == 0)
    count = spec.num_states()
    for function in _EXACT_LAWS:
        for cap in (count + 1, count, count - 1, count + 1, count - 1):
            if cap >= count:
                function(spec, cap=cap)
            else:
                with pytest.raises(bd.StateSpaceTooLargeError, match=f"{count} configurations"):
                    function(spec, cap=cap)


@pytest.mark.parametrize("function", _EXACT_LAWS, ids=lambda f: f.__name__)
def test_every_exact_law_counts_its_states_bytes_before_enumerating(monkeypatch, function):
    # path(3) with l = r = 4: 729 states, far under a raised cap, whose
    # exact-law arrays count 160 bytes per state for each vertex and one more
    spec = bd.ChainSpec(bd.path_graph(3), np.zeros((3, 3)), np.zeros((3, 3)), l=4, r=4)
    nbytes = 160 * 4 * 729
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", nbytes - 1)
    with pytest.raises(
        bd.StateSpaceTooLargeError, match=f"729 states on 3 vertices need about {nbytes} bytes"
    ):
        function(spec, cap=10**9)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", nbytes)
    if function is bd.stationary_solve:
        # its float64 factor at bandwidth 81 counts more than the arrays
        with pytest.raises(bd.StateSpaceTooLargeError, match=f"float64 .* {16 * 729 * 81} bytes"):
            function(spec, cap=10**9)
    else:
        function(spec, cap=10**9)


def test_detailed_balance_residual_tiny_for_symmetric_specs():
    for seed in range(8):
        spec = _random_symmetric_spec(seed, zero_death_diagonal=seed % 2 == 0)
        assert bd.check_detailed_balance(spec) < 1e-12


def test_uniform_measure_when_birth_equals_death():
    # with A_b = A_d and no death diagonal every rate at xi equals the
    # reverse rate at xi + e_x, so the law is uniform
    g = bd.path_graph(2)
    m = np.array([[0.0, -0.2], [-0.2, 0.0]])
    spec = bd.ChainSpec(g, m, m, l=1, r=1)
    dist = bd.gibbs_measure(spec)
    assert np.allclose(dist.probabilities, 1.0 / 9.0, atol=1e-14)
    assert bd.check_detailed_balance(spec) < 1e-13
    # a death diagonal delta = 0.3 tilts the law by exp(-(delta, xi)), so it
    # is no longer uniform, and the closed form must follow the chain
    m = np.array([[0.3, -0.2], [-0.2, 0.3]])
    spec = bd.ChainSpec(g, m, m, l=1, r=1)
    dist = bd.gibbs_measure(spec)
    assert np.abs(dist.probabilities - bd.stationary_solve(spec)).max() < 1e-12
    assert np.abs(dist.probabilities - 1.0 / 9.0).max() > 0.05
    assert bd.check_detailed_balance(spec) < 1e-13


def test_gibbs_matches_generator_kernel_for_diagonal_free_death():
    for seed in range(6):
        spec = _random_symmetric_spec(seed, zero_death_diagonal=True)
        diff = np.abs(
            bd.gibbs_measure(spec).probabilities - bd.stationary_solve(spec)
        ).max()
        assert diff < 1e-11


def test_death_diagonal_tilts_the_stationary_law():
    # with a death self-term delta the chain's stationary law is the
    # closed-form measure reweighted by exp(-(delta, xi))
    for seed in range(6):
        spec = _random_symmetric_spec(seed, zero_death_diagonal=False)
        states = bd.enumerate_states(spec)
        delta = np.diag(spec.death_matrix)
        energy = gibbs_exponent(spec, states) - states @ delta
        tilted = np.exp(energy - energy.max())
        tilted /= tilted.sum()
        assert np.abs(tilted - bd.stationary_solve(spec)).max() < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_gibbs_is_stationary_with_death_diagonal(seed):
    spec = _random_symmetric_spec(seed, zero_death_diagonal=False)
    diff = np.abs(bd.gibbs_measure(spec).probabilities - bd.stationary_solve(spec))
    assert diff.max() <= 1e-9


def _death_diagonal_spec() -> bd.ChainSpec:
    ab = [[0.5, 0.3], [0.3, 0.5]]
    return bd.ChainSpec(bd.path_graph(2), ab, 0.8 * np.eye(2), l=2, r=2)


def test_death_diagonal_spec_is_balanced():
    spec = _death_diagonal_spec()
    diff = np.abs(bd.gibbs_measure(spec).probabilities - bd.stationary_solve(spec))
    assert diff.max() <= 1e-9
    assert bd.check_detailed_balance(spec) <= 1e-12


def test_balance_check_rejects_the_untilted_measure(monkeypatch):
    # the Gibbs law without the death-diagonal tilt is not stationary here,
    # so a residual taken from the chain's own rates must see it
    spec = _death_diagonal_spec()
    energy = gibbs_exponent(spec, bd.enumerate_states(spec))
    untilted = np.exp(energy - energy.max())
    untilted /= untilted.sum()
    monkeypatch.setattr(
        chain, "gibbs_measure", lambda *_: chain.GibbsDistribution(untilted, 0.0)
    )
    assert bd.check_detailed_balance(spec) > 0.1


@pytest.mark.parametrize("seed", range(4))
def test_rate_blocks_pair_each_jump_with_its_reverse(seed):
    # _jumps reads up[i] -> down[i] as one jump, and its reverse
    spec = _random_symmetric_spec(seed, zero_death_diagonal=False)
    states = bd.enumerate_states(spec)
    base = spec.num_spin_values
    unit = np.eye(spec.num_vertices, dtype=np.int64)
    for x, up, _, down, _ in chain._rate_blocks(spec, states):
        assert np.array_equal(down, up + base**x)
        assert (states[down] - states[up] == unit[x]).all()


def test_exact_laws_share_one_rate_pass(monkeypatch):
    calls = []
    rate_blocks = chain._rate_blocks

    def counted(spec, states):
        calls.append(len(states))
        return rate_blocks(spec, states)

    monkeypatch.setattr(chain, "_rate_blocks", counted)
    spec = _random_symmetric_spec(1, zero_death_diagonal=False)
    bd.gibbs_measure(spec)
    assert calls == []
    bd.build_generator(spec)
    bd.stationary_solve(spec)
    bd.gibbs_measure(spec)
    bd.check_detailed_balance(spec)
    assert calls == [spec.num_states()]
    # so rates past the exponent bound leave the Gibbs law alone
    steep = bd.ChainSpec(bd.single_vertex(), [[30.0]], [[30.0]], l=30, r=30)
    tilt = np.exp(-30.0 * np.arange(61))
    assert np.allclose(bd.gibbs_measure(steep).probabilities, tilt / tilt.sum())
    with pytest.raises(bd.RateOverflowError):
        bd.check_detailed_balance(steep)


def _loaded_by_import(package: str) -> str:
    """Sorted names of the modules of package (say scipy) that a fresh
    interpreter holds after import bdlimits.cli, as printed."""
    code = (
        "import sys, bdlimits.cli; "
        f"print(sorted(m for m in sys.modules if (m + '.').startswith('{package}.')))"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_loads_no_scipy_module():
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_numpy_random():
    # numpy loads np.random lazily; loading it added about 11 ms to every CLI
    # process on a 2-vCPU host, and an annotation evaluated at import time
    # is enough to load it
    assert _loaded_by_import("numpy.random") == "[]"


PUBLIC_NAMES = [
    "AsymmetricMatrixError", "BdlimitsError", "BudgetExceededError", "ChainSpec",
    "ConfigError", "ConvergenceRow", "ConvergenceTable", "DiffusionExperimentConfig",
    "DimensionMismatchError", "DisconnectedGraphError",
    "FluidExperimentConfig", "GeneratorCheckConfig", "GibbsDistribution", "Graph",
    "InconclusiveSpectrumError", "InvalidEdgeError", "NotHurwitzError",
    "NumericError", "PatternViolationError", "RateOverflowError",
    "SamplePath", "ScalingSchedule", "SingularSystemError", "SpectralReport",
    "StateSpaceTooLargeError", "SupportNotCoveredError", "Trajectory",
    "ValidationError", "alpha_beta_matrix", "build_generator", "build_graph", "chain",
    "check_detailed_balance", "classify_pd", "complete_graph", "cycle_graph",
    "diffusion", "eigen_sym", "enumerate_states", "errors",
    "euler_maruyama_terminal", "exact_transition", "experiments", "fluid",
    "generator_convergence_check", "geometric_schedule", "gibbs_measure",
    "graphs", "is_hurwitz", "load_graph", "lyapunov_residual",
    "matrix_exp", "numeric_report", "parse_graph_text", "path_graph", "path_spectrum",
    "paths", "rk4_integrate", "run_diffusion_experiment",
    "run_fluid_experiment", "simulate", "single_vertex", "spectral", "star_graph",
    "star_spectrum", "state_index", "stationary_gaussian", "stationary_solve",
    "validate_interaction",
]


def test_public_surface_is_pinned():
    # one public name per concept: the rate formula lives in the chain's
    # rate kernel, Euler-Maruyama in its ensemble and adjacency and degree
    # on Graph; bench/workloads.py calls build_graph and
    # euler_maruyama_terminal among others
    assert sorted(bd.__all__) == PUBLIC_NAMES


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_equals_vector_form(seed):
    spec = _random_symmetric_spec(seed, zero_death_diagonal=False)
    a = spec.drift_matrix
    states = bd.enumerate_states(spec)
    # explicit sum over vertices and unordered adjacent pairs
    pairwise = 0.5 * (states * (states - 1)) @ np.diag(a)
    for x, y in spec.graph.edges:
        pairwise = pairwise + a[x, y] * states[:, x] * states[:, y]
    assert np.abs(pairwise - gibbs_exponent(spec, states)).max() < 1e-10


def test_irreversible_stationary_matches_dense_null_vector():
    # no closed form here: A_b - A_d is asymmetric and the death diagonal is
    # nonzero, so the oracle is the null vector of the dense Q^T.  The solve
    # pins the mode of the Gibbs weight of A's symmetric part; on the skewed
    # spec that state, (3, 3, -1), has about 1e-12 of the mass of the
    # chain's mode (-1, -1, 3)
    import scipy.linalg

    g = bd.cycle_graph(3)
    rng = np.random.default_rng(11)
    pattern = g.adjacency_matrix() + np.eye(3)
    ab = rng.uniform(-0.4, 0.4, size=(3, 3)) * pattern
    ad = rng.uniform(-0.4, 0.4, size=(3, 3)) * pattern
    skewed = bd.ChainSpec(
        g,
        [[-0.2, -0.2, -0.5], [0.4, 0.6, -0.8], [2.2, 1.1, 0.8]],
        [[-0.4, -0.6, 0.9], [-0.9, 0.3, 0.9], [0.5, 0.6, -0.3]],
        l=1,
        r=3,
    )
    for spec in (bd.ChainSpec(g, ab, ad, l=4, r=5), skewed):
        a = spec.drift_matrix
        assert np.abs(a - a.T).max() > 0.1
        assert np.abs(np.diag(spec.death_matrix)).min() > 0.0
        null = scipy.linalg.null_space(bd.build_generator(spec).toarray().T)
        assert null.shape == (spec.num_states(), 1)
        oracle = null[:, 0] / null[:, 0].sum()
        assert np.abs(bd.stationary_solve(spec) - oracle).max() < 1e-12
    states = bd.enumerate_states(skewed)
    energy = gibbs_exponent(skewed, states) - states @ np.diag(skewed.death_matrix)
    assert oracle[np.argmax(energy)] < 1e-11 * oracle.max()


def test_singular_factor_is_a_typed_error(monkeypatch):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    spec = bd.ChainSpec(bd.single_vertex(), [[0.0]], [[0.0]], l=0, r=1)
    with pytest.raises(bd.SingularSystemError, match="singular"):
        bd.stationary_solve(spec)


def _wide_bench_style_spec(seed):
    # the benchmark's reversible recipe (symmetric A, zero death diagonal,
    # coefficients shrunk by 2/l) on a box too wide for the sparse solve
    g = bd.path_graph(2)
    rng = np.random.default_rng(seed)
    pattern = g.adjacency_matrix() + np.eye(2)
    sym = rng.uniform(-0.75, 0.75, size=(2, 2)) * (2 / 40)
    sym = 0.5 * (sym + sym.T) * pattern
    split = rng.uniform(-0.5, 0.5, size=(2, 2)) * (2 / 40) * g.adjacency_matrix()
    return bd.ChainSpec(g, sym + split, split, l=40, r=40)


@pytest.mark.parametrize(
    "make, gate",
    [
        # a double well whose barrier passes float64: 0.96 off the Gibbs law
        (lambda: bd.ChainSpec(bd.single_vertex(), [[0.1]], [[0.0]], l=40, r=40), "Gibbs"),
        (lambda: _wide_bench_style_spec(1), "Gibbs"),  # 2.1e-4 off
        (lambda: _wide_bench_style_spec(4), "below -1e-12"),  # an entry of -0.157
        (lambda: _wide_bench_style_spec(5), "Gibbs"),  # 3.9e-7 off
    ],
    ids=["double-well", "bench-rng1", "bench-rng4", "bench-rng5"],
)
def test_lost_stationary_law_is_a_typed_error(make, gate):
    # each solve passes the residual gate; the sign or the Gibbs gate stops it
    with pytest.raises(bd.SingularSystemError, match=gate):
        bd.stationary_solve(make())


def _gth(q: np.ndarray) -> np.ndarray:
    """Stationary law of the dense generator q by GTH state reduction
    (Grassmann, Taksar and Heyman 1985).  It only adds, multiplies and
    divides nonnegative numbers, so every entry keeps its relative accuracy
    however many decades the rates span."""
    p = np.array(q, dtype=float)
    count = p.shape[0]
    for k in range(count - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.ones(count)
    for k in range(1, count):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


@pytest.mark.parametrize(
    "graph, box, seed",
    [(bd.path_graph(3), 4, 1), (bd.cycle_graph(3), 4, 2), (bd.path_graph(2), 6, 3)],
    ids=["path3-l4", "cycle3-l4", "path2-l6"],
)
def test_irreversible_stationary_matches_gth(graph, box, seed):
    # irreversible specs have no closed form; GTH is exact to rounding
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    pattern = graph.adjacency_matrix() + np.eye(n)
    ab, ad = (rng.uniform(-0.5, 0.5, size=(2, n, n)) * (2 / box)) * pattern
    spec = bd.ChainSpec(graph, ab, ad, l=box, r=box)
    a = spec.drift_matrix
    assert np.abs(a - a.T).max() > 0.01
    oracle = _gth(bd.build_generator(spec).toarray())
    assert np.abs(bd.stationary_solve(spec) - oracle).max() < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="FOUND 36 in CHANGES.md: the pinned solve lands 2.2e-6 off this "
    "law while its residual gate passes, and raises no error",
)
def test_ten_decade_rates_are_solved_or_refused():
    # rates from about 1e-5 to 2e5: the solve must match GTH or raise
    spec = bd.ChainSpec(
        bd.path_graph(2),
        [[2.74, -0.81], [3.2, -0.88]],
        [[-1.27, -1.01], [-0.6, 2.46]],
        l=3,
        r=3,
    )
    oracle = _gth(bd.build_generator(spec).toarray())
    try:
        pi = bd.stationary_solve(spec)
    except bd.NumericError:
        return
    assert np.abs(pi - oracle).max() < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the pinned solve puts 0.999 on state 80 where GTH puts 0.641 on "
    "state 0, and raises no error",
)
def test_irreversible_law_0_64_off_is_solved_or_refused():
    # the worst of 293 random irreversible specs on path(2) at l = r = 4
    spec = bd.ChainSpec(
        bd.path_graph(2),
        [[0.66, 0.993], [2.552, 0.968]],
        [[-4.075, -1.736], [-0.598, 2.142]],
        l=4,
        r=4,
    )
    oracle = _gth(bd.build_generator(spec).toarray())
    try:
        pi = bd.stationary_solve(spec)
    except bd.NumericError:
        return
    assert np.abs(pi - oracle).max() < 1e-9



# (graph, alpha, beta) of A = alpha E + beta adjacency and its verdict, all
# reversible, so that gibbs_measure gives the chain's stationary law in
# closed form
STATIONARY_LIMIT_ROWS = {
    "single-hurwitz": (bd.single_vertex(), -1.0, 0.0, True),
    "path2-hurwitz": (bd.path_graph(2), -1.0, 0.5, True),
    "single-not-hurwitz": (bd.single_vertex(), 0.5, 0.0, False),
    "path2-not-hurwitz": (bd.path_graph(2), -1.0, 1.5, False),
}


def _scaled_stationary_law(graph, a, eps):
    """Covariance of eps * xi under the stationary law of the diffusion-scaled
    chain (rates from eps^2 A, box ceil(eps^-2)), and its mass on the box edge."""
    box = int(np.ceil(eps**-2))
    spec = bd.ChainSpec(graph, eps**2 * a, np.zeros_like(a), box, box)
    p = bd.gibbs_measure(spec).probabilities
    states = bd.enumerate_states(spec)
    centred = eps * states - p @ (eps * states)
    cov = centred.T @ (centred * p[:, None])
    return cov, float(p[(np.abs(states) == box).any(axis=1)].sum())


@pytest.mark.parametrize("row", STATIONARY_LIMIT_ROWS.values(), ids=STATIONARY_LIMIT_ROWS.keys())
def test_stationary_law_of_the_scaled_chain_follows_the_hurwitz_verdict(row):
    # eps * xi under the stationary law tends to N(0, S), S from the Lyapunov
    # equation, when A is Hurwitz; otherwise its mass stays on the box edge
    # and its variance grows about 4x per halving of eps
    graph, alpha, beta, hurwitz = row
    a = bd.alpha_beta_matrix(graph, alpha, beta)
    assert bd.classify_pd(graph, alpha, beta).positive_definite == hurwitz
    assert bd.is_hurwitz(a) == hurwitz
    laws = [_scaled_stationary_law(graph, a, 2.0**-k) for k in (1, 2, 3)]
    if hurwitz:
        _, target = bd.stationary_gaussian(a)
        errors = [float(np.abs(cov - target).max()) for cov, _ in laws]
        assert np.all(np.diff(errors) < 0) and errors[-1] < 1e-8, errors
    else:
        assert min(edge for _, edge in laws) >= 0.3
        variances = np.array([np.diag(cov).max() for cov, _ in laws])
        assert np.all(variances[1:] >= 3.0 * variances[:-1]), variances


# the route constants that send every reversible spec to the float32 factor,
# and those that keep every spec on the float64 factor
_ALL_FLOAT32 = {"_SINGLE_MIN_BLOCK": 1, "_SINGLE_MIN_VERTICES": 1}
_ALL_FLOAT64 = {"_SINGLE_MIN_BLOCK": 2**63}


def _solve_under(spec, constants):
    """stationary_solve(spec) with chain's route constants set: the law, or
    the type and message of the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(chain, name, value)
        try:
            return bd.stationary_solve(spec)
        except bd.BdlimitsError as exc:
            return type(exc), str(exc)


def _splu_dtypes(monkeypatch) -> list:
    """The dtypes of the matrices splu factors from now on."""
    import scipy.sparse.linalg

    seen, real = [], scipy.sparse.linalg.splu

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return seen


def _bench_recipe(graph, l, r, seed):
    # the benchmark's reversible recipe: symmetric A, zero death diagonal,
    # coefficients shrunk by 2 / max(l, r)
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    adj = graph.adjacency_matrix()
    scale = 2.0 / max(l, r)
    sym = rng.uniform(-0.75, 0.75, size=(n, n)) * scale
    sym = 0.5 * (sym + sym.T) * (adj + np.eye(n))
    split = rng.uniform(-0.5, 0.5, size=(n, n)) * scale * adj
    return bd.ChainSpec(graph, sym + split, split, l=l, r=r)


@st.composite
def _small_specs(draw):
    # up to 81 states on one vertex and 729 on two or three
    graph = draw(st.sampled_from(
        [bd.single_vertex(), bd.path_graph(2), bd.path_graph(3), bd.cycle_graph(3)]
    ))
    n = graph.num_vertices
    width = {1: 80, 2: 26, 3: 8}[n]
    l = draw(st.integers(0, width - 1))
    r = draw(st.integers(1, width - l))
    scale = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        scale *= 2.0 / max(l, r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = graph.adjacency_matrix() + np.eye(n)
    if draw(st.booleans()):
        sym = rng.uniform(-scale, scale, size=(n, n))
        split = rng.uniform(-scale, scale, size=(n, n)) * pattern
        return bd.ChainSpec(graph, 0.5 * (sym + sym.T) * pattern + split, split, l=l, r=r)
    ab, ad = rng.uniform(-scale, scale, size=(2, n, n)) * pattern
    return bd.ChainSpec(graph, ab, ad, l=l, r=r)


@given(_small_specs())
@settings(max_examples=60, deadline=None)
def test_float32_route_is_never_further_from_the_law_than_the_float64_route(spec):
    single = _solve_under(spec, _ALL_FLOAT32)
    double = _solve_under(spec, _ALL_FLOAT64)
    if isinstance(single, tuple) or not chain.is_symmetric(spec.drift_matrix):
        # a refusal, and every irreversible spec, is the float64 route's own
        assert type(single) is type(double)
        assert single == double if isinstance(single, tuple) else np.array_equal(single, double)
        return
    if isinstance(double, np.ndarray) and np.array_equal(single, double):
        return  # the float32 route fell back to the float64 factor
    gibbs = bd.gibbs_measure(spec).probabilities
    off = np.abs(single - gibbs).max()
    assert off <= 5e-13
    if isinstance(double, tuple):
        return  # the float64 route refused a law the float32 route found
    # within 1e-12 of the float64 law, or else closer than it to the exact law
    assert np.abs(single - double).max() <= 1e-12 or off < np.abs(double - gibbs).max()


_HARD_SPECS = {
    # FOUND 35: benchmark-style wide boxes the solve loses
    "bench-rng1": lambda: _wide_bench_style_spec(1),
    "bench-rng4": lambda: _wide_bench_style_spec(4),
    "bench-rng5": lambda: _wide_bench_style_spec(5),
    # FOUND 36: ten decades of rates
    "ten-decades": lambda: bd.ChainSpec(
        bd.path_graph(2), [[2.74, -0.81], [3.2, -0.88]], [[-1.27, -1.01], [-0.6, 2.46]], l=3, r=3
    ),
    "off-0.64": lambda: bd.ChainSpec(
        bd.path_graph(2), [[0.66, 0.993], [2.552, 0.968]],
        [[-4.075, -1.736], [-0.598, 2.142]], l=4, r=4,
    ),
    "double-well": lambda: bd.ChainSpec(bd.single_vertex(), [[0.1]], [[0.0]], l=40, r=40),
    "box-30": lambda: bd.ChainSpec(bd.single_vertex(), [[0.0]], [[1.0]], l=30, r=30),
    "box-60": lambda: bd.ChainSpec(bd.single_vertex(), [[0.0]], [[1.0]], l=60, r=60),
    # a well holding 2.3e-11 of the mass behind a 1e-20 barrier (kappa(M) =
    # 2.9e11): the float32 refinement stagnates with that well empty, 2.6e-11
    # off the Gibbs law, where the float64 route is 1.6e-15 off
    "stagnant-well": lambda: bd.ChainSpec(
        bd.single_vertex(), [[0.04726495426156527]], [[-0.046711688152484755]], l=21, r=31
    ),
}


@pytest.mark.parametrize("make", _HARD_SPECS.values(), ids=_HARD_SPECS.keys())
def test_hard_specs_end_as_the_float64_route_does(make):
    # with every spec sent to the float32 route, each ends as the float64
    # route alone ends it: the same error, or the same law to 1e-12
    single = _solve_under(make(), _ALL_FLOAT32)
    double = _solve_under(make(), _ALL_FLOAT64)
    if isinstance(double, tuple):
        assert single == double
    else:
        assert np.abs(single - double).max() <= 1e-12


@pytest.mark.parametrize("l, r", [(0, 90), (90, 1)], ids=["past-max", "below-tiny"])
def test_rates_past_float32_take_the_float64_route_bit_for_bit(monkeypatch, l, r):
    # rates e^xi up to e^90 = 1.2e39, past float32's 3.4e38, or down to
    # e^-90 = 8.2e-40, below its smallest normal 1.2e-38
    spec = bd.ChainSpec(bd.single_vertex(), [[1.0]], [[1.0]], l=l, r=r)
    expected = _solve_under(spec, _ALL_FLOAT64)
    for name, value in _ALL_FLOAT32.items():
        monkeypatch.setattr(chain, name, value)
    seen = _splu_dtypes(monkeypatch)
    assert np.array_equal(bd.stationary_solve(spec), expected)
    assert seen == [np.float64]


def test_rates_past_float32_count_the_float64_factor_before_it_runs(monkeypatch):
    # rates up to e^90 skip the float32 factor, so physical memory for it
    # alone, 11 N B bytes, must refuse the float64 one (16 N B) unfactored
    spec = bd.ChainSpec(bd.single_vertex(), [[1.0]], [[1.0]], l=0, r=90)
    for name, value in _ALL_FLOAT32.items():
        monkeypatch.setattr(chain, name, value)
    # the factors' bytes alone: the 91 states' exact-law arrays count more
    monkeypatch.setattr(chain, "_STATE_BYTES", 0)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 11 * 91)
    seen = _splu_dtypes(monkeypatch)
    with pytest.raises(bd.StateSpaceTooLargeError, match=f"float64 .* {16 * 91} bytes"):
        bd.stationary_solve(spec)
    assert seen == []


def test_large_reversible_spec_takes_the_float32_factor(monkeypatch):
    # the benchmark's 6561-state spec: B = 729, with no patched constant
    spec = _bench_recipe(bd.cycle_graph(4), 4, 4, seed=0)
    seen = _splu_dtypes(monkeypatch)
    pi = bd.stationary_solve(spec)
    assert seen == [np.float32]
    assert np.abs(pi - bd.gibbs_measure(spec).probabilities).max() <= 1e-9


def test_large_irreversible_spec_keeps_the_float64_factor(monkeypatch):
    # B = 225 on cycle(3), but no exact law would check a float32 solve
    graph = bd.cycle_graph(3)
    rng = np.random.default_rng(2)
    ab, ad = rng.uniform(-0.15, 0.15, size=(2, 3, 3)) * (graph.adjacency_matrix() + np.eye(3))
    spec = bd.ChainSpec(graph, ab, ad, l=7, r=7)
    seen = _splu_dtypes(monkeypatch)
    pi = bd.stationary_solve(spec)
    assert seen == [np.float64]
    assert np.array_equal(pi, _solve_under(spec, _ALL_FLOAT64))


def test_factor_past_physical_memory_is_refused_before_enumerating(monkeypatch):
    # cycle(4) with l = r = 10 is under the default state cap, at 194 481
    # states, but its float32 factor at bandwidth 9261 needs about 19.8 GB
    def enumerate_nothing(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(chain, "enumerate_states", enumerate_nothing)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 8 * 2**30)
    zero = np.zeros((4, 4))
    spec = bd.ChainSpec(bd.cycle_graph(4), zero, zero, l=10, r=10)
    assert spec.num_states() <= chain.DEFAULT_STATE_CAP
    with pytest.raises(
        bd.StateSpaceTooLargeError,
        match=f"float32 LU factor of 194481 states at bandwidth 9261 needs about "
        f"{11 * 194481 * 9261} bytes",
    ):
        bd.stationary_solve(spec)


def test_factor_bytes_follow_the_route_that_runs(monkeypatch):
    # path(3) with l = r = 2: 125 states at bandwidth 25, so 16 * 3125 bytes
    # in float64 and 11 * 3125 in float32
    spec = bd.ChainSpec(bd.path_graph(3), np.zeros((3, 3)), np.zeros((3, 3)), l=2, r=2)
    for name, value in _ALL_FLOAT32.items():
        monkeypatch.setattr(chain, name, value)
    # the factors' bytes alone: the 125 states' exact-law arrays count more
    monkeypatch.setattr(chain, "_STATE_BYTES", 0)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 11 * 3125)
    bd.stationary_solve(spec)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 11 * 3125 - 1)
    with pytest.raises(bd.StateSpaceTooLargeError, match="float32 .* 34375 bytes"):
        bd.stationary_solve(spec)
    # a fallback checks the float64 factor's bytes before it factors; a
    # float32 Gibbs gate below 0 refuses every float32 law
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 11 * 3125)
    monkeypatch.setitem(chain._PRECISIONS, np.float32, (30, -1.0))
    with pytest.raises(bd.StateSpaceTooLargeError, match="float64 .* 50000 bytes"):
        bd.stationary_solve(spec)
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 16 * 3125)
    assert np.array_equal(bd.stationary_solve(spec), _solve_under(spec, _ALL_FLOAT64))
