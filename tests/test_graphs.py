import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdlimits as bd


def test_two_path_is_smallest_connected_graph():
    g = bd.build_graph(2, [(0, 1)])
    assert g.num_vertices == 2
    assert g.edges == {(0, 1)}


def test_star_construction():
    g = bd.build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]
    assert g == bd.star_graph(4)


def test_isolated_vertex_rejected():
    with pytest.raises(bd.DisconnectedGraphError):
        bd.build_graph(3, [(0, 1)])
    with pytest.raises(bd.DisconnectedGraphError):
        bd.build_graph(4, [(0, 1), (1, 2), (0, 2)])
    # fewer than n - 1 edges cannot connect n vertices, and the count is
    # checked before anything is built per vertex
    with pytest.raises(bd.DisconnectedGraphError, match="0 edges cannot connect"):
        bd.parse_graph_text(f"n {10**20}\n")


def test_adjacency_past_physical_memory_is_refused(monkeypatch):
    # the dense adjacency of 3 vertices takes 72 bytes: a cap one byte
    # short refuses the graph before np.zeros is reached
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 71)
    monkeypatch.setattr("bdlimits.graphs.np.zeros", None)
    with pytest.raises(bd.ValidationError, match="adjacency of 3 vertices: 72 bytes, past physical memory"):
        bd.path_graph(3)
    monkeypatch.undo()
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 72)
    assert bd.path_graph(3).degrees.tolist() == [1, 2, 1]


@pytest.mark.parametrize(
    "build, size",
    [(bd.path_graph, 10**5), (bd.star_graph, 10**5), (bd.cycle_graph, 10**5),
     (bd.complete_graph, 400)],
    ids=["path", "star", "cycle", "complete"],
)
def test_named_graphs_refuse_before_building_their_edge_lists(monkeypatch, build, size):
    # under an 80 kB cap every size's adjacency is refused, and its edge
    # list of 10^5 or 79 800 pairs would have taken megabytes first
    monkeypatch.setattr("bdlimits.errors._PHYSICAL_MEMORY", 8 * 10**4)
    tracemalloc.start()
    try:
        with pytest.raises(bd.ValidationError, match="dense adjacency of .* past physical memory"):
            build(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_named_graphs_of_huge_negative_size_are_invalid():
    # a count below 1 passes the memory check, for Graph to refuse it
    for build in (bd.path_graph, bd.star_graph, bd.complete_graph):
        with pytest.raises(bd.InvalidEdgeError, match="must be positive"):
            build(-10**20)


@pytest.mark.parametrize(
    "edges",
    [[(0, 0)], [(0, 3)], [(0, 1), (1, 0)], [(0, 1, 2), (1, 2)], [0, (1, 2)], None],
    ids=["self-loop", "out-of-range", "duplicate", "triple", "bare-vertex", "none"],
)
def test_bad_edges_rejected(edges):
    with pytest.raises(bd.InvalidEdgeError):
        bd.build_graph(3, edges)


@pytest.mark.parametrize(
    "make, message",
    [(lambda: bd.Graph(0, []), "num_vertices must be positive, got 0"),
     (lambda: bd.cycle_graph(2), "cycle needs at least 3 vertices")],
    ids=["no-vertices", "two-cycle"],
)
def test_graphs_below_their_smallest_size_rejected(make, message):
    with pytest.raises(bd.InvalidEdgeError, match=message):
        make()


def test_adjacency_of_two_path():
    assert np.array_equal(
        bd.path_graph(2).adjacency_matrix(), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def test_adjacency_of_triangle():
    adj = bd.cycle_graph(3).adjacency_matrix()
    assert np.array_equal(adj, np.ones((3, 3)) - np.eye(3))


def test_adjacency_of_three_path():
    g = bd.build_graph(3, [(0, 1), (0, 2)])  # star m=2, center 0
    adj = g.adjacency_matrix()
    assert adj[0, 1] == adj[1, 0] == 1
    assert adj[0, 2] == adj[2, 0] == 1
    assert adj[1, 2] == adj[2, 1] == 0


def test_validate_interaction_accepts_adjacent_pattern():
    g = bd.path_graph(2)
    m = bd.validate_interaction(g, [[-1.0, 0.5], [0.5, -1.0]])
    assert m.shape == (2, 2)
    assert not m.flags.writeable


def test_validate_interaction_names_offending_pair():
    g = bd.path_graph(3)  # 0-1-2, so 0 and 2 are not adjacent
    bad = np.zeros((3, 3))
    bad[0, 2] = 0.1
    with pytest.raises(bd.PatternViolationError) as exc:
        bd.validate_interaction(g, bad)
    assert (exc.value.x, exc.value.y) == (0, 2)


def test_validate_interaction_zero_matrix_and_shape():
    g = bd.cycle_graph(3)
    bd.validate_interaction(g, np.zeros((3, 3)))
    with pytest.raises(bd.DimensionMismatchError):
        bd.validate_interaction(g, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_spec_rejects_non_finite_interaction(bad):
    g = bd.path_graph(2)
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    m[1, 1] = bad
    for ab, ad in ((m, np.zeros((2, 2))), (np.zeros((2, 2)), m)):
        with pytest.raises(bd.ValidationError, match=r"\(1, 1\) is not finite"):
            bd.ChainSpec(g, ab, ad, l=1, r=1)


def test_degrees():
    star = bd.star_graph(4)
    assert star.degrees[0] == 4
    assert star.degrees[3] == 1
    assert bd.cycle_graph(3).degrees.tolist() == [2, 2, 2]
    with pytest.raises(IndexError):
        star.degrees[9]


def _random_connected_graph(rng: np.random.Generator, n: int) -> bd.Graph:
    # random spanning tree plus a few extra edges
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return bd.build_graph(n, edges)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_adjacency_symmetric_zero_diagonal_row_sums(n, seed):
    g = _random_connected_graph(np.random.default_rng(seed), n)
    adj = g.adjacency_matrix()
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert np.array_equal(adj.sum(axis=1), g.degrees)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_edge_set_round_trip(n, seed):
    g = _random_connected_graph(np.random.default_rng(seed), n)
    upper = np.nonzero(np.triu(g.adjacency_matrix(), k=1))
    assert {(int(i), int(j)) for i, j in zip(*upper)} == set(g.edges)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_linear_combination_is_interaction(n, seed, w1, w2):
    rng = np.random.default_rng(seed)
    g = _random_connected_graph(rng, n)
    pattern = g.adjacency_matrix() + np.eye(n)
    m1 = rng.normal(size=(n, n)) * pattern
    m2 = rng.normal(size=(n, n)) * pattern
    combo = w1 * bd.validate_interaction(g, m1) + w2 * bd.validate_interaction(g, m2)
    bd.validate_interaction(g, combo)  # must not raise


def test_graph_text_parse_and_load(tmp_path):
    g = bd.star_graph(3)
    text = "# star with 3 leaves\nn 4\n\ne 0 1\ne 0 2\ne 3 0\n"
    assert bd.parse_graph_text(text) == g
    path = tmp_path / "star.g"
    path.write_text(text)
    assert bd.load_graph(path) == g


@pytest.mark.parametrize(
    "make", [bd.path_graph, bd.star_graph, bd.cycle_graph, bd.complete_graph]
)
@given(count=st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=25, deadline=None)
def test_graph_constructors_reject_non_integer_counts(make, count):
    # each checks its count before range() sees it
    with pytest.raises(bd.ValidationError, match="must be an integer"):
        make(count)
    assert make(np.int64(3)).num_vertices >= 3


def test_graph_text_errors():
    with pytest.raises(bd.InvalidEdgeError):
        bd.parse_graph_text("e 0 1\nn 2\n")
    with pytest.raises(bd.InvalidEdgeError):
        bd.parse_graph_text("n 2\nwhat 0 1\n")
    with pytest.raises(bd.InvalidEdgeError):
        bd.parse_graph_text("# only a comment\n")
    with pytest.raises(bd.InvalidEdgeError, match="line 3: repeated 'n' line"):
        bd.parse_graph_text("n 2\ne 0 1\nn 2\n")
    for text, line in (("n x\n", 1), ("n 2\ne 0 1.5\n", 2), ("n 2\ne a 1\n", 2)):
        with pytest.raises(bd.InvalidEdgeError, match=f"line {line}: non-integer"):
            bd.parse_graph_text(text)


def test_unreadable_graph_file_is_config_error(tmp_path):
    (tmp_path / "latin1.g").write_bytes(b"n 1\n# caf\xe9\n")
    for name, reason in (
        ("missing.g", "not found"), ("", "unreadable"), ("latin1.g", "not UTF-8")
    ):
        path = tmp_path / name
        with pytest.raises(bd.ConfigError, match=f"graph file {reason}.*{path.name}"):
            bd.load_graph(path)


def test_alpha_beta_matrix():
    g = bd.cycle_graph(3)
    m = bd.alpha_beta_matrix(g, -2.0, 0.5)
    assert np.array_equal(np.diag(m), [-2.0, -2.0, -2.0])
    assert m[0, 1] == 0.5
    bd.validate_interaction(g, m)
