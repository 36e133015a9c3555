"""Finite connected simple graphs and adjacency-patterned interaction matrices.

A Graph stores an undirected edge set over vertices 0..num_vertices-1 and is
immutable once built.  Interaction matrices are plain float ndarrays whose
off-diagonal entries may be nonzero only on edges; diagonals are free
(every vertex counts as adjacent to itself for interaction purposes, but
the adjacency matrix and vertex degrees count true edges only).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidEdgeError,
    PatternViolationError,
    read_text,
    real_array,
    require_integer,
    require_memory,
    require_real,
)


def _require_adjacency(num_vertices: int) -> None:
    """Refuse a dense adjacency whose 8 n^2 bytes pass physical memory.  The
    named graphs call it before they build their n or n^2 / 2 edges, and
    leave a count below 1 to Graph."""
    n = max(num_vertices, 0)
    require_memory(8 * n**2, f"the dense adjacency of {num_vertices} vertices")


class Graph:
    """Finite connected simple graph on vertices 0..num_vertices-1.

    The adjacency is a dense float n x n array, built once; a graph whose
    8 n^2 bytes would pass physical memory raises ValidationError before
    anything per vertex is built.
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        num_vertices = require_integer("num_vertices", num_vertices)
        if num_vertices < 1:
            raise InvalidEdgeError(f"num_vertices must be positive, got {num_vertices}")
        seen: set[tuple[int, int]] = set()
        try:
            entries = iter(edges)
        except TypeError:
            raise InvalidEdgeError(f"edges must be vertex pairs, got {edges!r}") from None
        for entry in entries:
            try:
                u, v = entry
            except (TypeError, ValueError):
                raise InvalidEdgeError(f"edge {entry!r} is not a pair of vertices") from None
            u, v = require_integer("edge end", u), require_integer("edge end", v)
            if u == v:
                raise InvalidEdgeError(f"self-loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidEdgeError(
                    f"edge ({u}, {v}) out of range for {num_vertices} vertices"
                )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidEdgeError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        # checked before anything is built per vertex: n may be huge
        if len(seen) < num_vertices - 1:
            raise DisconnectedGraphError(
                f"{len(seen)} edges cannot connect {num_vertices} vertices"
            )
        _require_adjacency(num_vertices)
        self.num_vertices = num_vertices
        self.edges = frozenset(seen)
        self._check_connected()
        adj = np.zeros((self.num_vertices, self.num_vertices))
        for u, v in self.edges:
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        adj.setflags(write=False)
        self._adjacency = adj

    def _check_connected(self) -> None:
        if self.num_vertices == 1:
            return
        reached = {0}
        queue = deque([0])
        nbrs: dict[int, list[int]] = {x: [] for x in range(self.num_vertices)}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in reached:
                    reached.add(v)
                    queue.append(v)
        if len(reached) != self.num_vertices:
            missing = sorted(set(range(self.num_vertices)) - reached)
            raise DisconnectedGraphError(
                f"vertices {missing} are not reachable from vertex 0"
            )

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric 0/1 matrix with zero diagonal; entry (x,y)=1 iff {x,y} is an edge."""
        return self._adjacency

    @property
    def degrees(self) -> np.ndarray:
        """Number of edges incident to each vertex."""
        return self._adjacency.sum(axis=1).astype(np.int64)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, edges={sorted(self.edges)})"


# the same class under a second name, kept for callers that build graphs by it
build_graph = Graph


def validate_interaction(g: Graph, matrix) -> np.ndarray:
    """Check that a square matrix respects the adjacency pattern of g.

    Every entry must be finite, and off-diagonal entries must vanish at
    non-adjacent pairs.  Returns a read-only float copy.
    """
    m = real_array("matrix", matrix)
    n = g.num_vertices
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match {n} vertices"
        )
    adj = g.adjacency_matrix()
    allowed = adj + np.eye(n)
    bad = (m != 0.0) & (allowed == 0.0)
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise PatternViolationError(int(x), int(y), float(m[x, y]))
    m.setflags(write=False)
    return m


def alpha_beta_matrix(g: Graph, alpha: float, beta: float) -> np.ndarray:
    """The interaction matrix alpha*E + beta*adjacency(g)."""
    alpha, beta = require_real("alpha", alpha), require_real("beta", beta)
    n = g.num_vertices
    m = alpha * np.eye(n) + beta * g.adjacency_matrix()
    m.setflags(write=False)
    return m


def path_graph(num_vertices: int) -> Graph:
    """Path 0-1-...-(k-1)."""
    num_vertices = require_integer("num_vertices", num_vertices)
    _require_adjacency(num_vertices)
    return Graph(num_vertices, [(i, i + 1) for i in range(num_vertices - 1)])


def star_graph(num_leaves: int) -> Graph:
    """Star with center 0 and leaves 1..m."""
    num_leaves = require_integer("num_leaves", num_leaves)
    _require_adjacency(num_leaves + 1)
    return Graph(num_leaves + 1, [(0, i) for i in range(1, num_leaves + 1)])


def cycle_graph(num_vertices: int) -> Graph:
    """Cycle on k >= 3 vertices."""
    if require_integer("num_vertices", num_vertices) < 3:
        raise InvalidEdgeError("cycle needs at least 3 vertices")
    _require_adjacency(num_vertices)
    edges = [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    return Graph(num_vertices, edges)


def complete_graph(num_vertices: int) -> Graph:
    """Complete graph on k vertices."""
    num_vertices = require_integer("num_vertices", num_vertices)
    _require_adjacency(num_vertices)
    edges = [
        (i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)
    ]
    return Graph(num_vertices, edges)


def single_vertex() -> Graph:
    return Graph(1, [])


def parse_graph_text(text: str) -> Graph:
    """Parse the plain graph format: 'n <num_vertices>' then 'e <u> <v>' lines.

    Blank lines and lines starting with '#' are ignored.
    """
    num_vertices = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *tokens = line.split()
        if (kind, len(tokens)) not in (("n", 1), ("e", 2)):
            raise InvalidEdgeError(f"line {lineno}: unrecognized line {line!r}")
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise InvalidEdgeError(f"line {lineno}: non-integer in {line!r}") from None
        if kind == "n":
            if num_vertices is not None:
                raise InvalidEdgeError(f"line {lineno}: repeated 'n' line")
            num_vertices = values[0]
        elif num_vertices is None:
            raise InvalidEdgeError(f"line {lineno}: 'e' before 'n'")
        else:
            edges.append(tuple(values))
    if num_vertices is None:
        raise InvalidEdgeError("missing 'n <num_vertices>' line")
    return Graph(num_vertices, edges)


def load_graph(path) -> Graph:
    """Read a graph from a text file in the 'n/e' format."""
    return parse_graph_text(read_text(path, "graph file"))

