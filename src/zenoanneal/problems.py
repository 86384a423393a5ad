"""Problem instances, exhaustive reference solvers, and the decoder of the
photon-loss error-mitigation encoding.

The exhaustive solvers are the ground truth every anneal result is scored
against.  They, the anneal observables and the loss-pattern decoder share the
one enumeration of 0/1 patterns: per-pattern arrays in basis order (vertex 0
the most significant bit), where a pattern is optimal within ``TIE_TOL`` of
the best score.  Occupation rows are built one slab at a time, or for the
few patterns a caller lists; the enumeration is guarded to n <= 24.

The encoding gives each vertex n_copy photons (copy k of vertex j at index
j * n_copy + k), and copies of adjacent vertices exclude each other.  Its
maximum independent sets are therefore every copy of a maximum set of the
graph, so the loss study starts from the graph's own optimum and never
builds the encoded graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_VERTICES = 24
TIE_TOL = 1e-12
# Table rows per scorer slab, whose float temporaries take 8 n rows bytes.
# Keep it a multiple of 16: OpenBLAS sums slabs of 1 or 3 rows in another
# order, which moves the last bits of the scores.
SCORE_SLAB_ROWS = 1 << 14


@dataclass(frozen=True)
class ProblemGraph:
    """Undirected graph with optional finite positive node weights.

    The weights score a run (WMIS optima) and drive its per-node phase
    rotations; without them every node weighs 1.  Edges may come as any
    iterable of pairs and are kept as a frozenset of (low, high).
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "edges", frozenset(map(self._canonical, self.edges)))
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != self.n_vertices:
                raise ValueError("need one weight per vertex")
            if not all(math.isfinite(x) and x > 0 for x in w):
                raise ValueError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)

    def _canonical(self, edge) -> tuple[int, int]:
        """The edge as (low, high), checked for a self-loop and for its vertices."""
        u, v = edge
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        edge = (u, v) if u < v else (v, u)
        if not (0 <= edge[0] and edge[1] < self.n_vertices):
            raise ValueError(f"edge {edge} references a missing vertex")
        return edge

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def graph_from_edges(n_vertices: int, edges, weights=None) -> ProblemGraph:
    return ProblemGraph(n_vertices, edges, None if weights is None else tuple(weights))


def three_node_line() -> ProblemGraph:
    """Path on three vertices; unique maximum independent set {0, 2}."""
    return graph_from_edges(3, [(0, 1), (1, 2)])


def five_node_example() -> ProblemGraph:
    """Five-vertex instance with unique maximum independent set {0, 3, 4}."""
    return graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (2, 4)])


def complete_graph(n: int) -> ProblemGraph:
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def parse_edge_list(text: str) -> ProblemGraph:
    """Parse 'u v [weight]' lines; '#' starts a comment.

    A third token is accepted as an edge annotation and ignored by the
    solvers.  The graph carries no node weights: the weighted problem's come
    from the ``wmis`` sweep itself.
    """
    edges = []
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [weight]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            if len(parts) == 3:
                float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        edges.append((u, v))
        max_vertex = max(max_vertex, u, v)
    if max_vertex < 0:
        raise ValueError("edge list is empty")
    return graph_from_edges(max_vertex + 1, edges)


def parse_qubo(text: str) -> np.ndarray:
    """Parse a dense row-major QUBO matrix from whitespace-separated numbers."""
    values = [float(tok) for tok in text.split()]
    n = int(round(len(values) ** 0.5))
    if n * n != len(values):
        raise ValueError(f"QUBO text holds {len(values)} numbers, not a square count")
    return np.array(values, dtype=float).reshape(n, n)


def _guard_size(n: int) -> None:
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(f"exhaustive search over 2^n patterns is guarded to "
                         f"n <= {BRUTE_FORCE_MAX_VERTICES}, got n = {n}")


def _bit_table(n: int, index=None) -> np.ndarray:
    """(len(index), n) 0/1 rows of the patterns at ``index`` (all by default), vertex 0 first."""
    index = np.arange(1 << n) if index is None else index
    return (index[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _by_slab(score, n: int) -> np.ndarray:
    """score(rows) over the 2^n patterns in slabs of at most
    ``SCORE_SLAB_ROWS`` float 0/1 table rows, so that no table outlives one slab."""
    return np.concatenate([
        score(_bit_table(n, np.arange(start, min(start + SCORE_SLAB_ROWS, 1 << n))).astype(float))
        for start in range(0, 1 << n, SCORE_SLAB_ROWS)])


def _optimal(score: np.ndarray) -> np.ndarray:
    """The tie rule: optimal is within ``TIE_TOL`` of the largest score."""
    return score >= score.max() - TIE_TOL


def _optima(optimal: np.ndarray) -> list[tuple[int, ...]]:
    """The 0/1 tuples of the patterns ``optimal`` marks, in basis order."""
    rows = _bit_table(len(optimal).bit_length() - 1, np.flatnonzero(optimal))
    return list(map(tuple, rows.tolist()))


def _wmis_scores(graph: ProblemGraph):
    """(violations, number, optimal) per pattern: the violated edges, the
    weighted size N_w = bits @ weights (unit weights when the graph has
    none) and WMIS optimality."""
    n = graph.n_vertices
    _guard_size(n)
    index = np.arange(1 << n)
    violations = sum(((index >> n - 1 - j) & (index >> n - 1 - k) & 1 for j, k in graph.edges),
                     np.zeros(1 << n, dtype=int))
    weights = np.asarray(graph.weights or (1.0,) * n)
    number = _by_slab(lambda rows: rows @ weights, n)
    return violations, number, _optimal(np.where(violations == 0, number, -np.inf))


def _qubo_scores(q):
    """(energy, optimal) per pattern: E = sum_jk s_j s_k Q_jk (both
    triangles) and minimality.  A bad Q raises ValueError before any pattern
    is scored, a non-finite E after."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise ValueError(f"QUBO matrix must be square and non-empty, got shape {q.shape}")
    _guard_size(q.shape[0])
    if not np.all(np.isfinite(q)):
        raise ValueError("QUBO matrix has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _by_slab(lambda rows: ((rows @ q) * rows).sum(axis=1), q.shape[0])
    if not np.all(np.isfinite(energy)):
        raise ValueError("QUBO pattern energies overflow to non-finite values")
    return energy, _optimal(-energy)


def brute_force_mis(graph: ProblemGraph) -> tuple[int, list[frozenset[int]]]:
    """Exhaustive maximum independent set; returns (size, all optima)."""
    size, optima = brute_force_wmis(ProblemGraph(graph.n_vertices, graph.edges))
    return int(size), optima


def brute_force_wmis(graph: ProblemGraph) -> tuple[float, list[frozenset[int]]]:
    """Weighted variant; unit weights when none are set."""
    _, number, optimal = _wmis_scores(graph)
    return (float(number[optimal].max()),
            [frozenset(j for j, bit in enumerate(row) if bit) for row in _optima(optimal)])


def loss_injection_batch(graph: ProblemGraph, n_copy: int, samples) -> dict:
    """Decode the rows of a (P, n * n_copy) boolean ``samples`` array (a
    vertex is selected when any copy is) into (P, n) ``decoded`` sets, each
    scored for ``success`` (a maximum independent set) and ``independent``."""
    n = graph.n_vertices
    samples = np.asarray(samples, dtype=bool)
    decoded = samples.reshape(len(samples), n, n_copy).any(axis=2)
    violations, _, optimal = _wmis_scores(ProblemGraph(n, graph.edges))
    index = decoded @ (1 << np.arange(n - 1, -1, -1))  # basis order, vertex 0 first
    return {"decoded": decoded, "success": optimal[index],
            "independent": violations[index] == 0}
