"""Problem instances, exhaustive reference solvers, and the photon-loss
error-mitigation encoding.

The exhaustive solvers are the ground truth every anneal result is scored
against; they enumerate all 2^n assignments and are guarded to n <= 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_VERTICES = 24


@dataclass(frozen=True)
class ProblemGraph:
    """Undirected graph with optional finite positive node weights.

    The weights score a run (WMIS optima) and drive its per-node phase
    rotations; without them every node weighs 1.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge {e} references a missing vertex")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != self.n_vertices:
                raise ValueError("need one weight per vertex")
            if not all(math.isfinite(x) and x > 0 for x in w):
                raise ValueError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def is_independent(self, subset) -> bool:
        chosen = set(subset)
        return not any(u in chosen and v in chosen for u, v in self.edges)


def graph_from_edges(n_vertices: int, edges, weights=None) -> ProblemGraph:
    return ProblemGraph(n_vertices, frozenset(tuple(sorted(e)) for e in edges),
                        None if weights is None else tuple(weights))


def three_node_line() -> ProblemGraph:
    """Path on three vertices; unique maximum independent set {0, 2}."""
    return graph_from_edges(3, [(0, 1), (1, 2)])


def five_node_example() -> ProblemGraph:
    """Five-vertex instance with unique maximum independent set {0, 3, 4}."""
    return graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (2, 4)])


def complete_graph(n: int) -> ProblemGraph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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


def _edge_masks(graph: ProblemGraph) -> list[int]:
    return [(1 << u) | (1 << v) for u, v in graph.edges]


def brute_force_mis(graph: ProblemGraph) -> tuple[int, list[frozenset[int]]]:
    """Exhaustive maximum independent set; returns (size, all optima)."""
    _guard_size(graph.n_vertices)
    masks = _edge_masks(graph)
    best, optima = -1, []
    for assignment in range(1 << graph.n_vertices):
        if any((assignment & m) == m for m in masks):
            continue
        size = assignment.bit_count()
        if size > best:
            best, optima = size, [assignment]
        elif size == best:
            optima.append(assignment)
    sets = [frozenset(i for i in range(graph.n_vertices) if a >> i & 1) for a in optima]
    return best, sets


def brute_force_wmis(graph: ProblemGraph) -> tuple[float, list[frozenset[int]]]:
    """Weighted variant; unit weights when none are set."""
    _guard_size(graph.n_vertices)
    w = graph.weights or tuple(1.0 for _ in range(graph.n_vertices))
    masks = _edge_masks(graph)
    best, optima = None, []
    for assignment in range(1 << graph.n_vertices):
        if any((assignment & m) == m for m in masks):
            continue
        value = sum(w[i] for i in range(graph.n_vertices) if assignment >> i & 1)
        if best is None or value > best + 1e-12:
            best, optima = value, [assignment]
        elif abs(value - best) <= 1e-12:
            optima.append(assignment)
    sets = [frozenset(i for i in range(graph.n_vertices) if a >> i & 1) for a in optima]
    return float(best), sets


def qubo_energy(q: np.ndarray, bits) -> float:
    """E = sum_jk s_j s_k Q_jk with the double sum counting both triangles."""
    s = np.asarray(bits, dtype=float)
    return float(s @ q @ s)


def brute_force_qubo(q: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive QUBO minimization; returns (min energy, all argmin bit tuples)."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    _guard_size(n)
    best, optima = None, []
    for assignment in range(1 << n):
        bits = tuple((assignment >> i) & 1 for i in range(n))
        e = qubo_energy(q, bits)
        if best is None or e < best - 1e-12:
            best, optima = e, [bits]
        elif abs(e - best) <= 1e-12:
            optima.append(bits)
    return float(best), optima


def encoded_vertex(j: int, k: int, n_copy: int) -> int:
    """Flatten copy k of original vertex j."""
    return j * n_copy + k


def mitigation_encode(graph: ProblemGraph, n_copy: int) -> ProblemGraph:
    """Replicate the instance so photon loss degrades answers gracefully.

    Every original edge {u, v} becomes the complete bipartite edge set between
    the copies of u and the copies of v; copies of one vertex stay mutually
    unconstrained.
    """
    if n_copy < 1:
        raise ValueError("n_copy must be at least 1")
    edges = []
    for u, v in graph.edges:
        for p in range(n_copy):
            for q in range(n_copy):
                edges.append((encoded_vertex(u, p, n_copy),
                              encoded_vertex(v, q, n_copy)))
    weights = None
    if graph.weights is not None:
        weights = tuple(graph.weights[j] for j in range(graph.n_vertices)
                        for _ in range(n_copy))
    return graph_from_edges(graph.n_vertices * n_copy, edges, weights)


def mitigation_decode(encoded_sample, n_copy: int) -> frozenset[int]:
    """A vertex counts as selected when any of its copies is."""
    sample = list(encoded_sample)
    if len(sample) % n_copy != 0:
        raise ValueError("sample length is not a multiple of n_copy")
    n = len(sample) // n_copy
    return frozenset(j for j in range(n)
                     if any(sample[encoded_vertex(j, k, n_copy)] for k in range(n_copy)))


def loss_injection_experiment(graph: ProblemGraph, n_copy: int,
                              loss_pattern) -> dict:
    """Drop photons from an optimal encoded sample and try to decode.

    ``loss_pattern`` is an iterable of encoded vertex indices forced to 0.
    Returns per-run facts: whether decoding recovered an optimum, and whether
    the decoded set is still independent (it always should be; loss only ever
    shrinks a set).
    """
    encoded = mitigation_encode(graph, n_copy)
    _, encoded_optima = brute_force_mis(encoded)
    chosen = min(encoded_optima, key=sorted)
    sample = [1 if i in chosen else 0 for i in range(encoded.n_vertices)]
    for idx in loss_pattern:
        if sample[idx] == 0:
            raise ValueError(f"loss pattern sets vertex {idx} which carries no photon")
        sample[idx] = 0
    decoded = mitigation_decode(sample, n_copy)
    _, optima = brute_force_mis(graph)
    return {
        "decoded": decoded,
        "success": decoded in optima,
        "independent": graph.is_independent(decoded),
    }
