"""Metamorphic relations on the pure-state paths.

Each relation runs an engine twice, on an input and on a transform of it whose
effect on the final populations is known exactly, so a convention error in a
piece the engines and the cross-path oracles share still shows:

- disjoint union: two graphs (or a block-diagonal Q) run as one give the
  Kronecker product of the parts' populations, in basis order with vertex 0
  the most significant bit;
- relabeling: permuting the vertices, with their weights or Q, permutes the
  populations.

The union compares distributions, each run's populations over their sum.  A
union does not run its parts' mixer: the ideal path diagonalizes another
single-flip matrix, whose eigenvectors are orthogonal only to about 1e-15, and
a QUBO union of 8 or 9 variables takes the frame pass where its parts take the
Walsh matmul.  Each loses its own norm over the run, up to 2.8e-13 and 1.6e-14
in 128 cycles, and every report states it as ``meta["norm_drift"]``.
Relabeling keeps the mixer, so it compares raw populations.

Tolerances are 10x the largest spread measured on one instance a relation
(three-node line and triangle, a 4 + 5 block QUBO, the five-node example).
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from zenoanneal.anneal import anneal_ideal, anneal_statevector, make_schedule, qubo_anneal
from zenoanneal.problems import graph_from_edges

CYCLES = 128
UNION_TOL = {"statevector": 1.4e-14, "ideal": 3.0e-13, "qubo": 1.3e-14}
RELABEL_TOL = {"statevector": 4.7e-14, "qubo": 7.1e-14}

r_tots = st.floats(1.0, 30.0)
phi_qs = st.floats(-1.0, 1.0)


@st.composite
def weighted_graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return graph_from_edges(n, edges, draw(st.lists(st.floats(0.5, 2.0), min_size=n,
                                                    max_size=n)))


def qubos(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n).map(
        lambda v: np.reshape(v, (n, n)))


def populations(report):
    return np.array(report.final_populations.values())


def distribution(report):
    p = populations(report)
    return p / p.sum()


def disjoint_union(a, b):
    m = a.n_vertices
    return graph_from_edges(m + b.n_vertices, a.edges | {(u + m, v + m) for u, v in b.edges},
                            a.weights + b.weights)


def relabeled_index(n, perm):
    """Basis index, after vertex j becomes vertex perm[j], of each pattern in basis order."""
    index = np.arange(1 << n)
    return sum(((index >> n - 1 - j) & 1) << n - 1 - int(perm[j]) for j in range(n))


def relabeled_graph(g, perm):
    weights = np.empty(g.n_vertices)
    weights[list(perm)] = g.weights
    return graph_from_edges(g.n_vertices, {(perm[u], perm[v]) for u, v in g.edges}, weights)


def assert_union_factorizes(union, part_a, part_b, path):
    """The union's distribution is the Kronecker product of its parts'."""
    spread = np.abs(distribution(union)
                    - np.kron(distribution(part_a), distribution(part_b))).max()
    assert spread <= UNION_TOL[path]


def assert_relabeling_permutes(report, relabeled, perm, path):
    """Pattern i of the input sits at the relabeled run's ``relabeled_index``."""
    n = len(perm)
    spread = np.abs(populations(relabeled)[relabeled_index(n, perm)]
                    - populations(report)).max()
    assert spread <= RELABEL_TOL[path]


@settings(max_examples=25, deadline=None)
@given(a=weighted_graphs(1, 3), b=weighted_graphs(1, 3), r_tot=r_tots, phi_q=phi_qs)
def test_statevector_union_factorizes(a, b, r_tot, phi_q):
    schedule = make_schedule(CYCLES, r_tot)
    assert_union_factorizes(*(anneal_statevector(g, schedule, phi_q)
                              for g in (disjoint_union(a, b), a, b)), "statevector")


@settings(max_examples=25, deadline=None)
@given(a=weighted_graphs(1, 3), b=weighted_graphs(1, 3), r_tot=r_tots)
def test_ideal_union_factorizes(a, b, r_tot):
    schedule = make_schedule(CYCLES, r_tot)
    assert_union_factorizes(*(anneal_ideal(g, schedule) for g in (disjoint_union(a, b), a, b)),
                            "ideal")


# Parts of at most 4 and 5 variables take the Walsh matmul mixer; their union of
# 8 or 9 takes the frame pass.
@settings(max_examples=15, deadline=None)
@given(data=st.data(), sizes=st.sampled_from([(3, 5), (4, 4), (4, 5)]), r_tot=r_tots)
def test_qubo_union_factorizes(data, sizes, r_tot):
    q1, q2 = (data.draw(qubos(n)) for n in sizes)
    q = np.zeros((sum(sizes),) * 2)
    q[:sizes[0], :sizes[0]], q[sizes[0]:, sizes[0]:] = q1, q2
    assert_union_factorizes(*(qubo_anneal(x, CYCLES, r_tot) for x in (q, q1, q2)), "qubo")


@settings(max_examples=25, deadline=None)
@given(data=st.data(), g=weighted_graphs(2, 6), r_tot=r_tots, phi_q=phi_qs)
def test_statevector_relabeling_permutes(data, g, r_tot, phi_q):
    perm = data.draw(st.permutations(range(g.n_vertices)))
    schedule = make_schedule(CYCLES, r_tot)
    assert_relabeling_permutes(*(anneal_statevector(x, schedule, phi_q)
                                 for x in (g, relabeled_graph(g, perm))), perm, "statevector")


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), r_tot=r_tots)
def test_qubo_relabeling_permutes(data, n, r_tot):
    q = data.draw(qubos(n))
    perm = data.draw(st.permutations(range(n)))
    relabeled = np.empty_like(q)
    relabeled[np.ix_(perm, perm)] = q
    assert_relabeling_permutes(*(qubo_anneal(x, CYCLES, r_tot) for x in (q, relabeled)), perm,
                               "qubo")
