import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zenoanneal import experiments, problems, propagator
from zenoanneal.experiments import mitigation_rows
from zenoanneal.problems import (brute_force_mis, brute_force_wmis,
                                 complete_graph, five_node_example,
                                 graph_from_edges, loss_injection_batch,
                                 parse_edge_list, parse_qubo, three_node_line)

from oracles import (brute_force_qubo, loop_brute_force_mis, loop_brute_force_qubo,
                     loop_brute_force_wmis, loop_mitigation_rows,
                     loss_injection_experiment, mitigation_decode, mitigation_encode,
                     qubo_energy)


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 1)], weights=(1.0, -2.0))
    with pytest.raises(ValueError, match="one weight per vertex"):
        graph_from_edges(2, [(0, 1)], weights=(1.0,))


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
def test_graph_rejects_weights_that_are_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        graph_from_edges(2, [(0, 1)], weights=(1.0, bad))


def test_mis_three_node_line():
    value, optima = brute_force_mis(three_node_line())
    assert value == 2
    assert optima == [frozenset({0, 2})]


def test_mis_five_node_example():
    value, optima = brute_force_mis(five_node_example())
    assert value == 3
    assert optima == [frozenset({0, 3, 4})]


def test_mis_edgeless_graph():
    value, optima = brute_force_mis(graph_from_edges(4, []))
    assert value == 4
    assert optima == [frozenset({0, 1, 2, 3})]


def test_mis_size_guard():
    with pytest.raises(ValueError):
        brute_force_mis(graph_from_edges(25, []))


def test_wmis_weighted_and_degenerate():
    g = graph_from_edges(2, [(0, 1)], weights=(1.5, 1.0))
    value, optima = brute_force_wmis(g)
    assert value == 1.5 and optima == [frozenset({0})]
    g = graph_from_edges(2, [(0, 1)], weights=(1.0, 1.0))
    value, optima = brute_force_wmis(g)
    assert value == 1.0
    assert set(optima) == {frozenset({0}), frozenset({1})}


def test_qubo_energy_double_counts_off_diagonal():
    q = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert qubo_energy(q, (1, 1)) == 6.0


def test_brute_force_qubo():
    q = np.array([[-1.0, 3.0], [3.0, -1.0]])
    best, optima = brute_force_qubo(q)
    assert best == -1.0
    assert set(optima) == {(1, 0), (0, 1)}


def test_parse_edge_list():
    g = parse_edge_list("# comment\n0 1\n1 2 0.5\n")
    assert g.n_vertices == 3
    assert g.edges == three_node_line().edges
    with pytest.raises(ValueError):
        parse_edge_list("0\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_parse_qubo():
    q = parse_qubo("1 2\n2 4\n")
    assert q.shape == (2, 2)
    with pytest.raises(ValueError):
        parse_qubo("1 2 3")


def test_encode_single_copy_isomorphic():
    g = three_node_line()
    enc = mitigation_encode(g, 1)
    assert enc.n_vertices == 3
    assert enc.edges == g.edges


def test_encode_counts():
    enc = mitigation_encode(three_node_line(), 3)
    assert enc.n_vertices == 9
    assert len(enc.edges) == 2 * 9


def test_encode_nested_edge_count():
    g = three_node_line()
    a, b = 2, 3
    nested = mitigation_encode(mitigation_encode(g, a), b)
    assert len(nested.edges) == len(g.edges) * (a * b) ** 2


def test_encoded_optimum_scales_with_copies():
    g = three_node_line()
    base, _ = brute_force_mis(g)
    for n_copy in (2, 3):
        value, _ = brute_force_mis(mitigation_encode(g, n_copy))
        assert value == n_copy * base


def test_decode_any_copy_selects_vertex():
    sample = [1, 0, 0, 0, 0, 1]
    assert mitigation_decode(sample, 2) == frozenset({0, 2})
    with pytest.raises(ValueError):
        mitigation_decode([1, 0, 0], 2)


def test_loss_injection_empty_pattern_succeeds():
    out = loss_injection_experiment(three_node_line(), 2, [])
    assert out["success"] and out["independent"]


def test_loss_injection_rejects_adding_photons():
    # vertex 1 has no photon in the encoded optimum, so its copies hold 0
    with pytest.raises(ValueError):
        loss_injection_experiment(three_node_line(), 2, [2])


def test_loss_patterns_exhaustive_small_instances():
    g = three_node_line()
    _, optima = brute_force_mis(g)
    optimum = optima[0]
    for n_copy in (1, 2, 3):
        enc = mitigation_encode(g, n_copy)
        _, enc_optima = brute_force_mis(enc)
        support = sorted(min(enc_optima, key=sorted))
        for pattern_bits in range(1 << len(support)):
            lost = [support[b] for b in range(len(support))
                    if (pattern_bits >> b) & 1]
            out = loss_injection_experiment(g, n_copy, lost)
            assert out["independent"]
            survivors = set(support) - set(lost)
            survived_vertices = {v // n_copy for v in survivors}
            if survived_vertices == optimum:
                assert out["success"]
            else:
                assert not out["success"]
                assert out["decoded"] < optimum


def test_complete_graph_structure():
    g = complete_graph(5)
    assert len(g.edges) == 10
    value, _ = brute_force_mis(g)
    assert value == 1


# The loop oracles keep a running best and the array solvers compare with
# the overall best, so the two tie rules agree when distinct values lie more
# than 2e-12 apart; quarter-integer weights and integer Q keep every sum
# exact and every distinct value at least 0.25 apart, and still give ties.
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), edge_bits=st.integers(0, 2 ** 45 - 1),
       quarters=st.none() | st.lists(st.integers(1, 8), min_size=10, max_size=10))
@example(n=10, edge_bits=0, quarters=None)
@example(n=10, edge_bits=2 ** 45 - 1, quarters=None)
@example(n=9, edge_bits=0, quarters=[3] * 10)
@example(n=8, edge_bits=2 ** 45 - 1, quarters=[1, 2, 3, 4, 4, 3, 2, 1, 5, 6])
def test_solvers_match_the_loop_oracles(n, edge_bits, quarters):
    edges = [e for b, e in enumerate(combinations(range(n), 2)) if edge_bits >> b & 1]
    weights = None if quarters is None else [k / 4 for k in quarters[:n]]
    g = graph_from_edges(n, edges, weights)
    size, optima = brute_force_mis(g)
    ref_size, ref_optima = loop_brute_force_mis(g)
    assert type(size) is int and size == ref_size
    assert set(optima) == set(ref_optima) and len(optima) == len(ref_optima)
    value, optima = brute_force_wmis(g)
    ref_value, ref_optima = loop_brute_force_wmis(g)
    assert value == ref_value
    assert set(optima) == set(ref_optima) and len(optima) == len(ref_optima)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
    .map(lambda v: np.array(v, dtype=float).reshape(n, n))))
@example(q=np.zeros((8, 8)))
def test_qubo_solver_matches_the_loop_oracle(q):
    best, optima = brute_force_qubo(q)
    ref_best, ref_optima = loop_brute_force_qubo(q)
    assert best == ref_best
    assert set(optima) == set(ref_optima) and len(optima) == len(ref_optima)


@pytest.mark.parametrize("graph, n_copies", [(three_node_line(), [1, 2, 3]),
                                             (five_node_example(), [1, 2])],
                         ids=["line", "five-node"])
def test_mitigation_rows_match_the_per_pattern_oracle(graph, n_copies):
    assert mitigation_rows(graph, n_copies) == loop_mitigation_rows(graph, n_copies)


# The encoded search reaches 2^18 assignments at n = 6 and n_copy = 3; its
# first optimum must be every copy of the graph's own first optimum.
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), edge_bits=st.integers(0, 2 ** 15 - 1), n_copy=st.integers(1, 3))
@example(n=6, edge_bits=0, n_copy=2)
@example(n=6, edge_bits=2 ** 15 - 1, n_copy=3)
def test_mitigation_rows_match_the_oracle_on_random_graphs(n, edge_bits, n_copy):
    edges = [e for b, e in enumerate(combinations(range(n), 2)) if edge_bits >> b & 1]
    g = graph_from_edges(n, edges)
    assert mitigation_rows(g, [n_copy]) == loop_mitigation_rows(g, [n_copy])


def test_loss_study_bytes_are_guarded_before_the_pattern_table(monkeypatch):
    # three_node_line at two copies: 4 photons, 9 * 4 + 3 * 3 + 32 bytes a pattern
    nbytes = 77 << 4
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes)
    assert len(mitigation_rows(three_node_line(), [2])[1]) == 16
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes - 1)
    monkeypatch.setattr(experiments, "_bit_table", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match=f"4-photon loss study would take {nbytes} bytes"):
        mitigation_rows(three_node_line(), [2])


def test_mitigation_rows_reject_zero_copies():
    with pytest.raises(ValueError, match="n_copy must be at least 1"):
        mitigation_rows(three_node_line(), [1, 0])


@settings(max_examples=50, deadline=None)
@given(edges=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))
                     .filter(lambda e: e[0] != e[1]), min_size=1),
       weights=st.booleans(), data=st.data())
def test_edge_list_text_round_trips(edges, weights, data):
    g = graph_from_edges(max(map(max, edges)) + 1, edges)
    lines = [f"{u} {v}" + (" 2.5" if weights else "") for u, v in
             data.draw(st.permutations(sorted(edges)), label="order")]
    text = "# edges\n" + "\n".join(lines) + "\n\n"
    parsed = parse_edge_list(text)
    assert parsed == g


def test_loss_injection_batch_scores_every_row():
    g = three_node_line()
    samples = [[1, 1, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0],
               [0, 0, 0, 0, 0, 0]]
    out = loss_injection_batch(g, 2, samples)
    assert out["decoded"].tolist() == [[True, False, True], [True, False, False],
                                       [True, True, False], [False, False, False]]
    assert out["success"].tolist() == [True, False, False, False]
    assert out["independent"].tolist() == [True, True, False, True]


@pytest.mark.parametrize("n", [1, 2, 5, 7, 9])
def test_scorers_are_the_same_in_every_slab(monkeypatch, n):
    # Slab row counts stay multiples of 16: OpenBLAS sums a slab of 1 or 3
    # rows in another order, which moves energies by about 1e-14 (measured).
    # 48 leaves a partial last slab whenever 2^n > 48.
    rng = np.random.default_rng(n)
    q = rng.normal(size=(n, n))
    graph = graph_from_edges(n, [(j, j + 1) for j in range(n - 1)],
                             weights=rng.uniform(0.5, 2.0, n))
    bits = problems._bit_table(n)
    energy = ((bits @ q) * bits).sum(axis=1)  # the unslabbed formulas
    number = bits @ graph.weights
    for slab in (16, 48, 1 << n):
        monkeypatch.setattr(problems, "SCORE_SLAB_ROWS", slab)
        got_energy, optimal = problems._qubo_scores(q)
        violations, got_number, wmis_optimal = problems._wmis_scores(graph)
        assert np.array_equal(got_energy, energy) and np.array_equal(got_number, number)
        assert np.array_equal(optimal, energy <= energy.min() + 1e-12)
        value = np.where(violations == 0, number, -np.inf)
        assert np.array_equal(wmis_optimal, value >= value.max() - 1e-12)


def test_scorers_keep_no_float_table_past_one_slab():
    # no (2^n, n) table is built: the peak is a few per-pattern arrays
    # (7.25 float arrays of 2^n measured at n = 17), not n of them
    n = 17
    q = np.random.default_rng(0).normal(size=(n, n))
    graph = graph_from_edges(n, [(0, 1)], weights=np.full(n, 1.5))
    eight_arrays = 8 * (8 << n)
    for score in (lambda: problems._qubo_scores(q), lambda: problems._wmis_scores(graph)):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < eight_arrays
