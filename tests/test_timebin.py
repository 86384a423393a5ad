from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from zenoanneal.problems import complete_graph, graph_from_edges, three_node_line
from zenoanneal.timebin import (BLOCK_DELAY_HALF_D, CONSTRAINT_ROWS,
                                IDENTITY_ROWS, all_pairs_shuffle,
                                apply_delays, compile_graph_program,
                                compile_round, render_program, verify_program)


def covered_pairs(n):
    got = set()
    for info in all_pairs_shuffle(n):
        order = info["order_before"]
        for (a, b) in info["eligible_pairs"]:
            got.add(frozenset((order[a], order[b])))
    return got


def test_two_bins_single_adjacency():
    assert covered_pairs(2) == {frozenset((0, 1))}


def test_five_bins_full_coverage_in_five_rounds():
    rounds = all_pairs_shuffle(5)
    assert len(rounds) == 5
    assert covered_pairs(5) == {frozenset(p) for p in combinations(range(5), 2)}


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_full_pair_coverage_exhaustive(n):
    assert covered_pairs(n) == {frozenset(p) for p in combinations(range(n), 2)}


def test_shuffle_delays_are_permutations_with_spacing():
    for n in (3, 4, 5, 8):
        order = list(range(n))
        for info in all_pairs_shuffle(n):
            after = apply_delays(info["order_before"], info["delays"])
            assert sorted(after) == order
            assert after == info["order_after"]
            assert set(info["delays"]) <= {0, 1, 2}


def test_compile_round_constraint_rows():
    rnd = compile_round(2, [(0, 1)], [True])
    by_pos = {e.position: e for e in rnd.events}
    assert by_pos[1].settings == CONSTRAINT_ROWS[0]  # front bin arrives first
    assert by_pos[0].settings == CONSTRAINT_ROWS[1]


def test_compile_round_identity_rows():
    rnd = compile_round(2, [(0, 1)], [False])
    by_pos = {e.position: e for e in rnd.events}
    assert by_pos[1].settings == IDENTITY_ROWS[0]
    assert by_pos[0].settings == IDENTITY_ROWS[1]


def test_compile_round_four_bins_partial_interaction():
    rnd = compile_round(4, [(0, 1), (2, 3)], [True, False])
    by_pos = {e.position: e for e in rnd.events}
    assert by_pos[0].block == "constraint"
    assert by_pos[2].block == "identity" and by_pos[3].block == "identity"
    assert all(e.block_delay_half_d == BLOCK_DELAY_HALF_D for e in rnd.events)


def test_compile_round_conflicting_pairs_rejected():
    with pytest.raises(ValueError):
        compile_round(3, [(0, 1), (1, 2)], [True, True])
    with pytest.raises(ValueError):
        compile_round(3, [(0, 2)], [True])


def test_compile_complete_graph_verifies():
    g = complete_graph(5)
    program = compile_graph_program(g)
    report = verify_program(program, g)
    assert report.ok
    assert report.edges_covered == set(g.edges)


def test_compile_sparse_graph_no_extra_interactions():
    g = three_node_line()
    program = compile_graph_program(g)
    report = verify_program(program, g)
    assert report.ok
    assert set(report.constraints_applied) <= set(g.edges)


def test_empty_edge_set_all_identity():
    g = graph_from_edges(4, [])
    program = compile_graph_program(g)
    assert all(e.block == "identity" for rnd in program.rounds for e in rnd.events)
    assert verify_program(program, g).ok


def test_tampered_switch_bit_flagged():
    g = three_node_line()
    program = compile_graph_program(g)
    target = None
    for rnd in program.rounds:
        for i, e in enumerate(rnd.events):
            if e.role == "second" and e.block == "constraint":
                target = (rnd, i, e)
                break
        if target:
            break
    rnd, i, e = target
    rnd.events[i] = type(e)(e.position, e.mode, (1, 1, 1, 0), e.block, e.role,
                            e.block_delay_half_d, e.shuffle_delay_half_d)
    report = verify_program(program, g)
    assert not report.ok
    assert any("settings" in v for v in report.violations)


def test_missing_edge_flagged():
    g = three_node_line()
    program = compile_graph_program(graph_from_edges(3, [(0, 1)]))
    report = verify_program(program, g)
    assert not report.ok
    assert any("never realized" in v for v in report.violations)


def test_render_program_deterministic():
    g = complete_graph(4)
    a = render_program(compile_graph_program(g))
    b = render_program(compile_graph_program(g))
    assert a == b
    assert "# n_bins 4" in a
    data_lines = [ln for ln in a.splitlines() if ln and not ln.startswith("#")]
    assert len(data_lines) == 4 * 4  # n rounds x n bins


# Random graphs on 2 to 12 vertices (the compiler needs two bins or more),
# compiled onto their own bin count or up to two more.
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), edge_bits=st.integers(0, 2 ** 66 - 1), extra_bins=st.integers(0, 2))
def test_compiled_programs_verify_on_random_graphs(n, edge_bits, extra_bins):
    edges = [e for b, e in enumerate(combinations(range(n), 2)) if edge_bits >> b & 1]
    g = graph_from_edges(n, edges)
    report = verify_program(compile_graph_program(g, n + extra_bins), g)
    assert report.ok and report.violations == []
    assert report.edges_covered == g.edges
