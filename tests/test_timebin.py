from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from zenoanneal.problems import complete_graph, graph_from_edges, three_node_line
from zenoanneal.timebin import (CONSTRAINT_ROWS, IDENTITY_ROWS,
                                all_pairs_shuffle, apply_delays,
                                compile_graph_program, compile_round,
                                render_program, verify_program)


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


def bins(rnd):
    """Position -> (settings, block, role) of each bin in one round."""
    return {pos: (settings, block, role) for pos, _, settings, block, role in rnd.events()}


def test_compile_round_constraint_rows():
    by_pos = bins(compile_round(2, [(0, 1)], [True]))
    assert by_pos[1][0] == CONSTRAINT_ROWS[0]  # front bin arrives first
    assert by_pos[0][0] == CONSTRAINT_ROWS[1]


def test_compile_round_identity_rows():
    by_pos = bins(compile_round(2, [(0, 1)], [False]))
    assert by_pos[1][0] == IDENTITY_ROWS[0]
    assert by_pos[0][0] == IDENTITY_ROWS[1]


def test_compile_round_four_bins_partial_interaction():
    by_pos = bins(compile_round(4, [(0, 1), (2, 3)], [True, False]))
    assert by_pos[0] == (CONSTRAINT_ROWS[1], "constraint", "second")
    assert by_pos[1] == (CONSTRAINT_ROWS[0], "constraint", "first")
    assert by_pos[2] == (IDENTITY_ROWS[1], "identity", "second")
    assert by_pos[3] == (IDENTITY_ROWS[0], "identity", "first")


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
    assert all(block == "identity" for rnd in program.rounds for *_, block, _ in rnd.events())
    assert verify_program(program, g).ok


def test_tampered_switch_bit_flagged():
    # round 1 routes modes 0 and 2 through an identity block; making it a
    # constraint block flips the second bin's switch row to all ones
    g = three_node_line()
    program = compile_graph_program(g)
    rnd = program.rounds[1]
    assert rnd.pairs == [(0, 1, "identity")]
    rnd.pairs[0] = (0, 1, "constraint")
    assert bins(rnd)[0] == (CONSTRAINT_ROWS[1], "constraint", "second")
    report = verify_program(program, g)
    assert report.violations == ["round 1: constraint between non-edge (0, 2)"]


@pytest.mark.parametrize("field, value, fault", [
    ("pairs", [(0, 2, "constraint")], "pair (0, 2) is not adjacent"),
    ("pairs", [(2, 3, "constraint")], "pair (2, 3) out of range"),
    ("pairs", [(-1, 0, "identity"), (1, 2, "constraint")], "pair (-1, 0) out of range"),
    ("pairs", [(0, 1, "identity"), (1, 2, "constraint")], "bin 1 assigned to two pairs"),
    ("delays", [1, 0], "delays has 2 entries for 3 bins"),
    ("order_before", [0, 1, 2, 3], "order_before has 4 entries for 3 bins"),
], ids=["not-adjacent", "out-of-range", "negative", "overlapping", "short-delays",
        "long-order"])
def test_malformed_round_is_reported_not_raised(field, value, fault):
    # round 0 of the line realizes edge (1, 2), which no other round does
    g = three_node_line()
    program = compile_graph_program(g)
    setattr(program.rounds[0], field, value)
    report = verify_program(program, g)
    assert report.violations == [f"round 0: {fault}",
                                 "edge (1, 2) never realized by a constraint block"]


def test_train_reordered_between_rounds_is_flagged():
    # round 2 of the line takes up the train as 2 1 0, not as round 1 left it
    # (2 0 1), with the order_after its own delays make; its constraint still
    # meets modes 0 and 1, so only the continuity check sees it
    g = three_node_line()
    program = compile_graph_program(g)
    rnd = program.rounds[2]
    rnd.order_before = [2, 1, 0]
    rnd.order_after = apply_delays(rnd.order_before, rnd.delays)
    report = verify_program(program, g)
    assert report.violations == ["round 2: order_before 2 1 0 is not round 1's order_after 2 0 1"]
    assert report.edges_covered == g.edges


def test_train_not_starting_in_bin_order_is_flagged():
    # the line's rounds replayed on a train that starts as 1 0 2: each later
    # round takes up the order the last one left, so only round 0 is out of order
    g = three_node_line()
    program = compile_graph_program(g)
    program.rounds[0].order_before = [1, 0, 2]
    for rnd, after in zip(program.rounds, program.rounds[1:] + [None]):
        rnd.order_after = apply_delays(rnd.order_before, rnd.delays)
        if after is not None:
            after.order_before = rnd.order_after
    report = verify_program(program, g)
    assert report.violations == ["round 0: order_before 1 0 2 is not the train's start 0 1 2",
                                 "round 0: constraint between non-edge (0, 2)",
                                 "edge (1, 2) never realized by a constraint block"]


@pytest.mark.parametrize("kind", ["swap", "Constraint", ""])
def test_unknown_pair_kind_flagged(kind):
    # round 1 routes modes 0 and 2, a non-edge, through an identity block
    g = three_node_line()
    program = compile_graph_program(g)
    program.rounds[1].pairs[0] = (0, 1, kind)
    report = verify_program(program, g)
    assert report.violations == [f"round 1: pair (0, 1) has block kind {kind!r}"]


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


THREE_NODE_LINE_PROGRAM = """\
# time-bin switch program
# n_bins 3
# columns: round position mode s1 s2 s3 s4 block role block_delay_half_d shuffle_delay_half_d
# round 0 order_before 0 1 2 order_after 0 2 1
0 0 0 0 0 0 0 identity solo 3 2
0 1 1 1 1 1 1 constraint second 3 0
0 2 2 0 0 0 0 constraint first 3 4
# round 1 order_before 0 2 1 order_after 2 0 1
1 0 0 0 1 1 0 identity second 3 0
1 1 2 0 0 0 0 identity first 3 4
1 2 1 0 0 0 0 identity solo 3 2
# round 2 order_before 2 0 1 order_after 2 1 0
2 0 2 0 0 0 0 identity solo 3 2
2 1 0 1 1 1 1 constraint second 3 0
2 2 1 0 0 0 0 constraint first 3 4
"""

FOUR_VERTICES_ON_FIVE_BINS_PROGRAM = """\
# time-bin switch program
# n_bins 5
# columns: round position mode s1 s2 s3 s4 block role block_delay_half_d shuffle_delay_half_d
# round 0 order_before 0 1 2 3 4 order_after 0 2 1 4 3
0 0 0 0 0 0 0 identity solo 3 2
0 1 1 1 1 1 1 constraint second 3 0
0 2 2 0 0 0 0 constraint first 3 4
0 3 3 0 1 1 0 identity second 3 0
0 4 4 0 0 0 0 identity first 3 4
# round 1 order_before 0 2 1 4 3 order_after 2 0 4 1 3
1 0 0 0 1 1 0 identity second 3 0
1 1 2 0 0 0 0 identity first 3 4
1 2 1 0 1 1 0 identity second 3 0
1 3 4 0 0 0 0 identity first 3 4
1 4 3 0 0 0 0 identity solo 3 2
# round 2 order_before 2 0 4 1 3 order_after 2 4 0 3 1
2 0 2 0 0 0 0 identity solo 3 2
2 1 0 0 1 1 0 identity second 3 0
2 2 4 0 0 0 0 identity first 3 4
2 3 1 0 1 1 0 identity second 3 0
2 4 3 0 0 0 0 identity first 3 4
# round 3 order_before 2 4 0 3 1 order_after 4 2 3 0 1
3 0 2 0 1 1 0 identity second 3 0
3 1 4 0 0 0 0 identity first 3 4
3 2 0 1 1 1 1 constraint second 3 0
3 3 3 0 0 0 0 constraint first 3 4
3 4 1 0 0 0 0 identity solo 3 2
# round 4 order_before 4 2 3 0 1 order_after 4 3 2 1 0
4 0 4 0 0 0 0 identity solo 3 2
4 1 2 0 1 1 0 identity second 3 0
4 2 3 0 0 0 0 identity first 3 4
4 3 0 1 1 1 1 constraint second 3 0
4 4 1 0 0 0 0 constraint first 3 4
"""


def test_render_program_text_is_pinned():
    assert render_program(compile_graph_program(three_node_line())) == THREE_NODE_LINE_PROGRAM
    g = graph_from_edges(4, [(0, 1), (0, 3), (1, 2)])
    assert render_program(compile_graph_program(g, 5)) == FOUR_VERTICES_ON_FIVE_BINS_PROGRAM


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
