"""Compilation of constraint schedules onto the two-nonlinear-element
time-bin architecture.

Logical modes ride in a train of time bins spaced by a base delay D.  Each
round, one switched delay stage reorders the train (an odd-even transposition
step), and each adjacent pair routed together either interacts through the
nonlinear element (a constraint) or passes through untouched (identity).
Both block types add a total delay of 3D/2 per bin; the switch settings per
incident bin are:

    constraint: first bin 0,0,0,0   second bin 1,1,1,1
    identity:   first bin 0,0,0,0   second bin 0,1,1,0

Switches are stateless per bin event: each row below is one bin's pass
through S1..S4, with 0 = top channel and 1 = bottom channel.  Positions are
counted from the back of the train (position 0 arrives last).
"""

from __future__ import annotations

from dataclasses import dataclass

from .problems import ProblemGraph

CONSTRAINT_ROWS = ((0, 0, 0, 0), (1, 1, 1, 1))
IDENTITY_ROWS = ((0, 0, 0, 0), (0, 1, 1, 0))

# Every interaction/identity block delays each bin by 3 half-units of D.
BLOCK_DELAY_HALF_D = 3


@dataclass
class Round:
    """One round's decisions; ``pairs`` are (a, a + 1, "constraint" | "identity")."""

    index: int
    order_before: list[int]
    order_after: list[int]
    delays: list[int]
    pairs: list[tuple[int, int, str]]

    def events(self):
        """Each bin's (position, mode, settings, block, role), position 0 first;
        a bin in no pair traverses the unit alone with identity-first settings."""
        paired = {}
        for a, b, kind in self.pairs:
            rows = CONSTRAINT_ROWS if kind == "constraint" else IDENTITY_ROWS
            # Higher position = closer to the train front = first at the unit.
            paired[b] = (rows[0], kind, "first")
            paired[a] = (rows[1], kind, "second")
        for pos, mode in enumerate(self.order_before):
            yield (pos, mode, *paired.get(pos, (IDENTITY_ROWS[0], "identity", "solo")))


@dataclass
class SwitchProgram:
    n_bins: int
    rounds: list[Round]


def shuffle_delays(n: int, round_index: int) -> list[int]:
    """Per-position delays (units of D) for one reordering round.

    Positions whose parity matches the round get the 2D shift that moves
    them one slot toward the back; the two train endpoints get D instead so
    they stay adjacent to their neighbours.
    """
    r = round_index % 2
    delays = []
    for i in range(n):
        if i % 2 == r:
            delays.append(1 if i == 0 else 2)
        elif i == n - 1:
            delays.append(1)
        else:
            delays.append(0)
    return delays


def apply_delays(order: list[int], delays: list[int]) -> list[int]:
    """New train order after the delays; checks the D spacing survives."""
    n = len(order)
    # Position i from the back sits at arrival time (n - 1 - i) * D.
    times = [(n - 1 - i) + delays[i] for i in range(n)]
    if len(set(times)) != n:
        raise ValueError("delays collide two bins onto one time slot")
    ranked = sorted(range(n), key=lambda i: times[i], reverse=True)
    spaced = sorted(times, reverse=True)
    if any(spaced[i] - spaced[i + 1] != 1 for i in range(n - 1)):
        raise ValueError("delays broke the uniform D spacing of the train")
    return [order[i] for i in ranked]


def all_pairs_shuffle(n: int):
    """n rounds of alternating odd/even shifts covering every unordered pair.

    Returns a list of (delays, order_before, order_after, eligible_pairs)
    tuples, where eligible_pairs are the adjacent position pairs that may
    interact in that round.
    """
    if n < 2:
        raise ValueError("need at least two bins")
    order = list(range(n))
    rounds = []
    for r in range(n):
        delays = shuffle_delays(n, r)
        after = apply_delays(order, delays)
        rounds.append({
            "delays": delays,
            "order_before": list(order),
            "order_after": after,
            "eligible_pairs": [(d - 1, d) for d in range(1, n) if delays[d] == 2],
        })
        order = after
    return rounds


def _pair_faults(n_bins: int, pairs):
    """Why each malformed pair fails: (a, a + 1) inside the train, one pair a bin."""
    seen: set[int] = set()
    for a, b, *_ in pairs:
        if b != a + 1:
            yield f"pair ({a}, {b}) is not adjacent"
        elif a in seen or b in seen:
            yield f"bin {a if a in seen else b} assigned to two pairs"
        elif a < 0 or b >= n_bins:
            yield f"pair ({a}, {b}) out of range"
        seen.update((a, b))


def compile_round(n_bins: int, pairs, interact, order=None,
                  round_index: int = 0, delays=None) -> Round:
    """Emit one round of switch settings.

    ``pairs`` are disjoint adjacent position pairs; ``interact[i]`` selects a
    constraint block for pairs[i], otherwise an identity block.
    """
    order = list(order) if order is not None else list(range(n_bins))
    if len(order) != n_bins:
        raise ValueError("order length does not match n_bins")
    pairs = [tuple(p) for p in pairs]
    interact = list(interact)
    if len(pairs) != len(interact):
        raise ValueError("need one interact flag per pair")
    for fault in _pair_faults(n_bins, pairs):
        raise ValueError(fault)
    delays = list(delays) if delays is not None else [0] * n_bins
    after = apply_delays(order, delays) if any(delays) else list(order)
    return Round(round_index, order, after, delays,
                 [(a, b, "constraint" if flag else "identity")
                  for (a, b), flag in zip(pairs, interact)])


def compile_graph_program(graph: ProblemGraph, n_bins: int | None = None) -> SwitchProgram:
    """Full program: run the all-pairs shuffle, interacting exactly the edges.

    Sparse graphs still run the complete shuffle (correct, just not minimal);
    tailored reorderings are a separate compilation problem.
    """
    n = n_bins if n_bins is not None else graph.n_vertices
    if n < graph.n_vertices:
        raise ValueError("not enough bins for the graph")
    rounds = []
    for r, info in enumerate(all_pairs_shuffle(n)):
        order, pairs = info["order_before"], info["eligible_pairs"]
        flags = [tuple(sorted((order[a], order[b]))) in graph.edges for a, b in pairs]
        rounds.append(compile_round(n, pairs, flags, order, r, info["delays"]))
    return SwitchProgram(n, rounds)


@dataclass
class VerificationReport:
    violations: list[str]
    edges_covered: set[tuple[int, int]]
    constraints_applied: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_program(program: SwitchProgram, graph: ProblemGraph) -> VerificationReport:
    """Check a program realizes exactly the graph's edges.

    Violations reported: an order or delay list that is not one entry a bin,
    a round 0 that does not start at 0..n-1 or a later one that does not take
    up the train as the last left it, pairs that are not adjacent, leave the
    train, share a bin or name an unknown block kind, delay bookkeeping that
    does not reproduce the recorded reordering, edges never realized, and
    constraints applied between non-adjacent vertices.
    """
    violations: list[str] = []
    covered: set[tuple[int, int]] = set()
    applied: list[tuple[int, int]] = []
    n = program.n_bins
    order, left_by = list(range(n)), "the train's start"  # the order the next round takes up
    for rnd in program.rounds:
        faults = [f"{name} has {len(entries)} entries for {n} bins"
                  for name, entries in (("order_before", rnd.order_before),
                                        ("delays", rnd.delays)) if len(entries) != n]
        faults += _pair_faults(n, rnd.pairs)
        violations += (f"round {rnd.index}: {fault}" for fault in faults)
        if len(rnd.order_before) == n and rnd.order_before != order:
            got, want = (" ".join(map(str, o)) for o in (rnd.order_before, order))
            violations.append(f"round {rnd.index}: order_before {got} is not {left_by} {want}")
        order, left_by = rnd.order_after, f"round {rnd.index}'s order_after"
        if faults:
            continue
        for (a, b, kind) in rnd.pairs:
            if kind == "constraint":
                edge = tuple(sorted((rnd.order_before[a], rnd.order_before[b])))
                applied.append(edge)
                if edge in graph.edges:
                    covered.add(edge)
                else:
                    violations.append(f"round {rnd.index}: constraint between non-edge {edge}")
            elif kind != "identity":
                violations.append(f"round {rnd.index}: pair ({a}, {b}) has block kind {kind!r}")
        try:
            after = apply_delays(rnd.order_before, rnd.delays)
        except ValueError as exc:
            violations.append(f"round {rnd.index}: {exc}")
            continue
        if after != rnd.order_after:
            violations.append(f"round {rnd.index}: recorded reordering does not "
                              "follow from the recorded delays")
    for edge in sorted(graph.edges):
        if edge not in covered:
            violations.append(f"edge {edge} never realized by a constraint block")
    return VerificationReport(violations, covered, applied)


def render_program(program: SwitchProgram) -> str:
    """Deterministic line-oriented text form of a program.

    Each round's rows are joined into one string as they are made, so the
    text is never also held as one string a row.
    """
    lines = [
        "# time-bin switch program",
        f"# n_bins {program.n_bins}",
        "# columns: round position mode s1 s2 s3 s4 block role "
        "block_delay_half_d shuffle_delay_half_d",
    ]
    for rnd in program.rounds:
        lines.append(f"# round {rnd.index} order_before "
                     + " ".join(map(str, rnd.order_before))
                     + " order_after " + " ".join(map(str, rnd.order_after)))
        lines.append("\n".join(
            f"{rnd.index} {pos} {mode} {s1} {s2} {s3} {s4} {block} {role} "
            f"{BLOCK_DELAY_HALF_D} {2 * rnd.delays[pos]}"
            for pos, mode, (s1, s2, s3, s4), block, role in rnd.events()))
    lines.append("")
    return "\n".join(lines)
