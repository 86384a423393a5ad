"""The four benchmark workloads: seeded inputs, one sweep call per op, checks.

Every op is built from ``(seed, workload, op index)`` alone, so a seed fixes
the whole input stream.  The op index also picks the op's *class* cyclically
(``index % len(CLASSES)``): each class fixes the shapes that drive cost (cycle
counts, graph size, grid lengths) and the seed draws everything else.  All
ops of a class therefore cost the same work on every seed, and the runner
times each class many times in a run (see ``run.py``).

A workload object exposes:

* ``make_op(seed, index)`` -> op dict (plain data, no program objects),
* ``warm_up()``            -> one small call through the same code paths,
* ``run(op)``              -> list of output rows (tuples of str/int/float),
* ``check(op, rows)``      -> list of invariant violations (empty when fine),
* ``reference_view(rows)`` -> the part of the rows stored as reference output.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from zenoanneal import anneal, experiments, gadgets, problems

# Slack for floating-point round-off in the invariant checks.
TOL = 1e-8


def _rng(seed: int, workload_index: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_index, index])


def _random_graph(rng, n_vertices: int, n_edges: int, connected: bool):
    pairs = list(combinations(range(n_vertices), 2))
    while True:
        picked = sorted(rng.choice(len(pairs), size=n_edges, replace=False))
        edges = [pairs[k] for k in picked]
        if not connected or _is_connected(n_vertices, edges):
            return [list(e) for e in edges]


def _is_connected(n: int, edges) -> bool:
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


def _graph(op) -> problems.ProblemGraph:
    return problems.graph_from_edges(op["n_vertices"], [tuple(e) for e in op["edges"]])


def _in_unit(p: float) -> bool:
    return -TOL <= p <= 1.0 + TOL


class Workload:
    def reference_view(self, rows) -> list:
        return rows


class MisPure(Workload):
    """Five-node ideal-vs-phase sweeps on the pure-state paths only."""

    name = "mis-pure"
    # (cycle counts, r-grid length).  Few classes, so each is timed many
    # times in a run.
    CLASSES = (((256, 512), 2), ((256, 1024), 3), ((256, 512, 1024), 2))

    def make_op(self, seed: int, index: int) -> dict:
        rng = _rng(seed, 0, index)
        n_cycles, n_r = self.CLASSES[index % len(self.CLASSES)]
        # The critical rotation grows linearly with the cycle count, so the
        # grid's upper end does too.
        r_hi = math.pi * max(n_cycles) * rng.uniform(0.1, 0.3)
        return {"n_vertices": 5, "edges": _random_graph(rng, 5, 6, connected=True),
                "n_cycles": list(n_cycles),
                "r_grid": np.linspace(2 * math.pi, r_hi, n_r).tolist()}

    def warm_up(self) -> None:
        experiments.ideal_vs_phase_rows(problems.five_node_example(), [8, 16],
                                        [2 * math.pi, 4 * math.pi])

    def run(self, op) -> list:
        _, rows, _, _ = experiments.ideal_vs_phase_rows(
            _graph(op), op["n_cycles"], op["r_grid"])
        return rows

    def check(self, op, rows) -> list[str]:
        bad = []
        n_c, n_r = len(op["n_cycles"]), len(op["r_grid"])
        if len(rows) != n_c * n_r + n_c + 1:
            return [f"{len(rows)} rows, expected {n_c * n_r + n_c + 1}"]
        grid = set(op["r_grid"])
        for kind, n, r, p_phase, p_ideal, diff in rows:
            if kind == "point":
                if not (_in_unit(p_phase) and _in_unit(p_ideal)):
                    bad.append(f"probability outside [0, 1] at n={n} r={r}")
                if abs(diff - abs(p_phase - p_ideal)) > TOL:
                    bad.append(f"abs_diff inconsistent at n={n} r={r}")
            elif kind == "critical" and r not in grid:
                bad.append(f"critical r={r} not on the grid for n={n}")
            elif kind == "fit" and not (math.isfinite(r) and math.isfinite(p_phase)):
                bad.append("non-finite critical fit")
        return bad


class QuboWide(Workload):
    """Single wide QUBO anneals, 2^10..2^14 amplitudes, one schedule each."""

    name = "qubo-wide"
    CLASSES = (10, 11, 12, 13, 14)
    N_CYCLE = 64

    def make_op(self, seed: int, index: int) -> dict:
        rng = _rng(seed, 1, index)
        n = self.CLASSES[index % len(self.CLASSES)]
        q = rng.normal(size=(n, n))
        return {"q": ((q + q.T) / 2).tolist(), "n_cycle": self.N_CYCLE,
                "r_tot": float(rng.uniform(4 * math.pi, 16 * math.pi))}

    def warm_up(self) -> None:
        experiments.qubo_rows(np.eye(10) - 0.5, 8, 4 * math.pi)

    def run(self, op) -> list:
        _, rows = experiments.qubo_rows(np.array(op["q"]), op["n_cycle"], op["r_tot"])
        return rows

    def reference_view(self, rows) -> list:
        """Every optimal row plus a fixed stride of 32 rows in assignment order;
        all 2^n rows would make the stored references megabytes."""
        stride = max(1, len(rows) // 32)
        return [r for i, r in enumerate(rows) if r[3] or i % stride == 0]

    def check(self, op, rows) -> list[str]:
        n = len(op["q"])
        if len(rows) != 2 ** n:
            return [f"{len(rows)} rows, expected {2 ** n}"]
        bad = []
        probs = [r[2] for r in rows]
        if not all(_in_unit(p) for p in probs):
            bad.append("probability outside [0, 1]")
        if sum(probs) > 1.0 + TOL:
            bad.append(f"qubit populations sum to {sum(probs)}")
        e_min = min(r[1] for r in rows)
        optimal = [r for r in rows if r[3]]
        if not optimal or any(abs(r[1] - e_min) > 1e-9 for r in optimal):
            bad.append("is_optimal rows are not the minimum-energy rows")
        success = rows[0][4]
        if abs(success - sum(r[2] for r in optimal)) > 1e-7:
            bad.append("success differs from the optimal-row population")
        return bad


class DensitySweep(Workload):
    """Density-matrix constraint sweeps across the coherence interpolation.

    Six classes in eight are ``constraint_sweep_rows`` calls on a slice of the
    log2 cycle grid 16..1024; two are sweeps of ``anneal_density`` runs with
    the zeno-sfg drive, the only users of the binary exponential cache: one
    of many short schedules (construction-bound), one long schedule.
    """

    name = "density-sweep"
    # (kind, vertices, edges, cycle counts, gamma_t values or drive runs)
    # Every op is short (0.1-0.3 s at the reference speed), so the
    # calibration units on either side of it see the speed it ran at.
    CLASSES = (("constraint", 3, 2, (16, 32, 64, 128), 2),
               ("constraint", 3, 2, (256, 512), 1),
               ("constraint", 3, 2, (1024,), 1),
               ("zeno-sfg", 3, 2, (16, 32), 4),
               ("constraint", 4, 3, (16, 32, 64), 1),
               ("constraint", 4, 3, (128,), 1),
               ("constraint", 4, 3, (256,), 1),
               ("zeno-sfg", 4, 3, (256,), 1))

    def make_op(self, seed: int, index: int) -> dict:
        rng = _rng(seed, 2, index)
        kind, n_v, n_e, n_cycles, count = self.CLASSES[index % len(self.CLASSES)]
        op = {"kind": kind, "n_vertices": n_v,
              "edges": _random_graph(rng, n_v, n_e, connected=False),
              "n_cycles": list(n_cycles),
              "r_tot": float(rng.uniform(10 * math.pi, 30 * math.pi))}
        lo, hi = gadgets.GAMMA_T_INCOHERENT, gadgets.GAMMA_T_COHERENT
        if kind == "constraint":
            op["gamma_ts"] = sorted(rng.uniform(lo, hi, size=count).tolist())
        else:
            gamma = np.exp(rng.uniform(math.log(5.0), math.log(40.0), size=count))
            op["drives"] = [
                {"gamma": float(g),
                 "eta": float(rng.uniform(0.0, 0.25) * experiments.CRITICAL_ETA_FACTOR * g),
                 "gamma_t": float(rng.uniform(lo, hi))}
                for g in gamma]
        return op

    def warm_up(self) -> None:
        graph = problems.three_node_line()
        experiments.constraint_sweep_rows(graph, [gadgets.GAMMA_T_COHERENT], [4], math.pi)
        self._sfg_row(graph, 4, math.pi, {"gamma": 10.0, "eta": 0.0,
                                          "gamma_t": gadgets.GAMMA_T_COHERENT})

    @staticmethod
    def _sfg_row(graph, n_cycle, r_tot, drive) -> tuple:
        rep = anneal.anneal_density(
            graph, anneal.make_schedule(n_cycle, r_tot),
            gadgets.ConstraintParams(experiments.DEFAULT_PHI_Q, drive["gamma_t"]),
            drive_mode="zeno-sfg",
            drive=gadgets.DriveParams(1.0, drive["gamma"], drive["eta"]))
        return ("zeno-sfg", drive["gamma"], drive["eta"], drive["gamma_t"], n_cycle,
                float(rep.success[-1]), float(rep.entropy.max()),
                float(rep.leakage[-1]), float(sum(rep.final_populations.values())))

    def run(self, op) -> list:
        graph = _graph(op)
        if op["kind"] == "constraint":
            _, rows = experiments.constraint_sweep_rows(
                graph, op["gamma_ts"], op["n_cycles"], op["r_tot"])
            return rows
        return [self._sfg_row(graph, n, op["r_tot"], d)
                for d in op["drives"] for n in op["n_cycles"]]

    def check(self, op, rows) -> list[str]:
        bad = []
        if op["kind"] == "constraint":
            expected = len(op["gamma_ts"]) * len(op["n_cycles"])
            if len(rows) != expected:
                return [f"{len(rows)} rows, expected {expected}"]
            for gt, n, succ, smax, sfin, leak, n99, guess in rows:
                if not (_in_unit(succ) and _in_unit(leak)):
                    bad.append(f"success/leakage outside [0, 1] at gamma_t={gt} n={n}")
                if min(smax, sfin) < -TOL or sfin > smax + TOL:
                    bad.append(f"entropy inconsistent at gamma_t={gt} n={n}")
                reached = [m for (g, m, s, *_) in rows if g == gt and s >= 0.99]
                if n99 != (min(reached) if reached else -1):
                    bad.append(f"n99={n99} inconsistent at gamma_t={gt}")
                if guess != 1.0 / 2 ** op["n_vertices"]:
                    bad.append("random_guess is not 2^-n")
            return bad
        if len(rows) != len(op["drives"]) * len(op["n_cycles"]):
            return [f"{len(rows)} rows for {len(op['drives'])} drives"]
        for _, g, _, _, n, succ, smax, leak, pop_sum in rows:
            if not _in_unit(succ):
                bad.append(f"success outside [0, 1] at gamma={g} n={n}")
            if leak < -TOL:
                bad.append(f"negative leakage {leak} at gamma={g} n={n}")
            if pop_sum > 1.0 + TOL:
                bad.append(f"qubit populations sum to {pop_sum} at gamma={g} n={n}")
            if smax < -TOL:
                bad.append(f"negative entropy at gamma={g} n={n}")
        return bad


class DriveSweep(Workload):
    """Flip-probability drive sweeps: gamma_99 bisections and Markov curves.

    A ``threshold`` op sweeps one coherence ratio over a gamma grid that
    reaches the stiff end (gamma >= 300), past ``stop_at``, whose points are
    computed and dropped, and solves one gamma_99 bisection.  The three
    ``markov`` classes each run the Markov curve for one ratio (4, 12 or 40)
    plus the memoryless TPA reference.  ``gamma99_iters`` is never passed, so
    the program's own root-finder setting decides how many evaluations a
    solve takes.

    The seed only jitters values that leave the cost alone: the expm-action
    cost follows gamma, so every grid point sits within 3% of a fixed value,
    and the coherence ratio keeps gamma_99 just above the truncation switch
    at gamma = 10, so every bisection step runs at the same truncation.
    """

    name = "drive-sweep"
    # Class name and Markov ratio.
    CLASSES = (("threshold", None), ("markov", 4.0), ("markov", 12.0), ("markov", 40.0))
    GAMMAS = (2.0, 30.0, 300.0)
    GAMMA_TPAS = (0.8, 4.5, 20.0)
    JITTER = 0.03
    STOP_AT = 0.99

    def make_op(self, seed: int, index: int) -> dict:
        rng = _rng(seed, 3, index)
        kind, markov_ratio = self.CLASSES[index % len(self.CLASSES)]

        def near(values):
            return [float(v * rng.uniform(1 - self.JITTER, 1 + self.JITTER)) for v in values]

        if kind == "markov":
            return {"kind": kind, "ratios": [], "gammas": [],
                    "markov_ratios": [markov_ratio], "gamma_tpas": near(self.GAMMA_TPAS)}
        # gamma_99 lies in [11.0, 11.5] for ratios in [0.003, 0.008].
        return {"kind": kind, "ratios": [float(rng.uniform(0.003, 0.008))],
                "gammas": near(self.GAMMAS), "markov_ratios": [], "gamma_tpas": [],
                "gamma99_lo": float(rng.uniform(10.2, 10.5)),
                "gamma99_hi": float(rng.uniform(18.0, 22.0))}

    def warm_up(self) -> None:
        experiments.drive_sweep_rows([], [], [4.0], [1.0])

    def run(self, op) -> list:
        bracket = ({"gamma99_lo": op["gamma99_lo"], "gamma99_hi": op["gamma99_hi"]}
                   if op["ratios"] else {})
        _, rows = experiments.drive_sweep_rows(
            op["ratios"], op["gammas"], op["markov_ratios"], op["gamma_tpas"],
            stop_at=self.STOP_AT, **bracket)
        return rows

    def check(self, op, rows) -> list[str]:
        bad = []
        gamma99 = [r for r in rows if r[0] == "gamma99"]
        if len(gamma99) != len(op["ratios"]):
            return [f"{len(gamma99)} gamma99 rows, expected {len(op['ratios'])}"]
        for _, _, g99, _, _ in gamma99:
            if not op["gamma99_lo"] <= g99 <= op["gamma99_hi"]:
                bad.append(f"gamma99={g99} outside its bracket")
        curves = ([("sweep", r) for r in op["ratios"]]
                  + [("markov", r) for r in op["markov_ratios"]]
                  + [("tpa_ref", 0.0)] * bool(op["gamma_tpas"]))
        for kind, ratio in curves:
            curve = [r for r in rows if r[0] == kind and r[1] == ratio]
            if not curve:
                bad.append(f"no {kind} rows for ratio {ratio}")
            for _, _, g, p1, reached in curve:
                if not _in_unit(p1):
                    bad.append(f"{kind} p1={p1} outside [0, 1] at gamma={g}")
                if reached != int(p1 >= self.STOP_AT):
                    bad.append(f"{kind} reached_target inconsistent at gamma={g}")
            if any(r[4] for r in curve[:-1]):
                bad.append(f"{kind} curve for ratio {ratio} continues past stop_at")
        return bad


WORKLOADS = {w.name: w for w in (MisPure(), QuboWide(), DensitySweep(), DriveSweep())}
