"""Spans around the calls into each zenoanneal layer, installed from outside.

Each layer function is wrapped where the calling module binds it (for
example ``zenoanneal.anneal.apply_local_superop_matrix``), so the program is
traced without being edited.  A span records (name, start, end, parent span,
op id, computed attributes); spans stay in memory until the run ends.  Flop
and byte counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import scipy.sparse.linalg

from zenoanneal import (anneal, experiments, fock, gadgets, generators,
                        problems, propagator)

ZENOANNEAL_MODULES = (anneal, experiments, fock, gadgets, generators,
                      problems, propagator)
TRACED_CLASSES = (propagator.BinaryExpCache, propagator.PhaseKernel)

COMPLEX_BYTES = 16
GENERATOR_BUILDERS = ("combine", "displacement_generator", "loss_dissipator",
                      "sfg_generator", "tpa_dissipator", "phase_generator")
BRUTE_FORCE = ("brute_force_mis", "brute_force_wmis", "brute_force_qubo")


def _superop_attrs(superop, mat, space, targets):
    d_loc2 = superop.shape[0]
    d2 = mat.size
    # (d_loc^2 x d_loc^2) @ (d_loc^2 x D^2/d_loc^2), 8 real flops per complex MAC.
    return {"flop": 8.0 * d_loc2 * d2,
            "bytes": COMPLEX_BYTES * (2.0 * d2 + superop.size)}


def _operator_attrs(op, mat, space, targets):
    d_loc = op.shape[0]
    d2 = mat.size
    # Two passes (op on rows, conj(op) on columns), each d_loc x d_loc @ d_loc x D^2/d_loc.
    return {"flop": 2 * 8.0 * d_loc * d2,
            "bytes": COMPLEX_BYTES * (4.0 * d2 + 2 * op.size)}


def _expm_dense_attrs(gen, t, *args, **kwargs):
    return {"liouville_dim": gen.space.total_dim ** 2}


def _expm_action_attrs(gen, t, vec):
    return {"norm_t": abs(t) * scipy.sparse.linalg.norm(gen.matrix, 1)}


def _matrix_for_attrs(cache, t):
    return {"stages": len(cache.select_stages(t))}


def _schedule_attrs(graph, schedule, *args, **kwargs):
    return {"cycles": schedule.n_cycle}


def _qubo_attrs(q, n_cycle, *args, **kwargs):
    return {"cycles": n_cycle}


def _brute_force_attrs(arg):
    n = arg.n_vertices if hasattr(arg, "n_vertices") else len(arg)
    return {"patterns": 2 ** n}


def _bindings():
    """(owner, attribute, span name, attribute function) for every traced call."""
    out = [(anneal, "apply_local_superop_matrix", "fock.apply_local_superop", _superop_attrs),
           (gadgets, "apply_local_superop_matrix", "fock.apply_local_superop", _superop_attrs),
           (anneal, "apply_local_operator_matrix", "fock.apply_local_operator", _operator_attrs)]
    for mod in (experiments, anneal, gadgets):
        out += [(mod, name, "generators.build", None)
                for name in GENERATOR_BUILDERS if hasattr(mod, name)]
    out += [(mod, "expm_dense", "propagator.expm_dense", _expm_dense_attrs)
            for mod in (propagator, gadgets, experiments)]
    out += [(anneal, "build_cache", "propagator.cache_build", None),
            (propagator.BinaryExpCache, "matrix_for", "propagator.cache_matrix_for",
             _matrix_for_attrs),
            (propagator.PhaseKernel, "apply_matrix", "propagator.phase_kernel", None),
            (experiments, "expm_apply_vec", "propagator.expm_action", _expm_action_attrs),
            (anneal, "constraint_superop", "gadgets.constraint_superop", None),
            (gadgets, "pumped_phase_gadget", "gadgets.pumped_phase_gadget", None),
            (gadgets, "embed_local_superop", "gadgets.embed_local_superop", None)]
    for mod in (experiments, anneal):
        out += [(mod, "anneal_density", "anneal.density", _schedule_attrs)]
    out += [(experiments, "anneal_statevector", "anneal.statevector", _schedule_attrs),
            (experiments, "anneal_ideal", "anneal.ideal", _schedule_attrs),
            (experiments, "qubo_anneal", "anneal.qubo", _qubo_attrs)]
    for mod in (anneal, experiments):
        out += [(mod, name, "problems.brute_force", _brute_force_attrs)
                for name in BRUTE_FORCE if hasattr(mod, name)]
    out += [(experiments, name, "experiments." + name, None)
            for name in ("ideal_vs_phase_rows", "qubo_rows", "constraint_sweep_rows",
                         "drive_sweep_rows")]
    out += [(experiments, "gamma_99", "experiments.gamma99", None)]
    return out


def snapshot() -> dict:
    """Identity of every attribute of the zenoanneal modules and traced classes."""
    out = {}
    for owner in ZENOANNEAL_MODULES + TRACED_CLASSES:
        for key, value in vars(owner).items():
            out[(owner.__name__, key)] = id(value)
    return out


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_fn in _bindings():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one benchmark op: install the wrappers, open the op's root
        span, and restore the originals when the op ends."""
        self.install()
        self.op_id = op_id
        record = ["op", 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.op_id = None
            self.restore()


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, n_ops: int, rows_kept: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished trace; (value, unit) by metric name.

    Counts and seconds are divided by ``n_ops``, the number of traced ops,
    so that they compare across versions that fit different numbers of ops
    into the same window.  ``rows_kept`` is the number of non-gamma99
    drive-sweep rows delivered, the numerator of the points-kept ratio.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    under_gamma99 = [False] * len(spans)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        incl[name] += end - start
        under_gamma99[i] = name == "experiments.gamma99" or (
            parent >= 0 and under_gamma99[parent])
        for key, value in (attrs or {}).items():
            attr_sum[(name, key)] += value
            attr_max[(name, key)] = max(attr_max[(name, key)], value)
    action_in_solves = sum(1 for i, s in enumerate(spans)
                           if s[0] == "propagator.expm_action" and under_gamma99[i])
    action_outside = calls["propagator.expm_action"] - action_in_solves
    solves = calls["experiments.gamma99"]

    m: dict[str, tuple[float, str]] = {}

    def per_op(key, value, unit):
        m[key] = (value / n_ops, unit + "/op")

    for short in ("apply_local_superop", "apply_local_operator"):
        name = "fock." + short
        per_op(name + ".calls", calls[name], "count")
        per_op(name + ".s", self_s[name], "s")
        per_op(name + ".gflop", attr_sum[(name, "flop")] / 1e9, "GFLOP")
    per_op("fock.apply_local.gb_moved",
           (attr_sum[("fock.apply_local_superop", "bytes")]
            + attr_sum[("fock.apply_local_operator", "bytes")]) / 1e9, "GB")
    per_op("generators.build.calls", calls["generators.build"], "count")
    per_op("generators.build.s", self_s["generators.build"], "s")
    for name in ("propagator.expm_dense", "propagator.cache_build",
                 "propagator.cache_matrix_for", "propagator.phase_kernel",
                 "propagator.expm_action", "gadgets.constraint_superop"):
        per_op(name + ".calls", calls[name], "count")
        per_op(name + ".s", self_s[name], "s")
    m["propagator.expm_dense.liouville_dim_max"] = (
        attr_max[("propagator.expm_dense", "liouville_dim")], "count")
    per_op("propagator.cache_matrix_for.stages",
           attr_sum[("propagator.cache_matrix_for", "stages")], "count")
    per_op("propagator.expm_action.norm_t_sum",
           attr_sum[("propagator.expm_action", "norm_t")], "1")
    per_op("gadgets.pumped_phase_gadget.s", self_s["gadgets.pumped_phase_gadget"], "s")
    per_op("gadgets.embed_local_superop.s", self_s["gadgets.embed_local_superop"], "s")
    for path in ("density", "statevector", "ideal", "qubo"):
        name = "anneal." + path
        cycles = attr_sum[(name, "cycles")]
        per_op(name + ".runs", calls[name], "count")
        per_op(name + ".cycles", cycles, "count")
        per_op(name + ".self_s", self_s[name], "s")
        m[name + ".cycle_us"] = (1e6 * incl[name] / cycles if cycles else 0.0, "us")
    per_op("problems.brute_force.calls", calls["problems.brute_force"], "count")
    per_op("problems.brute_force.s", self_s["problems.brute_force"], "s")
    per_op("problems.brute_force.patterns",
           attr_sum[("problems.brute_force", "patterns")], "count")
    per_op("experiments.self_s",
           sum(v for k, v in self_s.items() if k.startswith("experiments.")), "s")
    per_op("experiments.gamma99.calls", solves, "count")
    m["experiments.gamma99.evals_per_solve"] = (
        action_in_solves / solves if solves else 0.0, "count")
    m["experiments.drive_points_kept_ratio"] = (
        rows_kept / action_outside if action_outside else 0.0, "ratio")
    return m


def self_time_by(spans, key) -> dict[str, float]:
    """Summed self seconds grouped by ``key(span name)``; 'op' is benchmark glue."""
    out = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[key(name)] += s
    return dict(out)
