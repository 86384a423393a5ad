"""The optimization protocol: schedules, the two cycle engines, observables.

Each cycle applies, in this fixed order: (1) a per-node phase rotation,
(2) the drive, (3) one constraint gadget per edge in sorted edge order.
Edge gadgets sharing a vertex need not commute, so the order is part of the
contract and is recorded in every report.

Node weights come from the graph alone: node j's phase each cycle is
phi_i * w_j with ``ProblemGraph.weights`` (unit weights when it has none),
and the same weights pick the optimal sets that success is scored against.

``anneal_density_batch`` runs that cycle on a (B, D, D) stack of density matrices,
one row per schedule, with the physical constraint gadget (built on per-mode
dim >= 3) per edge; ``anneal_density`` is its one-row case.  The exact
two-level drive keeps rho in the 2^n x 2^n block of 0/1 patterns, where phase
and drive are one unitary V rho V^dag per row and each edge gadget one
16 x 16 matmul; the TPA and SFG drives populate |2>, so they run one row on
the full space as a :class:`PhaseKernel` multiply, one matmul by the local
drive map per mode and one sparse gadget per edge.  Both change layouts by
one precomputed take per step (:func:`_take_chain`).
``_run_pure`` runs it on a (B, 2^n) block of qubit amplitudes, one row per
row of each schedule (a batched schedule has a sequence of r_tot), for three
paths:
``anneal_statevector`` (coherent-limit kick pi + phi_q on every |11> edge),
``anneal_ideal`` (a drive that cannot reach non-independent sets) and
``qubo_anneal`` (a zeta ramp on the QUBO energy).  Past ``WALSH_MATMUL_QUBITS``
qubits the transverse drive is one real Kronecker-factored pass a cycle on
amplitudes kept in the frame amps / diag((-i)^popcount), and the QUBO ramp's
whole diagonal, number phase included, comes from one recurrence.
Both engines take schedules of different lengths as one stack: rows run
longest schedule first and leave it as theirs ends.  Both step a block of
cycles at a time, at most ``PURE_BLOCK_ELEMENTS`` state entries over the
block's cycles and running rows (at least one cycle), never past a row's end,
and take each block's records in one pass over its states; a pure-state block
too wide to keep two cycles keeps none, builds its mixer tables for many
cycles and records each cycle as it ends.
Every report carries its final state and its per-cycle entropy (zero on the
pure paths); a pure-path report also carries ``meta["norm_drift"]``, a
density report ``meta["trace_drift"]`` and ``meta["min_eigenvalue"]``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse

# apply_local_operator_matrix and apply_local_superop_matrix are unused here but
# perfbench/tracing.py binds them.
from .fock import (DensityState, FockSpace, PureState,
                   apply_local_operator_matrix, apply_local_superop_matrix,
                   eigenvalue_entropy, make_space)
from .gadgets import (ConstraintParams, DriveParams, constraint_superop,
                      drive_generator, pump_maps)
from .problems import ProblemGraph, _optima, _qubo_scores, _wmis_scores
from .propagator import NonConvergenceError, PhaseKernel, _guard_bytes, build_cache

CYCLE_ORDER = "phase->drive->constraints"

DRIVE_MODES = ("ideal-2level", "zeno-tpa", "zeno-sfg")

# Stages of the zeno drive's binary exponential cache: the per-cycle drive
# time is reproduced to t_max / 2^30.
ZENO_CACHE_STAGES = 30

# Largest mass an edge gadget may send out of the 0/1 patterns from one
# qubit-block input column before the ideal-2level run refuses the block.
BLOCK_LEAK_TOL = 1e-12

# Largest B * k * 2^n amplitudes the pure-state engine keeps for one block
# of k cycles: 64 KiB of phases (then states), mixer phases up to that again;
# also the largest B * k * D^2 entries of a density block's states.  Larger
# blocks run the cycles no faster and raise peak memory (2^13 added 0.8 MB
# of peak RSS on the mis-pure benchmark).
PURE_BLOCK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class Schedule:
    """Per-cycle phase and drive angles on the tau grid i/(n_cycle+1), i=1..n.

    Every entry satisfies |phi| + |c| = r_tot / n_cycle and
    phi/c = cot(pi tau); sweeping tau moves the pinned axis from the empty
    state to the occupied one through an avoided crossing at tau = 1/2.
    A batched schedule holds B values in ``r_tot`` and (B, n_cycle) angles.
    """

    n_cycle: int
    r_tot: float | tuple[float, ...]
    tau: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    zeta: np.ndarray | None = field(default=None, repr=False)


def _guard_cycles(rows: int, n_cycle: int) -> None:
    """Bound tau and, per schedule row, three angles and seven records."""
    _guard_bytes(8 * n_cycle * (1 + 10 * rows), "the per-cycle schedule and records")


def _cycle_grid(n_cycle: int, r_tot):
    """(tau, step): tau_i = i/(n_cycle+1) and r_tot/n_cycle, the step as a
    (B, 1) column when r_tot is a sequence of B values."""
    r = np.asarray(r_tot, dtype=float)
    if n_cycle < 1:
        raise ValueError("n_cycle must be at least 1")
    if r.ndim > 1 or r.size == 0 or not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError("r_tot must be finite and positive "
                         "(one value or a non-empty sequence)")
    _guard_cycles(r.size, n_cycle)
    return np.arange(1, n_cycle + 1, dtype=float) / (n_cycle + 1), r[..., None] / n_cycle


def make_schedule(n_cycle: int, r_tot) -> Schedule:
    """Cot-profile schedule; a sequence of r_tot gives a batched schedule."""
    tau, step = _cycle_grid(n_cycle, r_tot)
    cot = np.cos(math.pi * tau) / np.sin(math.pi * tau)
    phi = step * cot / (1.0 + np.abs(cot))
    c = step / (1.0 + np.abs(cot))
    r_field = float(r_tot) if np.ndim(r_tot) == 0 else tuple(map(float, r_tot))
    return Schedule(n_cycle, r_field, tau, phi, c)


class Populations(Mapping):
    """Read-only view of (2^n,) or (2^n, B) populations in basis order, keyed
    by 0/1 pattern tuples (vertex 0 first): a float each, or a (B,) row."""

    def __init__(self, values: np.ndarray):
        self._values = values.view()
        self._values.flags.writeable = False

    def __getitem__(self, pattern):
        if (not isinstance(pattern, tuple) or 1 << len(pattern) != len(self)
                or any(bit not in (0, 1) for bit in pattern)):
            raise KeyError(pattern)
        value = self._values[sum(int(bit) << k for k, bit in enumerate(pattern[::-1]))]
        return float(value) if value.ndim == 0 else value

    def __iter__(self):
        return product((0, 1), repeat=len(self).bit_length() - 1)

    def __len__(self):
        return len(self._values)

    def values(self) -> list:
        """The entries in basis order, with no lookup per key."""
        return self._values.tolist() if self._values.ndim == 1 else list(self._values)


@dataclass
class AnnealReport:
    """Per-cycle observables, the final 0/1-pattern populations and the final
    state (one per row of a batched schedule)."""

    n_cycle: int
    success: np.ndarray
    entropy: np.ndarray
    leakage: np.ndarray
    final_populations: Populations
    final_state: object
    cycle_order: str = CYCLE_ORDER
    meta: dict = field(default_factory=dict)


def _pattern_index(space: FockSpace) -> np.ndarray:
    """Index in ``space`` of each 0/1 pattern: its binary digits in base mode_dim."""
    index = np.arange(1 << space.n_modes)
    return sum(((index >> b) & 1) * stride for b, stride in enumerate(reversed(space.strides)))


class _Observables:
    """Per 0/1 pattern in basis order, from ``problems._wmis_scores``: edge
    violations, weighted number N_w, optimality, and the basis indices for
    success/leakage.  A graph over the n <= 24 guard raises ValueError first."""

    def __init__(self, space: FockSpace, graph: ProblemGraph):
        self.violations, self.number, self.optimal = _wmis_scores(graph)
        self.pattern_idx = _pattern_index(space)
        self.optima_idx = self.pattern_idx[self.optimal]
        self.independent_idx = self.pattern_idx[self.violations == 0]

    def success(self, diag: np.ndarray):
        return diag.take(self.optima_idx, axis=-1).sum(axis=-1)

    def leakage(self, diag: np.ndarray):
        return 1.0 - diag.take(self.independent_idx, axis=-1).sum(axis=-1)

    def qubit_populations(self, diag: np.ndarray) -> Populations:
        return Populations(diag[self.pattern_idx])


def _zeno_maps(mode_dim: int, drive: DriveParams, mode_kind: str, c: np.ndarray):
    """(maps, index) of a run's cycle angles ``c``: the local drive
    superoperator on [mode_dim] of each distinct drive time, and the row of
    ``maps`` each cycle takes.

    The drive hardware runs for t = c / drive.c <= max(c) / drive.c each
    cycle, so the blockade exposure scales together with the rotation angle
    exactly as it would physically.  An SFG pump is appended empty and traced
    out.  Each map is the binary cache stages its t selects composed onto the
    append map, one matmul per stage.
    """
    if drive.c <= 0:
        raise ValueError("zeno drive modes need a positive displacement rate c")
    gen, joint = drive_generator(mode_kind.removeprefix("zeno-"), make_space([mode_dim]), 0,
                                 drive.c, drive.gamma, drive.eta)
    times, index = np.unique(c / drive.c, return_inverse=True)
    cache = build_cache(gen, times[-1], ZENO_CACHE_STAGES)
    append, trace = pump_maps(mode_dim, joint.total_dim // mode_dim)
    # t <= t_max selects each stage at most once; maps[r] is (stages @ append)^T
    chosen = np.array([np.bincount(cache.select_stages(t), minlength=cache.m) for t in times])
    maps = np.repeat(append.T[None], len(times), axis=0).astype(complex)
    for stage, rows in zip(cache.stages, chosen.T > 0):
        maps[rows] = (maps[rows].reshape(-1, len(stage)) @ stage.T).reshape(-1, *append.T.shape)
    return (maps @ trace.T).mT, index


def _zeno_step(space: FockSpace, weights, phi: np.ndarray, maps: np.ndarray,
               index: np.ndarray, takes: list, back: np.ndarray, gadget):
    """(start, stop, k) of a block -> cycle(rho, j) of one row on the full
    space, the same for every block: cycle j's weighted phase ``phi[j]``,
    then maps[index[j]] on every mode, then the sparse ``gadget`` on each
    edge, through :func:`_take_chain`'s ``takes`` and ``back``.

    The first take puts each mode's (column, row) pair in turn first, so the
    drive is one (rest, d^2) @ (d^2, d^2) matmul per mode, which moves that
    pair last and the next one first; each edge is one CSR product on its
    (d^4, rest) matricization.
    """
    phase, drives = PhaseKernel(space, weights), maps.mT
    first, *edge_takes = takes

    def cycle(rho, j):
        x = phase.apply_matrix(rho, phi[j]).take(first).reshape(1, len(maps[0]), -1)
        for _ in range(space.n_modes):
            x = np.matmul(x.mT, drives[index[j]]).reshape(x.shape)
        for take in edge_takes:
            x = gadget @ x.take(take)
        return x.take(back).reshape(rho.shape)

    return lambda start, stop, k: cycle


def _ideal_step(n: int, number: np.ndarray, angles: np.ndarray, takes: list,
                back: np.ndarray, blocks: np.ndarray):
    """(start, stop, k) of a block -> cycle(rho, j): V rho V^dag for each row
    of a (k, 2^n, 2^n) stack, then row b's 16 x 16 edge block ``blocks[b]``
    on each edge, one matmul per :func:`_take_chain` take; row b's
    V = S diag(exp(-i c lam)) S diag(exp(-i phi N_w)) / 2^n at its (phi, c)
    ``angles`` of cycle j is the weighted phase, then exp(-i c X) on every
    qubit, where S is the exact +-1 Walsh signs, lam = n - 2 popcount and N_w
    the weighted ``number``, as in the pure mixer to ``WALSH_MATMUL_QUBITS``.

    A block's phases come from one :func:`_phase_tables` call and all its V
    from one batched matmul.  S S is formed from the exact signs and divided
    by 2^n, which is also exact; a rounded 2^(-n/2) would bias |det V| and
    drift the trace by about 1e-16 per cycle.
    """
    signs = _walsh_signs(n).astype(complex)
    phases = _phase_tables(n - 2 * np.bitwise_count(np.arange(1 << n)).astype(int), number)

    def block(start, stop, k):
        mixer_phases, number_phases = phases(angles[1, start:stop, :k], angles[0, start:stop, :k])
        v = (signs * mixer_phases[..., None, :]) @ (signs * number_phases[..., None, :]) / (1 << n)
        v_dag, rows = v.conj().mT, blocks[:k]

        def cycle(rho, j):  # with no edges, no take either
            flat = v[j - start] @ rho @ v_dag[j - start]
            for take in takes:
                flat = rows @ flat.reshape(k, -1).take(take, axis=1)
            return flat.reshape(k, -1).take(back, axis=1).reshape(rho.shape) if takes else flat

        return cycle

    return block


def _qubit_block(superop: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """(block, leak) for a two-mode superoperator on [d, d]: its 16 x 16 map
    among |00>, |01>, |10>, |11> (F-order vec index a + d^2 b), and the
    largest mass one of those 16 input columns sends outside them."""
    q = np.array([0, 1, d, d + 1])
    idx = (q[:, None] + d * d * q[None, :]).ravel(order="F")
    cols = superop[:, idx]
    leak = np.abs(np.delete(cols, idx, axis=0)).sum(axis=0).max(initial=0.0)
    return cols[idx], float(leak)


def _take_chain(dims, groups):
    """(takes, back) that move the flattened rows of a (k, D, D) stack, seen
    as C-order ``dims * 2`` tensors, through one layout per group in turn:
    takes[i], composed with the layout before it, puts the axes ``groups[i]``
    first, in order, and the others after them in theirs, as a (d_loc, rest)
    table; ``back`` restores the natural layout.  Built once, from
    np.arange(D^2); a product that sums the same terms in the same order as
    the local map on those axes gives the same bits."""
    x = np.arange(math.prod(dims) ** 2).reshape(dims * 2)
    takes, back = [], x.ravel()
    for axes in groups:
        gather = x.transpose(axes + [a for a in range(x.ndim) if a not in axes])
        takes.append(back[gather.reshape(math.prod(gather.shape[:len(axes)]), -1)])
        back = np.argsort(gather, axis=None)
    return takes, back


def anneal_density(graph: ProblemGraph, schedule: Schedule,
                   constraint: ConstraintParams,
                   drive_mode: str = "ideal-2level",
                   drive: DriveParams | None = None,
                   mode_dim: int = 3) -> AnnealReport:
    """Density-matrix execution with physical constraint gadgets: the one-row
    case of :func:`anneal_density_batch`."""
    return anneal_density_batch(graph, [schedule], [constraint], drive_mode, drive,
                                mode_dim)[0]


def anneal_density_batch(graph: ProblemGraph, schedules, constraints,
                         drive_mode: str = "ideal-2level",
                         drive: DriveParams | None = None,
                         mode_dim: int = 3) -> list[AnnealReport]:
    """Density runs of one graph, run b with ``schedules[b]`` and
    ``constraints[b]``, as rows of one (B, D, D) stack; reports in that order.

    ``mode_dim`` >= 3 is required whenever the graph has edges, since the
    gadgets route population through the two-photon state; each distinct
    constraint builds its gadget once.  The ideal drive never leaves the 0/1
    patterns, so it runs in the 2^n qubit block, once each gadget is checked
    to keep it closed, and reports its final states there; the zeno drives
    run one schedule on the full space.  Each cycle's drive map on every mode
    (zeno) and edge gadgets (a 16 x 16 block, or sparse on the full space)
    run through the takes of one :func:`_take_chain`, built once per run.
    Cycles run in blocks, as in :func:`_run_pure`; a block's states are kept
    and give its records and one batched ``eigvalsh``.  The final states,
    then the largest block's states and unitaries and the take chain's index
    tables, are guarded in bytes first.  ``meta`` holds a row's largest |trace - 1| and smallest
    eigenvalue over all cycles.  A final state whose trace or hermiticity
    drifted past the :class:`DensityState` tolerances, or a NaN state, raises
    :class:`NonConvergenceError`.
    """
    if drive_mode not in DRIVE_MODES:
        raise ValueError(f"drive_mode must be one of {DRIVE_MODES}")
    if graph.edges and mode_dim < 3:
        raise ValueError("constraint gadgets need per-mode dim >= 3")
    if any(np.ndim(schedule.phi) != 1 for schedule in schedules):
        raise ValueError("a density run takes one schedule, not a batch of r_tot values")
    in_block = drive_mode == "ideal-2level"
    if not in_block and (drive is None or len(schedules) != 1):
        raise ValueError(f"drive_mode {drive_mode!r} needs DriveParams and runs one schedule")
    if not schedules:
        return []
    n = graph.n_vertices
    weights = graph.weights or (1.0,) * n

    space = make_space([2 if in_block else mode_dim] * n)
    obs = _Observables(space, graph)
    size = space.total_dim ** 2
    _guard_bytes(16 * len(schedules) * size, "the final density states")
    edges = graph.sorted_edges()
    gadgets = dict.fromkeys(constraints, (None, None, 0.0))
    for con in gadgets if edges else ():
        gadget = constraint_superop(make_space([mode_dim, mode_dim]), 0, 1, con)
        # about 390 of the 6561 entries of the [3, 3] map are nonzero: CSR
        gadgets[con] = (scipy.sparse.csr_array(gadget), *_qubit_block(gadget, mode_dim))
    for _, _, block_leak in gadgets.values() if in_block else ():
        if not block_leak <= BLOCK_LEAK_TOL:
            raise NonConvergenceError(
                f"edge gadget moves {block_leak:.3e} out of the 0/1 block "
                f"(tolerance {BLOCK_LEAK_TOL:g})")

    order = sorted(range(len(schedules)), key=lambda b: -schedules[b].n_cycle)
    lengths = np.array([schedules[b].n_cycle for b in order])
    _guard_cycles(len(order), lengths[0])
    # a zeno drive takes every mode's (column, row) pair; then per edge its local vec index
    # (F-order, a + d^2 b) over its (column, row) axes, as apply_local_superop_matrix takes them
    groups = ([] if in_block else [[a for m in range(n) for a in (n + m, m)]]) + [
        [n + j, n + k, j, k] for j, k in edges]
    # Bytes of the largest block's states, five stack-sized temporaries of a cycle, the take
    # chain's tables (one per group and the last) with four more while they are built and, in
    # the qubit block, the block's unitaries and their adjoints and the Walsh signs.
    cells = min(max(len(order) * size, PURE_BLOCK_ELEMENTS), len(order) * lengths[0] * size)
    _guard_bytes(16 * (cells + 5 * len(order) * size) + 8 * (len(groups) + 5) * size
                 + (32 * cells + 16 * size if in_block else 0), "the density block")
    takes, back = _take_chain(space.mode_dims, groups)
    angles = np.zeros((2, lengths[0], len(order)))
    for row, b in enumerate(order):
        angles[:, :lengths[row], row] = schedules[b].phi, schedules[b].c
    if in_block:
        step = _ideal_step(n, obs.number, angles, takes, back,
                           np.stack([gadgets[constraints[b]][1] for b in order]))
    else:
        step = _zeno_step(space, weights, schedules[0].phi,
                          *_zeno_maps(mode_dim, drive, drive_mode, schedules[0].c), takes, back,
                          gadgets[constraints[0]][0])
    finals = np.zeros((len(order), space.total_dim, space.total_dim), dtype=complex)
    finals[:, 0, 0] = 1.0
    records = np.empty((5, lengths[0], len(order)))
    rho, start, k = finals, 0, len(order)
    while k:
        stop = min(lengths[k - 1], start + max(1, PURE_BLOCK_ELEMENTS // rho.size))
        cycle = step(start, stop, k)
        states = np.empty((stop - start, *rho.shape), dtype=complex)
        for j in range(start, stop):
            rho = states[j - start] = cycle(rho, j)
        del cycle  # and the block's unitaries, before its eigvalsh
        diag = np.ascontiguousarray(states.diagonal(0, 2, 3).real)
        try:
            lam = np.linalg.eigvalsh(states)
        except np.linalg.LinAlgError as exc:  # eigvalsh of a NaN state
            bad = np.flatnonzero(~np.isfinite(states).all(axis=(1, 2, 3)))
            where = (f"at cycle {start + bad[0] + 1} is not finite" if len(bad) else
                     f"in cycles {start + 1}-{stop}")
            raise NonConvergenceError(f"density state {where}: {exc}") from exc
        records[:, start:stop, :k] = (obs.success(diag), obs.leakage(diag),
                                      eigenvalue_entropy(lam), lam[..., 0], diag.sum(axis=-1))
        del states, diag, lam  # before the next block's, as the guard counts
        start, left, k = stop, k, np.count_nonzero(lengths > stop)
        finals[k:left], rho = rho[k:], rho[:k]

    reports = [None] * len(order)
    for row, b in enumerate(order):
        rho = finals[row]
        success, leak, entropy, lam, trace = records[:, :lengths[row], row].copy()
        try:
            final = DensityState(space, rho)
        except ValueError as exc:
            raise NonConvergenceError(f"final density state: {exc}") from exc
        reports[b] = AnnealReport(
            schedules[b].n_cycle, success, entropy, leak,
            obs.qubit_populations(rho.diagonal().real), final,
            meta={"path": "density", "drive_mode": drive_mode, "mode_dim": mode_dim,
                  "space": "qubit-block" if in_block else "full",
                  "block_leak": gadgets[constraints[b]][2],
                  "constraint": constraints[b], "r_tot": schedules[b].r_tot,
                  "trace_drift": float(np.abs(trace - 1.0).max()),
                  "min_eigenvalue": float(lam.min())})
    return reports


def _walsh_signs(k: int) -> np.ndarray:
    """2^(k/2) H^{(x)k}, exactly: entry (x, y) is (-1)^popcount(x & y)."""
    index = np.arange(1 << k)
    return np.where(np.bitwise_count(index[:, None] & index) & 1, -1, 1)


def _phase_tables(*values: np.ndarray):
    """(angles_1, ..., angles_m) -> [exp(-i angles_j values_j) for each j],
    each with the angles' shape plus the basis axis.

    Each diagonal takes few distinct values (number and n - 2 popcount take
    only n + 1), so one exp runs over the distinct values of all m diagonals
    and one take per diagonal spreads them over the basis.
    """
    distinct, index = zip(*(np.unique(v, return_inverse=True) for v in values))
    neg_i_distinct = [-1j * d for d in distinct]
    bounds = np.cumsum([0] + [len(d) for d in distinct])
    for idx, start in zip(index, bounds):
        idx += start

    def phases(*angles):
        table = np.empty(np.shape(angles[0]) + (bounds[-1],), dtype=complex)
        for a, d, start, stop in zip(angles, neg_i_distinct, bounds, bounds[1:]):
            np.multiply(a[..., None], d, out=table[..., start:stop])
        np.exp(table, out=table)
        return [table.take(idx, axis=-1) for idx in index]

    return phases


# Cycles from one exact QUBO diagonal phase to the next.  Against one exp per
# cycle, n <= 9 runs of up to 1500 cycles moved populations by at most 4e-14
# with 16 and 7e-14 with 32.
PHASE_ANCHOR_CYCLES = 16


def _ramp_phases(schedule: Schedule, number: np.ndarray, energy: np.ndarray,
                 sign: np.ndarray | None = None):
    """Yields exp(-i(phi_j number + zeta_j energy)) times the +-1 diagonal
    ``sign``, if any, (B, 2^n), for each cycle j in turn; each cycle
    overwrites the array the last one yielded.

    On the :func:`linear_three_parameter_profile` ramp phi_j N + zeta_j E =
    step N + step tau_j (E - N), so each diagonal is the last one times
    R = exp(-i step/(n_cycle+1) (E - N)), one R per row from the ramp's exact
    step, formed as D + D (R - 1) with expm1 so that |R| != 1 does not
    compound.  Cycles 0, 16, 32, ... take the exact exp, and the sign,
    instead.
    """
    neg_i_number, neg_i_energy = -1j * number, -1j * energy
    step = np.atleast_2d(_cycle_grid(schedule.n_cycle, schedule.r_tot)[1])
    ratio_minus_one = np.expm1(step / (schedule.n_cycle + 1) * (neg_i_energy - neg_i_number))
    phi, zeta = np.atleast_2d(schedule.phi), np.atleast_2d(schedule.zeta)
    for j in range(schedule.n_cycle):
        if j % PHASE_ANCHOR_CYCLES:
            diag += diag * ratio_minus_one
        else:
            diag = phi[:, j, None] * neg_i_number
            diag += zeta[:, j, None] * neg_i_energy
            np.exp(diag, out=diag)
            if sign is not None:
                diag *= sign
        yield diag


# Largest n whose Walsh pass is one matmul by the 2^n x 2^n signs, and the
# most qubits one Kronecker factor covers above it: with BLAS on one thread,
# 16 x 16 factors ran an n = 13-14 pass faster than 8 x 8 or 32 x 32 ones.
WALSH_MATMUL_QUBITS = 7
WALSH_FACTOR_QUBITS = 4


def _kron_pass(amps: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Row b of a (k, 2^n) stack -> amps[b] @ (F_1[b] (x) ... (x) F_m[b]),
    for symmetric real per-row factors F_j of shape (k, d_j, d_j), F_1 on
    the highest bits; the last comes as F_m (x) 1_2, (k, 2 d_m, 2 d_m).

    Each factor but the last is one real matmul F_j @ (k, pre, d_j, 2 post)
    on the float view of the complex amplitudes; the last is a right
    multiply of the float view of the (k, rows, d_m) low bits by F_m (x) 1_2.
    """
    *lead, last = factors
    x = np.ascontiguousarray(amps, dtype=complex)
    post = x.shape[-1]
    for f in lead:
        post //= f.shape[-1]
        x = np.matmul(f[:, None], x.reshape(len(x), -1, f.shape[-1], post).view(float))
        x = x.view(complex)
    x = np.matmul(x.reshape(len(x), -1, last.shape[-1] // 2).view(float), last)
    return x.view(complex).reshape(amps.shape)


def _eigen_mixer(to_eig, lam: np.ndarray, from_eig):
    """:func:`_transverse_mixer`'s (frame, block, width) form, with no frame,
    of the mixer amps <- from_eig(to_eig(amps) exp(-i c lam)): a block's
    phases come from one :func:`_phase_tables` call, at most 2 len(lam)
    entries a cell with its distinct-value table."""
    phases = _phase_tables(lam)

    def block(c):
        [mix] = phases(c)
        return lambda amps, j: from_eig(to_eig(amps) * mix[j])

    return None, block, 2 * len(lam)


def _transverse_mixer(n: int):
    """(frame, block, width) of exp(-i c X) on each of n qubits: block(c)
    takes a block's (cycles, k) angles and returns (amps, j) -> cycle j's
    mixer on the k rows; ``width`` counts the complex entries per cycle and
    row of a block's tables.  At c = 0 the mixer is exactly the identity.

    For n <= ``WALSH_MATMUL_QUBITS`` it is :func:`_eigen_mixer` in the
    eigenbasis W = H^{(x)n}, lam = n - 2 popcount, by one matmul each way
    with the exact +-1 Walsh signs S and S / 2^n, and ``frame`` is None.
    Beyond that exp(-i c X)^{(x)n} = D R(c)^{(x)n} D with the ``frame``
    D = diag((-i)^popcount) and the real R(c) = [[cos c, sin c],
    [sin c, -cos c]]; the engine keeps amps / D, so a cycle is the exact
    +-1 diagonal D^2 and one real pass of R(c)^{(x)n} = F_1 (x) ... (x) F_m,
    m factors of at most ``WALSH_FACTOR_QUBITS`` qubits, by
    :func:`_kron_pass`.  Entry (x, y) of a k-qubit factor is
    cos^(k-h) sin^h at h = popcount(x ^ y), negated where popcount(x & y) is
    odd: a block's factors are taken from the powers of each cycle's cos c
    and sin c by fixed indices and signs.  No 2^n x 2^n matrix is formed.
    """
    popcount = np.bitwise_count(np.arange(1 << n))
    if n <= WALSH_MATMUL_QUBITS:
        signs = _walsh_signs(n).astype(complex)
        inverse = signs / (1 << n)
        return _eigen_mixer(lambda amps: amps @ signs, n - 2 * popcount.astype(int),
                            lambda amps: amps @ inverse)
    m = -(-n // WALSH_FACTOR_QUBITS)
    sizes = [n // m + 1] * (n % m) + [n // m] * (m - n % m)
    shapes = [(k, j == m - 1) for j, k in enumerate(sizes)]  # (qubits, carries the 1_2)
    top = max(sizes) + 1
    # per factor shape: where cos^(k-h) and sin^h sit in a cycle's powers of cos and sin,
    # and the sign; F (x) 1_2 for the last
    spreads = {}
    for k, last in set(shapes):
        x = np.arange(1 << k)
        h = np.bitwise_count(x[:, None] ^ x).astype(int)
        sign = 1.0 - 2 * (np.bitwise_count(x[:, None] & x) & 1)
        if last:
            h, sign = np.kron(h, np.ones((2, 2), dtype=int)), np.kron(sign, np.eye(2))
        spreads[k, last] = k - h, top + h, sign
    # per cycle and row, in complex numbers: the factor stacks and two temporaries
    width = 3 * sum(sign.size for _, _, sign in spreads.values()) // 2 + top

    def block(c):
        # powers by repeated products: np.power's rounding ran low and shrank the norm of
        # an n = 9 ramp by 7e-14 over 1,489 cycles, against 1.4e-14 with products
        powers = np.ones(c.shape + (2, top))
        powers[..., 0, 1:], powers[..., 1, 1:] = np.cos(c)[..., None], np.sin(c)[..., None]
        powers = np.multiply.accumulate(powers, axis=-1).reshape(*c.shape, 2 * top)
        stacks = {shape: sign * powers.take(cos_at, axis=-1) * powers.take(sin_at, axis=-1)
                  for shape, (cos_at, sin_at, sign) in spreads.items()}
        factors = [stacks[shape] for shape in shapes]
        return lambda amps, j: _kron_pass(amps, [f[j] for f in factors])

    return np.array([1, -1j, -1, 1j])[popcount % 4], block, width


def _ideal_mixer(independent: np.ndarray):
    """:func:`_eigen_mixer` of the transverse mixer on the I independent patterns only:
    their I x I single-flip matrix diagonalized once, embedded as their rows of (2^n, I)."""
    idx = np.flatnonzero(independent)
    _guard_bytes(8 * len(idx) ** 2 + 16 * len(independent) * len(idx), "the ideal mixer")
    lam, vecs = np.linalg.eigh((np.bitwise_count(idx[:, None] ^ idx) == 1).astype(float))
    w = np.zeros((len(independent), len(idx)), dtype=complex)
    w[idx] = vecs
    return _eigen_mixer(lambda amps: amps @ w, lam, lambda amps: amps @ w.T)


def _run_pure(schedules, mixer, number: np.ndarray, proj: np.ndarray,
              energy: np.ndarray | None = None, kicks: np.ndarray | None = None):
    """The pure-state cycle engine; (final amplitudes, records) per schedule,
    in input order.

    A (B, 2^n) state, one row per row of every schedule, starts in vacuum.
    Each cycle applies exp(-i(phi_b number + zeta_b energy)), the ``mixer``
    (frame, block, width) at angle c_b and the constant unimodular diagonal
    ``kicks``, and records |amps|^2 @ proj (whose last column of ones gives
    each row's squared norm) up to the row's own last cycle.

    Rows run longest first, in blocks of cycles for the k rows still running,
    never past a row's end, each with one ``block`` call for its mixer
    tables.  A block keeps its states if ``PURE_BLOCK_ELEMENTS / (k 2^n)``
    cycles of them, two or more, fit: one exp builds its number phases, each
    cycle's state overwrites its own diagonal and one matmul gives the
    records.  A wide block keeps none: its tables span 2^n // width cycles
    (at least one), each cycle takes its own number phases, and its |amps|^2
    goes into one reused buffer before its records' matmul.  Kicks and a
    mixer's frame D leave vacuum and |amps| unchanged, so the state is kept
    as amps / (kicks D): each cycle's diagonal carries the kicks and D^2,
    and the kicks and D are applied to the final amplitudes.  An ``energy``
    (the QUBO path, one schedule) has up to 2^n distinct values, so its
    cycles' whole diagonals come from :func:`_ramp_phases`, anchored on the
    same cycles whatever the block.  The loop's arrays are guarded first,
    the records by the callers.
    """
    frame, mixer_block, mixer_width = mixer
    order = sorted(range(len(schedules)), key=lambda s: -schedules[s].n_cycle)
    sizes = [np.size(schedules[s].r_tot) for s in order]
    rows = dict(zip(order, map(slice, np.cumsum([0] + sizes), np.cumsum(sizes))))
    lengths = np.repeat([schedules[s].n_cycle for s in order], sizes)
    # In complex numbers: per pattern, the table indices and the two folded diagonals; the
    # finals; a block's kept states (a wide block's one diagonal); its mixer tables, over the
    # kept cells or, in a wide block, at most one entry per running amplitude; the larger of
    # the kept states again (their distinct-phase table, at most one entry per pattern) and the
    # running rows with three mixer temporaries; the reused |amps|^2 (real, so half); the two
    # buffers of NumPy's broadcast multiplies; a ramp's two diagonals per pattern and three rows.
    width = len(lengths) * len(number)
    cells = min(max(len(lengths), PURE_BLOCK_ELEMENTS // len(number)), len(lengths) * lengths[0])
    states = cells * len(number)
    ramp_entries = 0 if energy is None else 2 * len(number) + 3 * width
    _guard_bytes(16 * (3 * len(number) + width + states + max(cells * mixer_width, width)
                       + max(states, 4 * width) + max(states, width) // 2
                       + 2 * min(max(states, width), np.getbufsize()) + ramp_entries),
                 "the pure-state block")
    angles = np.zeros((2, lengths[0], len(lengths)))
    for s, sc in enumerate(schedules):
        angles[:, :sc.n_cycle, rows[s]] = np.atleast_2d(sc.phi).T, np.atleast_2d(sc.c).T
    fold, end = kicks, kicks
    if frame is not None:  # complex, like the diagonals they multiply, so never cast
        end = frame if kicks is None else kicks * frame
        fold = end * frame
    if energy is None:
        phases, ramp = _phase_tables(number), None
    else:
        ramp = _ramp_phases(schedules[0], number, energy, fold)

    def diagonals(cycles, k):  # the number phases of ``cycles`` for k rows, times the fold
        [diag] = phases(angles[0, cycles, :k])
        return diag if fold is None else np.multiply(diag, fold, out=diag)

    squares = np.empty(max(states, width))

    def record(kept, at):  # a (cycles, k, 2^n) stack's records, from cycle ``at`` on
        power = np.abs(kept, out=squares[:kept.size].reshape(kept.shape))
        np.square(power, out=power)
        records[:power.shape[1], at:at + len(power)] = (power @ proj).transpose(1, 0, 2)

    finals = np.zeros((len(lengths), len(number)), dtype=complex)
    finals[:, 0] = 1.0
    records = np.empty((len(lengths), lengths[0], proj.shape[1]))
    amps, start, k = finals, 0, len(lengths)
    while k:
        keep = PURE_BLOCK_ELEMENTS // amps.size  # cycles of states a block keeps, if above one
        span = keep if keep > 1 else max(1, len(number) // mixer_width)
        stop = min(lengths[k - 1], start + span)
        mix = mixer_block(angles[1, start:stop, :k])
        if keep < 2:  # wide: each cycle is recorded as it ends
            kept, diags = None, ramp or (diagonals(j, k) for j in range(start, stop))
        elif ramp is None:  # each cycle's state overwrites its own diagonal
            diags = kept = diagonals(slice(start, stop), k)
        else:
            diags, kept = ramp, np.empty((stop - start, k, len(number)), dtype=complex)
        for j, diag in zip(range(stop - start), diags):
            amps = mix(amps * diag, j)
            if kept is None:
                record(amps[None], start + j)
            else:
                kept[j] = amps
        if kept is not None:
            record(kept, start)
        del kept, diags, diag, mix  # before the next block's tables, as the guard counts
        start, left, k = stop, k, np.count_nonzero(lengths > stop)
        finals[k:left], amps = amps[k:], amps[:k]
    if end is not None:
        finals *= end
    return [(finals[rows[s]], records[rows[s], :sc.n_cycle]) for s, sc in enumerate(schedules)]


def _pure_report(schedule: Schedule, amps: np.ndarray, records: np.ndarray,
                 leak: np.ndarray, meta: dict) -> AnnealReport:
    """Pure-state report from :func:`_run_pure`'s output: success is the
    first record, ``meta["norm_drift"]`` the largest |norm - 1| of any row
    at any cycle.  A batched schedule keeps the batch axis (a (B,) array per
    pattern, a list of final states), a single one drops it."""
    space = make_space([2] * (amps.shape[1].bit_length() - 1))
    success = records[..., 0]
    norm_drift = float(np.max(np.abs(np.sqrt(records[..., -1]) - 1.0)))
    final = [PureState(space, a / np.linalg.norm(a)) for a in amps]
    populations = (np.abs(amps) ** 2).T
    if np.ndim(schedule.phi) == 1:
        success, leak, populations, final = success[0], leak[0], populations[:, 0], final[0]
    return AnnealReport(schedule.n_cycle, success, np.zeros_like(success), leak,
                        Populations(populations), final,
                        meta={**meta, "r_tot": schedule.r_tot, "norm_drift": norm_drift})


def _anneal_mis_pure(graph: ProblemGraph, schedules,
                     phi_q: float | None) -> list[AnnealReport]:
    """Statevector runs with kick pi + phi_q per violated edge, or the ideal mixer if ``phi_q``
    is None: all schedules' rows in one :func:`_run_pure` stack, one report each, in order."""
    if phi_q is not None and not math.isfinite(phi_q):
        raise ValueError("phi_q must be finite")
    if not schedules:
        return []
    _guard_cycles(sum(np.size(s.r_tot) for s in schedules), max(s.n_cycle for s in schedules))
    obs = _Observables(make_space([2] * graph.n_vertices), graph)
    if phi_q is None:
        mixer, kicks, meta = _ideal_mixer(obs.violations == 0), None, {"path": "ideal"}
    else:
        mixer, meta = _transverse_mixer(graph.n_vertices), {"path": "statevector", "phi_q": phi_q}
        kicks = np.exp(1j * (math.pi + phi_q) * obs.violations)
    proj = np.column_stack([obs.optimal, obs.violations == 0, np.ones(len(obs.number))])
    runs = _run_pure(schedules, mixer, obs.number, proj, kicks=kicks)
    return [_pure_report(schedule, amps, records, 1.0 - records[..., 1], meta)
            for schedule, (amps, records) in zip(schedules, runs)]


def anneal_statevector(graph: ProblemGraph, schedule: Schedule,
                       phi_q: float) -> AnnealReport:
    """Pure-state run with the coherent-limit constraint.

    Each edge multiplies the |1_j 1_k> amplitudes by exp(i (pi + phi_q)),
    which is exactly what the physical gadget does in its fully coherent
    setting, so this path matches ``anneal_density`` there.
    """
    return _anneal_mis_pure(graph, [schedule], phi_q)[0]


def anneal_ideal(graph: ProblemGraph, schedule: Schedule) -> AnnealReport:
    """Reference run: driver matrix elements into non-independent sets are zeroed."""
    return _anneal_mis_pure(graph, [schedule], None)[0]


def linear_three_parameter_profile(n_cycle: int, r_tot):
    """Default QUBO ramp: phi falls linearly, c bumps, zeta rises linearly.

    Endpoints: c(0) = zeta(0) = 0 with phi(0) > 0, and c(1) = phi(1) = 0 with
    zeta(1) > 0, both approached monotonically.  The early phase bias points
    at the all-empty state, so instances should be gauged to put their
    expected optimum there.  A sequence of r_tot gives (B, n_cycle) rows.
    """
    tau, step = _cycle_grid(n_cycle, r_tot)
    phi = step * (1.0 - tau)
    # c/phi must vanish at both ends or the pinned axis never returns to the
    # diagonal bias; sin^2 * (1 - tau) dies quadratically against phi.
    c = step * np.sin(math.pi * tau) ** 2 * (1.0 - tau)
    zeta = step * tau
    return tau, phi, c, zeta


def qubo_anneal(q: np.ndarray, n_cycle: int, r_tot) -> AnnealReport:
    """Three-parameter anneal minimizing E = sum_jk s_j s_k Q_jk on the
    :func:`linear_three_parameter_profile` ramp.

    Diagonal elements ride on the per-mode phases; each off-diagonal pair
    applies a pump-phase kick of zeta * (Q_jk + Q_kj) on |1_j 1_k>, which is
    only realizable with a lossless pump.  A sequence of r_tot runs a batch;
    ``meta`` holds the optima, and every pattern's energy and optimality
    mask in basis order, from ``problems._qubo_scores``; a bad Q (not square,
    empty, over the size guard, or a non-finite entry or energy) raises
    ValueError there, before the anneal runs.
    """
    tau, phi, c, zeta = linear_three_parameter_profile(n_cycle, r_tot)
    schedule = Schedule(n_cycle, r_tot, tau, phi, c, zeta=zeta)
    energy, optimal = _qubo_scores(q)
    number = np.bitwise_count(np.arange(len(energy))).astype(int)
    [(amps, records)] = _run_pure([schedule], _transverse_mixer(len(q)), number,
                                  np.column_stack([optimal, np.ones(len(energy))]), energy=energy)
    meta = {"path": "qubo", "energy": energy, "optimal": optimal, "optima": _optima(optimal)}
    return _pure_report(schedule, amps, records, np.zeros_like(records[..., 0]), meta)
