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
and drive are one unitary V rho V^dag per row; the TPA and SFG drives populate
|2>, so they run one row on the full space as a :class:`PhaseKernel` multiply
and one local drive superoperator on every mode.
``_run_pure`` runs it on a (B, 2^n) block of qubit amplitudes, one row per
row of a batched schedule (a sequence of r_tot), a block of cycles at a time,
for three paths:
``anneal_statevector`` (coherent-limit kick pi + phi_q on every |11> edge),
``anneal_ideal`` (a drive that cannot reach non-independent sets) and
``qubo_anneal`` (a zeta ramp on the QUBO energy).
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

# apply_local_operator_matrix is unused here but perfbench/tracing.py binds it.
from .fock import (DensityState, FockSpace, PureState,
                   apply_local_operator_matrix, apply_local_superop_matrix,
                   apply_superop_every_mode, eigenvalue_entropy, make_space)
from .gadgets import (ConstraintParams, DriveParams, constraint_superop,
                      drive_generator, pump_maps)
from .problems import ProblemGraph, _optima, _qubo_scores, _wmis_scores
# RUN_BYTES_MAX is unused here, but the CLI reads anneal.RUN_BYTES_MAX.
from .propagator import (RUN_BYTES_MAX, NonConvergenceError, PhaseKernel,
                         _guard_bytes, build_cache)

CYCLE_ORDER = "phase->drive->constraints"

DRIVE_MODES = ("ideal-2level", "zeno-tpa", "zeno-sfg")

# Stages of the zeno drive's binary exponential cache: the per-cycle drive
# time is reproduced to t_max / 2^30.
ZENO_CACHE_STAGES = 30

# Largest mass an edge gadget may send out of the 0/1 patterns from one
# qubit-block input column before the ideal-2level run refuses the block.
BLOCK_LEAK_TOL = 1e-12


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


def _zeno_step(space: FockSpace, weights, drive: DriveParams, mode_kind: str,
               c: np.ndarray):
    """(rho, phi, c) -> the weighted phase, then one local drive superoperator
    on every mode of a (1, D, D) stack: the full-space drive runs one row at a time.

    The drive hardware runs for t = c / drive.c <= max(c) / drive.c each
    cycle, so the blockade exposure scales together with the rotation angle
    exactly as it would physically.  An SFG pump is appended empty and traced
    out.  One table holds the map of each distinct t: the binary cache
    stages t selects composed onto the append map, one matmul per stage.
    """
    if drive.c <= 0:
        raise ValueError("zeno drive modes need a positive displacement rate c")
    mode_dim = space.mode_dims[0]
    gen, joint = drive_generator(mode_kind.removeprefix("zeno-"), make_space([mode_dim]), 0,
                                 drive.c, drive.gamma, drive.eta)
    times = np.unique(c / drive.c)
    cache = build_cache(gen, times[-1], ZENO_CACHE_STAGES)
    append, trace = pump_maps(mode_dim, joint.total_dim // mode_dim)
    # t <= t_max selects each stage at most once; maps[r] is (stages @ append)^T
    chosen = np.array([np.bincount(cache.select_stages(t), minlength=cache.m) for t in times])
    maps = np.repeat(append.T[None], len(times), axis=0).astype(complex)
    for stage, rows in zip(cache.stages, chosen.T > 0):
        maps[rows] = (maps[rows].reshape(-1, len(stage)) @ stage.T).reshape(-1, *append.T.shape)
    maps = (maps @ trace.T).mT
    phase = PhaseKernel(space, weights)

    def step(rho, phi, c):
        (phi,), (c,) = phi, c
        rho = phase.apply_matrix(rho, phi)
        return apply_superop_every_mode(maps[np.searchsorted(times, c / drive.c)], rho, space)

    return step


def _ideal_step(n: int, number: np.ndarray):
    """(rho, phi, c) -> V_b rho_b V_b^dag for each row b of a (B, 2^n, 2^n)
    stack, where V = W diag(exp(-i c lam)) W diag(exp(-i phi N_w)) is the
    weighted phase followed by exp(-i c X) on every qubit: W = H^{(x)n},
    lam = n - 2 popcount and N_w the weighted ``number``, as in the pure-state mixer.

    W W is formed from the exact +-1 signs and divided by 2^n, which is also
    exact; a rounded 2^(-n/2) would bias |det V| and drift the trace by about
    1e-16 per cycle.
    """
    signs = _walsh_signs(n).astype(complex)
    phases = _phase_tables(n - 2 * np.bitwise_count(np.arange(1 << n)).astype(int), number)

    def step(rho, phi, c):
        mixer_phases, number_phases = phases(c, phi)
        v = (signs * mixer_phases[:, None]) @ (signs * number_phases[:, None]) / (1 << n)
        return v @ rho @ v.conj().mT

    return step


def _qubit_block(superop: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """(block, leak) for a two-mode superoperator on [d, d]: its 16 x 16 map
    among |00>, |01>, |10>, |11> (F-order vec index a + d^2 b), and the
    largest mass one of those 16 input columns sends outside them."""
    q = np.array([0, 1, d, d + 1])
    idx = (q[:, None] + d * d * q[None, :]).ravel(order="F")
    cols = superop[:, idx]
    leak = np.abs(np.delete(cols, idx, axis=0)).sum(axis=0).max(initial=0.0)
    return cols[idx], float(leak)


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
    patterns, so it runs in the 2^n qubit block once each gadget is checked
    to keep it closed, and reports its final states there; the zeno drives
    run one schedule on the full space.  Rows run longest schedule first and
    leave the stack as theirs ends.  ``meta`` holds a row's largest
    |trace - 1| and smallest eigenvalue over all cycles.  A final state whose
    trace or hermiticity drifted past the :class:`DensityState` tolerances,
    or a NaN state, raises :class:`NonConvergenceError`.
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
    _guard_bytes(16 * len(schedules) * space.total_dim ** 2, "the final density states")
    edges = graph.sorted_edges()
    gadgets = dict.fromkeys(constraints, (None, None, 0.0))
    for con in gadgets if edges else ():
        gadget = constraint_superop(make_space([mode_dim, mode_dim]), 0, 1, con)
        # about 390 of the 6561 entries of the [3, 3] map are nonzero: CSR
        gadgets[con] = (scipy.sparse.csr_array(gadget), *_qubit_block(gadget, mode_dim))
    if in_block:
        for _, _, block_leak in gadgets.values():
            if not block_leak <= BLOCK_LEAK_TOL:
                raise NonConvergenceError(
                    f"edge gadget moves {block_leak:.3e} out of the 0/1 block "
                    f"(tolerance {BLOCK_LEAK_TOL:g})")
    step = (_ideal_step(n, obs.number) if in_block else
            _zeno_step(space, weights, drive, drive_mode, schedules[0].c))

    order = sorted(range(len(schedules)), key=lambda b: -schedules[b].n_cycle)
    lengths = [schedules[b].n_cycle for b in order]
    _guard_cycles(len(order), lengths[0])
    angles = np.zeros((2, len(order), lengths[0]))
    for row, b in enumerate(order):
        angles[:, row, :lengths[row]] = schedules[b].phi, schedules[b].c
    maps = [gadgets[constraints[b]][1 if in_block else 0] for b in order]
    shared = all(m is maps[0] for m in maps)  # one map, or one per row
    ops = maps[0] if shared else np.stack(maps)
    rho = np.zeros((len(order), space.total_dim, space.total_dim), dtype=complex)
    rho[:, 0, 0] = 1.0
    records, finals, k = np.empty((len(order), 5, lengths[0])), list(rho), len(order)
    for i in range(lengths[0]):
        while lengths[k - 1] <= i:
            k -= 1
            finals[k] = rho[k]
        rho = step(rho[:k], angles[0, :k, i], angles[1, :k, i])
        for edge in edges:
            rho = apply_local_superop_matrix(ops if shared else ops[:k], rho, space, edge)
        diag = rho.diagonal(0, 1, 2).real
        records[:k, 0, i], records[:k, 1, i] = obs.success(diag), obs.leakage(diag)
        records[:k, 4, i] = diag.sum(axis=-1)
        try:
            lam = np.linalg.eigvalsh(rho)
        except np.linalg.LinAlgError as exc:  # eigvalsh of a NaN state
            raise NonConvergenceError(f"density state at cycle {i + 1}: {exc}") from exc
        records[:k, 2, i], records[:k, 3, i] = eigenvalue_entropy(lam), lam[:, 0]
    finals[:k] = rho

    reports = [None] * len(order)
    for row, b in enumerate(order):
        rho, (success, leak, entropy, lam, trace) = finals[row], records[row, :, :lengths[row]]
        try:
            final = DensityState(space, rho)
        except ValueError as exc:
            raise NonConvergenceError(f"final density state: {exc}") from exc
        reports[b] = AnnealReport(
            lengths[row], success, entropy, leak,
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


# Cycles from one exact QUBO energy phase to the next.  Against one exp per
# cycle, n <= 9 runs of up to 1500 cycles moved populations by at most 4e-14
# with 16 and 7e-14 with 32.
PHASE_ANCHOR_CYCLES = 16


def _ramp_phases(schedule: Schedule, energy: np.ndarray):
    """Yields exp(-i zeta_j energy), (B, 2^n), for each cycle j in turn.

    On the :func:`linear_three_parameter_profile` ramp zeta grows by
    step/(n_cycle+1) a cycle, so each diagonal is the last one times
    R = exp(-i step/(n_cycle+1) energy), one R per row from the ramp's exact
    step, formed as D + D (R - 1) with expm1 so that |R| != 1 does not
    compound.  Cycles 0, 16, 32, ... take the exact exp instead.
    """
    neg_i_energy = -1j * energy
    step = np.atleast_2d(_cycle_grid(schedule.n_cycle, schedule.r_tot)[1])
    ratio_minus_one = np.expm1(step / (schedule.n_cycle + 1) * neg_i_energy)
    zeta = np.atleast_2d(schedule.zeta)
    for j in range(schedule.n_cycle):
        if j % PHASE_ANCHOR_CYCLES:
            diag = diag + diag * ratio_minus_one
        else:
            diag = np.exp(zeta[:, j, None] * neg_i_energy)
        yield diag


# Largest n whose Walsh pass is one matmul by the 2^n x 2^n signs, and the
# most qubits one Kronecker factor covers above it: with BLAS on one thread,
# 16 x 16 factors ran an n = 13-14 pass faster than 8 x 8 or 32 x 32 ones.
WALSH_MATMUL_QUBITS = 7
WALSH_FACTOR_QUBITS = 4


def _kron_pass(factors: list[np.ndarray]):
    """amps -> amps @ (F_1 (x) ... (x) F_m) on the last axis, for symmetric
    real factors, F_1 on the highest bits.

    Each factor but the last is one real matmul F_j @ (pre, d_j, 2 post) on
    the float view of the complex amplitudes; the last is a right multiply
    of the float view of the (rows, d_m) low bits by F_m (x) 1_2.
    """
    *lead, last = factors
    last = np.kron(last, np.eye(2))

    def transform(amps: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(amps, dtype=complex)
        post = x.shape[-1]
        for f in lead:
            post //= len(f)
            x = np.matmul(f, x.reshape(-1, len(f), post).view(float)).view(complex)
        x = x.reshape(-1, post).view(float) @ last
        return x.view(complex).reshape(amps.shape)

    return transform


def _transverse_mixer(n: int):
    """(to_eig, lam, from_eig) of exp(-i c X) on each of n qubits: its
    eigenbasis W = H^{(x)n} and lam = n - 2 popcount, so that the mixer is
    amps <- from_eig(to_eig(amps) * exp(-i c lam)).

    W = S / 2^(n/2) with S the exact +-1 Walsh signs and S S = 2^n: the
    forward pass applies S and the inverse S / 2^n, both exact, so at c = 0
    the mixer is exactly the identity and the norm does not leak.
    For n <= ``WALSH_MATMUL_QUBITS`` each pass is one matmul by the
    2^n x 2^n signs.  Beyond that S = S_k1 (x) ... (x) S_km, m factors of at
    most ``WALSH_FACTOR_QUBITS`` qubits each (Fino and Algazi 1976), applied
    by :func:`_kron_pass` in real arithmetic; the inverse puts its 1/2^n on
    the first factor.  No 2^n x 2^n matrix is formed.
    """
    lam = n - 2 * np.bitwise_count(np.arange(1 << n)).astype(int)
    if n <= WALSH_MATMUL_QUBITS:
        signs = _walsh_signs(n).astype(complex)
        inverse = signs / (1 << n)
        return (lambda amps: amps @ signs), lam, (lambda amps: amps @ inverse)
    m = -(-n // WALSH_FACTOR_QUBITS)
    sizes = [n // m + 1] * (n % m) + [n // m] * (m - n % m)
    signs = [_walsh_signs(k).astype(float) for k in sizes]
    return _kron_pass(signs), lam, _kron_pass([signs[0] / (1 << n), *signs[1:]])


def _ideal_mixer(independent: np.ndarray):
    """(to_eig, lam, from_eig) of the transverse mixer on the I independent patterns only:
    their I x I single-flip matrix diagonalized once, embedded as their rows of (2^n, I)."""
    idx = np.flatnonzero(independent)
    _guard_bytes(8 * len(idx) ** 2 + 16 * len(independent) * len(idx), "the ideal mixer")
    lam, vecs = np.linalg.eigh((np.bitwise_count(idx[:, None] ^ idx) == 1).astype(float))
    w = np.zeros((len(independent), len(idx)), dtype=complex)
    w[idx] = vecs
    return (lambda amps: amps @ w), lam, (lambda amps: amps @ w.T)


# Largest B * k * 2^n amplitudes the pure-state engine keeps for one block
# of k cycles: 64 KiB of states, and phase tables two to three times that.
# Larger blocks run the cycles no faster and raise peak memory (2^13 added
# 0.8 MB of peak RSS on the mis-pure benchmark).
PURE_BLOCK_ELEMENTS = 1 << 12


def _run_pure(schedule: Schedule, mixer, number: np.ndarray, proj: np.ndarray,
              energy: np.ndarray | None = None, kicks: np.ndarray | None = None):
    """The pure-state cycle engine; returns (final amplitudes, records).

    A (B, 2^n) state, one row per schedule row, starts in vacuum.  Each cycle
    applies exp(-i(phi_b number + zeta_b energy)), the ``mixer`` parts
    (to_eig, lam, from_eig) at angle c_b and the constant unimodular diagonal
    ``kicks``, and records |amps|^2 @ [proj, 1] in a (B, n_cycle, k + 1)
    array; the last column is each row's squared norm.

    Cycles run in blocks of at most ``PURE_BLOCK_ELEMENTS / (B 2^n)``, at
    least one: one exp builds the block's phase diagonals, a (k, B, 2^n)
    buffer keeps its states, and one matmul gives its records.  An
    ``energy`` (the QUBO path) has up to 2^n distinct values, so its phases
    come from :func:`_ramp_phases` instead, anchored on the same cycles
    whatever the block.  Kicks leave vacuum and |amps| unchanged, so each is
    folded into the next cycle's diagonal and the last one is applied at the
    end.
    """
    to_eig, lam, from_eig = mixer
    angles = [np.atleast_2d(a).T for a in (schedule.phi, schedule.c)]
    phases = _phase_tables(number, lam)
    ramp = None if energy is None else _ramp_phases(schedule, energy)
    proj = np.column_stack([proj, np.ones(len(number))])
    amps = np.zeros((angles[0].shape[1], len(number)), dtype=complex)
    amps[:, 0] = 1.0
    records = np.empty((len(amps), schedule.n_cycle, proj.shape[1]))
    block = max(1, PURE_BLOCK_ELEMENTS // amps.size)
    for start in range(0, schedule.n_cycle, block):
        diag, mix = phases(*(a[start:start + block] for a in angles))
        if ramp is not None:
            diag *= np.array([next(ramp) for _ in mix])
        if kicks is not None:
            diag *= kicks
        states = np.empty(diag.shape, dtype=complex)
        for j in range(len(diag)):
            states[j] = from_eig(to_eig(amps * diag[j]) * mix[j])
            amps = states[j]
        records[:, start:start + len(states)] = (
            (np.abs(states) ** 2) @ proj).transpose(1, 0, 2)
    if kicks is not None:
        amps = amps * kicks
    return amps, records


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


def _anneal_mis_pure(graph: ProblemGraph, schedule: Schedule,
                     phi_q: float | None) -> AnnealReport:
    """Statevector run with kick pi + phi_q per violated edge, or with the
    ideal mixer when ``phi_q`` is None."""
    obs = _Observables(make_space([2] * graph.n_vertices), graph)
    if phi_q is None:
        mixer, kicks, meta = _ideal_mixer(obs.violations == 0), None, {"path": "ideal"}
    else:
        mixer, meta = _transverse_mixer(graph.n_vertices), {"path": "statevector", "phi_q": phi_q}
        kicks = np.exp(1j * (math.pi + phi_q) * obs.violations)
    proj = np.column_stack([obs.optimal, obs.violations == 0]).astype(float)
    amps, records = _run_pure(schedule, mixer, obs.number, proj, kicks=kicks)
    return _pure_report(schedule, amps, records, 1.0 - records[..., 1], meta)


def anneal_statevector(graph: ProblemGraph, schedule: Schedule,
                       phi_q: float) -> AnnealReport:
    """Pure-state run with the coherent-limit constraint.

    Each edge multiplies the |1_j 1_k> amplitudes by exp(i (pi + phi_q)),
    which is exactly what the physical gadget does in its fully coherent
    setting, so this path matches ``anneal_density`` there.
    """
    if not math.isfinite(phi_q):
        raise ValueError("phi_q must be finite")
    return _anneal_mis_pure(graph, schedule, phi_q)


def anneal_ideal(graph: ProblemGraph, schedule: Schedule) -> AnnealReport:
    """Reference run: driver matrix elements into non-independent sets are zeroed."""
    return _anneal_mis_pure(graph, schedule, None)


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
    amps, records = _run_pure(schedule, _transverse_mixer(len(q)), number,
                              optimal[:, None].astype(float), energy=energy)
    meta = {"path": "qubo", "energy": energy, "optimal": optimal, "optima": _optima(optimal)}
    return _pure_report(schedule, amps, records, np.zeros_like(records[..., 0]), meta)
