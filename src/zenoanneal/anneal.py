"""The optimization protocol: schedules, the two cycle engines, observables.

Each cycle applies, in this fixed order: (1) a per-node phase rotation,
(2) the drive, (3) one constraint gadget per edge in sorted edge order.
Edge gadgets sharing a vertex need not commute, so the order is part of the
contract and is recorded in every report.

Node weights come from the graph alone: node j's phase each cycle is
phi_i * w_j with ``ProblemGraph.weights`` (unit weights when it has none),
and the same weights pick the optimal sets that success is scored against.

``anneal_density`` runs that cycle on a density matrix with the physical
constraint gadget (built on per-mode dim >= 3) per edge.  The exact
two-level drive keeps rho in the 2^n x 2^n block of 0/1 patterns, where phase
and drive are one unitary V rho V^dag; the TPA and SFG drives populate |2>,
so they run on the full space as a :class:`PhaseKernel` multiply and one
local drive superoperator per mode.
``_run_pure`` runs it on a (B, 2^n) block of qubit amplitudes, one row per
row of a batched schedule (a sequence of r_tot), for three paths:
``anneal_statevector`` (coherent-limit kick pi + phi_q on every |11> edge),
``anneal_ideal`` (a drive that cannot reach non-independent sets) and
``qubo_anneal`` (a zeta ramp on the QUBO energy).
Every report carries its final state and its per-cycle entropy (zero on the
pure paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# apply_local_operator_matrix is unused here but perfbench/tracing.py binds it.
from .fock import (DensityState, FockSpace, PureState,
                   apply_local_operator_matrix, apply_local_superop_matrix,
                   make_space, vacuum, von_neumann_entropy)
from .gadgets import (ConstraintParams, DriveParams, constraint_superop,
                      drive_generator, pump_maps)
from .problems import ProblemGraph
from .propagator import NonConvergenceError, PhaseKernel, build_cache

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


def _cycle_grid(n_cycle: int, r_tot):
    """(tau, step): tau_i = i/(n_cycle+1) and r_tot/n_cycle, the step as a
    (B, 1) column when r_tot is a sequence of B values."""
    r = np.asarray(r_tot, dtype=float)
    if n_cycle < 1:
        raise ValueError("n_cycle must be at least 1")
    if r.ndim > 1 or r.size == 0 or not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError("r_tot must be finite and positive "
                         "(one value or a non-empty sequence)")
    return np.arange(1, n_cycle + 1, dtype=float) / (n_cycle + 1), r[..., None] / n_cycle


def make_schedule(n_cycle: int, r_tot) -> Schedule:
    """Cot-profile schedule; a sequence of r_tot gives a batched schedule."""
    tau, step = _cycle_grid(n_cycle, r_tot)
    cot = np.cos(math.pi * tau) / np.sin(math.pi * tau)
    phi = step * cot / (1.0 + np.abs(cot))
    c = step / (1.0 + np.abs(cot))
    r_field = float(r_tot) if np.ndim(r_tot) == 0 else tuple(map(float, r_tot))
    return Schedule(n_cycle, r_field, tau, phi, c)


@dataclass
class AnnealReport:
    """Per-cycle observables, the final 0/1-pattern populations and the final
    state (one per row of a batched schedule)."""

    n_cycle: int
    success: np.ndarray
    entropy: np.ndarray
    leakage: np.ndarray
    final_populations: dict[tuple[int, ...], float]
    final_state: object
    cycle_order: str = CYCLE_ORDER
    meta: dict = field(default_factory=dict)


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) occupations of every 0/1 pattern in basis order (mode 0 slowest)."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


class _Observables:
    """Per 0/1 pattern (rows of ``bits``): edge violations, weighted number
    N_w = bits @ weights, optimality, and the basis indices for
    success/leakage."""

    def __init__(self, space: FockSpace, graph: ProblemGraph):
        n = graph.n_vertices
        self.bits = _bit_table(n)
        self.pattern_idx = self.bits @ np.array(space.strides)
        self.patterns = list(map(tuple, self.bits.tolist()))
        self.violations = sum((self.bits[:, j] & self.bits[:, k] for j, k in graph.edges),
                              np.zeros(len(self.bits), dtype=int))
        self.number = self.bits @ np.asarray(graph.weights or (1.0,) * n)
        value = np.where(self.violations == 0, self.number, -np.inf)
        # MIS is WMIS with unit weights; ties as in problems.brute_force_wmis
        self.optimal = value >= value.max() - 1e-12
        self.optima_idx = self.pattern_idx[self.optimal]
        self.independent_idx = self.pattern_idx[self.violations == 0]

    def success(self, diag: np.ndarray) -> float:
        return float(diag[self.optima_idx].sum())

    def leakage(self, diag: np.ndarray) -> float:
        return float(1.0 - diag[self.independent_idx].sum())

    def qubit_populations(self, diag: np.ndarray) -> dict[tuple[int, ...], float]:
        return dict(zip(self.patterns, diag[self.pattern_idx].tolist()))


def success_probability(state, graph: ProblemGraph) -> float:
    """Population on the basis patterns of every optimal vertex set."""
    obs = _Observables(state.space, graph)
    return obs.success(_diag(state))


def leakage(state, graph: ProblemGraph) -> float:
    """Population outside independent 0/1 patterns (including >= 2 photons)."""
    obs = _Observables(state.space, graph)
    return obs.leakage(_diag(state))


def _diag(state) -> np.ndarray:
    if isinstance(state, DensityState):
        return state.matrix.diagonal().real
    return np.abs(state.amplitudes) ** 2


def _zeno_step(space: FockSpace, weights, drive: DriveParams, mode_kind: str,
               c_max: float):
    """(rho, phi, c) -> the weighted phase, then one local drive
    superoperator per mode, composed from a binary exponential cache.

    The drive hardware runs for t = c / drive.c <= c_max / drive.c each
    cycle, so the blockade exposure scales together with the rotation angle
    exactly as it would physically.  An SFG pump is appended empty and traced
    out.
    """
    if drive.c <= 0:
        raise ValueError("zeno drive modes need a positive displacement rate c")
    mode_dim = space.mode_dims[0]
    gen, joint = drive_generator(mode_kind.removeprefix("zeno-"), make_space([mode_dim]),
                                 0, drive.c, drive.gamma, drive.eta)
    cache = build_cache(gen, c_max / drive.c, ZENO_CACHE_STAGES)
    if joint.n_modes == 1:
        local_drive = lambda c: cache.matrix_for(c / drive.c)
    else:
        append, trace = pump_maps(mode_dim, joint.mode_dims[-1])
        local_drive = lambda c: trace @ cache.matrix_for(c / drive.c) @ append
    phase = PhaseKernel(space, weights)

    def step(rho, phi, c):
        rho = phase.apply_matrix(rho, phi)
        drive_map = local_drive(c)
        for m in range(space.n_modes):
            rho = apply_local_superop_matrix(drive_map, rho, space, [m])
        return rho

    return step


def _ideal_step(n: int, weights):
    """(rho, phi, c) -> V rho V^dag on the 2^n qubit block, where
    V = W diag(exp(-i c lam)) W diag(exp(-i phi N_w)) is the weighted phase
    followed by exp(-i c X) on every qubit: W = H^{(x)n}, lam = n - 2 popcount
    and N_w = bits @ weights, as in the pure-state mixer.

    W W is formed from the exact +-1 signs and divided by 2^n, which is also
    exact; a rounded 2^(-n/2) would bias |det V| and drift the trace by about
    1e-16 per cycle.
    """
    bits = _bit_table(n)
    signs = _walsh_signs(n)
    mixer_phases = _phase_diagonal(n - 2 * bits.sum(axis=1))
    number_phases = _phase_diagonal(bits @ np.asarray(weights))

    def step(rho, phi, c):
        v = (signs * mixer_phases(np.array([c]))) @ (
            signs * number_phases(np.array([phi]))) / (1 << n)
        return v @ rho @ v.conj().T

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
    """Density-matrix execution with physical constraint gadgets.

    ``mode_dim`` >= 3 is required whenever the graph has edges, since the
    gadgets route population through the two-photon state.  The ideal drive
    never leaves the 0/1 patterns, so that mode runs on the 2^n qubit block
    once the gadget is checked to keep it closed; the final state is padded
    back to the ``mode_dim`` space.  A final state whose trace or
    hermiticity drifted past the :class:`DensityState` tolerances raises
    :class:`NonConvergenceError`.
    """
    if drive_mode not in DRIVE_MODES:
        raise ValueError(f"drive_mode must be one of {DRIVE_MODES}")
    if graph.edges and mode_dim < 3:
        raise ValueError("constraint gadgets need per-mode dim >= 3")
    if np.ndim(schedule.phi) != 1:
        raise ValueError("anneal_density takes one schedule, not a batch of r_tot values")
    n = graph.n_vertices
    weights = graph.weights or (1.0,) * n
    if drive_mode != "ideal-2level" and drive is None:
        raise ValueError(f"drive_mode {drive_mode!r} needs DriveParams")

    edges = graph.sorted_edges()
    gadget, block, block_leak = None, None, 0.0
    if edges:
        gadget = constraint_superop(make_space([mode_dim, mode_dim]), 0, 1, constraint).matrix
        block, block_leak = _qubit_block(gadget, mode_dim)
    full_space = make_space([mode_dim] * n)
    in_block = drive_mode == "ideal-2level"
    if in_block:
        if not block_leak <= BLOCK_LEAK_TOL:
            raise NonConvergenceError(
                f"edge gadget moves {block_leak:.3e} out of the 0/1 block "
                f"(tolerance {BLOCK_LEAK_TOL:g})")
        space, gadget, step = make_space([2] * n), block, _ideal_step(n, weights)
    else:
        space = full_space
        step = _zeno_step(space, weights, drive, drive_mode, float(np.max(schedule.c)))
    obs = _Observables(space, graph)

    rho = vacuum(space).to_density().matrix
    success = np.empty(schedule.n_cycle)
    entropy = np.empty(schedule.n_cycle)
    leak = np.empty(schedule.n_cycle)
    for i in range(schedule.n_cycle):
        rho = step(rho, float(schedule.phi[i]), float(schedule.c[i]))
        for (j, k) in edges:
            rho = apply_local_superop_matrix(gadget, rho, space, [j, k])
        diag = rho.diagonal().real
        success[i] = obs.success(diag)
        leak[i] = obs.leakage(diag)
        entropy[i] = von_neumann_entropy(rho)

    final = rho
    if in_block:
        idx = obs.bits @ np.array(full_space.strides)
        final = np.zeros((full_space.total_dim,) * 2, dtype=complex)
        final[np.ix_(idx, idx)] = rho
    try:
        final = DensityState(full_space, final)
    except ValueError as exc:
        raise NonConvergenceError(f"final density state: {exc}") from exc
    return AnnealReport(
        schedule.n_cycle, success, entropy, leak,
        obs.qubit_populations(rho.diagonal().real), final,
        meta={"path": "density", "drive_mode": drive_mode, "mode_dim": mode_dim,
              "space": "qubit-block" if in_block else "full", "block_leak": block_leak,
              "constraint": constraint, "r_tot": schedule.r_tot})


def _walsh_signs(k: int) -> np.ndarray:
    """2^(k/2) H^{(x)k}, exactly: entry (x, y) is (-1)^popcount(x & y)."""
    bits = _bit_table(k)
    return 1 - 2 * ((bits @ bits.T) & 1)


def _phase_diagonal(values: np.ndarray):
    """angles -> exp(-i angle_b values) for one angle per row, with one exp
    per distinct value (number and n - 2 popcount take only n + 1 values)."""
    distinct, index = np.unique(values, return_inverse=True)
    neg_i_distinct = -1j * distinct
    return lambda angles: np.exp(angles[:, None] * neg_i_distinct)[:, index]


def _eigen_mixer(lam: np.ndarray, to_eig, from_eig):
    """(amps, c) -> exp(-i c_b M) on every row, in M's eigenbasis W:
    amps <- ((amps @ W) * exp(-i c lam)) @ W^T."""
    phases = _phase_diagonal(lam)
    return lambda amps, c: from_eig(to_eig(amps) * phases(c))


def _transverse_mixer(n: int):
    """exp(-i c X) on each of n qubits: W = H^{(x)n}, lam = n - 2 popcount.

    W = S / 2^(n/2) with S the exact +-1 Walsh signs and S S = 2^n: the
    forward pass applies S and the inverse S / 2^n, both exact, so at c = 0
    the mixer is exactly the identity and the norm does not leak.
    S = S_(n-k) (x) S_k with k = min(n, 7): the low k bits are one matmul on
    a (B 2^(n-k), 2^k) reshape, the high bits a second on (B, 2^(n-k), 2^k),
    so no 2^n x 2^n matrix is formed.
    """
    k = min(n, 7)
    low, high = _walsh_signs(k).astype(complex), _walsh_signs(n - k).astype(complex)

    def walsh(low: np.ndarray):
        def transform(amps: np.ndarray) -> np.ndarray:
            out = amps.reshape(-1, low.shape[0]) @ low
            if n > k:
                out = high @ out.reshape(amps.shape[0], high.shape[0], low.shape[0])
            return out.reshape(amps.shape)
        return transform

    return _eigen_mixer(n - 2 * _bit_table(n).sum(axis=1), walsh(low), walsh(low / (1 << n)))


def _ideal_mixer(independent: np.ndarray):
    """The transverse mixer with every matrix element that touches a
    non-independent pattern removed, diagonalized once."""
    idx = np.arange(len(independent))
    single_flip = np.bitwise_count(idx[:, None] ^ idx[None, :]) == 1
    lam, vecs = np.linalg.eigh(
        (single_flip & independent[:, None] & independent[None, :]).astype(float))
    w = vecs.astype(complex)
    return _eigen_mixer(lam, lambda amps: amps @ w, lambda amps: amps @ w.T)


def _run_pure(schedule: Schedule, mixer, number: np.ndarray, proj: np.ndarray,
              energy: np.ndarray | None = None, kicks: np.ndarray | None = None):
    """The pure-state cycle engine; returns (final amplitudes, records).

    A (B, 2^n) state, one row per schedule row, starts in vacuum.  Each cycle
    applies exp(-i(phi_b number + zeta_b energy)), ``mixer`` at angle c_b and
    the constant diagonal ``kicks``, then records |amps|^2 @ proj in a
    (B, n_cycle, k) array; memory per cycle stays O(B 2^n).
    """
    phi, c = np.atleast_2d(schedule.phi), np.atleast_2d(schedule.c)
    number_phases = _phase_diagonal(number)
    if schedule.zeta is not None:
        zeta, energy_phases = np.atleast_2d(schedule.zeta), _phase_diagonal(energy)
    amps = np.zeros((phi.shape[0], len(number)), dtype=complex)
    amps[:, 0] = 1.0
    records = np.empty((phi.shape[0], schedule.n_cycle, proj.shape[1]))
    for i in range(schedule.n_cycle):
        diag = number_phases(phi[:, i])
        if schedule.zeta is not None:
            diag *= energy_phases(zeta[:, i])
        amps = mixer(amps * diag, c[:, i])
        if kicks is not None:
            amps *= kicks
        records[:, i] = (np.abs(amps) ** 2) @ proj
    return amps, records


def _pure_report(schedule: Schedule, bits: np.ndarray, amps: np.ndarray,
                 success: np.ndarray, leak: np.ndarray, meta: dict) -> AnnealReport:
    """Pure-state report; a batched schedule keeps the batch axis (a (B,)
    array per pattern, a list of final states), a single one drops it."""
    space = make_space([2] * bits.shape[1])
    final = [PureState(space, a / np.linalg.norm(a)) for a in amps]
    populations = (np.abs(amps) ** 2).T
    if np.ndim(schedule.phi) == 1:
        success, leak, populations, final = (success[0], leak[0],
                                             populations[:, 0].tolist(), final[0])
    return AnnealReport(schedule.n_cycle, success, np.zeros_like(success), leak,
                        dict(zip(map(tuple, bits.tolist()), populations)), final,
                        meta={**meta, "r_tot": schedule.r_tot})


def _anneal_mis_pure(graph: ProblemGraph, schedule: Schedule,
                     phi_q: float | None) -> AnnealReport:
    """Statevector run with kick pi + phi_q per violated edge, or with the
    ideal mixer when ``phi_q`` is None."""
    n = graph.n_vertices
    obs = _Observables(make_space([2] * n), graph)
    if phi_q is None:
        mixer, kicks, meta = _ideal_mixer(obs.violations == 0), None, {"path": "ideal"}
    else:
        mixer, meta = _transverse_mixer(n), {"path": "statevector", "phi_q": phi_q}
        kicks = np.exp(1j * (math.pi + phi_q) * obs.violations)
    proj = np.column_stack([obs.optimal, obs.violations == 0]).astype(float)
    amps, records = _run_pure(schedule, mixer, obs.number, proj, kicks=kicks)
    return _pure_report(schedule, obs.bits, amps, records[..., 0],
                        1.0 - records[..., 1], meta)


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
    ``meta`` holds the optima and every pattern's energy in basis order.
    """
    q = np.asarray(q, dtype=float)
    tau, phi, c, zeta = linear_three_parameter_profile(n_cycle, r_tot)
    schedule = Schedule(n_cycle, r_tot, tau, phi, c, zeta=zeta)
    bits = _bit_table(q.shape[0])
    energy = ((bits @ q) * bits).sum(axis=1)
    optimal = energy <= energy.min() + 1e-12  # the tie rule of brute_force_qubo
    amps, records = _run_pure(schedule, _transverse_mixer(q.shape[0]), bits.sum(axis=1),
                              optimal[:, None].astype(float), energy=energy)
    meta = {"path": "qubo", "energy": energy,
            "optima": list(map(tuple, bits[optimal].tolist()))}
    return _pure_report(schedule, bits, amps, records[..., 0],
                        np.zeros_like(records[..., 0]), meta)
