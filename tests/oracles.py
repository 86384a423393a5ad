"""Reference helpers that only tests use: basis states, populations, a
superoperator matrix applied to a density state, the positivity check and
entropy of density states, the partial trace, the dense map of a drive with
its pump traced out, a butterfly Walsh transform, the QUBO anneal with one
exact phase exp per cycle, the ideal anneal with one drive expm per cycle on
the independent patterns, the zeno density run with one composed drive map
per cycle, the density cycle loop with one unitary or one drive map per
mode, one local map per edge and one eigvalsh per cycle, the copy encoding
as a graph, and the exhaustive solvers, decoder and loss study that the
array solvers in ``zenoanneal.problems`` and ``zenoanneal.experiments`` are
checked against."""

import math
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse

from zenoanneal.anneal import (ZENO_CACHE_STAGES, _Observables, _qubit_block,
                               _walsh_signs, _zeno_maps, linear_three_parameter_profile)
from zenoanneal.fock import (DensityState, PureState, apply_local_superop_matrix,
                             eigenvalue_entropy, make_space)
from zenoanneal.gadgets import constraint_superop, drive_generator, pump_maps
from zenoanneal.problems import (_optima, _qubo_scores, brute_force_mis,
                                 graph_from_edges, loss_injection_batch)
from zenoanneal.propagator import PhaseKernel, build_cache, expm_dense

# Smallest eigenvalue a valid density matrix may have.
EIGENVALUE_FLOOR = -1e-8


def number_state(space, occupations) -> PureState:
    """Basis state with the given photon numbers."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index(occupations)] = 1.0
    return PureState(space, amps)


def population(state, occupations) -> float:
    """Probability of one occupation pattern in a pure or density state."""
    idx = state.space.index(occupations)
    if isinstance(state, PureState):
        return float(np.abs(state.amplitudes[idx]) ** 2)
    return float(state.matrix[idx, idx].real)


def apply_superop(mat: np.ndarray, state: DensityState) -> DensityState:
    """vec(rho') = mat @ vec(rho) under column stacking."""
    d = state.space.total_dim
    out = mat @ state.matrix.flatten(order="F")
    return DensityState(state.space, out.reshape((d, d), order="F"))


def validate_density(state: DensityState) -> None:
    """Positivity check: ValueError if an eigenvalue is below the floor."""
    lam = np.linalg.eigvalsh(state.matrix)
    if lam.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {lam.min():.3e} below floor")


def von_neumann_entropy(state):
    """Entropy in bits of a state or raw density matrix, or an array of them
    for a (B, D, D) stack (one eigvalsh call)."""
    mat = state.matrix if isinstance(state, DensityState) else np.asarray(state)
    return eigenvalue_entropy(np.linalg.eigvalsh(mat))


def partial_trace(state: DensityState, keep) -> DensityState:
    """Trace out every mode not listed in ``keep``."""
    dims = state.space.mode_dims
    keep = sorted(set(int(k) for k in keep))
    tensor = state.matrix.reshape(dims + dims)
    # Highest axes first, so the lower axis numbers stay valid.
    for m in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + tensor.ndim // 2)
    d_keep = math.prod(dims[k] for k in keep)
    return DensityState(make_space([dims[k] for k in keep]), tensor.reshape(d_keep, d_keep))


def drive_superop(kind, space, mode, t, c=0.0, gamma=1.0, eta=0.0) -> np.ndarray:
    """exp(t G) of the ``drive_generator`` drive on ``mode``; an SFG pump is
    appended empty and traced out afterwards.  With c = 0 and the default
    rates this is the bare blockade at exposure gamma t = t."""
    gen, joint = drive_generator(kind, space, mode, c, gamma, eta)
    mat = expm_dense(gen, t)
    if joint != space:
        append, trace = pump_maps(space.total_dim, joint.mode_dims[-1])
        mat = trace @ mat @ append
    return mat


def zeno_density_oracle(graph, schedule, constraint, drive_mode, drive, mode_dim=3):
    """(final rho, records) of a zeno density run, one cycle at a time: the
    weighted phase, then the drive map composed by ``matrix_for`` with its
    pump appended and traced out, applied mode by mode, then each sorted
    edge's dense gadget.  Records are per cycle: success, leakage, entropy,
    |trace - 1| and the smallest eigenvalue."""
    n = graph.n_vertices
    space = make_space([mode_dim] * n)
    gen, joint = drive_generator(drive_mode.removeprefix("zeno-"), make_space([mode_dim]), 0,
                                 drive.c, drive.gamma, drive.eta)
    cache = build_cache(gen, float(np.max(schedule.c)) / drive.c, ZENO_CACHE_STAGES)
    append, trace = pump_maps(mode_dim, joint.total_dim // mode_dim)
    gadget = constraint_superop(make_space([mode_dim] * 2), 0, 1, constraint)
    phase = PhaseKernel(space, graph.weights or (1.0,) * n)
    obs = _Observables(space, graph)
    rho = np.zeros((space.total_dim,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    records = []
    for phi, c in zip(schedule.phi, schedule.c):
        rho = phase.apply_matrix(rho, phi)
        drive_map = trace @ cache.matrix_for(c / drive.c) @ append
        for m in range(n):
            rho = apply_local_superop_matrix(drive_map, rho, space, [m])
        for edge in graph.sorted_edges():
            rho = apply_local_superop_matrix(gadget, rho, space, edge)
        diag = rho.diagonal().real
        records.append((obs.success(diag), obs.leakage(diag), von_neumann_entropy(rho),
                        abs(diag.sum() - 1.0), np.linalg.eigvalsh(rho)[0]))
    return rho, np.array(records).T


def density_cycle_loop(graph, schedule, constraint, drive_mode="ideal-2level", drive=None,
                       mode_dim=3):
    """(final rho, records) of one density run, one cycle at a time: on the
    2^n qubit block, V = S diag(exp(-i c lam)) S diag(exp(-i phi N_w)) / 2^n
    and V rho V^dag, then each sorted edge's 16 x 16 qubit block as a local
    map; on the full space, the weighted phase, then the cycle's drive map
    from ``anneal._zeno_maps`` (the one table this loop shares with the
    engine) on one mode at a time, then each edge's sparse gadget, all as
    local maps.  Every cycle's state takes its own eigvalsh.  Records are
    per cycle: success, leakage, entropy, the smallest eigenvalue and the
    trace."""
    n = graph.n_vertices
    in_block = drive_mode == "ideal-2level"
    space = make_space([2 if in_block else mode_dim] * n)
    obs = _Observables(space, graph)
    gadget = constraint_superop(make_space([mode_dim] * 2), 0, 1, constraint)
    if in_block:
        gadget = _qubit_block(gadget, mode_dim)[0]
        signs = _walsh_signs(n).astype(complex)
        lam = n - 2 * np.bitwise_count(np.arange(1 << n)).astype(int)
    else:
        gadget = scipy.sparse.csr_array(gadget)
        phase = PhaseKernel(space, graph.weights or (1.0,) * n)
        maps, index = _zeno_maps(mode_dim, drive, drive_mode, schedule.c)
    rho = np.zeros((1, space.total_dim, space.total_dim), dtype=complex)
    rho[0, 0, 0] = 1.0
    records = []
    for i, (phi, c) in enumerate(zip(schedule.phi, schedule.c)):
        if in_block:
            v = (signs * np.exp(-1j * c * lam)) @ (signs * np.exp(-1j * phi * obs.number))
            v /= 1 << n
            rho = v @ rho @ v.conj().T
        else:
            rho = phase.apply_matrix(rho, phi)
            for m in range(n):
                rho = apply_local_superop_matrix(maps[index[i]], rho, space, [m])
        for edge in graph.sorted_edges():
            rho = apply_local_superop_matrix(gadget, rho, space, edge)
        diag = rho[0].diagonal().real
        eigenvalues = np.linalg.eigvalsh(rho[0])
        records.append((obs.success(diag), obs.leakage(diag), eigenvalue_entropy(eigenvalues),
                        eigenvalues[0], diag.sum()))
    return rho[0], np.array(records).T


def fwht(x: np.ndarray) -> np.ndarray:
    """S x along the last axis, S_xy = (-1)^popcount(x & y) unnormalized, by
    the radix-2 butterfly: one (a + b, a - b) stage per bit."""
    out = np.array(x, dtype=complex)
    h = 1
    while h < out.shape[-1]:
        pairs = out.reshape(*out.shape[:-1], -1, 2, h)
        a, b = pairs[..., 0, :].copy(), pairs[..., 1, :].copy()
        pairs[..., 0, :], pairs[..., 1, :] = a + b, a - b
        h *= 2
    return out


def exact_qubo_anneal(q, n_cycle: int, r_tot):
    """(populations, success, norm drift) of ``qubo_anneal`` run with one
    exact exp(-i phi_j N) exp(-i zeta_j E) per cycle and the mixer as
    S diag(exp(-i c_j lam)) S / 2^n by the butterfly :func:`fwht`: (B, 2^n)
    final populations in basis order, (B, n_cycle) success, and the largest
    |norm - 1| at any cycle."""
    energy, optimal = _qubo_scores(q)
    number = np.bitwise_count(np.arange(len(energy))).astype(int)
    lam = len(q) - 2 * number
    _, phi, c, zeta = (np.atleast_2d(a) for a in linear_three_parameter_profile(n_cycle, r_tot))
    amps = np.zeros((len(phi), len(energy)), dtype=complex)
    amps[:, 0] = 1.0
    success, drift = np.empty(phi.shape), 0.0
    for j in range(n_cycle):
        diag = np.exp(phi[:, j, None] * (-1j * number)) * np.exp(zeta[:, j, None] * (-1j * energy))
        amps = fwht(fwht(amps * diag) * np.exp(c[:, j, None] * (-1j * lam))) / len(energy)
        populations = np.abs(amps) ** 2
        success[:, j] = populations @ optimal
        drift = max(drift, float(np.max(np.abs(np.sqrt(populations.sum(axis=1)) - 1.0))))
    return populations, success, drift


def exact_ideal_anneal(graph, schedule):
    """(populations, success) of ``anneal_ideal`` run with one
    ``scipy.linalg.expm`` of the drive per cycle, on the independent 0/1
    patterns only: (2^n,) final populations in basis order and (n_cycle,)
    success."""
    n = graph.n_vertices
    weights = graph.weights or (1.0,) * n
    patterns = list(product((0, 1), repeat=n))  # basis order, vertex 0 first
    independent = [i for i, p in enumerate(patterns)
                   if not any(p[u] and p[v] for u, v in graph.edges)]
    number = np.array([sum(w for w, bit in zip(weights, patterns[i]) if bit)
                       for i in independent])
    flips = np.array([[float(sum(a != b for a, b in zip(patterns[i], patterns[j])) == 1)
                       for j in independent] for i in independent])
    optima = loop_brute_force_wmis(graph)[1]
    optimal = np.array([frozenset(j for j, bit in enumerate(patterns[i]) if bit) in optima
                        for i in independent])
    psi = np.zeros(len(independent), dtype=complex)
    psi[0] = 1.0
    success = np.empty(schedule.n_cycle)
    for j, (phi, c) in enumerate(zip(schedule.phi, schedule.c)):
        psi = scipy.linalg.expm(-1j * c * flips) @ (np.exp(-1j * phi * number) * psi)
        success[j] = np.sum(np.abs(psi[optimal]) ** 2)
    populations = np.zeros(1 << n)
    populations[independent] = np.abs(psi) ** 2
    return populations, success


def _edge_masks(graph) -> list[int]:
    return [(1 << u) | (1 << v) for u, v in graph.edges]


def loop_brute_force_mis(graph):
    """(size, all optima) of the maximum independent set, one assignment
    at a time."""
    masks = _edge_masks(graph)
    best, optima = -1, []
    for assignment in range(1 << graph.n_vertices):
        if any((assignment & m) == m for m in masks):
            continue
        size = assignment.bit_count()
        if size > best:
            best, optima = size, [assignment]
        elif size == best:
            optima.append(assignment)
    sets = [frozenset(i for i in range(graph.n_vertices) if a >> i & 1) for a in optima]
    return best, sets


def loop_brute_force_wmis(graph):
    """Weighted variant; unit weights when none are set."""
    w = graph.weights or tuple(1.0 for _ in range(graph.n_vertices))
    masks = _edge_masks(graph)
    best, optima = None, []
    for assignment in range(1 << graph.n_vertices):
        if any((assignment & m) == m for m in masks):
            continue
        value = sum(w[i] for i in range(graph.n_vertices) if assignment >> i & 1)
        if best is None or value > best + 1e-12:
            best, optima = value, [assignment]
        elif abs(value - best) <= 1e-12:
            optima.append(assignment)
    sets = [frozenset(i for i in range(graph.n_vertices) if a >> i & 1) for a in optima]
    return float(best), sets


def qubo_energy(q: np.ndarray, bits) -> float:
    """E = sum_jk s_j s_k Q_jk with the double sum counting both triangles."""
    s = np.asarray(bits, dtype=float)
    return float(s @ q @ s)


def loop_brute_force_qubo(q):
    """(min energy, all argmin bit tuples), one assignment at a time."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    best, optima = None, []
    for assignment in range(1 << n):
        bits = tuple((assignment >> i) & 1 for i in range(n))
        e = qubo_energy(q, bits)
        if best is None or e < best - 1e-12:
            best, optima = e, [bits]
        elif abs(e - best) <= 1e-12:
            optima.append(bits)
    return float(best), optima


def brute_force_qubo(q):
    """(min energy, all argmin bit tuples) from the per-pattern scorer."""
    energy, optimal = _qubo_scores(q)
    return float(energy.min()), _optima(optimal)


def encoded_vertex(j: int, k: int, n_copy: int) -> int:
    """Flatten copy k of original vertex j."""
    return j * n_copy + k


def mitigation_encode(graph, n_copy: int):
    """The copy encoding as a graph: every original edge {u, v} becomes the
    complete bipartite edge set between the copies of u and the copies of v;
    copies of one vertex stay mutually unconstrained."""
    if n_copy < 1:
        raise ValueError("n_copy must be at least 1")
    edges = [(encoded_vertex(u, p, n_copy), encoded_vertex(v, q, n_copy))
             for u, v in graph.edges for p in range(n_copy) for q in range(n_copy)]
    weights = None if graph.weights is None else tuple(
        w for w in graph.weights for _ in range(n_copy))
    return graph_from_edges(graph.n_vertices * n_copy, edges, weights)


def loss_injection_experiment(graph, n_copy: int, loss_pattern) -> dict:
    """Drop the encoded vertices ``loss_pattern`` from the first optimum of
    the encoded graph by sorted vertices, found by exhaustive search, and
    decode the sample with ``problems.loss_injection_batch``."""
    _, optima = brute_force_mis(mitigation_encode(graph, n_copy))
    sample = np.zeros(graph.n_vertices * n_copy, dtype=bool)
    sample[sorted(min(optima, key=sorted))] = True
    for idx in loss_pattern:
        if not sample[idx]:
            raise ValueError(f"loss pattern sets vertex {idx} which carries no photon")
        sample[idx] = False
    out = {k: v[0] for k, v in loss_injection_batch(graph, n_copy, sample[None]).items()}
    return {"decoded": frozenset(np.flatnonzero(out["decoded"]).tolist()),
            "success": bool(out["success"]), "independent": bool(out["independent"])}


def mitigation_decode(encoded_sample, n_copy: int) -> frozenset[int]:
    """A vertex counts as selected when any of its copies is."""
    sample = list(encoded_sample)
    if len(sample) % n_copy != 0:
        raise ValueError("sample length is not a multiple of n_copy")
    n = len(sample) // n_copy
    return frozenset(j for j in range(n)
                     if any(sample[encoded_vertex(j, k, n_copy)] for k in range(n_copy)))


def is_independent(graph, subset) -> bool:
    chosen = set(subset)
    return not any(u in chosen and v in chosen for u, v in graph.edges)


def loop_mitigation_rows(graph, n_copies):
    """``experiments.mitigation_rows`` one loss pattern at a time, from one
    search of the graph and one of each copy encoding, each one assignment
    at a time."""
    header = ["n_copy", "pattern_index", "n_lost", "decode_success",
              "decoded_independent", "decoded_set"]
    _, optima = loop_brute_force_mis(graph)
    rows = []
    for n_copy in n_copies:
        n_copy = int(n_copy)
        encoded = mitigation_encode(graph, n_copy)
        _, encoded_optima = loop_brute_force_mis(encoded)
        support = sorted(min(encoded_optima, key=sorted))
        for pattern_idx in range(1 << len(support)):
            kept = {support[b] for b in range(len(support)) if not (pattern_idx >> b) & 1}
            decoded = mitigation_decode([i in kept for i in range(encoded.n_vertices)], n_copy)
            rows.append((n_copy, pattern_idx, len(support) - len(kept),
                         int(decoded in optima), int(is_independent(graph, decoded)),
                         "+".join(str(v) for v in sorted(decoded)) or "-"))
    return header, rows
