import math
import tracemalloc
from functools import reduce
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from zenoanneal import anneal, experiments, problems, propagator
from zenoanneal.anneal import (Populations, _Observables, _transverse_mixer,
                               anneal_density, anneal_density_batch, anneal_ideal,
                               anneal_statevector,
                               linear_three_parameter_profile, make_schedule,
                               qubo_anneal)
from zenoanneal.fock import DensityState, make_space, vacuum
from zenoanneal.gadgets import (ConstraintParams, DriveParams,
                                GAMMA_T_COHERENT, GAMMA_T_INCOHERENT,
                                constraint_superop, embed_local_superop,
                                unitary_conjugation_superop)
from zenoanneal.propagator import NonConvergenceError
from zenoanneal.problems import (complete_graph, five_node_example,
                                 graph_from_edges, three_node_line)

from oracles import (exact_ideal_anneal, exact_qubo_anneal, fwht, loop_brute_force_mis,
                     loop_brute_force_qubo, loop_brute_force_wmis, number_state,
                     population, qubo_energy, von_neumann_entropy, zeno_density_oracle)

PHI_Q = 3 * math.pi / 2  # pi/2 total constraint kick


def test_schedule_invariants():
    for n_cycle, r_tot in ((1, 2.0), (7, 20 * math.pi), (128, 5.0)):
        s = make_schedule(n_cycle, r_tot)
        i = np.arange(1, n_cycle + 1)
        assert np.allclose(s.tau, i / (n_cycle + 1))
        step = r_tot / n_cycle
        assert np.max(np.abs(np.abs(s.phi) + np.abs(s.c) - step)) < 1e-12
        cot = np.cos(math.pi * s.tau) / np.sin(math.pi * s.tau)
        assert np.max(np.abs(s.phi / s.c - cot)) < 1e-9


def test_schedule_midpoint_pure_drive():
    s = make_schedule(7, 14.0)  # odd count puts tau = 1/2 on the grid
    mid = 3
    assert abs(s.tau[mid] - 0.5) < 1e-15
    assert abs(s.phi[mid]) < 1e-12
    assert abs(s.c[mid] - 2.0) < 1e-12


def test_schedule_early_phase_dominates():
    s = make_schedule(1000, 10.0)
    assert s.phi[0] / s.c[0] > 100


def test_schedule_guards():
    with pytest.raises(ValueError):
        make_schedule(0, 1.0)
    with pytest.raises(ValueError):
        make_schedule(10, -1.0)
    for r_tot in ([1.0, -1.0], [], [[1.0]]):
        with pytest.raises(ValueError):
            make_schedule(10, r_tot)
    with pytest.raises(ValueError):
        qubo_anneal(np.zeros((2, 2)), 0, 1.0)
    with pytest.raises(ValueError, match="one schedule"):
        anneal_density(three_node_line(), make_schedule(16, [1.0, 2.0]),
                       ConstraintParams(PHI_Q, GAMMA_T_COHERENT))


def test_batched_schedule_rows_equal_single_schedules():
    r_grid = [2.0, 20 * math.pi, 300.0]
    batch = make_schedule(64, r_grid)
    assert batch.r_tot == tuple(r_grid)
    assert batch.phi.shape == batch.c.shape == (3, 64)
    for row, r_tot in enumerate(r_grid):
        single = make_schedule(64, r_tot)
        assert np.array_equal(batch.phi[row], single.phi)
        assert np.array_equal(batch.c[row], single.c)
        _, phi, c, zeta = linear_three_parameter_profile(64, r_tot)
        profile = linear_three_parameter_profile(64, r_grid)
        assert np.array_equal(profile[1][row], phi)
        assert np.array_equal(profile[2][row], c)
        assert np.array_equal(profile[3][row], zeta)


def x_rotation(c):
    """exp(-i c X) on one qubit."""
    return np.array([[math.cos(c), -1j * math.sin(c)],
                     [-1j * math.sin(c), math.cos(c)]])


def two_level_oracle(schedule):
    """Independent single-mode reference: plain 2x2 cycle products."""
    psi = np.array([1.0, 0.0], dtype=complex)
    for phi, c in zip(schedule.phi, schedule.c):
        psi = psi * np.array([1.0, np.exp(-1j * phi)])
        psi = x_rotation(c) @ psi
    return abs(psi[1]) ** 2


def test_single_mode_transfer_matches_two_level_oracle():
    g = graph_from_edges(1, [])
    schedule = make_schedule(250, 20 * math.pi)
    rep = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    expect = two_level_oracle(schedule)
    assert expect >= 0.99
    assert abs(rep.final_populations[(1,)] - expect) < 1e-10
    assert rep.success[-1] >= 0.99


def test_statevector_matches_density_when_coherent():
    g = three_node_line()
    schedule = make_schedule(120, 20 * math.pi)
    rep_d = anneal_density(g, schedule, ConstraintParams(0.7, GAMMA_T_COHERENT))
    rep_s = anneal_statevector(g, schedule, 0.7)
    assert np.max(np.abs(rep_d.success - rep_s.success)) < 1e-8
    assert np.max(np.abs(rep_d.leakage - rep_s.leakage)) < 1e-8


def _apply_edge_map(rho, local, n, d, j, k):
    """rho' for a two-mode superoperator on [d, d] acting on modes j, k, as an
    einsum over rho's (row modes..., column modes...) tensor.  The local vec
    index a + d^2 b is the C-order index of (b_j, b_k, a_j, a_k)."""
    rows, cols = "abcdefgh"[:n], "ijklmnop"[:n]
    out_rows = rows.replace(rows[j], "w").replace(rows[k], "x")
    out_cols = cols.replace(cols[j], "y").replace(cols[k], "z")
    spec = f"yzwx{cols[j]}{cols[k]}{rows[j]}{rows[k]},{rows}{cols}->{out_rows}{out_cols}"
    return np.einsum(spec, local.reshape((d,) * 8), rho.reshape((d,) * (2 * n)),
                     optimize=["einsum_path", (0, 1)]).reshape(rho.shape)


def density_cycle_oracle(graph, schedule, constraint, mode_dim=3):
    """(final rho, success, leakage, entropy, |trace - 1|, smallest eigenvalue
    of the 0/1 block) on the full mode_dim space: the weighted phase and the
    drive as global unitaries (Kronecker products), then each sorted edge's
    gadget by einsum."""
    n = graph.n_vertices
    space = make_space([mode_dim] * n)
    weights = graph.weights or (1.0,) * n
    number = sum(w * reduce(np.kron, [np.arange(mode_dim) if k == m else np.ones(mode_dim)
                                      for k in range(n)])
                 for m, w in enumerate(weights))
    flip = np.zeros((mode_dim, mode_dim))
    flip[0, 1] = flip[1, 0] = 1.0
    local = constraint_superop(make_space([mode_dim] * 2), 0, 1, constraint)
    obs = _Observables(space, graph)
    block = np.ix_(obs.pattern_idx, obs.pattern_idx)
    rho = np.zeros((space.total_dim,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    records = []
    for phi, c in zip(schedule.phi, schedule.c):
        u = reduce(np.kron, [scipy.linalg.expm(-1j * c * flip)] * n) @ np.diag(
            np.exp(-1j * phi * number))
        rho = u @ rho @ u.conj().T
        for j, k in graph.sorted_edges():
            rho = _apply_edge_map(rho, local, n, mode_dim, j, k)
        diag = DensityState(space, rho).matrix.diagonal().real
        records.append((obs.success(diag), obs.leakage(diag), von_neumann_entropy(rho),
                        abs(diag.sum() - 1.0), np.linalg.eigvalsh(rho[block])[0]))
    return (rho, *map(np.array, zip(*records)))


def qubit_block(rho, n, mode_dim=3):
    """The 0/1-pattern block of a full-space state, once its mass outside
    the block is checked to be at most 1e-13."""
    block = np.ix_(*[anneal._pattern_index(make_space([mode_dim] * n))] * 2)
    outside = rho.copy()
    outside[block] = 0.0
    assert np.abs(outside).sum() <= 1e-13
    return rho[block]


@pytest.mark.parametrize("weights", [None, (1.0, 2.5, 1.2)], ids=["unit", "weighted"])
@pytest.mark.parametrize("constraint", [ConstraintParams(PHI_Q, GAMMA_T_INCOHERENT),
                                        ConstraintParams(PHI_Q, 0.8, eta_t=0.3),
                                        ConstraintParams(PHI_Q, GAMMA_T_COHERENT)],
                         ids=["incoherent", "partial", "coherent"])
def test_density_cycle_matches_global_superoperators(weights, constraint):
    g = graph_from_edges(3, [(0, 1), (1, 2)], weights=weights)
    schedule = make_schedule(24, 6 * math.pi)
    rep = anneal_density(g, schedule, constraint)
    expect = qubit_block(density_cycle_oracle(g, schedule, constraint)[0], 3)
    assert rep.final_state.space == make_space([2] * 3)
    assert np.max(np.abs(rep.final_state.matrix - expect)) < 1e-12


def _random_graph(rng, n):
    pairs = list(combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=rng.integers(1, len(pairs) + 1), replace=False)
    return graph_from_edges(n, [pairs[p] for p in sorted(picked)])


@pytest.mark.parametrize("eta_t", [0.0, 0.5])
@pytest.mark.parametrize("gamma_t", [GAMMA_T_INCOHERENT, 0.8, GAMMA_T_COHERENT],
                         ids=["incoherent", "partial", "coherent"])
@pytest.mark.parametrize("n, weighted", [(3, False), (4, True)],
                         ids=["n3-unit", "n4-weighted"])
def test_qubit_block_run_matches_full_space_oracle(n, weighted, gamma_t, eta_t):
    # the ideal-2level run works in the 2^n block of 0/1 patterns; the
    # oracle keeps every mode_dim = 3 level
    rng = np.random.default_rng([n, round(1000 * gamma_t), round(10 * eta_t)])
    g = _random_graph(rng, n)
    schedule = make_schedule(32, rng.uniform(4 * math.pi, 10 * math.pi))
    if weighted:
        g = graph_from_edges(n, g.edges, weights=rng.uniform(0.5, 2.0, size=n))
    constraint = ConstraintParams(PHI_Q, gamma_t, eta_t)
    rep = anneal_density(g, schedule, constraint)
    rho, success, leak, entropy, trace_err, lam_min = density_cycle_oracle(g, schedule,
                                                                          constraint)
    assert rep.meta["space"] == "qubit-block"
    assert np.max(np.abs(rep.final_state.matrix - qubit_block(rho, n))) < 1e-13
    assert np.max(np.abs(rep.success - success)) < 1e-13
    assert np.max(np.abs(rep.leakage - leak)) < 1e-13
    assert np.max(np.abs(rep.entropy - entropy)) < 1e-13
    assert abs(rep.meta["trace_drift"] - trace_err.max()) < 1e-13
    assert abs(rep.meta["min_eigenvalue"] - lam_min.min()) < 1e-13


def leaky_gadget(space, j, k, params):
    """Stands in for constraint_superop: swaps |11> and |20> on [3, 3], so
    it moves |11> population out of the 0/1 block."""
    swap = np.eye(space.total_dim)[[0, 1, 2, 3, 6, 5, 4, 7, 8]]
    return np.kron(swap, swap)


def nan_gadget(space, j, k, params):
    return np.full((space.total_dim ** 2,) * 2, np.nan)


@pytest.mark.parametrize("gadget", [leaky_gadget, nan_gadget], ids=["leaky", "nan"])
def test_qubit_block_run_refuses_a_gadget_that_leaves_the_block(monkeypatch, gadget):
    monkeypatch.setattr(anneal, "constraint_superop", gadget)
    with pytest.raises(NonConvergenceError, match="0/1 block"):
        anneal_density(three_node_line(), make_schedule(4, 1.0),
                       ConstraintParams(PHI_Q, GAMMA_T_COHERENT))


def trace_breaking_gadget(space, j, k, params):
    """1.1 x the identity on [3, 3]: keeps the 0/1 block closed but grows the
    trace every time it is applied."""
    return 1.1 * np.eye(space.total_dim ** 2)


@pytest.mark.parametrize("drive_mode, drive", [("ideal-2level", None),
                                               ("zeno-tpa", DriveParams(1.0, 40.0))],
                         ids=["qubit-block", "full-space"])
def test_density_run_that_breaks_the_trace_raises(monkeypatch, drive_mode, drive):
    monkeypatch.setattr(anneal, "constraint_superop", trace_breaking_gadget)
    with pytest.raises(NonConvergenceError, match="trace"):
        anneal_density(three_node_line(), make_schedule(4, 1.0),
                       ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       drive_mode=drive_mode, drive=drive)


def test_zeno_run_of_a_nan_state_raises_nonconvergence(monkeypatch):
    # the full-space zeno drives take the entropy of every cycle's state
    monkeypatch.setattr(anneal, "constraint_superop", nan_gadget)
    with pytest.raises(NonConvergenceError):
        anneal_density(three_node_line(), make_schedule(4, 1.0),
                       ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       drive_mode="zeno-tpa", drive=DriveParams(1.0, 40.0))


def test_batched_density_rows_match_single_runs():
    # rows of unequal length and distinct gadgets leave the batch at different cycles
    g = graph_from_edges(4, [(0, 1), (1, 2), (1, 3)], weights=(1.0, 1.7, 0.6, 1.2))
    gamma_ts, n_cycles = [GAMMA_T_INCOHERENT, 0.8, GAMMA_T_COHERENT], [9, 30, 4, 17]
    runs = [(ConstraintParams(PHI_Q, gt, 0.2), make_schedule(n, 9 * math.pi))
            for gt in gamma_ts for n in n_cycles]
    batch = anneal_density_batch(g, [s for _, s in runs], [c for c, _ in runs])
    for (constraint, schedule), rep in zip(runs, batch):
        single = anneal_density(g, schedule, constraint)
        assert np.array_equal(rep.success, single.success)
        assert np.max(np.abs(rep.entropy - single.entropy)) <= 1e-15
        assert np.max(np.abs(rep.leakage - single.leakage)) <= 1e-15
        assert np.max(np.abs(rep.final_state.matrix - single.final_state.matrix)) <= 1e-15
        assert rep.meta == single.meta
    _, rows = experiments.constraint_sweep_rows(g, gamma_ts, n_cycles, 9 * math.pi,
                                                phi_q=PHI_Q)
    assert [(gt, n) for gt, n, *_ in rows] == [(gt, n) for gt in gamma_ts for n in n_cycles]
    for (gt, n, success, s_max, s_final, leak, *_), (constraint, schedule) in zip(
            rows, [(ConstraintParams(PHI_Q, gt), make_schedule(n, 9 * math.pi))
                   for gt in gamma_ts for n in n_cycles]):
        single = anneal_density(g, schedule, constraint)
        assert success == single.success[-1]
        assert abs(s_max - single.entropy.max()) <= 1e-15
        assert abs(s_final - single.entropy[-1]) <= 1e-15
        assert abs(leak - single.leakage[-1]) <= 1e-15


def test_density_report_records_space_and_block_leak():
    g, schedule = three_node_line(), make_schedule(4, 1.0)
    constraint = ConstraintParams(PHI_Q, 0.8, eta_t=0.5)
    ideal = anneal_density(g, schedule, constraint)
    zeno = anneal_density(g, schedule, constraint, drive_mode="zeno-tpa",
                          drive=DriveParams(c=1.0, gamma=5.0))
    bare = anneal_density(graph_from_edges(1, []), schedule, constraint)
    assert (ideal.meta["space"], zeno.meta["space"]) == ("qubit-block", "full")
    assert 0.0 <= ideal.meta["block_leak"] < 1e-14
    assert zeno.meta["block_leak"] == ideal.meta["block_leak"]
    assert bare.meta["block_leak"] == 0.0


def apply_mixer(mixer, amps, c):
    """exp(-i c_b M) on row b of amps, from the mixer's eigenbasis parts."""
    to_eig, lam, from_eig = mixer
    return from_eig(to_eig(amps) * np.exp(-1j * c[:, None] * lam))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9])
def test_walsh_hadamard_mixer_matches_kron_reference(n):
    # n = 9 runs the two-factor Walsh-Hadamard transform
    rng = np.random.default_rng(n)
    amps = rng.normal(size=(3, 2 ** n)) + 1j * rng.normal(size=(3, 2 ** n))
    c = rng.uniform(-2.0, 2.0, size=3)
    out = apply_mixer(_transverse_mixer(n), amps, c)
    for row in range(3):
        u = reduce(np.kron, [x_rotation(c[row])] * n)
        assert np.max(np.abs(out[row] - u @ amps[row])) < 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_transverse_mixer_at_zero_angle_is_exactly_the_identity(n):
    # exact +-1 Walsh factors: a rounded 2^(-n/2) would leak norm every cycle
    eye = np.eye(2 ** n)
    assert np.array_equal(apply_mixer(_transverse_mixer(n), eye, np.zeros(2 ** n)), eye)


@pytest.mark.parametrize("n", range(6, 15))
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("dtype", [complex, float])
def test_walsh_passes_match_butterfly_oracle(n, rows, dtype):
    # n >= 8 runs the Kronecker-factored passes; n = 6, 7 the single matmul
    rng = np.random.default_rng(100 * n + rows)
    x = rng.normal(size=(rows, 2 ** n))
    if dtype is complex:
        x = x + 1j * rng.normal(size=x.shape)
    to_eig, _, from_eig = _transverse_mixer(n)
    tol = 1e-12 * np.linalg.norm(x, axis=1, keepdims=True)
    s_x = fwht(x)
    assert np.all(np.abs(to_eig(x) - s_x) <= tol)
    assert np.all(np.abs(from_eig(x) - s_x / 2 ** n) <= tol)
    # a strided view is made contiguous first
    assert np.all(np.abs(to_eig(np.repeat(x, 2, axis=1)[:, ::2]) - s_x) <= tol)


@pytest.mark.parametrize("n", range(8, 15))
def test_factored_mixer_at_zero_angle_is_exact_on_integer_inputs(n):
    # integer amplitudes: S x, S S x = 2^n x and the 1/2^n are all exact
    rng = np.random.default_rng(n)
    x = rng.integers(-8, 9, size=(3, 2 ** n)) + 1j * rng.integers(-8, 9, size=(3, 2 ** n))
    assert np.array_equal(apply_mixer(_transverse_mixer(n), x, np.zeros(3)), x)
    to_eig, _, from_eig = _transverse_mixer(n)
    assert np.array_equal(to_eig(x), fwht(x))
    assert np.array_equal(from_eig(to_eig(x.real)), x.real)


def _pure_runs():
    five = five_node_example()
    weighted = graph_from_edges(3, [(0, 1), (1, 2)], weights=(1.0, 2.5, 1.2))
    q = np.random.default_rng(3).normal(size=(4, 4))
    q = (q + q.T) / 2
    return {
        "statevector": lambda r: anneal_statevector(five, make_schedule(48, r), PHI_Q),
        "weighted-statevector": lambda r: anneal_statevector(
            weighted, make_schedule(48, r), 0.7),
        "ideal": lambda r: anneal_ideal(five, make_schedule(48, r)),
        "qubo": lambda r: qubo_anneal(q, 48, r),
    }


@pytest.mark.parametrize("path", sorted(_pure_runs()))
def test_batched_run_matches_per_schedule_runs(path):
    run = _pure_runs()[path]
    r_grid = [3.0, 10 * math.pi, 90.0]
    batch = run(r_grid)
    assert batch.success.shape == batch.leakage.shape == (3, 48)
    for row, r_tot in enumerate(r_grid):
        single = run(r_tot)
        assert single.success.shape == (48,)
        assert np.max(np.abs(batch.success[row] - single.success)) < 1e-12
        assert np.max(np.abs(batch.leakage[row] - single.leakage)) < 1e-12
        assert batch.final_populations.keys() == single.final_populations.keys()
        for pattern, p in single.final_populations.items():
            assert abs(batch.final_populations[pattern][row] - p) < 1e-12


def _block_runs(n, edges, phi_q, seed):
    graph = graph_from_edges(n, edges)
    q = np.random.default_rng(seed).normal(size=(n, n))
    return {"statevector": lambda s: anneal_statevector(graph, s, phi_q),
            "ideal": lambda s: anneal_ideal(graph, s),
            "qubo": lambda s: qubo_anneal(q, s.n_cycle, s.r_tot)}


def _block_run(path, schedule, cap, n, edges, phi_q, seed):
    """(success, leakage, final amplitudes) with B k 2^n capped at ``cap``."""
    with mock.patch.object(anneal, "PURE_BLOCK_ELEMENTS", cap):
        rep = _block_runs(n, edges, phi_q, seed)[path](schedule)
    final = rep.final_state if isinstance(rep.final_state, list) else [rep.final_state]
    return (np.atleast_2d(rep.success), np.atleast_2d(rep.leakage),
            np.array([state.amplitudes for state in final]))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), edge_mask=st.integers(0, 2 ** 15 - 1),
       n_cycle=st.integers(1, 300),
       r_tots=st.lists(st.floats(0.5, 300.0), min_size=2, max_size=3),
       phi_q=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 99), data=st.data())
def test_pure_runs_do_not_depend_on_the_cycle_block(n, edge_mask, n_cycle, r_tots, phi_q,
                                                    seed, data):
    # one cycle per block, a block that does not divide n_cycle, one block
    edges = [e for i, e in enumerate(combinations(range(n), 2)) if edge_mask >> i & 1]
    k = data.draw(st.integers(2, n_cycle + 1).filter(lambda k: n_cycle % k), label="k")
    width = len(r_tots) << n
    caps = (1, k * width, n_cycle * width)
    args = (n, edges, phi_q, seed)
    for path in ("statevector", "ideal", "qubo"):
        batch = make_schedule(n_cycle, r_tots)
        ref = _block_run(path, batch, caps[-1], *args)
        runs = [_block_run(path, batch, cap, *args) for cap in caps[:-1]]
        singles = [[_block_run(path, make_schedule(n_cycle, r), cap, *args)
                    for r in r_tots] for cap in caps]
        runs += [tuple(np.concatenate(parts) for parts in zip(*rows)) for rows in singles]
        for run in runs:
            for got, want in zip(run, ref):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13, path


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 9), n_cycle=st.integers(1, 1500),
       r_tot=st.floats(0.5, 300.0) | st.lists(st.floats(0.5, 300.0), min_size=2, max_size=3),
       seed=st.integers(0, 99))
def test_qubo_phase_recurrence_matches_one_exp_per_cycle(n, n_cycle, r_tot, seed):
    q = np.random.default_rng(seed).normal(size=(n, n))
    rep = qubo_anneal(q, n_cycle, r_tot)
    populations, success, _ = exact_qubo_anneal(q, n_cycle, r_tot)
    got = np.atleast_2d(np.array(rep.final_populations.values()).T)
    assert got.shape == populations.shape
    assert np.max(np.abs(got - populations)) <= 1e-13
    assert np.max(np.abs(np.atleast_2d(rep.success) - success)) <= 1e-13
    assert rep.meta["norm_drift"] <= 1e-12


def test_qubo_energy_phases_recur_between_exact_anchors(monkeypatch):
    q = np.random.default_rng(4).normal(size=(5, 5))
    schedule = anneal.Schedule(1500, 300.0, *linear_three_parameter_profile(1500, 300.0))
    energy = problems._qubo_scores(q)[1]
    exact = np.exp(schedule.zeta[:, None] * (-1j * energy))
    anchors = np.arange(1500) % anneal.PHASE_ANCHOR_CYCLES == 0
    got = np.array([diag[0] for diag in anneal._ramp_phases(schedule, energy)])
    assert np.array_equal(got[anchors], exact[anchors])
    assert np.max(np.abs(got - exact)) <= 2e-15
    # one anchor in 1500 cycles: the D + D (R - 1) product alone drifted 4e-15
    monkeypatch.setattr(anneal, "PHASE_ANCHOR_CYCLES", 10 ** 6)
    got = np.array([diag[0] for diag in anneal._ramp_phases(schedule, energy)])
    assert np.max(np.abs(got - exact)) <= 2e-14


def _old_population_dict(bits, populations):
    return dict(zip(zip(*bits.T.tolist()), populations))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_populations_view_is_the_old_dict_in_basis_order(n):
    bits = problems._bit_table(n)
    values = np.random.default_rng(n).uniform(size=1 << n)
    view = Populations(values)
    assert len(view) == 1 << n
    assert list(view) == list(map(tuple, bits.tolist())) == list(product((0, 1), repeat=n))
    assert view == _old_population_dict(bits, values.tolist())
    assert view.values() == values.tolist()
    assert all(type(p) is float for p in view.values())
    assert view[(1,) * n] == values[-1] and (0,) * n in view
    for bad in [(0,) * (n + 1), (0,) * (n - 1) + (2,), [0] * n, "0" * n, None]:
        assert bad not in view
        with pytest.raises(KeyError):
            view[bad]
    with pytest.raises(TypeError):
        view[(0,) * n] = 1.0


def test_populations_view_values_read_the_array_without_lookups():
    view = Populations(np.arange(8.0))
    with mock.patch.object(Populations, "__getitem__", side_effect=AssertionError):
        assert view.values() == list(range(8))


def test_batched_populations_view_rows():
    q = np.random.default_rng(8).normal(size=(4, 4))
    batch = qubo_anneal(q, 40, [5.0, 30.0])
    rows = np.array(batch.final_populations.values())
    assert rows.shape == (16, 2) and not batch.final_populations[(0,) * 4].flags.writeable
    for index, pattern in enumerate(batch.final_populations):
        assert np.array_equal(batch.final_populations[pattern], rows[index])
    for column, r_tot in enumerate([5.0, 30.0]):
        single = qubo_anneal(q, 40, r_tot).final_populations
        assert single == _old_population_dict(problems._bit_table(4), single.values())
        assert np.max(np.abs(rows[:, column] - single.values())) < 1e-12


def test_density_reports_carry_the_populations_view():
    rep = anneal_density(three_node_line(), make_schedule(8, 5.0),
                         ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    assert isinstance(rep.final_populations, Populations)
    diag = rep.final_state.matrix.diagonal().real
    space = rep.final_state.space
    assert rep.final_populations == {p: float(diag[space.index(p)])
                                     for p in product((0, 1), repeat=3)}


@pytest.mark.parametrize("path", ["statevector", "ideal", "qubo"])
def test_pure_paths_report_norm_drift(path):
    five = five_node_example()
    q = np.random.default_rng(5).normal(size=(5, 5))
    run = {"statevector": lambda: anneal_statevector(five, make_schedule(1024, 300.0), PHI_Q),
           "ideal": lambda: anneal_ideal(five, make_schedule(1024, 300.0)),
           "qubo": lambda: qubo_anneal(q, 1024, 300.0)}[path]
    assert 0.0 <= run().meta["norm_drift"] <= 1e-12


def test_norm_drift_sees_a_mixer_that_is_not_unitary(monkeypatch):
    exact = anneal._transverse_mixer

    def scaled(n):
        to_eig, lam, from_eig = exact(n)
        return to_eig, lam, lambda amps: from_eig(amps) * (1 + 1e-6)

    monkeypatch.setattr(anneal, "_transverse_mixer", scaled)
    rep = anneal_statevector(five_node_example(), make_schedule(16, 10.0), PHI_Q)
    assert rep.meta["norm_drift"] >= 1e-6


def test_qubo_energies_and_optima_match_brute_force():
    rng = np.random.default_rng(11)
    for n in (3, 6):
        q = rng.normal(size=(n, n))
        q = (q + q.T) / 2
        rep = qubo_anneal(q, 4, 1.0)
        patterns = list(rep.final_populations)
        assert len(patterns) == 2 ** n
        assert np.allclose(rep.meta["energy"], [qubo_energy(q, p) for p in patterns],
                           rtol=0, atol=1e-12)
        assert set(rep.meta["optima"]) == set(loop_brute_force_qubo(q)[1])


def reference_qubo_rows(q, n_cycle, r_tot):
    """qubo_rows one assignment at a time, from the loop solver."""
    rep = qubo_anneal(q, n_cycle, r_tot)
    _, optima = loop_brute_force_qubo(q)
    success = float(rep.success[-1])
    return [("".join(map(str, bits)), qubo_energy(q, bits), rep.final_populations[bits],
             int(bits in optima), success)
            for bits in product((0, 1), repeat=len(q))]


def _quarter_integer_qubo(n):
    # quarter-integer entries keep every pattern energy exact, so both energy
    # sums agree bit for bit and ties are real ties
    q = np.random.default_rng(n).integers(-4, 5, size=(n, n)) / 4
    return q + q.T


@pytest.mark.parametrize("q", [*map(_quarter_integer_qubo, (1, 2, 5, 9)),
                               np.array([[-1.0, 3.0], [3.0, -1.0]])],
                         ids=["n1", "n2", "n5", "n9", "tied-01-10"])
def test_qubo_rows_match_one_at_a_time_reference(q):
    _, rows = experiments.qubo_rows(q, 16, 8.0)
    assert rows == reference_qubo_rows(q, 16, 8.0)


def test_pure_paths_refuse_more_than_24_variables_before_any_table(monkeypatch):
    def no_table(n, index=None):
        raise AssertionError(f"bit table for n = {n} built")

    monkeypatch.setattr(problems, "_bit_table", no_table)
    wide = graph_from_edges(25, [(0, 1)])
    for run in (lambda: qubo_anneal(np.zeros((25, 25)), 4, 1.0),
                lambda: anneal_statevector(wide, make_schedule(4, 1.0), PHI_Q),
                lambda: anneal_ideal(wide, make_schedule(4, 1.0)),
                lambda: anneal_density(wide, make_schedule(4, 1.0),
                                       ConstraintParams(PHI_Q, GAMMA_T_COHERENT))):
        with pytest.raises(ValueError, match="n <= 24, got n = 25"):
            run()
    with pytest.raises(AssertionError, match="n = 24 built"):  # 24 passes the guard
        qubo_anneal(np.zeros((24, 24)), 4, 1.0)


def test_coherent_run_stays_pure():
    g = three_node_line()
    rep = anneal_density(g, make_schedule(80, 20 * math.pi),
                         ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    assert np.max(rep.entropy) < 1e-9


def test_incoherent_endpoint_generates_entropy():
    g = three_node_line()
    rep = anneal_density(g, make_schedule(80, 20 * math.pi),
                         ConstraintParams(PHI_Q, GAMMA_T_INCOHERENT))
    assert np.max(rep.entropy) > 0.1


def test_ideal_path_never_leaks():
    g = five_node_example()
    rep = anneal_ideal(g, make_schedule(120, 30 * math.pi))
    assert np.max(rep.leakage) < 1e-12


def test_ideal_path_concentrates_on_optimum():
    g = five_node_example()
    rep = anneal_ideal(g, make_schedule(256, 40 * math.pi))
    assert rep.success[-1] > 0.95
    assert rep.final_populations[(1, 0, 0, 1, 1)] > 0.95
    assert abs(population(rep.final_state, (1, 0, 0, 1, 1))
               - rep.final_populations[(1, 0, 0, 1, 1)]) < 1e-12


@pytest.mark.parametrize("g", [
    five_node_example(),
    graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)], weights=(1.0, 2.5, 1.5, 0.75)),
], ids=["five-node", "weighted-4"])
def test_ideal_path_matches_one_expm_per_cycle_on_independent_patterns(g):
    # at 1024 cycles the full-basis eigenbasis was 1.8e-12 off; this one 6e-13
    schedule = make_schedule(1024, 300.0)
    rep = anneal_ideal(g, schedule)
    populations, success = exact_ideal_anneal(g, schedule)
    assert np.max(np.abs(np.array(rep.final_populations.values()) - populations)) <= 1e-12
    assert np.max(np.abs(rep.success - success)) <= 1e-12


def test_ideal_path_is_the_statevector_path_on_an_edgeless_graph():
    # no pattern violates an edge, so both mixers are exp(-i c X) on every
    # qubit and no kick acts
    g = graph_from_edges(4, [], weights=(1.0, 0.5, 2.0, 1.25))
    schedule = make_schedule(256, 60.0)
    ideal, phase = anneal_ideal(g, schedule), anneal_statevector(g, schedule, PHI_Q)
    assert np.max(np.abs(np.array(ideal.final_populations.values())
                         - phase.final_populations.values())) <= 1e-13
    assert np.max(np.abs(ideal.success - phase.success)) <= 1e-13


def test_no_pure_path_asks_for_more_than_one_slab_of_table_rows(monkeypatch):
    # the recorder stops a run at its first oversized table, before a
    # full-basis path builds its 2^n x 2^n arrays
    rows, table = [], problems._bit_table

    def recording(*args):
        out = table(*args)
        rows.append(len(out))
        assert len(out) <= problems.SCORE_SLAB_ROWS, f"{len(out)} table rows"
        return out

    monkeypatch.setattr(problems, "_bit_table", recording)
    n = 15
    qubo_anneal(np.random.default_rng(15).normal(size=(n, n)), 4, 1.0)
    anneal_statevector(complete_graph(n), make_schedule(4, 1.0), PHI_Q)
    anneal_ideal(complete_graph(n), make_schedule(4, 1.0))
    assert sum(rows) >= 3 << n and problems.SCORE_SLAB_ROWS < 1 << n


def test_ideal_path_memory_follows_the_independent_patterns():
    # a 12-node path has 377 independent patterns of 4096; the full-basis
    # eigenbasis took about 400 MB of tracemalloc peak
    path = graph_from_edges(12, [(j, j + 1) for j in range(11)])
    tracemalloc.start()
    try:
        anneal_ideal(path, make_schedule(4, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_ideal_mixer_bytes_are_guarded_before_eigh(monkeypatch):
    g = five_node_example()
    n_independent = sum(
        not any(p[u] and p[v] for u, v in g.edges) for p in product((0, 1), repeat=5))
    nbytes = 8 * n_independent ** 2 + 16 * 32 * n_independent
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes)
    anneal_ideal(g, make_schedule(4, 1.0))
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes - 1)
    monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match=f"ideal mixer would take {nbytes} bytes"):
        anneal_ideal(g, make_schedule(4, 1.0))


def test_density_state_bytes_are_guarded_before_the_stack(monkeypatch):
    g, con = three_node_line(), ConstraintParams(PHI_Q, GAMMA_T_COHERENT)
    schedules = [make_schedule(4, 1.0), make_schedule(6, 2.0)]
    nbytes = 16 * 2 * 8 ** 2  # two final states in the 2^3 qubit block
    # the edge gadget built first, under the default bound: its own dense
    # exponentials are guarded too, at 160 D^4 bytes for its D = 6 pump space
    gadget = constraint_superop(make_space([3, 3]), 0, 1, con)
    monkeypatch.setattr(anneal, "constraint_superop", lambda *args: gadget)
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes)
    anneal_density_batch(g, schedules, [con] * 2)
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", nbytes - 1)
    monkeypatch.setattr(anneal, "_ideal_step", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match=f"final density states would take {nbytes} bytes"):
        anneal_density_batch(g, schedules, [con] * 2)


def test_zeno_tpa_drive_mode_approaches_ideal():
    # residual blockade decoherence scales like c/gamma, so the deviation
    # from the exact two-level drive must shrink as the absorber strengthens
    g = graph_from_edges(1, [])
    schedule = make_schedule(60, 6 * math.pi)
    ideal = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    diffs = []
    for gamma in (150.0, 600.0):
        zeno = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                              drive_mode="zeno-tpa",
                              drive=DriveParams(c=1.0, gamma=gamma))
        diffs.append(abs(zeno.success[-1] - ideal.success[-1]))
    assert diffs[1] < diffs[0]
    assert diffs[1] < 0.05


def test_zeno_sfg_drive_mode_approaches_ideal():
    g = graph_from_edges(1, [])
    schedule = make_schedule(60, 6 * math.pi)
    ideal = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    diffs = []
    for gamma in (20.0, 50.0):
        zeno = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                              drive_mode="zeno-sfg",
                              drive=DriveParams(c=1.0, gamma=gamma))
        diffs.append(abs(zeno.success[-1] - ideal.success[-1]))
    assert diffs[1] < diffs[0]
    assert diffs[1] < 0.05


@pytest.mark.parametrize("drive_mode, drive, constraint", [
    ("zeno-tpa", DriveParams(1.0, 40.0), ConstraintParams(PHI_Q, 0.8, eta_t=0.2)),
    ("zeno-sfg", DriveParams(1.0, 20.0, 10.0), ConstraintParams(PHI_Q, GAMMA_T_INCOHERENT)),
    ("zeno-sfg", DriveParams(0.7, 7.0), ConstraintParams(PHI_Q, GAMMA_T_COHERENT)),
], ids=["tpa", "sfg-lossy", "sfg-slow"])
def test_zeno_runs_match_the_per_cycle_oracle(drive_mode, drive, constraint):
    # one drive-map table, one pass over every mode and sparse edge gadgets
    # against a matrix_for, per-mode, dense-gadget cycle
    g = graph_from_edges(3, [(0, 1), (1, 2)], weights=(1.0, 1.6, 0.8))
    schedule = make_schedule(48, 12 * math.pi)
    rep = anneal_density(g, schedule, constraint, drive_mode=drive_mode, drive=drive)
    rho, (success, leak, entropy, trace_err, lam_min) = zeno_density_oracle(
        g, schedule, constraint, drive_mode, drive)
    assert np.max(np.abs(rep.final_state.matrix - rho)) <= 1e-10
    for got, expect in ((rep.success, success), (rep.leakage, leak), (rep.entropy, entropy)):
        assert np.max(np.abs(got - expect)) <= 1e-10
    assert abs(rep.meta["trace_drift"] - trace_err.max()) <= 1e-10
    assert abs(rep.meta["min_eigenvalue"] - lam_min.min()) <= 1e-10


def shrinking_gadget(space, j, k, params):
    """(1 - 1e-13) x the identity on [3, 3]: closes the 0/1 block and loses
    1e-13 of the trace each time it is applied."""
    return (1.0 - 1e-13) * np.eye(space.total_dim ** 2)


@pytest.mark.parametrize("drive_mode, drive", [("ideal-2level", None),
                                               ("zeno-tpa", DriveParams(1.0, 40.0))],
                         ids=["qubit-block", "full-space"])
def test_density_monitors_follow_the_trace_and_the_spectrum(monkeypatch, drive_mode, drive):
    # two edges for 10 cycles scale the trace by (1 - 1e-13)^20; the states
    # have rank below D, so their smallest eigenvalue is a rounded zero
    monkeypatch.setattr(anneal, "constraint_superop", shrinking_gadget)
    rep = anneal_density(three_node_line(), make_schedule(10, 1.0),
                         ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                         drive_mode=drive_mode, drive=drive)
    assert abs(rep.meta["trace_drift"] - 20e-13) <= 1e-13
    assert abs(rep.meta["min_eigenvalue"]) <= 1e-12


def test_anneal_guards():
    g = three_node_line()
    schedule = make_schedule(5, 1.0)
    with pytest.raises(ValueError):
        anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       drive_mode="nope")
    with pytest.raises(ValueError):
        anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       drive_mode="zeno-tpa")
    with pytest.raises(ValueError, match="eta"):  # a TPA drive has no pump to lose
        anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       drive_mode="zeno-tpa", drive=DriveParams(1.0, 150.0, eta=1.3))
    with pytest.raises(ValueError):
        anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT),
                       mode_dim=2)
    with pytest.raises(ValueError, match="phi_q"):
        anneal_statevector(g, schedule, math.nan)


# Final success on the two-node graph w = (1.5, 1.0), 400 cycles and
# r_tot = 80 pi, as each path gave with these weights set on the schedule
# instead of the graph; run with unit phases, each reads about 0.5.
WEIGHTED_TWO_NODE_SUCCESS = {"statevector": 0.9978306852866239,
                             "ideal": 0.9997315485071334,
                             "density": 0.9978306852866403}


@pytest.mark.parametrize("path", sorted(WEIGHTED_TWO_NODE_SUCCESS))
def test_weighted_graph_anneals_with_its_own_weights(path):
    g = graph_from_edges(2, [(0, 1)], weights=(1.5, 1.0))
    schedule = make_schedule(400, 80 * math.pi)
    if path == "statevector":
        rep = anneal_statevector(g, schedule, PHI_Q)
    elif path == "ideal":
        rep = anneal_ideal(g, schedule)
    else:
        rep = anneal_density(g, schedule, ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    assert abs(rep.success[-1] - WEIGHTED_TWO_NODE_SUCCESS[path]) < 1e-12
    assert rep.final_populations[(1, 0)] > 0.99


def test_wmis_two_node_crossover():
    g = graph_from_edges(2, [(0, 1)])
    for w0, expect in ((0.5, (0, 1)), (1.5, (1, 0))):
        gw = graph_from_edges(2, [(0, 1)], weights=(w0, 1.0))
        rep = anneal_density(gw, make_schedule(400, 80 * math.pi),
                             ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
        assert rep.final_populations[expect] > 0.9
        assert rep.success[-1] > 0.9


def test_equal_weights_symmetric():
    g = graph_from_edges(2, [(0, 1)])
    rep = anneal_density(g, make_schedule(300, 60 * math.pi),
                         ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    p = rep.final_populations
    assert abs(p[(0, 1)] - p[(1, 0)]) < 1e-9


def test_ideal_success_monotone_in_rotation_budget(capsys):
    # adiabatic-regime check on a doubling grid; dense grids show coherent
    # oscillation around the plateau, which is flagged rather than asserted
    g = three_node_line()

    def final_success(r_tot):
        return float(anneal_ideal(g, make_schedule(400, r_tot)).success[-1])

    coarse = [final_success(r) for r in (5.0, 10.0, 20.0, 40.0, 80.0)]
    assert all(b >= a - 1e-6 for a, b in zip(coarse, coarse[1:]))
    dense = [final_success(r) for r in np.linspace(20.0, 60.0, 9)]
    dips = sum(1 for a, b in zip(dense, dense[1:]) if b < a - 1e-6)
    if dips:
        print(f"note: {dips} non-monotone steps on the dense grid "
              f"(coherent plateau oscillation, not asserted)")


def pure_diag(state):
    return np.abs(state.amplitudes) ** 2


def test_success_and_leakage_observables():
    g = three_node_line()
    space = make_space([2, 2, 2])
    obs = _Observables(space, g)
    st = number_state(space, (1, 0, 1))
    assert obs.success(pure_diag(st)) == 1.0
    mixed = DensityState(space, np.eye(8) / 8)
    assert abs(obs.success(mixed.matrix.diagonal().real) - 1 / 8) < 1e-12
    vac = pure_diag(vacuum(space))
    assert obs.success(vac) == 0.0
    assert obs.leakage(vac) == 0.0
    bad = number_state(space, (1, 1, 0))
    assert obs.leakage(pure_diag(bad)) == 1.0
    space3 = make_space([3, 3, 3])
    tri = number_state(space3, (2, 0, 0))
    # two photons in a mode count as leaked
    assert _Observables(space3, g).leakage(pure_diag(tri)) == 1.0


def test_success_patterns_are_the_brute_force_optima():
    rng = np.random.default_rng(7)
    graphs = [five_node_example(), three_node_line(),
              graph_from_edges(4, [(0, 1), (2, 3)]),
              graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=(1.0, 2.0, 2.0, 1.0))]
    for _ in range(3):
        edges = [e for e in combinations(range(6), 2) if rng.random() < 0.4]
        graphs.append(graph_from_edges(6, edges, weights=rng.uniform(0.5, 2.0, 6)))
    for i, g in enumerate(graphs):
        solver = loop_brute_force_mis if g.weights is None else loop_brute_force_wmis
        optima = {tuple(int(j in s) for j in range(g.n_vertices)) for s in solver(g)[1]}
        space = make_space([2 + i % 2] * g.n_vertices)  # qubit and 3-level modes
        obs = _Observables(space, g)
        found = {p for p in product((0, 1), repeat=g.n_vertices)
                 if obs.success(pure_diag(number_state(space, p))) == 1.0}
        assert found == optima


def _parent_pattern_table(n):
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _assert_identical(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("g", [
    five_node_example(), three_node_line(), graph_from_edges(4, []), complete_graph(5),
    graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=(1.0, 2.0, 2.0, 1.0)),
    graph_from_edges(6, [(0, 1), (0, 3), (2, 5), (3, 4)],
                     weights=np.random.default_rng(3).uniform(0.5, 2.0, 6)),
    graph_from_edges(3, [(0, 1)], weights=(1.0, 1.0 + 5e-13, 0.25)),
], ids=["five-node", "line", "edgeless", "complete", "weighted", "random-weights", "near-tie"])
def test_observables_arrays_are_the_former_formulas(g):
    # the anneal paths stay bit for bit as they were: these are the formulas
    # _Observables used before it read problems._wmis_scores
    n = g.n_vertices
    bits = _parent_pattern_table(n)
    violations = sum((bits[:, j] & bits[:, k] for j, k in g.edges),
                     np.zeros(len(bits), dtype=int))
    number = bits @ np.asarray(g.weights or (1.0,) * n)
    value = np.where(violations == 0, number, -np.inf)
    for mode_dim in (2, 3):
        space = make_space([mode_dim] * n)
        obs = _Observables(space, g)
        _assert_identical(obs.violations, violations)
        _assert_identical(obs.number, number)
        _assert_identical(obs.optimal, value >= value.max() - 1e-12)
        _assert_identical(obs.pattern_idx, bits @ np.array(space.strides))
        assert list(obs.qubit_populations(np.arange(space.total_dim, dtype=float))) == \
            list(map(tuple, bits.tolist()))


@pytest.mark.parametrize("q", [
    np.random.default_rng(5).normal(size=(6, 6)), np.random.default_rng(9).normal(size=(9, 9)),
    np.array([[-1.0, 1.0], [1.0, -1.0 + 5e-13]]), np.zeros((3, 3)), [[2.0]],
], ids=["random-6", "random-9", "near-tie", "all-tied", "one-variable"])
def test_qubo_meta_is_the_former_formulas(q):
    bits = _parent_pattern_table(len(q))
    energy = ((bits @ np.asarray(q, dtype=float)) * bits).sum(axis=1)
    meta = qubo_anneal(q, 2, 1.0).meta
    _assert_identical(meta["energy"], energy)
    _assert_identical(meta["optimal"], energy <= energy.min() + 1e-12)
    assert meta["optima"] == list(map(tuple, bits[energy <= energy.min() + 1e-12].tolist()))


def test_qubo_all_zero_biases_to_vacuum():
    rep = qubo_anneal(np.zeros((2, 2)), 400, 40 * math.pi)
    assert rep.final_populations[(0, 0)] > 0.9


def test_qubo_two_variable_cases():
    q = np.array([[-1.0, 3.0], [3.0, -1.0]])
    rep = qubo_anneal(q, 800, 60 * math.pi)
    assert rep.success[-1] > 0.99
    assert set(rep.meta["optima"]) == {(0, 1), (1, 0)}
    rep = qubo_anneal(np.diag([-1.0, -1.0]), 800, 60 * math.pi)
    assert rep.success[-1] > 0.99
    assert rep.final_populations[(1, 1)] > 0.99


def test_qubo_gauge_transformed_optimum_at_vacuum():
    # flipping s -> 1 - s on both variables moves the optimum onto 00, which
    # the early phase bias already favors
    q = np.array([[1.0, 0.5], [0.5, 1.0]])
    rep = qubo_anneal(q, 400, 40 * math.pi)
    assert rep.final_populations[(0, 0)] > 0.99


@pytest.mark.filterwarnings("error")  # rejected before any RuntimeWarning
@pytest.mark.parametrize("q", [np.ones((2, 3)), np.ones(3), np.zeros((0, 0)),
                               np.array([[1.0, np.nan], [np.nan, 1.0]]),
                               np.full((2, 2), 1e308), np.full((2, 2), -1e308)],
                         ids=["not-square", "vector", "empty", "nan-entry",
                              "energy-overflow", "negative-energy-overflow"])
def test_qubo_anneal_rejects_a_bad_matrix(q):
    with pytest.raises(ValueError, match="QUBO"):
        qubo_anneal(q, 4, 1.0)


def test_qubo_profile_endpoints():
    tau, phi, c, zeta = linear_three_parameter_profile(200, 10.0)
    assert phi[0] > 0 and abs(c[0]) < 1e-3 and abs(zeta[0]) < 1e-3
    assert abs(phi[-1]) < 1e-3 and abs(c[-1]) < 1e-6 and zeta[-1] > 0
    assert np.all(np.diff(phi) < 0) and np.all(np.diff(zeta) > 0)


def test_report_records_cycle_order():
    g = graph_from_edges(1, [])
    rep = anneal_density(g, make_schedule(5, 1.0),
                         ConstraintParams(PHI_Q, GAMMA_T_COHERENT))
    assert rep.cycle_order == "phase->drive->constraints"
