"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime.  The whole suite
is desk scale: about 25 s on a 2-vCPU VM, 14 s of it criterion 2.
"""

import math

import numpy as np

from zenoanneal.analytic import (DampingParams, pair_coherence_ode,
                                 sfg_rate_for_tpa_target)
from zenoanneal.anneal import (anneal_density, anneal_ideal,
                               anneal_statevector, make_schedule)
from zenoanneal.experiments import (CRITICAL_ETA_FACTOR, DEFAULT_PHI_Q,
                                    detect_critical, full_pair_coherence,
                                    gamma_99, zeno_onset_rows)
from zenoanneal.fock import make_space
from zenoanneal.gadgets import (ConstraintParams, GAMMA_T_COHERENT,
                                GAMMA_T_INCOHERENT, constraint_superop)
from zenoanneal.generators import (combine, displacement_generator,
                                   loss_dissipator, phase_generator,
                                   tpa_dissipator)
from zenoanneal.problems import (brute_force_mis, complete_graph,
                                 five_node_example, graph_from_edges,
                                 loss_injection_experiment, mitigation_encode,
                                 three_node_line)
from zenoanneal.propagator import build_cache, expm_apply_vec, expm_dense
from zenoanneal.timebin import all_pairs_shuffle, compile_graph_program, verify_program

from oracles import apply_superop, number_state, population
from test_fock import random_density
from itertools import combinations


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_zeno_onset_tpa():
    """Blockaded driving at gamma/c = 150 versus the free-displacement baseline."""
    header, rows = zeno_onset_rows("tpa", [0.0, 150.0], truncation=31,
                                   t_max=2 * math.pi, n_t=201)
    strong = [r for r in rows if r[1] == 150.0]
    max_higher = max(r[5] for r in strong)
    at_quarter = min(strong, key=lambda r: abs(r[2] - math.pi / 2))
    p1_strong = at_quarter[4]
    free = [r for r in rows if r[1] == 0.0]
    p1_free = min(free, key=lambda r: abs(r[2] - math.pi / 2))[4]
    ok = max_higher <= 0.05 and p1_strong >= 0.95 and abs(p1_free - 0.20) <= 0.02
    report(1, ok, f"max outside qubit span {max_higher:.2e} (<=0.05), "
                  f"P1(pi/2c)={p1_strong:.4f} (>=0.95), "
                  f"free-drive P1={p1_free:.4f} (0.20+-0.02)")


def test_criterion_2_coherent_driving_advantage():
    """Rate needed for 99% flip: critical damping vs lossless pump."""
    g_coherent = gamma_99(0.0)
    g_critical = gamma_99(1.0)
    ratio = g_critical / g_coherent
    report(2, ratio > 10.0,
           f"gamma_99(critical)={g_critical:.3f}, "
           f"gamma_99(coherent)={g_coherent:.3f}, ratio={ratio:.2f} (>10)")


def test_criterion_3_markov_approach():
    """Strongly overdamped pair coherence matches the memoryless decay law."""
    gamma_tpa, eta = 1.0, 100.0
    gamma = sfg_rate_for_tpa_target(gamma_tpa, eta)
    t = np.linspace(0.0, 2.0 / gamma_tpa, 201)
    traj = pair_coherence_ode(DampingParams(gamma, eta), 0.5, t)
    ref = 0.5 * np.exp(-gamma_tpa * t)
    rel = float(np.max(np.abs(traj - ref) / np.abs(ref)))
    report(3, rel < 0.05, f"max relative deviation {rel:.4f} over two decay "
                          f"constants (<0.05) at eta=100*gamma_tpa")


def test_criterion_4_analytic_oracle_equivalence():
    """ODE oracle vs full propagation across all damping regimes."""
    gammas = [0.6, 0.8, 1.0, 1.2, 1.4]
    ratios = [0.0, 0.5, 1.0, 2.0, 4.0]
    worst = 0.0
    sign_ok = True
    for gamma in gammas:
        for ratio in ratios:
            eta = ratio * CRITICAL_ETA_FACTOR * gamma
            horizon = 3.0 * 2.0 * math.pi / (math.sqrt(2.0) * gamma)
            t = np.linspace(0.0, horizon, 201)
            ode = pair_coherence_ode(DampingParams(gamma, eta), 0.5, t)
            full = full_pair_coherence(gamma, eta, t)
            worst = max(worst, float(np.max(np.abs(ode - full))))
            vals = ode.real[np.abs(ode.real) > 1e-12]
            changes = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
            if ratio < 1.0 and changes < 1:
                sign_ok = False
            if ratio >= 1.0 and changes != 0:
                sign_ok = False
    report(4, worst <= 1e-8 and sign_ok,
           f"max |ode - full| = {worst:.2e} (<=1e-8) over 5x5 grid; "
           f"sign changes match damping regimes: {sign_ok}")


def test_criterion_5_constraint_gadget_unit_truths():
    """Incoherent endpoint removes |11>; coherent endpoint is a pi/2 kick."""
    space = make_space([3, 3])
    inc = constraint_superop(space, 0, 1, ConstraintParams(0.0, GAMMA_T_INCOHERENT))
    out = apply_superop(inc, number_state(space, (1, 1)).to_density())
    residual = abs(population(out, (0, 0)) - 1.0)
    fixed_err = 0.0
    for occ in ((0, 0), (0, 1), (1, 0)):
        rho = number_state(space, occ).to_density()
        fixed_err = max(fixed_err,
                        float(np.max(np.abs(apply_superop(inc, rho).matrix - rho.matrix))))
    coh = constraint_superop(space, 0, 1,
                             ConstraintParams(3 * math.pi / 2, GAMMA_T_COHERENT))
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    kick = np.exp(1j * math.pi / 2)
    expect = {(1, 1): kick}
    block_err = 0.0
    d = space.total_dim
    for p in patterns:
        for q in patterns:
            e = np.zeros((d, d), dtype=complex)
            e[space.index(p), space.index(q)] = 1.0
            res = (coh @ e.flatten(order="F")).reshape((d, d), order="F")
            factor = expect.get(p, 1.0) * np.conj(expect.get(q, 1.0))
            e_out = e * factor
            block_err = max(block_err, float(np.max(np.abs(res - e_out))))
    ok = residual <= 1e-8 and fixed_err == 0.0 and block_err <= 1e-9
    report(5, ok, f"|11>->|00> residual {residual:.2e} (<=1e-8), other qubit "
                  f"states fixed exactly ({fixed_err:.1e}), coherent block vs "
                  f"diag(1,1,1,e^(i pi/2)) error {block_err:.2e} (<=1e-9)")


def test_criterion_6_three_node_line_anneal():
    """Coherent constraints reach 99%; incoherent need strictly more cycles."""
    graph = three_node_line()
    r_tot = 20 * math.pi
    grid = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    runs = {}
    for label, gamma_t in (("coherent", GAMMA_T_COHERENT),
                           ("incoherent", GAMMA_T_INCOHERENT)):
        succ, ent = [], []
        for n in grid:
            rep = anneal_density(graph, make_schedule(n, r_tot),
                                 ConstraintParams(DEFAULT_PHI_Q, gamma_t))
            succ.append(float(rep.success[-1]))
            ent.append(float(rep.entropy.max()))
        runs[label] = (succ, ent)
    coh_succ, coh_ent = runs["coherent"]
    inc_succ, _ = runs["incoherent"]
    reaches_99 = max(coh_succ) >= 0.99
    entropy_flat = max(coh_ent) <= 1e-9

    def first_n(curve, level):
        for n, s in zip(grid, curve):
            if s >= level:
                return n
        return None

    strictly_larger = True
    for level in (0.25, 0.5, 0.75, 0.9, 0.99):
        nc, ni = first_n(coh_succ, level), first_n(inc_succ, level)
        if nc is None:
            continue
        if ni is not None and ni <= nc:
            strictly_larger = False
    ok = reaches_99 and entropy_flat and strictly_larger
    report(6, ok, f"coherent max success {max(coh_succ):.4f} (>=0.99), "
                  f"coherent entropy max {max(coh_ent):.1e} (<=1e-9), "
                  f"incoherent strictly slower: {strictly_larger} "
                  f"[coherent curve {coh_succ}, incoherent curve {inc_succ}]")


def test_criterion_7_five_node_ideal_vs_phase():
    """Phase constraints track ideal ones up to a linearly growing threshold.

    The per-cycle constraint kick is fixed while the per-cycle rotation falls
    as 1/n_cycle, so the tracking discrepancy scales with R_tot/n_cycle and
    the 1% agreement window is swept with an R grid proportional to n_cycle.
    """
    graph = five_node_example()
    n_cycles = [512, 1024, 2048, 4096]
    tol = 0.01
    criticals = []
    agree_ok = True
    for n in n_cycles:
        r_grid = [float(r) for r in np.arange(4.0, 0.62 * n, n / 64.0)]
        schedule = make_schedule(n, r_grid)  # one batched run per path
        p_phase = anneal_statevector(graph, schedule, DEFAULT_PHI_Q).success[:, -1]
        p_ideal = anneal_ideal(graph, schedule).success[:, -1]
        diffs = np.abs(p_phase - p_ideal).tolist()
        crit = detect_critical(r_grid, diffs, tol)
        below = [d for r, d in zip(r_grid, diffs) if r <= crit]
        if max(below) > tol:
            agree_ok = False
        criticals.append(crit)
    monotone = all(b > a for a, b in zip(criticals, criticals[1:]))
    ns = np.array(n_cycles, dtype=float)
    cs = np.array(criticals)
    slope, intercept = np.polyfit(ns, cs, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - float(np.sum((cs - pred) ** 2)) / float(np.sum((cs - cs.mean()) ** 2))
    ok = agree_ok and monotone and r2 >= 0.95
    report(7, ok, f"criticals per n_cycle {list(zip(n_cycles, criticals))}, "
                  f"agreement below critical <= {tol}: {agree_ok}, "
                  f"monotone={monotone}, linear fit r^2={r2:.4f} (>=0.95)")


def test_criterion_8_wmis_crossover():
    """Two-node weighted instance flips outcome across w0 = 1."""
    n_cycle, r_tot = 1000, 200 * math.pi
    results = {}
    for w0 in (0.5, 1.0, 1.5):
        g = graph_from_edges(2, [(0, 1)], weights=(w0, 1.0))
        rep = anneal_density(g, make_schedule(n_cycle, r_tot),
                             ConstraintParams(DEFAULT_PHI_Q, GAMMA_T_COHERENT))
        results[w0] = rep.final_populations
    p01 = results[0.5][(0, 1)]
    p10 = results[1.5][(1, 0)]
    balance = abs(results[1.0][(0, 1)] - results[1.0][(1, 0)])
    ok = p01 > 0.9 and p10 > 0.9 and balance <= 0.02
    report(8, ok, f"P(01|w0=0.5)={p01:.4f} (>0.9), P(10|w0=1.5)={p10:.4f} "
                  f"(>0.9), |P01-P10| at w0=1: {balance:.2e} (<=0.02)")


def test_criterion_9_time_bin_coverage():
    """Shuffle covers all pairs for n <= 12; compiled K5 verifies clean."""
    coverage_ok = True
    for n in range(2, 13):
        got = set()
        for info in all_pairs_shuffle(n):
            order = info["order_before"]
            for (a, b) in info["eligible_pairs"]:
                got.add(frozenset((order[a], order[b])))
        if got != {frozenset(p) for p in combinations(range(n), 2)}:
            coverage_ok = False
    k5 = complete_graph(5)
    rep = verify_program(compile_graph_program(k5), k5)
    ok = coverage_ok and rep.ok and len(rep.edges_covered) == 10
    report(9, ok, f"full pair coverage n<=12: {coverage_ok}; K5 program "
                  f"violations: {len(rep.violations)}, edges covered "
                  f"{len(rep.edges_covered)}/10")


def test_criterion_10_propagator_self_consistency():
    """Dense, action, and binary-cache paths agree on random generators."""
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    worst_semigroup = 0.0
    for trial in range(50):
        dims = [int(rng.integers(2, 5))]
        if rng.random() < 0.5:
            dims.append(int(rng.integers(2, 4)))
        space = make_space(dims)
        parts = [(displacement_generator(space, 0), float(rng.uniform(0.1, 1.5))),
                 (phase_generator(space, 0), float(rng.uniform(0.1, 1.5)))]
        if dims[0] >= 3:
            parts.append((tpa_dissipator(space, 0), float(rng.uniform(0.1, 1.5))))
        parts.append((loss_dissipator(space, len(dims) - 1),
                      float(rng.uniform(0.1, 1.5))))
        gen = combine(parts)
        rho = random_density(space, seed=int(rng.integers(0, 2 ** 31))).matrix
        rho = rho.flatten(order="F")
        t = float(rng.uniform(0.05, 1.2))
        dense = expm_dense(gen, t) @ rho
        action = expm_apply_vec(gen, t, rho)
        # the composed stage matrix, as the zeno drive cycle uses it
        cached = build_cache(gen, t_max=0.75 * t, m=30).matrix_for(t) @ rho
        worst_pair = max(worst_pair,
                         float(np.max(np.abs(dense - action))),
                         float(np.max(np.abs(dense - cached))),
                         float(np.max(np.abs(action - cached))))
        two_step = expm_dense(gen, 0.6 * t) @ (expm_dense(gen, 0.4 * t) @ rho)
        worst_semigroup = max(worst_semigroup, float(np.max(np.abs(dense - two_step))))
    ok = worst_pair <= 1e-8 and worst_semigroup <= 1e-9
    report(10, ok, f"max pairwise path deviation {worst_pair:.2e} (<=1e-8), "
                   f"max semigroup deviation {worst_semigroup:.2e} (<=1e-9) "
                   f"over 50 random generators")


def test_criterion_11_error_mitigation_exhaustive():
    """Every survivable loss pattern decodes to the optimum, independently."""
    graph = three_node_line()
    _, optima = brute_force_mis(graph)
    optimum = optima[0]
    all_ok = True
    checked = 0
    for n_copy in (1, 2, 3):
        enc = mitigation_encode(graph, n_copy)
        _, enc_optima = brute_force_mis(enc)
        support = sorted(min(enc_optima, key=sorted))
        for bits in range(1 << len(support)):
            lost = [support[b] for b in range(len(support)) if (bits >> b) & 1]
            out = loss_injection_experiment(graph, n_copy, lost)
            checked += 1
            if not out["independent"]:
                all_ok = False
            survivors = {v // n_copy for v in set(support) - set(lost)}
            if survivors == optimum and not out["success"]:
                all_ok = False
    report(11, all_ok, f"{checked} loss patterns over n_copy in {{1,2,3}}: "
                       f"all decoded sets independent, optimum recovered "
                       f"whenever every optimum vertex kept a copy")
