"""Experiment drivers behind the CLI: each returns (header, rows) for CSV.

Rows are plain tuples in deterministic grid order; heavy sweeps fan out over
a process pool with results merged back in grid order, so output files are
bit-identical across runs on one platform regardless of thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analytic import (DampingParams, effective_tpa_rate,
                       pair_coherence_closed_form,
                       pair_coherence_closed_form_uncorrected,
                       pair_coherence_ode, sfg_rate_for_tpa_target)
from .anneal import (anneal_density, anneal_ideal, anneal_statevector,
                     make_schedule, qubo_anneal, weighted_phases)
from .fock import make_space, vacuum
from .gadgets import ConstraintParams, GAMMA_T_COHERENT, drive_generator
from .problems import (ProblemGraph, brute_force_mis, mitigation_encode,
                       loss_injection_experiment)
from .propagator import DENSE_DIM_THRESHOLD, expm_apply_vec, expm_dense
import scipy.sparse.linalg

CRITICAL_ETA_FACTOR = 4.0 * math.sqrt(2.0)

# Pump phase giving a pi/2 constraint kick; the full -1 kick (phi_q = 0)
# defeats its own blockade, see the anneal module tests.
DEFAULT_PHI_Q = 3.0 * math.pi / 2.0

# Drive sweeps keep ten photons below this rate and five from it on; p1 jumps
# there, so the gamma_99 search never interpolates across it.
TRUNCATION_SWITCH_GAMMA = 10.0
# Hilbert dimension up to which a drive point takes one dense exponential:
# the 6- and 11-level TPA spaces, where it is 5-100x cheaper than the action
# path.  The 18- and 66-level SFG spaces stay on the action path, where dense
# was about 2x slower at d = 18.
DRIVE_DENSE_DIM = 11
# gamma_99 stops once its bracket is this narrow in log gamma.
GAMMA99_LOG_TOL = 1e-12


def _map(fn, args, threads: int):
    """Results in argument order: a pool's list, or a lazy map on one thread."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return map(fn, args)


# ---------------------------------------------------------------- zeno onset

def zeno_onset_rows(variant: str, ratios, truncation: int,
                    t_max: float, n_t: int):
    """Population time series of the driven mode for each gamma/c ratio."""
    if variant not in ("tpa", "sfg"):
        raise ValueError("variant must be 'tpa' or 'sfg'")
    header = ["variant", "gamma_over_c", "t", "p0", "p1", "p_higher"]
    rows = []
    times = np.linspace(0.0, t_max, n_t)
    for ratio in ratios:
        gen, space = drive_generator(variant, make_space([truncation]), 0,
                                     c=1.0, gamma=float(ratio))
        d = space.total_dim
        vec0 = vacuum(space).to_density().matrix.flatten(order="F")
        occ = space.occupation_array(0)
        if d <= DENSE_DIM_THRESHOLD:
            # One dense exponential of the step, then matrix-vector iteration;
            # robust to stiff generators where series stepping crawls.
            step = expm_dense(gen, float(times[1] - times[0]),
                              dim_cap=DENSE_DIM_THRESHOLD).matrix
            traj = [vec0]
            for _ in range(n_t - 1):
                traj.append(step @ traj[-1])
        else:
            traj = scipy.sparse.linalg.expm_multiply(
                gen.matrix, vec0, start=0.0, stop=t_max, num=n_t, endpoint=True)
        for t, vec in zip(times, traj):
            diag = vec.reshape((d, d), order="F").diagonal().real
            p0 = float(diag[occ == 0].sum())
            p1 = float(diag[occ == 1].sum())
            rows.append((variant, float(ratio), float(t), p0, p1,
                         float(max(1.0 - p0 - p1, 0.0))))
    return header, rows


# --------------------------------------------------------------- drive sweep

def _drive_p1(kind: str, gamma: float, eta: float, t: float) -> float:
    """P(|1>) after driving vacuum for time t at unit displacement rate.

    Truncation drops from ten photons to five at ``TRUNCATION_SWITCH_GAMMA``,
    with the pump sized to the convertible pairs.
    """
    n_max = 10 if gamma < TRUNCATION_SWITCH_GAMMA else 5
    gen, space = drive_generator(kind, make_space([n_max + 1]), 0,
                                 c=1.0, gamma=gamma, eta=eta)
    vec = vacuum(space).to_density().matrix.flatten(order="F")
    d = space.total_dim
    if d <= DRIVE_DENSE_DIM:
        vec = expm_dense(gen, t).matrix @ vec
    else:
        vec = expm_apply_vec(gen, t, vec)
    diag = vec.reshape((d, d), order="F").diagonal().real
    occ = space.occupation_array(0)
    return float(diag[occ == 1].sum())


def _coherence_point(args):
    ratio, gamma = args
    eta = ratio * CRITICAL_ETA_FACTOR * gamma
    return _drive_p1("sfg", gamma, eta, math.pi / 2.0)


def _markov_point(args):
    eta_over_gtpa, gamma_tpa = args
    eta = eta_over_gtpa * gamma_tpa
    gamma = sfg_rate_for_tpa_target(gamma_tpa, eta)
    return _drive_p1("sfg", gamma, eta, math.pi / 2.0)


def _tpa_point(args):
    _, gamma = args
    return _drive_p1("tpa", gamma, 0.0, math.pi / 2.0)


def _check_gamma99_args(lo: float, hi: float, iters: int) -> None:
    if not 0 < lo < hi:
        raise ValueError(f"gamma99 bracket needs 0 < lo < hi, got lo={lo}, hi={hi}")
    if iters < 1:
        raise ValueError(f"gamma99 iters must be at least 1, got {iters}")


def gamma_99(ratio: float, lo: float = 0.2, hi: float = 4096.0,
             target: float = 0.99, iters: int = 40) -> float:
    """Smallest SFG rate reaching the target flip probability at t = pi/2c.

    Bracketed root search in log gamma; the pump loss tracks the rate as
    eta = ratio * 4 sqrt(2) gamma.  Steps bisect while the bracket spans
    more than a factor of 2 or straddles the truncation switch, where p1
    jumps, so the root chosen is the bisection's; inside a narrow smooth
    bracket they are Illinois (modified regula falsi) steps.  At most
    ``iters`` steps, ending early once the bracket is ``GAMMA99_LOG_TOL``
    wide.  Returns the upper end of the final bracket, where p1 >= target.
    """
    _check_gamma99_args(lo, hi, iters)
    f = lambda g: _coherence_point((ratio, g)) - target
    fa = f(lo)
    if fa > 0:
        return lo
    fb = f(hi)
    if fb < 0:
        raise ValueError(f"target {target} unreachable below gamma={hi}")
    a, b = math.log(lo), math.log(hi)
    kept = 0  # +1 / -1 after the upper / lower end moved by an Illinois step
    for _ in range(iters):
        if b - a <= GAMMA99_LOG_TOL or fb == 0:
            break
        straddles = (math.exp(a) < TRUNCATION_SWITCH_GAMMA) != (
            math.exp(b) < TRUNCATION_SWITCH_GAMMA)
        x = b - fb * (b - a) / (fb - fa)
        illinois = b - a <= math.log(2.0) and not straddles and a < x < b
        if not illinois:
            x = 0.5 * (a + b)
        fx = f(math.exp(x))
        if fx >= 0:
            b, fb = x, fx
            if illinois and kept == 1:
                fa *= 0.5
            kept = 1 if illinois else 0
        else:
            a, fa = x, fx
            if illinois and kept == -1:
                fb *= 0.5
            kept = -1 if illinois else 0
    return math.exp(b)


def _curve_rows(kind: str, point, args, threads: int, stop_at: float):
    """Rows of one curve in grid order, ending at the first p1 >= stop_at.

    On one thread the points past that one are never evaluated.
    """
    rows = []
    for (r, g), p1 in zip(args, _map(point, args, threads)):
        rows.append((kind, r, g, p1, int(p1 >= stop_at)))
        if p1 >= stop_at:
            break
    return rows


def drive_sweep_rows(ratios, gammas, markov_ratios, gamma_tpas,
                     threads: int = 1, stop_at: float = 0.99,
                     gamma99_lo: float = 0.2, gamma99_hi: float = 4096.0,
                     gamma99_iters: int = 40):
    """Flip probability curves vs rate, per coherence ratio, plus references.

    Curves stop once ``stop_at`` is reached; with ``threads=1`` the points
    past it are not computed.  Emits three row kinds:
    'sweep' (coherence interpolation), 'markov' (fixed effective pair-loss
    rate, growing pump loss), 'tpa_ref' (memoryless pair absorption), and a
    'gamma99' threshold row per coherence ratio.
    """
    _check_gamma99_args(gamma99_lo, gamma99_hi, gamma99_iters)
    header = ["row_kind", "eta_ratio", "gamma", "p1", "reached_target"]
    rows = []
    for ratio in ratios:
        args = [(float(ratio), float(g)) for g in gammas]
        rows += _curve_rows("sweep", _coherence_point, args, threads, stop_at)
        rows.append(("gamma99", float(ratio),
                     gamma_99(float(ratio), lo=gamma99_lo, hi=gamma99_hi,
                              target=stop_at, iters=gamma99_iters),
                     stop_at, 1))
    for ratio in markov_ratios:
        args = [(float(ratio), float(g)) for g in gamma_tpas]
        rows += _curve_rows("markov", _markov_point, args, threads, stop_at)
    rows += _curve_rows("tpa_ref", _tpa_point, [(0.0, float(g)) for g in gamma_tpas],
                        1, stop_at)
    return header, rows


# --------------------------------------------------------- constraint sweep

def _constraint_point(args):
    graph, n_cycle, r_tot, gamma_t, phi_q = args
    schedule = make_schedule(n_cycle, r_tot)
    rep = anneal_density(graph, schedule,
                         ConstraintParams(phi_q, gamma_t),
                         drive_mode="ideal-2level")
    return (float(rep.success[-1]), float(rep.entropy.max()),
            float(rep.entropy[-1]), float(rep.leakage[-1]))


def constraint_sweep_rows(graph: ProblemGraph, gamma_ts, n_cycles,
                          r_tot: float, phi_q: float = DEFAULT_PHI_Q,
                          threads: int = 1, success_target: float = 0.99):
    """Success and entropy vs cycle count across the coherence interpolation."""
    header = ["gamma_t", "n_cycle", "success", "entropy_max", "entropy_final",
              "leakage_final", "n99", "random_guess"]
    guess = 1.0 / 2 ** graph.n_vertices
    args = [(graph, int(n), r_tot, float(gt), phi_q)
            for gt in gamma_ts for n in n_cycles]
    results = list(_map(_constraint_point, args, threads))
    rows = []
    per_gt: dict[float, list[tuple[int, float]]] = {}
    for (_, n, _, gt, _), res in zip(args, results):
        per_gt.setdefault(gt, []).append((n, res[0]))
    idx = 0
    for gt in gamma_ts:
        gt = float(gt)
        reached = [n for (n, s) in per_gt[gt] if s >= success_target]
        n99 = min(reached) if reached else -1
        for n in n_cycles:
            succ, smax, sfin, leak = results[idx]
            rows.append((gt, int(n), succ, smax, sfin, leak, n99, guess))
            idx += 1
    return header, rows


# ------------------------------------------------- ideal vs phase (5 nodes)

def _five_node_point(args):
    """Final phase and ideal success over the r-grid, one batched run each."""
    graph, n_cycle, r_grid, phi_q = args
    schedule = make_schedule(n_cycle, r_grid)
    p_phase = anneal_statevector(graph, schedule, phi_q).success[:, -1]
    p_ideal = anneal_ideal(graph, schedule).success[:, -1]
    return p_phase.tolist(), p_ideal.tolist()


def detect_critical(r_grid, diffs, tol: float = 0.01) -> float:
    """Largest swept rotation below which phase and ideal agree within tol."""
    critical = float(r_grid[0])
    for r, d in zip(r_grid, diffs):
        if d > tol:
            break
        critical = float(r)
    return critical


def ideal_vs_phase_rows(graph: ProblemGraph, n_cycles, r_grid,
                        phi_q: float = DEFAULT_PHI_Q, threads: int = 1,
                        tol: float = 0.01):
    """Success vs total rotation for phase-based and ideal constraints.

    Emits 'point' rows for every grid entry, one 'critical' row per cycle
    count, and a single 'fit' row with the linear fit of the critical values
    against the cycle count.
    """
    header = ["row_kind", "n_cycle", "r_tot", "p_phase", "p_ideal", "abs_diff"]
    r_grid = [float(r) for r in r_grid]
    counts = [int(n) for n in n_cycles]
    results = _map(_five_node_point, [(graph, n, r_grid, phi_q) for n in counts], threads)
    rows, criticals = [], []
    for n, (p_phase, p_ideal) in zip(counts, results):
        diffs = [abs(p - i) for p, i in zip(p_phase, p_ideal)]
        rows += [("point", n, r, p, i, d)
                 for r, p, i, d in zip(r_grid, p_phase, p_ideal, diffs)]
        crit = detect_critical(r_grid, diffs, tol)
        criticals.append((n, crit))
        rows.append(("critical", n, crit, float("nan"), float("nan"), tol))
    ns = np.array(counts, dtype=float)
    cs = np.array([c for _, c in criticals], dtype=float)
    slope = intercept = r2 = float("nan")  # no line through one cycle count
    if len(set(ns)) > 1:
        slope, intercept = np.polyfit(ns, cs, 1)
        pred = slope * ns + intercept
        ss_res = float(np.sum((cs - pred) ** 2))
        ss_tot = float(np.sum((cs - cs.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rows.append(("fit", 0, float(slope), float(intercept), r2, tol))
    return header, rows, criticals, (float(slope), float(intercept), float(r2))


# ----------------------------------------------------------------- wmis/qubo

def wmis_rows(w0_grid, n_cycle: int, r_tot: float,
              phi_q: float = DEFAULT_PHI_Q):
    """Two-node weighted crossover: outcome flips as w0 crosses w1 = 1."""
    header = ["w0", "p00", "p01", "p10", "p11", "success"]

    def point(w0):
        g = ProblemGraph(2, frozenset({(0, 1)}), (float(w0), 1.0))
        schedule = weighted_phases(make_schedule(n_cycle, r_tot), (float(w0), 1.0))
        rep = anneal_density(g, schedule, ConstraintParams(phi_q, GAMMA_T_COHERENT),
                             drive_mode="ideal-2level", record_entropy=False)
        p = rep.final_populations
        return (float(w0), p[(0, 0)], p[(0, 1)], p[(1, 0)], p[(1, 1)],
                float(rep.success[-1]))

    rows = [point(w) for w in w0_grid]
    return header, rows


def qubo_rows(q: np.ndarray, n_cycle: int, r_tot: float):
    """Final assignment distribution of the three-parameter anneal."""
    header = ["assignment", "energy", "probability", "is_optimal", "success"]
    rep = qubo_anneal(q, n_cycle, r_tot)
    optima = set(rep.meta["optima"])
    success = float(rep.success[-1])
    # final_populations and meta["energy"] are both in basis order
    return header, [("".join(map(str, bits)), energy, prob, int(bits in optima), success)
                    for (bits, prob), energy in zip(rep.final_populations.items(),
                                                    rep.meta["energy"].tolist())]


# ----------------------------------------------------------------- mitigate

def mitigation_rows(graph: ProblemGraph, n_copies):
    """Exhaustive loss-pattern study of the copy encoding."""
    header = ["n_copy", "pattern_index", "n_lost", "decode_success",
              "decoded_independent", "decoded_set"]
    rows = []
    for n_copy in n_copies:
        n_copy = int(n_copy)
        encoded = mitigation_encode(graph, n_copy)
        _, encoded_optima = brute_force_mis(encoded)
        support = sorted(min(encoded_optima, key=sorted))
        for pattern_idx in range(1 << len(support)):
            lost = [support[b] for b in range(len(support))
                    if (pattern_idx >> b) & 1]
            result = loss_injection_experiment(graph, n_copy, lost)
            rows.append((n_copy, pattern_idx, len(lost),
                         int(result["success"]), int(result["independent"]),
                         "".join(str(v) for v in sorted(result["decoded"])) or "-"))
    return header, rows


# -------------------------------------------------------------- oracle check

def _sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values[np.abs(values) > 1e-12])
    return int(np.sum(signs[1:] != signs[:-1]))


def full_pair_coherence(gamma: float, eta: float, t_grid) -> np.ndarray:
    """<1,0_p| rho(t) |2,0_p> from the full superoperator propagation.

    Initial state (|1> + |2>)(<1| + <2|)/2 with an empty pump.
    """
    gen, space = drive_generator("sfg", make_space([3]), 0, gamma=gamma, eta=eta)
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index((1, 0))] = 1.0 / math.sqrt(2.0)
    amps[space.index((2, 0))] = 1.0 / math.sqrt(2.0)
    rho = np.outer(amps, amps.conj())
    i1, i2 = space.index((1, 0)), space.index((2, 0))
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty(len(t_grid), dtype=complex)
    vec0 = rho.flatten(order="F")
    traj = scipy.sparse.linalg.expm_multiply(
        gen.matrix, vec0, start=float(t_grid[0]), stop=float(t_grid[-1]),
        num=len(t_grid), endpoint=True)
    d = space.total_dim
    for i, vec in enumerate(traj):
        out[i] = vec.reshape((d, d), order="F")[i1, i2]
    return out


def oracle_check_rows(gammas, eta_ratios, n_t: int = 201):
    """Cross-check ODE, closed forms, and the full propagation per regime."""
    header = ["gamma", "eta", "regime", "max_ode_vs_full", "max_ode_vs_closed",
              "max_ode_vs_uncorrected", "sign_changes", "gamma_roundtrip_err"]
    rows = []
    for gamma in gammas:
        for ratio in eta_ratios:
            gamma = float(gamma)
            eta = float(ratio) * CRITICAL_ETA_FACTOR * gamma
            params = DampingParams(gamma, eta)
            horizon = 3.0 * 2.0 * math.pi / (math.sqrt(2.0) * gamma)
            t = np.linspace(0.0, horizon, n_t)
            ode = pair_coherence_ode(params, 0.5, t)
            full = full_pair_coherence(gamma, eta, t)
            closed = pair_coherence_closed_form(params, 0.5, t)
            uncorrected = pair_coherence_closed_form_uncorrected(params, 0.5, t)
            if eta > 0:
                target = eta / 8.0
                rt = abs(effective_tpa_rate(
                    sfg_rate_for_tpa_target(target, eta), eta) - target)
            else:
                rt = 0.0
            rows.append((gamma, eta, params.regime,
                         float(np.max(np.abs(ode - full))),
                         float(np.max(np.abs(ode - closed))),
                         float(np.max(np.abs(ode - uncorrected))),
                         _sign_changes(ode.real), rt))
    return header, rows
