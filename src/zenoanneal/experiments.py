"""Experiment drivers behind the CLI: each returns (header, rows) for CSV.

Rows are plain tuples in deterministic grid order, computed in this process,
so output files are bit-identical across runs on one platform.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import (DampingParams, effective_tpa_rate,
                       pair_coherence_closed_form,
                       pair_coherence_closed_form_uncorrected,
                       pair_coherence_ode, sfg_rate_for_tpa_target)
# anneal_density is unused here but perfbench/tracing.py binds it.
from .anneal import (anneal_density, anneal_density_batch, anneal_ideal,
                     anneal_statevector, make_schedule, qubo_anneal)
from .fock import make_space, vacuum
from .gadgets import ConstraintParams, drive_generator
from .problems import (ProblemGraph, brute_force_mis, mitigation_encode,
                       loss_injection_experiment)
from .propagator import expm_apply_vec, expm_dense, trajectory

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
# Final success a constraint sweep's n99 column asks of a cycle count.
N99_SUCCESS = 0.99


# ---------------------------------------------------------------- zeno onset

def zeno_onset_rows(variant: str, ratios, truncation: int,
                    t_max: float, n_t: int):
    """Population time series of the driven mode for each gamma/c ratio."""
    if variant not in ("tpa", "sfg"):
        raise ValueError("variant must be 'tpa' or 'sfg'")
    if not 0 < t_max < math.inf:  # NaN fails too
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    header = ["variant", "gamma_over_c", "t", "p0", "p1", "p_higher"]
    rows = []
    times = np.linspace(0.0, t_max, n_t)
    for ratio in ratios:
        gen, space = drive_generator(variant, make_space([truncation]), 0,
                                     c=1.0, gamma=float(ratio))
        d = space.total_dim
        vec0 = vacuum(space).to_density().matrix.flatten(order="F")
        occ = space.occupation_array(0)
        for t, vec in zip(times, trajectory(gen, times, vec0)):
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
        vec = expm_dense(gen, t) @ vec
    else:
        vec = expm_apply_vec(gen, t, vec)
    diag = vec.reshape((d, d), order="F").diagonal().real
    occ = space.occupation_array(0)
    return float(diag[occ == 1].sum())


def _coherence_point(ratio: float, gamma: float) -> float:
    eta = ratio * CRITICAL_ETA_FACTOR * gamma
    return _drive_p1("sfg", gamma, eta, math.pi / 2.0)


def _markov_point(eta_over_gtpa: float, gamma_tpa: float) -> float:
    eta = eta_over_gtpa * gamma_tpa
    gamma = sfg_rate_for_tpa_target(gamma_tpa, eta)
    return _drive_p1("sfg", gamma, eta, math.pi / 2.0)


def _tpa_point(_, gamma: float) -> float:
    return _drive_p1("tpa", gamma, 0.0, math.pi / 2.0)


def _finite_ratios(name: str, ratios) -> list[float]:
    """``ratios`` as floats; ValueError unless each is finite and nonnegative."""
    ratios = [float(r) for r in ratios]
    if not all(0 <= r < math.inf for r in ratios):  # NaN fails too
        raise ValueError(f"{name} must be finite and nonnegative, got {ratios}")
    return ratios


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
    wide.  Returns the upper end of the final bracket, where p1 >= target;
    when ``iters`` runs out first, that is the upper end after the last step
    taken, an upper bound on the root and not the nearest point to it.  At
    ratio 0 just below gamma = 10, p1 is not monotone above the root, so the
    Illinois steps creep (each moves the upper end by a few percent) and a
    capped solve there can end farther from the root than bisection would.
    """
    _check_gamma99_args(lo, hi, iters)
    f = lambda g: _coherence_point(ratio, g) - target
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


def _curve_rows(kind: str, ratio, gammas, point, stop_at: float):
    """Rows point(ratio, gamma) of one curve in gamma-grid order, ending at the
    first p1 >= stop_at; the points past that one are never evaluated."""
    rows = []
    ratio = float(ratio)
    for g in map(float, gammas):
        p1 = point(ratio, g)
        rows.append((kind, ratio, g, p1, int(p1 >= stop_at)))
        if p1 >= stop_at:
            break
    return rows


def drive_sweep_rows(ratios, gammas, markov_ratios, gamma_tpas,
                     stop_at: float = 0.99,
                     gamma99_lo: float = 0.2, gamma99_hi: float = 4096.0,
                     gamma99_iters: int = 40):
    """Flip probability curves vs rate, per coherence ratio, plus references.

    Curves stop once ``stop_at`` is reached; the points past it are not
    computed.  Emits three row kinds:
    'sweep' (coherence interpolation), 'markov' (fixed effective pair-loss
    rate, growing pump loss), 'tpa_ref' (memoryless pair absorption), and a
    'gamma99' threshold row per coherence ratio.
    """
    _check_gamma99_args(gamma99_lo, gamma99_hi, gamma99_iters)
    ratios = _finite_ratios("eta ratios", ratios)
    markov_ratios = _finite_ratios("markov ratios", markov_ratios)
    header = ["row_kind", "eta_ratio", "gamma", "p1", "reached_target"]
    rows = []
    for ratio in ratios:
        rows += _curve_rows("sweep", ratio, gammas, _coherence_point, stop_at)
        rows.append(("gamma99", float(ratio),
                     gamma_99(float(ratio), lo=gamma99_lo, hi=gamma99_hi,
                              target=stop_at, iters=gamma99_iters),
                     stop_at, 1))
    for ratio in markov_ratios:
        rows += _curve_rows("markov", ratio, gamma_tpas, _markov_point, stop_at)
    rows += _curve_rows("tpa_ref", 0.0, gamma_tpas, _tpa_point, stop_at)
    return header, rows


# --------------------------------------------------------- constraint sweep

def constraint_sweep_rows(graph: ProblemGraph, gamma_ts, n_cycles,
                          r_tot: float, phi_q: float = DEFAULT_PHI_Q):
    """Success and entropy vs cycle count across the coherence interpolation.

    Every (gamma_t, n_cycle) point, gamma_t outermost, is a row of one
    ideal-2level :func:`anneal_density_batch` call: one qubit-block loop, one
    gadget per gamma_t.
    """
    header = ["gamma_t", "n_cycle", "success", "entropy_max", "entropy_final",
              "leakage_final", "n99", "random_guess"]
    guess = 1.0 / 2 ** graph.n_vertices
    grid = [(float(gt), int(n)) for gt in gamma_ts for n in n_cycles]
    reports = anneal_density_batch(graph, [make_schedule(n, r_tot) for _, n in grid],
                                   [ConstraintParams(phi_q, gt) for gt, _ in grid])
    points = [(gt, n, float(rep.success[-1]), float(rep.entropy.max()),
               float(rep.entropy[-1]), float(rep.leakage[-1]))
              for (gt, n), rep in zip(grid, reports)]
    n99 = {}
    for gt, n, success, *_ in points:
        if success >= N99_SUCCESS:
            n99[gt] = min(n, n99.get(gt, n))
    return header, [p + (n99.get(p[0], -1), guess) for p in points]


# ------------------------------------------------- ideal vs phase (5 nodes)

def detect_critical(r_grid, diffs, tol: float = 0.01) -> float:
    """Largest swept rotation below which phase and ideal agree within tol."""
    critical = float(r_grid[0])
    for r, d in zip(r_grid, diffs):
        if d > tol:
            break
        critical = float(r)
    return critical


def ideal_vs_phase_rows(graph: ProblemGraph, n_cycles, r_grid,
                        phi_q: float = DEFAULT_PHI_Q, tol: float = 0.01):
    """Success vs total rotation for phase-based and ideal constraints.

    Each cycle count takes one batched phase run and one batched ideal run
    over the r-grid.  Emits 'point' rows for every grid entry, one 'critical'
    row per cycle count, and a single 'fit' row with the linear fit of the
    critical values against the cycle count.
    """
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    header = ["row_kind", "n_cycle", "r_tot", "p_phase", "p_ideal", "abs_diff"]
    r_grid = [float(r) for r in r_grid]
    counts = [int(n) for n in n_cycles]
    rows, criticals = [], []
    for n in counts:
        schedule = make_schedule(n, r_grid)
        p_phase = anneal_statevector(graph, schedule, phi_q).success[:, -1].tolist()
        p_ideal = anneal_ideal(graph, schedule).success[:, -1].tolist()
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
    """Two-node weighted crossover: outcome flips as w0 crosses w1 = 1.

    The lossless coherent gadget is a pure phase kick: one statevector run.
    """
    header = ["w0", "p00", "p01", "p10", "p11", "success"]

    def point(w0):
        g = ProblemGraph(2, frozenset({(0, 1)}), (float(w0), 1.0))
        rep = anneal_statevector(g, make_schedule(n_cycle, r_tot), phi_q)
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

    Initial state (|1> + |2>)(<1| + <2|)/2 with an empty pump; ``t_grid``
    must be evenly spaced from 0.
    """
    gen, space = drive_generator("sfg", make_space([3]), 0, gamma=gamma, eta=eta)
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index((1, 0))] = 1.0 / math.sqrt(2.0)
    amps[space.index((2, 0))] = 1.0 / math.sqrt(2.0)
    rho = np.outer(amps, amps.conj())
    d = space.total_dim
    traj = trajectory(gen, t_grid, rho.flatten(order="F"))
    # element (i1, i2) of the column-stacked rho
    return traj[:, space.index((1, 0)) + d * space.index((2, 0))]


def oracle_check_rows(gammas, eta_ratios, n_t: int = 201):
    """Cross-check ODE, closed forms, and the full propagation per regime."""
    header = ["gamma", "eta", "regime", "max_ode_vs_full", "max_ode_vs_closed",
              "max_ode_vs_uncorrected", "sign_changes", "gamma_roundtrip_err"]
    gammas = [float(g) for g in gammas]
    if not all(g > 0 for g in gammas):
        raise ValueError(f"oracle-check gammas must be positive, got {gammas}")
    eta_ratios = _finite_ratios("oracle-check eta ratios", eta_ratios)
    rows = []
    for gamma in gammas:
        for ratio in eta_ratios:
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
