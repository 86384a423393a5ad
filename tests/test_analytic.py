import math

import numpy as np
import pytest

from zenoanneal.analytic import (DampingParams, effective_tpa_rate,
                                 pair_coherence_closed_form,
                                 pair_coherence_closed_form_uncorrected,
                                 pair_coherence_ode, sfg_rate_for_tpa_target)
from zenoanneal.experiments import full_pair_coherence

CRITICAL = 4.0 * math.sqrt(2.0)


def test_regime_classification():
    assert DampingParams(1.0, 0.0).regime == "underdamped"
    assert DampingParams(1.0, CRITICAL).regime == "critical"
    assert DampingParams(1.0, 10.0).regime == "overdamped"
    with pytest.raises(ValueError):
        DampingParams(-1.0, 0.0)


def test_undamped_cosine():
    gamma = 1.3
    t = np.linspace(0.0, 4.0, 101)
    ode = pair_coherence_ode(DampingParams(gamma, 0.0), 0.5, t)
    expect = 0.5 * np.cos(math.sqrt(2.0) * gamma * t)
    assert np.max(np.abs(ode - expect)) < 1e-9


def test_critical_damping_formula_and_no_sign_change():
    gamma = 1.0
    eta = CRITICAL * gamma
    t = np.linspace(0.0, 12.0, 201)
    ode = pair_coherence_ode(DampingParams(gamma, eta), 0.5, t)
    expect = 0.5 * (1.0 + eta * t / 4.0) * np.exp(-eta * t / 4.0)
    assert np.max(np.abs(ode - expect)) < 1e-9
    assert np.all(ode.real > -1e-12)


def test_closed_form_matches_ode_in_every_regime():
    t = np.linspace(0.0, 6.0, 151)
    for eta_factor in (0.0, 0.4, 1.0, 2.5):
        params = DampingParams(1.1, eta_factor * CRITICAL * 1.1)
        ode = pair_coherence_ode(params, 0.5, t)
        closed = pair_coherence_closed_form(params, 0.5, t)
        assert np.max(np.abs(ode - closed)) < 1e-9, params.regime


def test_closed_form_t_zero_every_regime():
    for eta in (0.0, 2.0, CRITICAL, 20.0):
        params = DampingParams(1.0, eta)
        assert abs(pair_coherence_closed_form(params, 0.5, 0.0) - 0.5) < 1e-15


def test_closed_form_continuous_across_critical_boundary():
    # Regime selection must not jump branches near the boundary: on either
    # side of eta = 4 sqrt(2) gamma the selected formula still tracks the
    # integrated dynamics, and both sides stay within the physical O(1e-6)
    # neighborhood of each other.
    gamma = 1.0
    t = np.linspace(0.0, 8.0, 101)
    sides = []
    for sign in (-1.0, 1.0):
        params = DampingParams(gamma, CRITICAL * gamma * (1 + sign * 1e-6))
        branch = pair_coherence_closed_form(params, 0.5, t)
        ode = pair_coherence_ode(params, 0.5, t)
        assert np.max(np.abs(branch - ode)) < 1e-8
        sides.append(branch)
    assert np.max(np.abs(sides[0] - sides[1])) < 1e-5


def test_damping_never_amplifies():
    t = np.linspace(0.0, 10.0, 301)
    for eta in (0.0, 1.0, CRITICAL, 12.0):
        vals = pair_coherence_closed_form(DampingParams(1.0, eta), 0.5, t)
        assert np.max(np.abs(vals)) <= 0.5 + 1e-12


def test_overdamped_slow_rate():
    gamma, eta = 1.0, 20.0
    rate = effective_tpa_rate(gamma, eta)
    t = np.linspace(6.0, 10.0, 5)
    vals = pair_coherence_closed_form(DampingParams(gamma, eta), 1.0, t).real
    fitted = -np.polyfit(t, np.log(vals), 1)[0]
    assert abs(fitted - rate) / rate < 1e-6


def test_rate_inversion_round_trip_and_guards():
    for eta in (10.0, 50.0, 300.0):
        for target in (eta / 8.0, eta / 4.0, 0.01 * eta):
            gamma = sfg_rate_for_tpa_target(target, eta)
            assert abs(effective_tpa_rate(gamma, eta) - target) < 1e-12 * max(1.0, target)
    with pytest.raises(ValueError):
        sfg_rate_for_tpa_target(3.0, 10.0)  # above eta/4
    with pytest.raises(ValueError):
        effective_tpa_rate(1.0, 1.0)  # underdamped


def test_markov_limit_single_exponential():
    gamma_tpa, eta = 1.0, 100.0
    gamma = sfg_rate_for_tpa_target(gamma_tpa, eta)
    t = np.linspace(0.0, 2.0, 201)
    ode = pair_coherence_ode(DampingParams(gamma, eta), 0.5, t)
    ref = 0.5 * np.exp(-gamma_tpa * t)
    rel = np.abs(ode - ref) / np.abs(ref)
    assert rel.max() < 0.05


def test_uncorrected_forms_flag_known_discrepancies(capsys):
    # The uncorrected underdamped sine coefficient is missing its 1/omega and
    # the uncorrected overdamped weights mix a bare rate into a dimensionless
    # number, so that variant must disagree with the ODE away from eta = 0
    # while the corrected forms agree.
    t = np.linspace(0.0, 6.0, 151)
    under = DampingParams(1.0, 2.0)
    over = DampingParams(1.0, 9.0)
    report = []
    for params in (under, over):
        ode = pair_coherence_ode(params, 0.5, t)
        uncorrected = pair_coherence_closed_form_uncorrected(params, 0.5, t)
        corrected = pair_coherence_closed_form(params, 0.5, t)
        dev_uncorrected = float(np.max(np.abs(ode - uncorrected)))
        dev_corrected = float(np.max(np.abs(ode - corrected)))
        report.append((params.regime, dev_uncorrected, dev_corrected))
        assert dev_corrected < 1e-9
        assert dev_uncorrected > 1e-3
    for regime, du, dc in report:
        print(f"closed-form check [{regime}]: uncorrected-form deviation {du:.3e}, "
              f"corrected-form deviation {dc:.3e}")
    # at eta = 0 the uncorrected underdamped form is exact
    params = DampingParams(1.0, 0.0)
    ode = pair_coherence_ode(params, 0.5, t)
    uncorrected = pair_coherence_closed_form_uncorrected(params, 0.5, t)
    assert np.max(np.abs(ode - uncorrected)) < 1e-9


def test_full_pair_coherence_rejects_uneven_grid():
    # An uneven grid used to be read as linspace(t[0], t[-1], len(t)).
    with pytest.raises(ValueError, match="evenly spaced"):
        full_pair_coherence(1.0, 0.5, [0.0, 0.1, 0.2, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="evenly spaced"):
        full_pair_coherence(1.0, 0.5, [0.0])
    t = np.linspace(0.0, 5.0, 6)
    params = DampingParams(1.0, 0.5)
    ode = pair_coherence_ode(params, 0.5, t)
    assert np.max(np.abs(full_pair_coherence(1.0, 0.5, t) - ode)) < 1e-8
