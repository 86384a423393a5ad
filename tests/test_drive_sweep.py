"""gamma_99 root search, the drive sweep's early stop, and the drive propagators."""

import math

import numpy as np
import pytest

from zenoanneal import experiments
from zenoanneal.experiments import _drive_p1, drive_sweep_rows, gamma_99

# 40-step log bisection of ratio 0.005 on [10.3, 20]
BISECTION_ROOT = 11.192354026870767


@pytest.fixture
def evaluated(monkeypatch):
    """(ratio, gamma) of every coherence point evaluated, in order."""
    seen = []
    point = experiments._coherence_point

    def counted(args):
        seen.append(args)
        return point(args)

    monkeypatch.setattr(experiments, "_coherence_point", counted)
    return seen


def fake_p1(monkeypatch, p1):
    monkeypatch.setattr(experiments, "_coherence_point", lambda args: p1(args[1]))


def test_gamma_99_above_switch_matches_bisection_in_few_evaluations(evaluated):
    g = gamma_99(0.005, lo=10.3, hi=20.0)
    assert abs(g / BISECTION_ROOT - 1.0) < 1e-11
    assert len(evaluated) <= 15
    assert experiments._coherence_point((0.005, g)) >= 0.99


def test_gamma_99_bisects_across_truncation_switch():
    # p1 jumps at gamma = 10; interpolating across it finds a root near 10.73
    g = gamma_99(0.0, lo=1.0, hi=16.0)
    assert abs(g / 9.3833859409 - 1.0) < 1e-10


def test_gamma_99_endpoints(monkeypatch):
    fake_p1(monkeypatch, lambda g: 1.0)
    assert gamma_99(0.0, lo=0.5, hi=8.0) == 0.5
    fake_p1(monkeypatch, lambda g: 0.0)
    with pytest.raises(ValueError, match="unreachable below gamma=8.0"):
        gamma_99(0.0, lo=0.5, hi=8.0)


def test_gamma_99_converges_on_smooth_curve(monkeypatch):
    root, gammas = 3.7, []

    def p1(g):
        gammas.append(g)
        return 0.99 + 0.5 * math.tanh(math.log(g / root))

    fake_p1(monkeypatch, p1)
    g = gamma_99(0.0, lo=0.2, hi=4096.0)
    assert p1(g) >= 0.99 and abs(math.log(g / root)) <= 2e-12
    assert len(gammas) <= 15


@pytest.mark.parametrize("lo, hi, iters", [(0.0, 16.0, 40), (-1.0, 16.0, 40),
                                           (16.0, 16.0, 40), (20.0, 16.0, 40),
                                           (1.0, 16.0, 0)])
def test_gamma_99_rejects_bad_bracket_before_evaluating(evaluated, lo, hi, iters):
    with pytest.raises(ValueError, match="gamma99"):
        gamma_99(0.0, lo=lo, hi=hi, iters=iters)
    assert evaluated == []


def test_drive_sweep_stops_curve_at_target(evaluated):
    _, rows = drive_sweep_rows([0.005], [2.0, 30.0, 300.0], [], [],
                               gamma99_lo=10.3, gamma99_hi=20.0)
    assert (0.005, 300.0) not in evaluated
    expected = [("sweep", 0.005, 2.0, 0.5095470594055027, 0),
                ("sweep", 0.005, 30.0, 0.99830999373753, 1),
                ("gamma99", 0.005, BISECTION_ROOT, 0.99, 1)]
    assert [(k, r, c) for k, r, _, _, c in rows] == [(k, r, c) for k, r, _, _, c in expected]
    for got, ref in zip(rows, expected):
        assert got[2:4] == pytest.approx(ref[2:4], rel=1e-11, abs=0)


@pytest.mark.parametrize("gamma", [0.8, 4.6, 20.0])
def test_tpa_dense_path_matches_action_path(monkeypatch, gamma):
    dense_calls = []
    expm_dense = experiments.expm_dense
    monkeypatch.setattr(experiments, "expm_dense",
                        lambda *a, **k: dense_calls.append(a) or expm_dense(*a, **k))
    dense = _drive_p1("tpa", gamma, 0.0, math.pi / 2)
    assert len(dense_calls) == 1
    monkeypatch.setattr(experiments, "DRIVE_DENSE_DIM", 0)
    action = _drive_p1("tpa", gamma, 0.0, math.pi / 2)
    assert len(dense_calls) == 1
    assert abs(dense - action) < 1e-12


def test_action_path_repeats_whatever_the_global_seed():
    # expm_multiply's norm estimate draws from the global RNG. Left unfixed,
    # seed 1 moves p1 here in its 13th digit away from seeds 0 and 2-5.
    values = set()
    for seed in range(6):
        np.random.seed(seed)
        values.add(experiments._coherence_point((1.0, 330.174958128)))
    assert len(values) == 1
