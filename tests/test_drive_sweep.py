"""gamma_99 root search, the drive sweep's early stop, and the drive propagators."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from zenoanneal import experiments, gadgets, generators, propagator
from zenoanneal.experiments import (CRITICAL_ETA_FACTOR, _drive_p1, drive_sweep_rows,
                                    gamma_99)
from zenoanneal.fock import make_space, vacuum
from zenoanneal.generators import GeneratorSpec
from zenoanneal.propagator import expm_dense

# 40-step log bisection of ratio 0.005 on [10.3, 20]
BISECTION_ROOT = 11.192354026870767


@pytest.fixture
def evaluated(monkeypatch):
    """(ratio, gamma) of every coherence point evaluated, in order."""
    seen = []
    point = experiments._coherence_point

    def counted(ratio, gamma):
        seen.append((ratio, gamma))
        return point(ratio, gamma)

    monkeypatch.setattr(experiments, "_coherence_point", counted)
    return seen


def fake_p1(monkeypatch, p1):
    monkeypatch.setattr(experiments, "_coherence_point", lambda ratio, gamma: p1(gamma))


def test_gamma_99_above_switch_matches_bisection_in_few_evaluations(evaluated):
    g = gamma_99(0.005, lo=10.3, hi=20.0)
    assert abs(g / BISECTION_ROOT - 1.0) < 1e-11
    assert len(evaluated) <= 15
    assert experiments._coherence_point(0.005, g) >= 0.99


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


@pytest.mark.parametrize("bad, needle", [
    ({"gammas": [math.inf]}, "gammas must be finite and nonnegative, got [inf]"),
    ({"gammas": [math.nan]}, "gammas must be finite and nonnegative, got [nan]"),
    ({"gamma_tpas": [math.inf]}, "TPA gammas must be finite and positive, got [inf]"),
    ({"gamma_tpas": [0.0]}, "TPA gammas must be finite and positive, got [0.0]"),
    ({"markov_ratios": [0.0]}, "markov ratios must be finite and at least 4, got [0.0]"),
    ({"markov_ratios": [3.9]}, "markov ratios must be finite and at least 4, got [3.9]"),
    ({"markov_ratios": [math.inf]}, "markov ratios must be finite and at least 4, got [inf]"),
], ids=["inf-gamma", "nan-gamma", "inf-tpa-gamma", "zero-tpa-gamma", "zero-markov-ratio",
        "unreachable-markov-ratio", "inf-markov-ratio"])
def test_drive_sweep_checks_every_input_before_any_point(monkeypatch, bad, needle):
    def no_point(*args):
        raise AssertionError("a drive point was evaluated")

    monkeypatch.setattr(experiments, "_drive_p1", no_point)
    good = {"ratios": [0.0], "gammas": [1.0], "markov_ratios": [4.0], "gamma_tpas": [1.0]}
    with pytest.raises(AssertionError):  # these inputs pass the checks
        drive_sweep_rows(**good, gamma99_iters=1)
    with pytest.raises(ValueError) as exc:
        drive_sweep_rows(**{**good, **bad}, gamma99_iters=1)
    assert str(exc.value) == needle


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
    # the TPA spaces, d = 11 and 6, take the action like every drive point
    monkeypatch.setattr(experiments, "expm_dense",
                        lambda *a, **k: pytest.fail("a TPA point went dense"))
    action = _drive_p1("tpa", gamma, 0.0, math.pi / 2)
    gen, space = gadgets.drive_generator("tpa", make_space([11 if gamma < 10 else 6]), 0,
                                         c=1.0, gamma=gamma)
    vec = expm_dense(gen, math.pi / 2) @ vacuum(space).to_density().matrix.flatten(order="F")
    p1 = vec.reshape(space.total_dim, -1, order="F").diagonal().real[1]
    assert abs(action - p1) < 1e-12


@pytest.mark.parametrize("kind, gamma, ratio", [("sfg", 4.6, 0.3), ("sfg", 330.174958128, 1.0),
                                                ("tpa", 4.6, 0.0)])
def test_drive_points_leave_the_global_rng_and_expm_multiply_alone(monkeypatch, kind, gamma,
                                                                   ratio):
    for owner, name in ((np.random, "seed"), (np.random, "get_state"),
                        (np.random, "set_state"), (scipy.sparse.linalg, "expm_multiply")):
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: pytest.fail(name))
    assert 0.0 <= _drive_p1(kind, gamma, ratio * CRITICAL_ETA_FACTOR * gamma, math.pi / 2) <= 1.0


@pytest.mark.parametrize("gamma", [4.6, 20.0])
def test_sfg_point_takes_one_action_with_its_generator(monkeypatch, gamma):
    calls = []
    expm_apply_vec = experiments.expm_apply_vec
    monkeypatch.setattr(experiments, "expm_apply_vec",
                        lambda *a, **k: calls.append(a) or expm_apply_vec(*a, **k))
    monkeypatch.setattr(experiments, "expm_dense",
                        lambda *a, **k: pytest.fail("an SFG point went dense"))
    p1 = _drive_p1("sfg", gamma, 0.3 * gamma, math.pi / 2)
    assert len(calls) == 1 and isinstance(calls[0][0], GeneratorSpec)
    assert 0.0 <= p1 <= 1.0


def test_repeated_drive_points_build_each_unit_part_once(monkeypatch):
    built = []
    for name in ("hamiltonian_superop", "dissipator_superop"):
        build = getattr(generators, name)
        monkeypatch.setattr(generators, name,
                            lambda *a, build=build, name=name: built.append(name) or build(*a))
    gadgets._unit_part.cache_clear()
    for gamma in (1.5, 2.5, 3.5):  # one 66-level space, three rates
        _drive_p1("sfg", gamma, 0.7 * gamma, math.pi / 2)
    # displacement, SFG and pump loss, one Liouvillian each
    assert gadgets._unit_part.cache_info().misses == 3
    assert sorted(built) == ["dissipator_superop"] + ["hamiltonian_superop"] * 3


def test_action_path_repeats_whatever_the_global_seed(monkeypatch):
    # Held on the Krylov path, whose step control reads no random estimator.
    # scipy's expm_multiply, which drive points took before it, drew its norm
    # estimate from the global RNG: left unfixed, seed 1 moved p1 here in its
    # 13th digit away from seeds 0 and 2-5.
    monkeypatch.setattr(propagator, "DENSE_BLOCK_MAX", 0)
    values = set()
    for seed in range(6):
        np.random.seed(seed)
        values.add(experiments._coherence_point(1.0, 330.174958128))
    assert len(values) == 1
