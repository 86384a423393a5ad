import math

import numpy as np
import pytest

from zenoanneal.fock import make_space
from zenoanneal.gadgets import drive_generator
from zenoanneal.generators import (combine, displacement_generator,
                                   loss_dissipator, phase_generator,
                                   tpa_dissipator)
from zenoanneal.propagator import (DimensionGuardError, PhaseKernel,
                                   _expm_multiply, build_cache, expm_apply_vec,
                                   expm_dense, trajectory)

from oracles import apply_superop, number_state
from test_fock import random_density


def random_generator(seed, dims=(3,)):
    rng = np.random.default_rng(seed)
    space = make_space(dims)
    parts = [(displacement_generator(space, 0), rng.uniform(0.1, 1.0)),
             (phase_generator(space, 0), rng.uniform(0.1, 1.0)),
             (tpa_dissipator(space, 0), rng.uniform(0.1, 1.0)),
             (loss_dissipator(space, len(dims) - 1), rng.uniform(0.1, 1.0))]
    return combine(parts)


def test_exp_zero_time_is_identity():
    gen = tpa_dissipator(make_space([3]), 0)
    s = expm_dense(gen, 0.0)
    assert np.max(np.abs(s - np.eye(9))) < 1e-15


def test_tpa_long_time_returns_pairs_to_vacuum():
    space = make_space([3])
    s = expm_dense(tpa_dissipator(space, 0), 12.0)
    out = apply_superop(s, number_state(space, (2,)).to_density())
    assert out.matrix[0, 0].real > 1 - 1e-8


def test_loss_population_decay_closed_form():
    space = make_space([2])
    t = 0.9
    s = expm_dense(loss_dissipator(space, 0), t)
    out = apply_superop(s, number_state(space, (1,)).to_density())
    assert abs(out.matrix[1, 1].real - math.exp(-t)) < 1e-12


def test_expm_apply_matches_dense():
    gen = random_generator(1, dims=(3, 2))
    rho = random_density(gen.space, seed=2)
    d = gen.space.total_dim
    dense = apply_superop(expm_dense(gen, 0.7), rho)
    action = expm_apply_vec(gen, 0.7, rho.matrix.flatten(order="F"))
    action = action.reshape((d, d), order="F")
    assert np.max(np.abs(dense.matrix - action)) < 1e-9
    assert abs(np.trace(action) - 1) < 1e-10


def test_expm_apply_leaves_global_rng_state_alone():
    gen = random_generator(3, dims=(3, 2))
    vec = random_density(gen.space, seed=4).matrix.flatten(order="F")
    np.random.seed(11)
    before = np.random.get_state()
    expm_apply_vec(gen, 0.9, vec)
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


def test_negative_time_rules():
    space = make_space([3])
    with pytest.raises(ValueError):
        expm_dense(tpa_dissipator(space, 0), -0.1)
    s = expm_dense(displacement_generator(space, 0), -0.1)
    assert np.isfinite(s).all()


def test_dense_dimension_guard():
    space = make_space([9, 9])
    with pytest.raises(DimensionGuardError):
        expm_dense(displacement_generator(space, 0), 0.1)


def test_cache_exact_at_t_max_and_zero():
    gen = random_generator(5)
    cache = build_cache(gen, t_max=0.8, m=8)
    direct = expm_dense(gen, 0.8)
    assert np.max(np.abs(direct - cache.matrix_for(0.8))) < 1e-13
    assert np.array_equal(cache.matrix_for(0.0), np.eye(direct.shape[0]))


def test_cache_random_times_match_dense():
    gen = random_generator(7)
    t_max = 0.6
    cache = build_cache(gen, t_max=t_max, m=30)
    rho = random_density(gen.space, seed=8).matrix.flatten(order="F")
    rng = np.random.default_rng(9)
    for t in rng.uniform(0.0, 2 * t_max - 1e-9, size=8):
        direct = expm_dense(gen, float(t)) @ rho
        cached = cache.matrix_for(float(t)) @ rho
        assert np.max(np.abs(direct - cached)) < 1e-8


def test_cache_guards():
    gen = random_generator(10)
    cache = build_cache(gen, t_max=0.5, m=4)
    with pytest.raises(ValueError):
        cache.matrix_for(1.0)
    with pytest.raises(ValueError):
        build_cache(gen, t_max=0.5, m=0)


def test_semigroup_property():
    gen = random_generator(12)
    rho = random_density(gen.space, seed=13)
    lhs = apply_superop(expm_dense(gen, 0.9), rho)
    rhs = apply_superop(expm_dense(gen, 0.5), apply_superop(expm_dense(gen, 0.4), rho))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9


def test_phase_kernel_matches_generator_exponential():
    space = make_space([3, 2])
    gen = phase_generator(space, 0)
    phi = 1.234
    rho = random_density(space, seed=14)
    expect = apply_superop(expm_dense(gen, phi), rho)
    kernel = PhaseKernel(space, [1.0, 0.0])
    out = kernel.apply_matrix(rho.matrix, phi)
    assert np.max(np.abs(out - expect.matrix)) < 1e-12


@pytest.mark.parametrize("dims, weights", [([3, 2], [1.0, 1.0]), ([3, 2], [0.7, 2.5]),
                                           ([3, 3, 3], [1.0, 1.0, 1.0]),
                                           ([3, 3, 3], [1.3, 0.4, 2.0])])
def test_weighted_phase_kernel_matches_product_of_mode_exponentials(dims, weights):
    space = make_space(dims)
    phi = 0.83
    rho = random_density(space, seed=19).matrix
    expect = rho.flatten(order="F")
    for m, w in enumerate(weights):
        expect = expm_dense(phase_generator(space, m), phi * w) @ expect
    kernel = PhaseKernel(space, weights)
    out = kernel.apply_matrix(rho, phi)
    assert np.max(np.abs(out.flatten(order="F") - expect)) < 1e-12
    for angle in (phi, -3.7, 1e-300, 2e5):
        assert np.all(kernel.apply_matrix(np.eye(space.total_dim), angle).diagonal() == 1.0)


def test_phase_kernel_diagonal_and_qubit_multipliers():
    space = make_space([2])
    kernel = PhaseKernel(space, [1.0])
    phi = 0.4
    mult = kernel.apply_matrix(np.ones((2, 2)), phi)
    assert mult[0, 0] == 1.0 and mult[1, 1] == 1.0
    assert abs(mult[1, 0] - np.exp(-1j * phi)) < 1e-15
    assert abs(mult[0, 1] - np.exp(1j * phi)) < 1e-15


def test_superoperator_output_satisfies_density_invariants():
    gen = random_generator(15, dims=(3, 2))
    rho = random_density(gen.space, seed=16)
    out = apply_superop(expm_dense(gen, 1.3), rho)
    out.validate()


def test_trajectory_dense_steps_match_interval_and_pointwise_action():
    gen = random_generator(17, dims=(4, 2))
    assert gen.space.total_dim <= 64
    vec = random_density(gen.space, seed=18).matrix.flatten(order="F")
    times = np.linspace(0.0, 2.5, 26)
    dense = trajectory(gen, times, vec)
    interval = _expm_multiply(gen.matrix, vec, start=0.0, stop=2.5, num=26, endpoint=True)
    assert dense.shape == interval.shape == (26, vec.size)
    assert np.array_equal(dense[0], vec)
    assert np.max(np.abs(dense - interval)) < 1e-12
    for t, row in zip(times, dense):
        assert np.max(np.abs(row - expm_apply_vec(gen, float(t), vec))) < 1e-12


def test_trajectory_above_dense_cap_takes_action_interval():
    gen, space = drive_generator("sfg", make_space([11]), 0, c=1.0, gamma=0.8, eta=0.5)
    assert space.total_dim > 64
    vec = number_state(space, (0, 0)).to_density().matrix.flatten(order="F")
    times = np.linspace(0.0, 1.5, 4)
    traj = trajectory(gen, times, vec)
    for t, row in zip(times, traj):
        assert np.max(np.abs(row - expm_apply_vec(gen, float(t), vec))) < 1e-12


@pytest.mark.parametrize("times", [[0.0], [], [0.1, 0.2, 0.3], [0.0, 0.1, 0.3],
                                   [0.0, 0.1, 0.2, 3.0, 4.0, 5.0], [[0.0, 1.0]]])
def test_trajectory_rejects_grids_not_evenly_spaced_from_zero(times):
    gen = random_generator(19)
    vec = random_density(gen.space, seed=20).matrix.flatten(order="F")
    with pytest.raises(ValueError, match="evenly spaced"):
        trajectory(gen, times, vec)


def test_trajectory_rejects_negative_times_when_dissipative():
    gen = random_generator(21)
    vec = random_density(gen.space, seed=22).matrix.flatten(order="F")
    with pytest.raises(ValueError, match="negative time"):
        trajectory(gen, np.linspace(0.0, -1.0, 5), vec)
