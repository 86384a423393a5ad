import math

import numpy as np
import pytest

from zenoanneal.fock import make_space, number_state, vectorize
from zenoanneal.generators import (combine, displacement_generator,
                                   loss_dissipator, phase_generator,
                                   tpa_dissipator)
from zenoanneal.propagator import (DimensionGuardError, PhaseKernel,
                                   apply_cached, build_cache, expm_apply,
                                   expm_apply_vec, expm_dense)

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
    assert np.max(np.abs(s.matrix - np.eye(9))) < 1e-15


def test_tpa_long_time_returns_pairs_to_vacuum():
    space = make_space([3])
    s = expm_dense(tpa_dissipator(space, 0), 12.0)
    out = s.apply(number_state(space, (2,)).to_density())
    assert out.matrix[0, 0].real > 1 - 1e-8


def test_loss_population_decay_closed_form():
    space = make_space([2])
    t = 0.9
    s = expm_dense(loss_dissipator(space, 0), t)
    out = s.apply(number_state(space, (1,)).to_density())
    assert abs(out.matrix[1, 1].real - math.exp(-t)) < 1e-12


def test_expm_apply_matches_dense():
    gen = random_generator(1, dims=(3, 2))
    rho = random_density(gen.space, seed=2)
    dense = expm_dense(gen, 0.7).apply(rho)
    action = expm_apply(gen, 0.7, rho)
    assert np.max(np.abs(dense.matrix - action.matrix)) < 1e-9
    assert abs(np.trace(action.matrix) - 1) < 1e-10


def test_expm_apply_leaves_global_rng_state_alone():
    gen = random_generator(3, dims=(3, 2))
    vec = vectorize(random_density(gen.space, seed=4))
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
    assert np.isfinite(s.matrix).all()


def test_dense_dimension_guard():
    space = make_space([9, 9])
    with pytest.raises(DimensionGuardError):
        expm_dense(displacement_generator(space, 0), 0.1)


def test_cache_exact_at_t_max_and_zero():
    gen = random_generator(5)
    cache = build_cache(gen, t_max=0.8, m=8)
    rho = random_density(gen.space, seed=6)
    direct = expm_dense(gen, 0.8).apply(rho)
    cached = apply_cached(cache, 0.8, rho)
    assert np.max(np.abs(direct.matrix - cached.matrix)) < 1e-13
    ident = apply_cached(cache, 0.0, rho)
    assert np.max(np.abs(ident.matrix - rho.matrix)) == 0.0


def test_cache_random_times_match_dense():
    gen = random_generator(7)
    t_max = 0.6
    cache = build_cache(gen, t_max=t_max, m=30)
    rho = random_density(gen.space, seed=8)
    rng = np.random.default_rng(9)
    for t in rng.uniform(0.0, 2 * t_max - 1e-9, size=8):
        direct = expm_dense(gen, float(t)).apply(rho)
        cached = apply_cached(cache, float(t), rho)
        assert np.max(np.abs(direct.matrix - cached.matrix)) < 1e-8


def test_cache_guards():
    gen = random_generator(10)
    cache = build_cache(gen, t_max=0.5, m=4)
    rho = random_density(gen.space, seed=11)
    with pytest.raises(ValueError):
        apply_cached(cache, 1.0, rho)
    with pytest.raises(ValueError):
        build_cache(gen, t_max=0.5, m=0)


def test_semigroup_property():
    gen = random_generator(12)
    rho = random_density(gen.space, seed=13)
    lhs = expm_dense(gen, 0.9).apply(rho)
    rhs = expm_dense(gen, 0.5).apply(expm_dense(gen, 0.4).apply(rho))
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9


def test_phase_kernel_matches_generator_exponential():
    space = make_space([3, 2])
    gen = phase_generator(space, 0)
    phi = 1.234
    rho = random_density(space, seed=14)
    expect = expm_dense(gen, phi).apply(rho)
    kernel = PhaseKernel(space, 0)
    out = kernel.apply(rho, phi)
    assert np.max(np.abs(out.matrix - expect.matrix)) < 1e-12


def test_phase_kernel_diagonal_and_qubit_multipliers():
    space = make_space([2])
    kernel = PhaseKernel(space, 0)
    phi = 0.4
    mult = kernel.multipliers(phi)
    assert mult[0, 0] == 1.0 and mult[1, 1] == 1.0
    assert abs(mult[1, 0] - np.exp(-1j * phi)) < 1e-15
    assert abs(mult[0, 1] - np.exp(1j * phi)) < 1e-15


def test_superoperator_output_satisfies_density_invariants():
    gen = random_generator(15, dims=(3, 2))
    rho = random_density(gen.space, seed=16)
    out = expm_dense(gen, 1.3).apply(rho)
    out.validate()
