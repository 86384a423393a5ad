import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from zenoanneal import propagator
from zenoanneal.experiments import CRITICAL_ETA_FACTOR
from zenoanneal.fock import make_space, vacuum
from zenoanneal.gadgets import drive_generator
from zenoanneal.generators import (GeneratorSpec, combine,
                                   displacement_generator, hermitian_basis,
                                   loss_dissipator, phase_generator,
                                   tpa_dissipator)
from zenoanneal.propagator import (NonConvergenceError, PhaseKernel, _block, _krylov_expv,
                                   build_cache, expm_apply_vec, expm_dense, trajectory)

from oracles import apply_superop, number_state, validate_density
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
    # D = 81: 160 D^4 bytes is over the run byte bound
    space = make_space([9, 9])
    with pytest.raises(ValueError, match="the dense exponential would take"):
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


@pytest.mark.parametrize("seed", range(4))
def test_every_cache_stage_is_its_dense_exponential(seed):
    # the squared stages between the exact ones, on random drive generators
    rng = np.random.default_rng(seed)
    gens = [random_generator(seed)]
    for kind, eta in (("tpa", 0.0), ("sfg", float(rng.uniform(0.0, 30.0)))):
        gamma = float(np.exp(rng.uniform(0.0, math.log(100.0))))
        gens.append(drive_generator(kind, make_space([3]), 0, float(rng.uniform(0.3, 2.0)),
                                    gamma, eta)[0])
    for gen in gens:
        t_max = float(rng.uniform(0.01, 1.0))
        cache = build_cache(gen, t_max, 30)
        for j, stage in enumerate(cache.stages):
            assert np.max(np.abs(stage - expm_dense(gen, t_max / 2 ** j))) <= 1e-12


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
    validate_density(out)


def test_trajectory_dense_steps_match_krylov_steps_and_pointwise_action(monkeypatch):
    gen = random_generator(17, dims=(4, 2))
    vec = random_density(gen.space, seed=18).matrix.flatten(order="F")
    times = np.linspace(0.0, 2.5, 26)
    dense = trajectory(gen, times, vec)
    monkeypatch.setattr(propagator, "DENSE_BLOCK_MAX", 0)  # the Krylov branch
    krylov = trajectory(gen, times, vec)
    monkeypatch.undo()
    assert dense.shape == krylov.shape == (26, vec.size)
    assert np.array_equal(dense[0], vec) and np.array_equal(krylov[0], vec)
    assert np.max(np.abs(dense - krylov)) < 1e-12
    for t, row in zip(times, dense):
        assert np.max(np.abs(row - expm_apply_vec(gen, float(t), vec))) < 1e-12


def test_trajectory_above_dense_cap_takes_krylov_steps():
    gen, space = drive_generator("sfg", make_space([11]), 0, c=1.0, gamma=0.8, eta=0.5)
    assert space.total_dim > 64
    vec = number_state(space, (0, 0)).to_density().matrix.flatten(order="F")
    times = np.linspace(0.0, 1.5, 4)
    traj = trajectory(gen, times, vec)
    for t, row in zip(times, traj):
        assert np.max(np.abs(row - expm_apply_vec(gen, float(t), vec))) < 1e-12


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_times_are_refused_before_the_grid_check(t):
    gen = random_generator(36)
    vec = random_density(gen.space, seed=37).matrix.flatten(order="F")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite time"):
            trajectory(gen, [0.0, t], vec)
        with pytest.raises(ValueError, match="non-finite time"):
            expm_apply_vec(gen, t, vec)


@pytest.mark.parametrize("kind, truncation, gamma", [("tpa", 11, 0.0), ("sfg", 6, 3.0)])
def test_zero_rate_drives_run_unitary_and_match_the_liouvillian(monkeypatch, kind, truncation,
                                                                gamma):
    # TPA at gamma = 0 keeps a jump at rate 0, SFG at eta = 0 has none: both
    # conjugate by U(t), on the vacuum and on a non-Hermitian vec, and build
    # no Liouville exponential
    gen, space = drive_generator(kind, make_space([truncation]), 0, c=1.0, gamma=gamma)
    assert gen.is_dissipative == (kind == "tpa")
    vecs = [vacuum(space).to_density().matrix.flatten(order="F"),
            random_vec(np.random.default_rng(38), space.total_dim, hermitian=False)]
    times = np.linspace(0.0, 2 * math.pi, 201)
    step = expm_dense(gen, float(times[1]))
    point, rows = [], []
    for vec in vecs:
        point.append(expm_dense(gen, math.pi / 2) @ vec)
        rows.append([vec])
        for _ in times[1:]:
            rows[-1].append(step @ rows[-1][-1])
    monkeypatch.setattr(propagator, "_on_block", lambda *a: pytest.fail("Liouville path"))
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: pytest.fail("an exponential ran"))
    for vec, expect_point, expect_rows in zip(vecs, point, rows):
        assert np.max(np.abs(expm_apply_vec(gen, math.pi / 2, vec) - expect_point)) <= 1e-12
        traj = trajectory(gen, times, vec)
        assert np.array_equal(traj[0], vec)
        assert np.max(np.abs(traj - expect_rows)) <= 1e-12


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


def random_master_equation(rng, dims, n_jumps) -> GeneratorSpec:
    """A random Hermitian H and ``n_jumps`` random jumps at random rates."""
    d = math.prod(dims)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = tuple((float(rng.uniform(0.0, 1.0)),
                   sp.csr_array(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
                  for _ in range(n_jumps))
    return GeneratorSpec(make_space(dims), sp.csr_array((a + a.conj().T) / 2), jumps)


def random_vec(rng, d, hermitian):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = a + a.conj().T if hermitian else a
    return (a / np.linalg.norm(a)).flatten(order="F")


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 3), (3, 2)]),
       n_jumps=st.integers(0, 2), hermitian=st.booleans(),
       t_exp=st.integers(-4, 0), t_frac=st.integers(0, 255), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_action_and_cache_agree_on_random_master_equations(dims, n_jumps, hermitian,
                                                                 t_exp, t_frac, seed):
    # t = t_max (1 + k/256) with t_max a power of two selects its cache
    # stages exactly, so the three paths differ only by round-off
    rng = np.random.default_rng(seed)
    gen = random_master_equation(rng, dims, n_jumps)
    vec = random_vec(rng, gen.space.total_dim, hermitian)
    t_max = 2.0 ** t_exp
    t = t_max * (1 + t_frac / 256)
    dense = expm_dense(gen, t) @ vec
    action = expm_apply_vec(gen, t, vec)
    cached = build_cache(gen, t_max, 30).matrix_for(t) @ vec
    for a, b in ((dense, action), (dense, cached), (action, cached)):
        assert np.max(np.abs(a - b)) <= 1e-10
    # the dense-block branch of trajectory (the unitary one with no jump),
    # and with no block dense, the Krylov point action and Krylov steps (a
    # random state's block is the whole space)
    times = np.linspace(0.0, t, 4)
    expect = [expm_dense(gen, float(s)) @ vec for s in times]
    assert np.max(np.abs(trajectory(gen, times, vec) - expect)) <= 1e-10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "DENSE_BLOCK_MAX", 0)
        action = expm_apply_vec(gen, t, vec)
        rows = trajectory(gen, times, vec)
    assert np.max(np.abs(dense - action)) <= 1e-10
    assert np.max(np.abs(rows - expect)) <= 1e-10


def test_action_path_refuses_a_non_hermitian_hamiltonian():
    space = make_space([3])
    h = sp.csr_array(np.triu(np.ones((3, 3))) + 0j)
    gen = GeneratorSpec(space, h)
    vec = random_density(space, seed=23).matrix.flatten(order="F")
    with pytest.raises(ValueError, match="Hermitian"):
        expm_apply_vec(gen, 0.5, vec)
    with pytest.raises(ValueError, match="Hermitian"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "DENSE_BLOCK_MAX", 0)
            trajectory(gen, np.linspace(0.0, 0.5, 3), vec)


def krylov_on_vec(gen, t, vec):
    """``_krylov_expv`` on the real coordinates of a Hermitian ``vec``, mapped back."""
    basis = hermitian_basis(gen.space.total_dim)
    coords = basis.conj().T @ vec
    assert np.max(np.abs(coords.imag)) < 1e-15
    return basis @ _krylov_expv(gen.real_matrix * t, coords.real)


@pytest.mark.parametrize("gamma", [62.0, 330.174958128, 4096.0])
def test_krylov_matches_complex_dense_at_stiff_drive_points(gamma):
    # the ratio-1 coherence points at d = 18, |tG|_1 from 3.4e3 to 2.2e5
    gen, space = drive_generator("sfg", make_space([6]), 0, c=1.0, gamma=gamma,
                                 eta=CRITICAL_ETA_FACTOR * gamma)
    assert space.total_dim == 18
    vec = vacuum(space).to_density().matrix.flatten(order="F")
    t = math.pi / 2
    assert np.max(np.abs(krylov_on_vec(gen, t, vec) - expm_dense(gen, t) @ vec)) <= 1e-11


@pytest.mark.parametrize("kind, truncation, gamma", [("sfg", 6, 62.0), ("sfg", 6, 330.174958128),
                                                     ("sfg", 6, 4096.0), ("tpa", 11, 4.6)])
def test_block_dense_and_block_krylov_match_complex_dense(monkeypatch, kind, truncation, gamma):
    # drive points from the vacuum, with the dense cap at the block size and
    # one below it: one exponential of the block, or Krylov steps on it
    eta = CRITICAL_ETA_FACTOR * gamma if kind == "sfg" else 0.0
    gen, space = drive_generator(kind, make_space([truncation]), 0, c=1.0, gamma=gamma, eta=eta)
    d = space.total_dim
    vec = vacuum(space).to_density().matrix.flatten(order="F")
    t = math.pi / 2
    expect = expm_dense(gen, t) @ vec
    sizes = counted_expm(monkeypatch)
    for cap, dense in ((d * (d + 1) // 2, True), (d * (d + 1) // 2 - 1, False)):
        monkeypatch.setattr(propagator, "DENSE_BLOCK_MAX", cap)
        sizes.clear()
        out = expm_apply_vec(gen, t, vec)
        assert (sizes == [cap]) == dense
        assert np.max(np.abs(out - expect)) <= 1e-11


@pytest.mark.parametrize("kind, truncation", [("sfg", 6), ("sfg", 11), ("tpa", 11), ("tpa", 31)])
def test_vacuum_block_is_half_the_real_coordinates(kind, truncation):
    # the D(D + 1)/2 coordinates of one parity pattern, closed under the generator
    gen, space = drive_generator(kind, make_space([truncation]), 0, c=1.0, gamma=3.0,
                                 eta=2.0 if kind == "sfg" else 0.0)
    d = space.total_dim
    coords = (hermitian_basis(d).conj().T @ vacuum(space).to_density().matrix.flatten(order="F"))
    block = _block(gen.real_matrix, coords.real)
    assert len(block) == d * (d + 1) // 2 and np.all(np.diff(block) > 0)
    rest = np.setdiff1d(np.arange(d * d), block)
    assert gen.real_matrix[rest][:, block].nnz == 0


def counted_expm(monkeypatch):
    """Sizes of the small exponentials the Krylov steps take, in order."""
    sizes = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: sizes.append(len(a)) or expm(a))
    return sizes


def test_krylov_breaks_down_happily_on_a_space_smaller_than_its_basis(monkeypatch):
    gen = random_generator(24)  # d = 3: nine real coordinates
    vec = random_density(gen.space, seed=25).matrix.flatten(order="F")
    sizes = counted_expm(monkeypatch)
    out = krylov_on_vec(gen, 40.0, vec)
    assert sizes == [9]  # the whole space in one step
    assert np.max(np.abs(out - expm_dense(gen, 40.0) @ vec)) <= 1e-12


def test_krylov_takes_an_invariant_vector_in_one_step(monkeypatch):
    space = make_space([4])
    vec = vacuum(space).to_density().matrix.flatten(order="F")
    sizes = counted_expm(monkeypatch)
    out = krylov_on_vec(tpa_dissipator(space, 0), 3.0, vec)  # vacuum is stationary
    assert sizes == [1]
    assert np.max(np.abs(out - vec)) <= 1e-15


def test_krylov_at_zero_time_and_on_a_zero_vector():
    gen = random_generator(26, dims=(3, 2))
    vec = random_density(gen.space, seed=27).matrix.flatten(order="F")
    coords = np.random.default_rng(28).normal(size=36)
    assert np.array_equal(_krylov_expv(gen.real_matrix * 0.0, coords), coords)
    assert np.max(np.abs(expm_apply_vec(gen, 0.0, vec) - vec)) <= 1e-15  # U U^dag round-off
    assert np.array_equal(_krylov_expv(gen.real_matrix, np.zeros(36)), np.zeros(36))
    zero = np.zeros_like(vec)
    assert np.array_equal(expm_apply_vec(gen, 0.7, zero), zero)


def test_krylov_action_takes_a_second_column_for_a_non_hermitian_vec(monkeypatch):
    gen = random_generator(29, dims=(4, 2))  # 64 real coordinates, past the basis size
    rng = np.random.default_rng(30)
    vec = random_vec(rng, gen.space.total_dim, hermitian=False)
    monkeypatch.setattr(propagator, "DENSE_BLOCK_MAX", 0)
    columns = []
    krylov = propagator._krylov_expv
    monkeypatch.setattr(propagator, "_krylov_expv",
                        lambda a, v: columns.append(v) or krylov(a, v))
    out = expm_apply_vec(gen, 1.3, vec)
    assert len(columns) == 2
    assert np.max(np.abs(out - expm_dense(gen, 1.3) @ vec)) <= 1e-12


def test_dense_block_action_takes_both_columns_of_a_non_hermitian_vec(monkeypatch):
    gen = random_generator(29, dims=(4, 2))
    rng = np.random.default_rng(30)
    vec = random_vec(rng, gen.space.total_dim, hermitian=False)
    sizes = counted_expm(monkeypatch)
    out = expm_apply_vec(gen, 1.3, vec)
    assert sizes == [64]  # one exponential of the whole space for both columns
    assert np.max(np.abs(out - expm_dense(gen, 1.3) @ vec)) <= 1e-12


def test_krylov_action_refuses_a_non_finite_vec():
    gen = random_generator(32)
    vec = random_density(gen.space, seed=33).matrix.flatten(order="F")
    vec[0] = np.nan
    with pytest.raises(NonConvergenceError, match="not finite"):
        expm_apply_vec(gen, 0.5, vec)


def guarded_peak(monkeypatch, gen, times, vec):
    """(bytes trajectory's guard counted, tracemalloc peak of the call)."""
    counted = []
    guard = propagator._guard_bytes
    monkeypatch.setattr(propagator, "_guard_bytes",
                        lambda nbytes, what: counted.append(nbytes) or guard(nbytes, what))
    trajectory(gen, times[:2], vec)  # build the cached generator forms and basis first
    counted.clear()
    tracemalloc.start()
    try:
        trajectory(gen, times, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    return counted[0], peak


@pytest.mark.parametrize("variant, truncation, n_t, eta", [
    pytest.param("sfg", 11, 500, 0.0, id="sfg-11-500"),
    pytest.param("sfg", 11, 50, 1.0, id="sfg-11-50-dissipative"),
    pytest.param("tpa", 21, 20, 0.0, id="tpa-21-20"),
    pytest.param("tpa", 11, 2000, 0.0, id="tpa-11-2000")])
def test_trajectory_guard_counts_its_peak(monkeypatch, variant, truncation, n_t, eta):
    # the unitary branch and Krylov steps at d = 66, and dense steps where
    # the exponential or the rows dominate
    gen, space = drive_generator(variant, make_space([truncation]), 0, c=1.0, gamma=1.0,
                                 eta=eta)
    vec = vacuum(space).to_density().matrix.flatten(order="F")
    guarded, peak = guarded_peak(monkeypatch, gen, np.linspace(0.0, 0.25, n_t), vec)
    assert peak <= guarded


def non_hermitian_vec_guarded_peak(monkeypatch, eta, n_t):
    gen, space = drive_generator("sfg", make_space([11]), 0, c=1.0, gamma=1.0, eta=eta)
    rng = np.random.default_rng(31)
    vec = random_vec(rng, space.total_dim, hermitian=False)
    return guarded_peak(monkeypatch, gen, np.linspace(0.0, 0.25, n_t), vec)


def test_trajectory_guard_counts_the_second_column_of_a_non_hermitian_vec(monkeypatch):
    guarded, peak = non_hermitian_vec_guarded_peak(monkeypatch, 0.0, 200)  # unitary
    assert peak <= guarded


def test_krylov_trajectory_guard_counts_the_second_column_of_a_non_hermitian_vec(monkeypatch):
    guarded, peak = non_hermitian_vec_guarded_peak(monkeypatch, 1.0, 50)  # Krylov steps
    assert peak <= guarded


def test_dense_exponential_guard_counts_its_peak(monkeypatch):
    gen = random_generator(34, dims=(7, 3))  # D = 21
    counted = []
    guard = propagator._guard_bytes
    monkeypatch.setattr(propagator, "_guard_bytes",
                        lambda nbytes, what: counted.append(nbytes) or guard(nbytes, what))
    gen.matrix  # build the cached generator first
    tracemalloc.start()
    try:
        expm_dense(gen, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1 and peak <= counted[0]


def test_dense_exponential_refuses_before_it_allocates(monkeypatch):
    gen = random_generator(35, dims=(7, 3))
    monkeypatch.setattr(propagator, "RUN_BYTES_MAX", 160 * 21 ** 4 - 1)
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: pytest.fail("expm ran"))
    with pytest.raises(ValueError, match="the dense exponential would take"):
        expm_dense(gen, 0.5)
