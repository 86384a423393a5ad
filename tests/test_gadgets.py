import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from zenoanneal import gadgets
from zenoanneal.fock import (PureState, apply_local_superop_matrix,
                             make_space, vacuum)
from zenoanneal.gadgets import (ConstraintParams, DriveParams,
                                GAMMA_T_COHERENT, GAMMA_T_INCOHERENT,
                                beamsplitter, constraint_superop, default_pump_dim,
                                drive_generator, embed_local_superop, pump_maps,
                                pumped_phase_gadget, unitary_conjugation_superop)
from zenoanneal.generators import (annihilation_operator, combine,
                                   dissipator_superop, displacement_generator,
                                   loss_dissipator, phase_generator, sfg_generator,
                                   tpa_dissipator)
from zenoanneal.propagator import expm_dense

from oracles import apply_superop, drive_superop, number_state, partial_trace, population
from test_fock import random_density


def one_two_superposition(space):
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index((1,))] = 1 / math.sqrt(2)
    amps[space.index((2,))] = 1 / math.sqrt(2)
    return PureState(space, amps).to_density()


def test_tpa_superop_identity_and_strong_limit():
    space = make_space([3])
    ident = drive_superop("tpa", space, 0, 0.0)
    rho = random_density(space, seed=1)
    assert np.max(np.abs(apply_superop(ident, rho).matrix - rho.matrix)) < 1e-14
    strong = drive_superop("tpa", space, 0, 10.0)
    out = apply_superop(strong, number_state(space, (2,)).to_density())
    assert out.matrix[0, 0].real >= 1 - 1e-8


def test_tpa_superop_coherence_decay_rate():
    space = make_space([3])
    gt = 0.7
    out = apply_superop(drive_superop("tpa", space, 0, gt), one_two_superposition(space))
    assert abs(out.matrix[1, 2] - 0.5 * math.exp(-gt)) < 1e-12


def test_sfg_superop_leaves_qubit_span_alone():
    space = make_space([3])
    for gt in (0.3, GAMMA_T_INCOHERENT, GAMMA_T_COHERENT, 1.9):
        om = drive_superop("sfg", space, 0, gt)
        for occ in ((0,), (1,)):
            rho = number_state(space, occ).to_density()
            assert np.max(np.abs(apply_superop(om, rho).matrix - rho.matrix)) < 1e-12


def test_sfg_superop_pair_population_follows_rabi():
    # Surviving |2> population is cos^2(sqrt(2) gamma t): half-converted at
    # gamma t = pi/(4 sqrt 2), fully lost at pi/(2 sqrt 2), coherently
    # returned with a sign flip at pi/sqrt(2).
    space = make_space([3])
    rho2 = number_state(space, (2,)).to_density()
    for gt in (0.2, GAMMA_T_INCOHERENT, GAMMA_T_COHERENT, 1.5):
        out = apply_superop(drive_superop("sfg", space, 0, gt), rho2)
        expect = math.cos(math.sqrt(2) * gt) ** 2
        assert abs(out.matrix[2, 2].real - expect) < 1e-12
    pair = one_two_superposition(space)
    out = apply_superop(drive_superop("sfg", space, 0, GAMMA_T_COHERENT), pair)
    assert abs(out.matrix[1, 2]) < 1e-12  # coherence destroyed with the pair
    flip = apply_superop(drive_superop("sfg", space, 0, math.pi / math.sqrt(2)), pair)
    assert abs(flip.matrix[1, 2] + 0.5) < 1e-12  # |2> -> -|2>


def test_driven_tpa_reduces_to_plain_tpa_without_drive():
    space = make_space([3])
    gt = 1.1
    a = drive_superop("tpa", space, 0, gt, c=0.0, gamma=1.0)
    b = expm_dense(tpa_dissipator(space, 0), gt)
    assert np.max(np.abs(a - b)) < 1e-12


def test_driven_tpa_no_blockade_baseline():
    space = make_space([12])
    om = drive_superop("tpa", space, 0, math.pi / 2, c=1.0, gamma=0.0)
    out = apply_superop(om, vacuum(space).to_density())
    assert abs(out.matrix[1, 1].real - 0.2095) < 0.02


def test_driven_tpa_strong_blockade_flips():
    space = make_space([6])
    om = drive_superop("tpa", space, 0, math.pi / 2, c=1.0, gamma=150.0)
    out = apply_superop(om, vacuum(space).to_density())
    assert out.matrix[1, 1].real > 0.95


def test_driven_sfg_reduces_to_displacement():
    space = make_space([5])
    t = 0.4
    om = drive_superop("sfg", space, 0, t, c=1.0, gamma=0.0)
    expect = expm_dense(displacement_generator(space, 0), t)
    assert np.max(np.abs(om - expect)) < 1e-10


def test_driven_sfg_coherent_blockade():
    space = make_space([6])
    om = drive_superop("sfg", space, 0, math.pi / 2, c=1.0, gamma=10.0)
    out = apply_superop(om, vacuum(space).to_density())
    assert out.matrix[1, 1].real > 0.95


def test_beamsplitter_hom_bunching():
    space = make_space([3, 3])
    u = beamsplitter(space, 0, 1)
    out = u @ number_state(space, (1, 1)).amplitudes
    i20, i02 = space.index((2, 0)), space.index((0, 2))
    i11 = space.index((1, 1))
    assert abs(out[i11]) < 1e-12
    # equal amplitudes on the bunched pair, unit total weight
    assert abs(abs(out[i20]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(out[i20] - out[i02]) < 1e-12


def test_beamsplitter_unitary_and_vacuum():
    space = make_space([3, 3])
    u = beamsplitter(space, 0, 1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-12
    vac = vacuum(space).amplitudes
    assert np.max(np.abs(u @ vac - vac)) < 1e-12


def test_beamsplitter_heisenberg_convention():
    # On photon-number sectors that fit inside the truncation the mode
    # transformation is exactly a_j -> (a_j + i a_k)/sqrt(2).
    space = make_space([4, 4])
    u = beamsplitter(space, 0, 1)
    aj = annihilation_operator(space.mode_dims, 0).toarray()
    ak = annihilation_operator(space.mode_dims, 1).toarray()
    lhs = u.conj().T @ aj @ u
    rhs = (aj + 1j * ak) / math.sqrt(2)
    total = space.occupation_array(0) + space.occupation_array(1)
    cols = np.where(total <= 2)[0]
    assert np.max(np.abs(lhs[:, cols] - rhs[:, cols])) < 1e-12


def test_beamsplitter_guards():
    with pytest.raises(ValueError):
        beamsplitter(make_space([3, 3]), 0, 0)
    with pytest.raises(ValueError):
        beamsplitter(make_space([3, 4]), 0, 1)


def test_pumped_phase_gadget_incoherent_endpoint():
    space = make_space([3])
    om = pumped_phase_gadget(space, 0, ConstraintParams(0.0, GAMMA_T_INCOHERENT))
    out = apply_superop(om, number_state(space, (2,)).to_density())
    assert abs(out.matrix[0, 0].real - 1.0) < 1e-12
    out = apply_superop(om, one_two_superposition(space))
    assert abs(out.matrix[1, 2]) < 1e-12


def test_pumped_phase_gadget_coherent_kick():
    space = make_space([3])
    phi_q = 3 * math.pi / 2
    om = pumped_phase_gadget(space, 0, ConstraintParams(phi_q, GAMMA_T_COHERENT))
    out = apply_superop(om, one_two_superposition(space))
    # |2> picks up -exp(i phi_q); the (1,2) coherence rotates by its conjugate
    expect = 0.5 * np.conj(-np.exp(1j * phi_q))
    assert abs(out.matrix[1, 2] - expect) < 1e-9
    assert abs(out.matrix[2, 2].real - 0.5) < 1e-9


def test_pumped_phase_gadget_2pi_periodic_in_phi_q():
    space = make_space([3])
    p1 = pumped_phase_gadget(space, 0, ConstraintParams(0.7, 0.5))
    p2 = pumped_phase_gadget(space, 0, ConstraintParams(0.7 + 2 * math.pi, 0.5))
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_pumped_phase_gadget_strong_pump_loss_saturation():
    # Hand-composed: half-rotation, pump decays, half-rotation, trace gives
    # 1/4 of the pair population surviving and 3/4 returned to vacuum.
    space = make_space([3])
    om = pumped_phase_gadget(space, 0,
                             ConstraintParams(0.0, GAMMA_T_INCOHERENT, eta_t=80.0))
    out = apply_superop(om, number_state(space, (2,)).to_density())
    assert abs(out.matrix[2, 2].real - 0.25) < 1e-6
    assert abs(out.matrix[0, 0].real - 0.75) < 1e-6


def qubit_block_action(superop_matrix, space, kick_basis):
    """Action of a two-mode superoperator on the 2x2-pattern block."""
    out = {}
    d = space.total_dim
    for p in kick_basis:
        for q in kick_basis:
            e = np.zeros((d, d), dtype=complex)
            e[space.index(p), space.index(q)] = 1.0
            res = (superop_matrix @ e.flatten(order="F")).reshape((d, d), order="F")
            out[(p, q)] = res
    return out


def test_constraint_incoherent_endpoint():
    space = make_space([3, 3])
    om = constraint_superop(space, 0, 1, ConstraintParams(0.0, GAMMA_T_INCOHERENT))
    out = apply_superop(om, number_state(space, (1, 1)).to_density())
    assert abs(population(out, (0, 0)) - 1.0) < 1e-8
    for occ in ((0, 0), (0, 1), (1, 0)):
        rho = number_state(space, occ).to_density()
        fixed = apply_superop(om, rho)
        assert np.max(np.abs(fixed.matrix - rho.matrix)) < 1e-12


def test_constraint_coherent_block_is_diagonal_phase():
    space = make_space([3, 3])
    phi_q = 3 * math.pi / 2
    om = constraint_superop(space, 0, 1, ConstraintParams(phi_q, GAMMA_T_COHERENT))
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    kicks = {p: 1.0 for p in patterns}
    kicks[(1, 1)] = np.exp(1j * math.pi / 2)
    action = qubit_block_action(om, space, patterns)
    for p in patterns:
        for q in patterns:
            expect = np.zeros((9, 9), dtype=complex)
            expect[space.index(p), space.index(q)] = kicks[p] * np.conj(kicks[q])
            assert np.max(np.abs(action[(p, q)] - expect)) < 1e-9


def test_constraint_matches_rotated_pair_lindbladian():
    # Beamsplitter-conjugated double TPA restricted to the qubit block equals
    # the pair-removal Lindbladian with jump a_j a_k at twice the per-mode
    # exposure (each mode's dissipator contributes one unit).
    space = make_space([3, 3])
    gt = 0.37
    u = beamsplitter(space, 0, 1)
    s_bs = unitary_conjugation_superop(u)
    local = drive_superop("tpa", make_space([3]), 0, gt)
    direct = (s_bs.conj().T
              @ embed_local_superop(local, space, [0])
              @ embed_local_superop(local, space, [1])
              @ s_bs)
    aj = annihilation_operator(space.mode_dims, 0)
    ak = annihilation_operator(space.mode_dims, 1)
    rot = scipy.linalg.expm(
        2.0 * gt * dissipator_superop((aj @ ak).tocsr(), space.total_dim).toarray())
    rho = random_density(make_space([2, 2]), seed=31).matrix
    big = np.zeros((9, 9), dtype=complex)
    idx = [space.index((a, b)) for a in (0, 1) for b in (0, 1)]
    big[np.ix_(idx, idx)] = rho
    out_a = (direct @ big.flatten(order="F")).reshape((9, 9), order="F")
    out_b = (rot @ big.flatten(order="F")).reshape((9, 9), order="F")
    assert np.max(np.abs(out_a[np.ix_(idx, idx)] - out_b[np.ix_(idx, idx)])) < 1e-9


def test_constraint_interpolation_endpoint_purity():
    space = make_space([3, 3])
    om = constraint_superop(space, 0, 1, ConstraintParams(0.9, GAMMA_T_COHERENT))
    amps = np.zeros(9, dtype=complex)
    for p in ((0, 0), (0, 1), (1, 0), (1, 1)):
        amps[space.index(p)] = 0.5
    rho = PureState(space, amps).to_density()
    out = apply_superop(om, rho).matrix
    assert abs(np.trace(out @ out).real - 1.0) < 1e-9


def test_constraint_outputs_valid_states():
    space = make_space([3, 3])
    for gt in (GAMMA_T_INCOHERENT, 0.8, GAMMA_T_COHERENT):
        om = constraint_superop(space, 0, 1, ConstraintParams(1.1, gt, eta_t=0.3))
        out = apply_superop(om, random_density(space, seed=32))
        out.validate()


def test_params_validation_and_labels():
    with pytest.raises(ValueError):
        ConstraintParams(0.0, -1.0)
    for bad in ((math.nan, 0.6, 0.0), (0.0, math.inf, 0.0), (0.0, 0.6, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ConstraintParams(*bad)
    with pytest.raises(ValueError):
        DriveParams(c=-1.0, gamma=0.0)


def test_drive_params_reject_non_finite_rates():
    for bad in ((math.nan, 1.0), (1.0, math.inf), (1.0, 1.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            DriveParams(*bad)


def test_default_pump_dim():
    assert default_pump_dim(3) == 2
    assert default_pump_dim(11) == 6
    assert default_pump_dim(6) == 3


def test_drive_generator_terms_and_space():
    space = make_space([4])
    gen, joint = drive_generator("sfg", space, 0, c=0.7, gamma=2.0, eta=0.3)
    assert joint.mode_dims == (4, default_pump_dim(4))
    expect = combine([(displacement_generator(joint, 0), 0.7),
                      (sfg_generator(joint, 0, 1), 2.0),
                      (loss_dissipator(joint, 1), 0.3)])
    assert (gen.matrix != expect.matrix).nnz == 0
    gen, same = drive_generator("tpa", space, 0, c=0.7, gamma=2.0)
    assert same == space
    expect = combine([(displacement_generator(space, 0), 0.7),
                      (tpa_dissipator(space, 0), 2.0)])
    assert (gen.matrix != expect.matrix).nnz == 0
    # a zero displacement rate prunes to the bare blockade
    gen, joint = drive_generator("sfg", space, 0, gamma=2.0)
    bare = combine([(sfg_generator(joint, 0, 1), 2.0)])
    assert (gen.matrix != bare.matrix).nnz == 0


def test_drive_generator_guards():
    space = make_space([3])
    with pytest.raises(ValueError, match="eta"):
        drive_generator("tpa", space, 0, c=1.0, eta=1.3)
    with pytest.raises(ValueError, match="eta"):
        drive_superop("tpa", space, 0, 0.5, c=1.0, gamma=1.0, eta=1.3)
    with pytest.raises(ValueError, match="kind"):
        drive_generator("kerr", space, 0)
    for kind, rates in (("tpa", {"gamma": -1.0}), ("sfg", {"gamma": -1.0}),
                        ("sfg", {"eta": -0.5})):
        with pytest.raises(ValueError, match="nonnegative"):
            drive_generator(kind, space, 0, c=1.0, **rates)


@pytest.mark.parametrize("dims, targets", [([3], [0]), ([3, 2], [1, 0]),
                                           ([2, 3, 2], [2, 0]),
                                           ([2, 3, 2], [1, 2, 0])])
def test_embed_local_superop_matches_local_application(dims, targets):
    space = make_space(dims)
    d_loc = math.prod(dims[t] for t in targets)
    rng = np.random.default_rng(len(targets) + 10 * len(dims))
    local = rng.normal(size=(d_loc ** 2,) * 2) + 1j * rng.normal(size=(d_loc ** 2,) * 2)
    rho = random_density(space, seed=41).matrix
    direct = apply_local_superop_matrix(local, rho, space, targets).flatten(order="F")
    embedded = embed_local_superop(local, space, targets) @ rho.flatten(order="F")
    assert np.max(np.abs(embedded - direct)) < 1e-12


@pytest.mark.parametrize("dims, pump_dim", [([3], 2), ([3], 3), ([2, 3], 2)])
def test_pump_maps_append_vacuum_and_trace_out(dims, pump_dim):
    space = make_space(dims)
    joint = make_space(dims + [pump_dim])
    append, trace = pump_maps(space.total_dim, pump_dim)
    rho = random_density(space, seed=42).matrix
    vac = np.zeros((pump_dim, pump_dim))
    vac[0, 0] = 1.0
    assert np.array_equal(append @ rho.flatten(order="F"),
                          np.kron(rho, vac).flatten(order="F"))
    sigma = random_density(joint, seed=43)
    reduced = partial_trace(sigma, range(len(dims))).matrix
    assert np.max(np.abs(trace @ sigma.matrix.flatten(order="F")
                         - reduced.flatten(order="F"))) < 1e-15


def assert_density_map(superop, space, seed):
    # apply checks trace and hermiticity within 1e-10
    apply_superop(superop, random_density(space, seed=seed)).validate()


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([3, 4]), c=st.floats(0.0, 5.0), gamma=st.floats(0.0, 20.0),
       eta=st.floats(0.0, 10.0), t=st.floats(0.0, 2.0), seed=st.integers(0, 99))
def test_driven_superops_map_states_to_states(dim, c, gamma, eta, t, seed):
    space = make_space([dim])
    assert_density_map(drive_superop("tpa", space, 0, t, c, gamma), space, seed)
    assert_density_map(drive_superop("sfg", space, 0, t, c, gamma, eta), space, seed)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([3, 4]), phi_q=st.floats(0.0, 2 * math.pi),
       gamma_t=st.floats(0.0, 2.0), eta_t=st.floats(0.0, 5.0), seed=st.integers(0, 99))
@example(dim=3, phi_q=5e-324, gamma_t=0.0, eta_t=4.0, seed=0)  # once overflowed in expm
def test_pumped_phase_gadget_maps_states_to_states(dim, phi_q, gamma_t, eta_t, seed):
    space = make_space([dim])
    gadget = pumped_phase_gadget(space, 0, ConstraintParams(phi_q, gamma_t, eta_t))
    assert_density_map(gadget, space, seed)


def uncached_pumped_phase_gadget(d, params):
    """The local gadget on [d] from freshly built generators and pump maps."""
    gen, joint = drive_generator("sfg", make_space([d]), 0)
    half = expm_dense(gen, params.gamma_t)
    mid = np.diag(np.exp(-params.phi_q * phase_generator(joint, 1).matrix.diagonal()))
    if params.eta_t != 0.0:
        mid = mid @ expm_dense(loss_dissipator(joint, 1), params.eta_t)
    append, trace = pump_maps(d, joint.mode_dims[1])
    return trace @ (half @ mid @ half) @ append


@pytest.mark.parametrize("dims, j, k", [([3, 3], 0, 1), ([3, 3], 1, 0), ([3, 2, 3], 2, 0)])
@pytest.mark.parametrize("params", [ConstraintParams(4.7, GAMMA_T_INCOHERENT),
                                    ConstraintParams(0.3, 0.8, eta_t=0.6),
                                    ConstraintParams(1e-12, GAMMA_T_COHERENT, eta_t=2.0)])
def test_constraint_superop_matches_uncached_composition(dims, j, k, params):
    space = make_space(dims)
    local = uncached_pumped_phase_gadget(dims[j], params)
    s_bs = unitary_conjugation_superop(beamsplitter(space, j, k))
    expect = (s_bs.conj().T @ embed_local_superop(local, space, [j])
              @ embed_local_superop(local, space, [k]) @ s_bs)
    assert np.array_equal(constraint_superop(space, j, k, params), expect)
    assert np.array_equal(pumped_phase_gadget(make_space([dims[j]]), 0, params), local)


def test_constraint_superop_needs_equal_mode_dims():
    # the beamsplitter mixes the two modes, so they always share a dimension
    with pytest.raises(ValueError, match="share a dimension"):
        constraint_superop(make_space([3, 4]), 0, 1, ConstraintParams(1.0, 0.8))


def test_cached_gadget_parts_are_read_only_and_rebuild_identically():
    space, params = make_space([3]), ConstraintParams(0.9, 0.7, eta_t=0.4)
    before = pumped_phase_gadget(space, 0, params)
    gen_sfg, loss, *arrays = gadgets._gadget_parts(space, 0)
    for arr in [gen_sfg.matrix.data, loss.matrix.data, *arrays]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    gadgets._gadget_parts.cache_clear()
    assert gadgets._gadget_parts(space, 0)[0] is not gen_sfg
    assert np.array_equal(pumped_phase_gadget(space, 0, params), before)
