import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from zenoanneal.fock import DensityState, make_space
from zenoanneal.gadgets import drive_generator
from zenoanneal.generators import (_prune, annihilation_operator, combine,
                                   dissipator_superop, displacement_generator,
                                   hamiltonian_superop, hermitian_basis,
                                   loss_dissipator, phase_generator,
                                   sfg_generator, tpa_dissipator)
from zenoanneal.propagator import expm_dense

from oracles import number_state
from test_fock import random_density


def apply_gen(gen, rho):
    d = gen.space.total_dim
    return (gen.matrix @ rho.flatten(order="F")).reshape((d, d), order="F")


def test_tpa_annihilates_qubit_span():
    space = make_space([3])
    gen = tpa_dissipator(space, 0)
    for occ in ((0,), (1,)):
        rho = number_state(space, occ).to_density().matrix
        assert np.max(np.abs(apply_gen(gen, rho))) == 0.0


def test_tpa_two_photon_action():
    space = make_space([3])
    gen = tpa_dissipator(space, 0)
    rho = number_state(space, (2,)).to_density().matrix
    out = apply_gen(gen, rho)
    expect = np.zeros((3, 3))
    expect[0, 0] = 2.0
    expect[2, 2] = -2.0
    assert np.max(np.abs(out - expect)) < 1e-14


def test_tpa_columns_zero_on_qubit_block():
    space = make_space([4])
    gen = tpa_dissipator(space, 0).matrix.toarray()
    d = 4
    for m in (0, 1):
        for n in (0, 1):
            assert np.max(np.abs(gen[:, m + d * n])) == 0.0


def test_loss_single_photon_action():
    space = make_space([2])
    gen = loss_dissipator(space, 0)
    rho = number_state(space, (1,)).to_density().matrix
    out = apply_gen(gen, rho)
    assert np.allclose(out, [[1, 0], [0, -1]])
    vac = number_state(space, (0,)).to_density().matrix
    assert np.max(np.abs(apply_gen(gen, vac))) == 0.0


def test_loss_coherence_decays_at_half_rate():
    space = make_space([2])
    gen = loss_dissipator(space, 0)
    amps = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = np.outer(amps, amps)
    t = 0.8
    out = scipy.linalg.expm(t * gen.matrix.toarray()) @ rho.flatten(order="F")
    out = out.reshape((2, 2), order="F")
    assert abs(out[0, 1] - 0.5 * math.exp(-t / 2)) < 1e-12


def test_displacement_matches_pauli_x_on_two_levels():
    space = make_space([2])
    gen = displacement_generator(space, 0)
    x = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    expect = hamiltonian_superop(x, 2)
    assert np.max(np.abs((gen.matrix - expect).toarray())) == 0.0


def test_displacement_preserves_purity():
    space = make_space([8])
    gen = displacement_generator(space, 0)
    rho = number_state(space, (0,)).to_density().matrix
    out = scipy.linalg.expm(0.4 * gen.matrix.toarray()) @ rho.flatten(order="F")
    out = out.reshape((8, 8), order="F")
    assert abs(np.trace(out @ out).real - 1.0) < 1e-9


def test_sfg_vacuum_fixed_point():
    space = make_space([3, 2])
    gen = sfg_generator(space, 0, 1)
    rho = number_state(space, (0, 0)).to_density().matrix
    assert np.max(np.abs(apply_gen(gen, rho))) == 0.0


def test_sfg_block_rotation_matches_diagonalization():
    # |2,0_p> and |0,1_p> couple with matrix element sqrt(2); a quarter Rabi
    # period (gamma t = pi / (2 sqrt 2)) fully converts the pair.
    space = make_space([3, 2])
    gen = sfg_generator(space, 0, 1)
    gt = math.pi / (2 * math.sqrt(2))
    rho = number_state(space, (2, 0)).to_density().matrix
    out = scipy.linalg.expm(gt * gen.matrix.toarray()) @ rho.flatten(order="F")
    out = out.reshape((6, 6), order="F")
    i01 = space.index((0, 1))
    assert abs(out[i01, i01] - 1.0) < 1e-12
    # oracle: 2x2 block exponential
    h = np.array([[0.0, math.sqrt(2)], [math.sqrt(2), 0.0]])
    u = scipy.linalg.expm(-1j * gt * h)
    assert abs(abs(u[1, 0]) - 1.0) < 1e-12


def test_sfg_conserves_pair_parity():
    space = make_space([5, 3])
    gen = sfg_generator(space, 0, 1)
    n_op = np.diag(space.occupation_array(0) + 2.0 * space.occupation_array(1))
    conserved = hamiltonian_superop(sp.csr_array(n_op), space.total_dim).toarray()
    g = gen.matrix.toarray()
    assert np.max(np.abs(g @ conserved - conserved @ g)) < 1e-12


def test_sfg_guards():
    with pytest.raises(ValueError):
        sfg_generator(make_space([3, 2]), 0, 0)
    with pytest.raises(ValueError):
        sfg_generator(make_space([5, 2]), 0, 1)  # pump too small for 2 pairs


def test_phase_generator_diagonal_fixed_and_rotation():
    space = make_space([3])
    gen = phase_generator(space, 0)
    diag = DensityState(space, np.diag([0.2, 0.3, 0.5])).matrix
    assert np.max(np.abs(apply_gen(gen, diag))) == 0.0
    rho = random_density(space, seed=21).matrix
    phi = 0.83
    out = scipy.linalg.expm(phi * gen.matrix.toarray()) @ rho.flatten(order="F")
    out = out.reshape((3, 3), order="F")
    for m in range(3):
        for n in range(3):
            expect = rho[m, n] * np.exp(-1j * phi * (m - n))
            assert abs(out[m, n] - expect) < 1e-12
    full = scipy.linalg.expm(2 * math.pi * gen.matrix.toarray())
    assert np.max(np.abs(full - np.eye(9))) < 1e-12


def test_combine_identity_zero_and_mismatch():
    space = make_space([3])
    gen = tpa_dissipator(space, 0)
    assert np.max(np.abs((combine([(gen, 1.0)]).matrix - gen.matrix).toarray())) == 0.0
    assert combine([(gen, 0.0)]).matrix.nnz == 0
    with pytest.raises(ValueError):
        combine([(gen, 1.0), (tpa_dissipator(make_space([4]), 0), 1.0)])


@pytest.mark.parametrize("builder", [
    lambda s: tpa_dissipator(s, 0),
    lambda s: loss_dissipator(s, 0),
    lambda s: displacement_generator(s, 0),
    lambda s: phase_generator(s, 0),
])
def test_generators_preserve_trace_and_hermiticity(builder):
    space = make_space([4])
    gen = builder(space)
    rho = random_density(space, seed=22).matrix
    out = apply_gen(gen, rho)
    assert abs(np.trace(out)) < 1e-10
    assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_sfg_preserves_trace_and_hermiticity():
    space = make_space([5, 3])
    gen = sfg_generator(space, 0, 1)
    rho = random_density(space, seed=23).matrix
    out = apply_gen(gen, rho)
    assert abs(np.trace(out)) < 1e-10
    assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_annihilation_operator_cached_and_correct():
    a = annihilation_operator((4,), 0).toarray()
    for n in range(1, 4):
        assert abs(a[n - 1, n] - math.sqrt(n)) < 1e-15
    assert annihilation_operator((4,), 0) is annihilation_operator((4,), 0)


def dense_liouvillian(gen):
    """-i[H, .] + sum rate D[J] built densely with np.kron (column stacking)."""
    h = gen.hamiltonian.toarray()
    ident = np.eye(h.shape[0])
    out = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    for rate, jump in gen.jumps:
        j = jump.toarray()
        jdj = j.conj().T @ j
        out += rate * (np.kron(j.conj(), j) - 0.5 * np.kron(ident, jdj)
                       - 0.5 * np.kron(jdj.T, ident))
    return out


@pytest.mark.parametrize("kind, dims, eta", [("tpa", [5], 0.0), ("sfg", [5], 0.0),
                                             ("sfg", [5], 0.9), ("sfg", [3, 2], 2.5)])
def test_liouvillian_matches_dense_kron_oracle(kind, dims, eta):
    gen, space = drive_generator(kind, make_space(dims), 0, c=0.7, gamma=1.3, eta=eta)
    assert gen.is_dissipative == (kind == "tpa" or eta > 0)
    expect = dense_liouvillian(gen)
    assert np.max(np.abs(gen.matrix.toarray() - expect)) < 1e-14
    # and the Liouvillian acts as the master equation on a state
    rho = random_density(space, seed=24).matrix
    h = gen.hamiltonian.toarray()
    drho = -1j * (h @ rho - rho @ h)
    for rate, jump in gen.jumps:
        j = jump.toarray()
        jdj = j.conj().T @ j
        drho += rate * (j @ rho @ j.conj().T - 0.5 * (jdj @ rho + rho @ jdj))
    assert np.max(np.abs(apply_gen(gen, rho) - drho)) < 1e-12


def test_combine_matrix_is_rate_weighted_sum_of_parts():
    space = make_space([4, 2])
    parts = [(displacement_generator(space, 0), 0.4), (sfg_generator(space, 0, 1), 1.7),
             (loss_dissipator(space, 1), 0.6), (tpa_dissipator(space, 0), 2.2),
             (phase_generator(space, 1), -0.3)]
    gen = combine(parts)
    expect = sum(rate * part.matrix.toarray() for part, rate in parts)
    assert np.max(np.abs(gen.matrix.toarray() - expect)) < 1e-14
    assert [r for r, _ in gen.jumps] == [0.6, 2.2]
    nested = combine([(combine(parts[:3]), 2.0), (combine(parts[3:]), 2.0)])
    assert np.max(np.abs(nested.matrix.toarray() - 2.0 * expect)) < 1e-13


def test_zero_rate_jump_is_still_dissipative():
    space = make_space([3])
    gen = combine([(displacement_generator(space, 0), 1.0), (tpa_dissipator(space, 0), 0.0)])
    assert gen.is_dissipative
    assert gen.matrix.nnz == displacement_generator(space, 0).matrix.nnz
    with pytest.raises(ValueError, match="negative time"):
        expm_dense(gen, -0.1)
    assert not combine([(displacement_generator(space, 0), 1.0)]).is_dissipative


@pytest.mark.parametrize("kind, mode_dim, c, gamma, eta", [
    ("sfg", 11, 1.0, 3.7, 2.9), ("sfg", 6, 1.0, 330.2, 1867.5), ("sfg", 3, 0.0, 1.0, 0.0),
    ("tpa", 11, 1.0, 4.6, 0.0), ("tpa", 3, 0.8, 0.0, 0.0)])
def test_summed_drive_liouvillian_is_the_one_built_from_its_summed_hamiltonian(
        kind, mode_dim, c, gamma, eta):
    # the parts' supports are disjoint, so summing their cached Liouvillians
    # gives the Liouvillian of the summed H and scaled jumps entry for entry
    gen, space = drive_generator(kind, make_space([mode_dim]), 0, c, gamma, eta)
    d = space.total_dim
    expect = hamiltonian_superop(gen.hamiltonian, d)
    for rate, jump in gen.jumps:
        expect = expect + rate * dissipator_superop(jump, d)
    expect = _prune(expect)
    assert (gen.matrix != expect).nnz == 0
    # and the real form is the same map in the Hermitian basis
    basis = hermitian_basis(d)
    assert gen.real_matrix.dtype == np.float64
    back = basis @ gen.real_matrix @ basis.conj().T
    assert abs(back - expect).max() <= 1e-12 * abs(expect).max()


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_hermitian_basis_is_unitary_with_hermitian_columns(dim):
    basis = hermitian_basis(dim)
    assert np.max(np.count_nonzero(basis.toarray(), axis=1)) <= 2
    u = basis.toarray()
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim * dim))) < 1e-15
    for col in u.T:
        b = col.reshape((dim, dim), order="F")
        assert np.array_equal(b, b.conj().T)
    a = random_density(make_space([dim]), seed=dim).matrix
    rho = a + a.conj().T  # exactly Hermitian
    assert not np.any((basis.conj().T @ rho.flatten(order="F")).imag)


def test_unit_liouvillians_are_read_only():
    gen = combine([(displacement_generator(make_space([3]), 0), 0.5),
                   (tpa_dissipator(make_space([3]), 0), 2.0)])
    for part, _ in gen.parts:
        for mat in (part.matrix, part.real_matrix, gen.matrix, gen.real_matrix):
            with pytest.raises(ValueError, match="read-only"):
                mat.data[0] = 1.0
