import itertools
import math

import numpy as np
import pytest
import scipy.sparse

from zenoanneal.fock import (DensityState, PureState,
                             apply_local_operator_matrix,
                             apply_local_superop_matrix, apply_superop_every_mode,
                             eigenvalue_entropy, embed_local_operator, make_space,
                             vacuum)
from zenoanneal.gadgets import unitary_conjugation_superop

from oracles import (number_state, partial_trace, population, validate_density,
                     von_neumann_entropy)


def random_density(space, seed=0):
    rng = np.random.default_rng(seed)
    d = space.total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityState(space, rho / np.trace(rho))


def test_make_space_dims():
    assert make_space([3, 3]).total_dim == 9
    assert make_space([2]).total_dim == 2
    assert make_space([31]).total_dim == 31


def test_make_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_space([])
    with pytest.raises(ValueError):
        make_space([1, 3])


def test_basis_index_row_major_last_fastest():
    assert make_space([2, 2]).index((0, 0)) == 0
    assert make_space([2, 2]).index((1, 0)) == 2
    assert make_space([3, 2]).index((2, 1)) == 5


def test_basis_index_bijection():
    space = make_space([3, 2, 4])
    seen = set()
    for occ in np.ndindex(*space.mode_dims):
        idx = space.index(occ)
        assert np.unravel_index(idx, space.mode_dims) == occ
        seen.add(idx)
    assert seen == set(range(space.total_dim))


def test_basis_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_space([3, 2]).index((0, 2))


def test_vacuum_and_number_state():
    space = make_space([2, 2])
    assert vacuum(space).amplitudes[0] == 1.0
    st = number_state(make_space([3]), (2,))
    assert st.amplitudes[2] == 1.0
    st = number_state(make_space([3, 3]), (1, 1))
    assert st.amplitudes[make_space([3, 3]).index((1, 1))] == 1.0


def test_pure_state_norm_checked():
    space = make_space([2])
    with pytest.raises(ValueError):
        PureState(space, np.array([1.0, 1.0]))


def test_pure_state_rejects_non_finite_amplitudes():
    for amps in ([np.nan, 0.0], [np.nan, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(make_space([2]), np.array(amps))


def test_vectorize_column_stacking():
    space = make_space([2])
    rho = DensityState(space, np.eye(2) / 2)
    assert np.allclose(rho.matrix.flatten(order="F"), [0.5, 0.0, 0.0, 0.5])


def test_vectorize_round_trip():
    space = make_space([3, 2])
    rho = random_density(space, seed=3)
    d = space.total_dim
    back = DensityState(space, rho.matrix.flatten(order="F").reshape((d, d), order="F"))
    assert np.array_equal(back.matrix, rho.matrix)


def test_vectorized_hermitian_symmetry():
    space = make_space([2, 2])
    rho = random_density(space, seed=4)
    v = rho.matrix.flatten(order="F")
    d = space.total_dim
    for r in range(d):
        for c in range(d):
            assert v[r + d * c] == np.conj(v[c + d * r])


def test_partial_trace_pump_projector():
    space = make_space([2, 2])
    rho = number_state(space, (0, 1)).to_density()
    reduced = partial_trace(rho, keep=[0])
    assert np.allclose(reduced.matrix, [[1, 0], [0, 0]])


def test_partial_trace_schmidt_pair():
    space = make_space([3, 3])
    amps = np.zeros(9, dtype=complex)
    amps[space.index((2, 0))] = 1 / math.sqrt(2)
    amps[space.index((0, 2))] = 1 / math.sqrt(2)
    rho = PureState(space, amps).to_density()
    reduced = partial_trace(rho, keep=[0])
    expect = np.diag([0.5, 0.0, 0.5])
    assert np.allclose(reduced.matrix, expect, atol=1e-14)


def test_partial_trace_preserves_trace_and_validity():
    space = make_space([2, 3, 2])
    rho = random_density(space, seed=5)
    reduced = partial_trace(rho, keep=[0, 2])
    assert abs(np.trace(reduced.matrix) - 1) < 1e-12
    validate_density(reduced)


def test_apply_local_identity():
    space = make_space([3, 2])
    rho = random_density(space, seed=6).matrix
    out = apply_local_operator_matrix(np.eye(2), rho, space, [1])
    assert np.allclose(out, rho)


def test_apply_local_matches_global_embedding():
    space = make_space([2, 3, 2])
    rho = random_density(space, seed=7).matrix
    rng = np.random.default_rng(8)
    local = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(local)
    out = apply_local_operator_matrix(q, rho, space, [1, 2])
    glob = embed_local_operator(q, space, [1, 2])
    expect = glob @ rho @ glob.conj().T
    assert np.max(np.abs(out - expect)) < 1e-12
    # superoperator route against the same global conjugation
    out2 = apply_local_superop_matrix(unitary_conjugation_superop(q), rho, space, [1, 2])
    assert np.max(np.abs(out2 - expect)) < 1e-12


def global_maps_by_entries(op, superop, space, targets):
    """Global operator and column-stacked superoperator, built entry by entry.

    Entries come from the occupation tuples alone: the local index of a basis
    state is its targets' occupations in ``targets`` order, the untouched modes
    must agree (identity there), and vec index r + D c holds rho[r, c].
    """
    local = make_space([space.mode_dims[t] for t in targets])
    d, d_loc = space.total_dim, local.total_dim
    occ = [np.unravel_index(i, space.mode_dims) for i in range(d)]
    loc = [local.index([o[t] for t in targets]) for o in occ]
    rest = [[x for m, x in enumerate(o) if m not in targets] for o in occ]
    g = np.zeros((d, d), dtype=complex)
    for i, j in itertools.product(range(d), repeat=2):
        if rest[i] == rest[j]:
            g[i, j] = op[loc[i], loc[j]]
    s = np.zeros((d * d, d * d), dtype=complex)
    for r, c, r2, c2 in itertools.product(range(d), repeat=4):
        if rest[r] == rest[r2] and rest[c] == rest[c2]:
            s[r + d * c, r2 + d * c2] = superop[loc[r] + d_loc * loc[c],
                                                loc[r2] + d_loc * loc[c2]]
    return g, s


@pytest.mark.parametrize("dims", [[2, 3, 2], [3, 2, 2]])
@pytest.mark.parametrize("targets", [[1], [2, 0], [1, 2, 0]])
def test_local_application_matches_entrywise_oracle(dims, targets):
    space = make_space(dims)
    d = space.total_dim
    d_loc = math.prod(dims[t] for t in targets)
    rng = np.random.default_rng(len(targets))
    op = rng.normal(size=(d_loc, d_loc)) + 1j * rng.normal(size=(d_loc, d_loc))
    superop = (rng.normal(size=(d_loc ** 2, d_loc ** 2))
               + 1j * rng.normal(size=(d_loc ** 2, d_loc ** 2)))
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g, s = global_maps_by_entries(op, superop, space, targets)

    assert np.allclose(embed_local_operator(op, space, targets), g, rtol=0, atol=1e-13)
    assert np.allclose(apply_local_operator_matrix(op, rho, space, targets),
                       g @ rho @ g.conj().T, rtol=0, atol=1e-11)
    vec = np.array([rho[k % d, k // d] for k in range(d * d)])
    out_vec = s @ vec
    expect = np.array([[out_vec[r + d * c] for c in range(d)] for r in range(d)])
    assert np.allclose(apply_local_superop_matrix(superop, rho, space, targets), expect,
                       rtol=0, atol=1e-11)
    # a (2, D, D) stack takes one map per row, or one map shared by both rows
    stack, maps = np.stack([rho, rho.conj().T]), np.stack([superop, superop.T])
    for ops in (maps, superop):
        out = apply_local_superop_matrix(ops, stack, space, targets)
        for b in range(2):
            one = ops[b] if ops.ndim == 3 else ops
            assert np.array_equal(out[b], apply_local_superop_matrix(one, stack[b], space,
                                                                     targets))


def random_superop(rng, d2):
    """A random complex d2 x d2 map of spectral norm 1."""
    superop = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    return superop / np.linalg.norm(superop, 2)


@pytest.mark.parametrize("dims", [[3, 3, 3], [2, 2]])
@pytest.mark.parametrize("batch", [1, 3])
def test_superop_on_every_mode_is_the_per_mode_sequence(dims, batch):
    space = make_space(dims)
    rng = np.random.default_rng([batch, len(dims)])
    superop = random_superop(rng, dims[0] ** 2)
    stack = np.stack([random_density(space, seed=batch + b).matrix for b in range(batch)])
    expect = stack
    for m in range(len(dims)):
        expect = apply_local_superop_matrix(superop, expect, space, [m])
    out = apply_superop_every_mode(superop, stack, space)
    assert out.shape == stack.shape
    assert np.max(np.abs(out - expect)) <= 1e-14


@pytest.mark.parametrize("targets", [[1], [0, 2], [2, 1]])
def test_sparse_and_dense_shared_maps_agree(targets):
    # a CSR map runs as one (d_loc, B rest) product, a dense one per row
    space = make_space([3, 3, 3])
    rng = np.random.default_rng(len(targets))
    superop = random_superop(rng, 9 ** len(targets))
    superop[rng.random(superop.shape) < 0.9] = 0.0
    stack = np.stack([random_density(space, seed=b).matrix for b in range(2)])
    for mat in (stack, stack[0]):
        dense = apply_local_superop_matrix(superop, mat, space, targets)
        sparse = apply_local_superop_matrix(scipy.sparse.csr_array(superop), mat, space,
                                            targets)
        assert sparse.shape == mat.shape
        assert np.max(np.abs(sparse - dense)) <= 1e-14


def test_apply_local_disjoint_modes_commute():
    space = make_space([2, 2, 2])
    rho = random_density(space, seed=9).matrix
    rng = np.random.default_rng(10)
    u0, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    apply = lambda u, mat, mode: apply_local_operator_matrix(u, mat, space, [mode])
    a = apply(u2, apply(u0, rho, 0), 2)
    b = apply(u0, apply(u2, rho, 2), 0)
    assert np.max(np.abs(a - b)) < 1e-12


def test_apply_local_dimension_mismatch():
    space = make_space([3, 2])
    rho = random_density(space, seed=11).matrix
    with pytest.raises(ValueError):
        apply_local_operator_matrix(np.eye(4), rho, space, [0])
    with pytest.raises(ValueError):
        apply_local_superop_matrix(np.eye(4), rho, space, [0])


def test_entropy_pure_state_zero():
    space = make_space([3, 2])
    s = von_neumann_entropy(number_state(space, (1, 1)).to_density())
    assert s == 0.0 and math.copysign(1.0, s) == 1.0  # +0.0, printed as 0


def test_entropy_maximally_mixed_qubits():
    for n in (1, 2, 3):
        space = make_space([2] * n)
        rho = DensityState(space, np.eye(2 ** n) / 2 ** n)
        assert abs(von_neumann_entropy(rho) - n) < 1e-12


def test_entropy_unitary_invariance():
    space = make_space([2, 2])
    rho = random_density(space, seed=12)
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = DensityState(space, u @ rho.matrix @ u.conj().T)
    assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-9


def test_entropy_of_a_state_within_rounding_of_pure_is_never_negative():
    # the coherent gadget's qubit block keeps |11><11| at 1 + 9e-16, and
    # -lam log2 lam of such an eigenvalue is -1.3e-15
    for lam in ([1 + 9e-16, 0.0], [1 + 9e-16, 1e-13, -1e-13], [1.0 + 2.2e-16, 0.0, 0.0]):
        s = eigenvalue_entropy(np.array(lam))
        assert s == 0.0 and math.copysign(1.0, s) == 1.0
    # a stack keeps its mixed rows as they were
    stack = eigenvalue_entropy(np.array([[1 + 9e-16, 0.0], [0.25, 0.75]]))
    assert stack[0] == 0.0 and stack[1] == -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))


def test_entropy_accepts_raw_matrix():
    rho = random_density(make_space([3, 2]), seed=14)
    assert von_neumann_entropy(rho.matrix) == von_neumann_entropy(rho)
    other = random_density(make_space([3, 2]), seed=15).matrix
    stacked = von_neumann_entropy(np.stack([rho.matrix, other]))
    assert stacked.tolist() == [von_neumann_entropy(rho), von_neumann_entropy(other)]


def test_population_examples():
    space = make_space([2])
    assert population(vacuum(space).to_density(), (0,)) == 1.0
    assert population(number_state(space, (1,)), (0,)) == 0.0
    rho = random_density(make_space([2, 2]), seed=14)
    total = sum(population(rho, occ) for occ in np.ndindex(*rho.space.mode_dims))
    assert abs(total - 1) < 1e-12


def test_density_state_invariant_checks():
    space = make_space([2])
    with pytest.raises(ValueError):
        DensityState(space, np.array([[0.5, 0.2], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        DensityState(space, np.array([[0.9, 0.0], [0.0, 0.9]]))


@pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
def test_density_state_rejects_nan(entry):
    mat = np.eye(2, dtype=complex) / 2
    mat[entry] = np.nan
    with pytest.raises(ValueError, match="Hermitian|trace"):
        DensityState(make_space([2]), mat)
