"""Sparse generators for the master equations used by the protocol.

Every builder returns a :class:`GeneratorSpec` holding its Hilbert-space
parts: a Hamiltonian H, or one Lindblad jump operator.  The Liouvillian acts
on column-stacked density matrices (see :mod:`zenoanneal.fock` for
conventions); H enters as -i[H, rho], each jump L in standard Lindblad form
L rho L^dag - (1/2){L^dag L, rho}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from .fock import FockSpace

# Structural zeros below this magnitude are dropped from generator matrices.
SPARSE_PRUNE_TOL = 1e-15


@lru_cache(maxsize=None)
def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


@lru_cache(maxsize=None)
def annihilation_operator(mode_dims: tuple[int, ...], mode: int) -> sp.csr_array:
    """Global sparse annihilation operator for one mode, cached per space."""
    n_modes = len(mode_dims)
    if mode < 0 or mode >= n_modes:
        raise ValueError(f"mode {mode} out of range")
    parts = [sp.csr_array(_annihilation(d)) if m == mode else sp.identity(d, format="csr")
             for m, d in enumerate(mode_dims)]
    return sp.csr_array(reduce(lambda out, p: sp.kron(out, p, format="csr"), parts))


def _prune(mat: sp.csr_array) -> sp.csr_array:
    """A CSR copy of ``mat`` without entries below SPARSE_PRUNE_TOL, data read-only."""
    mat = sp.csr_array(mat, copy=True)
    mat.data[np.abs(mat.data) < SPARSE_PRUNE_TOL] = 0.0
    mat.eliminate_zeros()
    mat.data.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> sp.csr_array:
    """Unitary U whose columns are vec of the orthonormal Hermitian basis E_kk,
    (E_kl + E_lk)/sqrt 2 and i(E_kl - E_lk)/sqrt 2, k < l, at most 2 nonzeros
    per row: U^dag vec(rho) is real for a Hermitian rho."""
    k, l = np.triu_indices(dim, 1)
    idx, s = np.arange(dim * dim), math.sqrt(0.5)
    sym, anti = np.split(idx[dim:], 2)
    rows = np.concatenate([idx[:dim] * (dim + 1), *[k + dim * l, l + dim * k] * 2])
    cols = np.concatenate([idx[:dim], sym, sym, anti, anti])
    vals = np.repeat([1.0, s, s, 1j * s, -1j * s], [dim] + [len(k)] * 4)
    return _prune(sp.csr_array((vals, (rows, cols)), shape=(dim * dim,) * 2))


def hamiltonian_superop(h: sp.csr_array, dim: int) -> sp.csr_array:
    """Matrix of rho -> -i[H, rho] under column stacking."""
    ident = sp.identity(dim, format="csr")
    return _prune(-1j * (sp.kron(ident, h) - sp.kron(h.T, ident)))


def dissipator_superop(jump: sp.csr_array, dim: int) -> sp.csr_array:
    """Matrix of the Lindblad dissipator with jump operator ``jump``."""
    ident = sp.identity(dim, format="csr")
    ldl = (jump.conj().T @ jump).tocsr()
    out = (sp.kron(jump.conj(), jump)
           - 0.5 * sp.kron(ident, ldl)
           - 0.5 * sp.kron(ldl.T, ident))
    return _prune(out)


@dataclass(frozen=True)
class GeneratorSpec:
    """A master equation: Hamiltonian ``hamiltonian`` and ``jumps``, a tuple of
    (rate, jump operator) pairs, all sparse on ``space``, and for a :func:`combine`
    result its (part, weight) pairs.

    ``matrix`` is the Liouvillian G, ``real_matrix`` the real U^dag G U in the
    :func:`hermitian_basis` (ValueError if G does not keep matrices Hermitian):
    read-only, built on first read, and with parts the sums of the parts' own.
    """

    space: FockSpace
    hamiltonian: sp.csr_array
    jumps: tuple[tuple[float, sp.csr_array], ...] = ()
    parts: tuple[tuple[GeneratorSpec, float], ...] = ()

    @cached_property
    def matrix(self) -> sp.csr_array:
        if self.parts:
            return _prune(sum(w * part.matrix for part, w in self.parts))
        d = self.space.total_dim
        out = hamiltonian_superop(self.hamiltonian, d)
        for rate, jump in self.jumps:
            out = out + rate * dissipator_superop(jump, d)
        return _prune(out)

    @cached_property
    def real_matrix(self) -> sp.csr_array:
        if self.parts:
            return _prune(sum(w * part.real_matrix for part, w in self.parts))
        basis = hermitian_basis(self.space.total_dim)  # G uncached: no complex copy kept
        out = basis.conj().T @ GeneratorSpec.matrix.func(self) @ basis
        if not abs(out.imag).max() <= 1e-12 * abs(out).max():  # round-off only
            raise ValueError("generator does not keep Hermitian matrices Hermitian")
        return _prune(out.real)

    @property
    def is_dissipative(self) -> bool:
        return bool(self.jumps)


def _jump(space: FockSpace, jump: sp.csr_array) -> GeneratorSpec:
    d = space.total_dim
    return GeneratorSpec(space, sp.csr_array((d, d), dtype=complex), ((1.0, jump),))


def tpa_dissipator(space: FockSpace, mode: int) -> GeneratorSpec:
    """Two-photon absorption: incoherent removal of photon pairs from a mode.

    Inert on the zero- and one-photon span; nontrivial action needs
    mode dimension >= 3.
    """
    a = annihilation_operator(space.mode_dims, mode)
    return _jump(space, (a @ a).tocsr())


def loss_dissipator(space: FockSpace, mode: int) -> GeneratorSpec:
    """Single-photon loss on one mode."""
    return _jump(space, annihilation_operator(space.mode_dims, mode))


def displacement_generator(space: FockSpace, mode: int) -> GeneratorSpec:
    """Coherent displacement drive, -i[a + a^dag, rho]."""
    a = annihilation_operator(space.mode_dims, mode)
    return GeneratorSpec(space, (a + a.conj().T).tocsr())


def sfg_generator(space: FockSpace, mode: int, pump_mode: int) -> GeneratorSpec:
    """Sum-frequency generation coupling a mode to its pump.

    H = a a p^dag + a^dag a^dag p converts photon pairs in ``mode`` into
    single pump photons and back.  The pump dimension must accommodate every
    convertible pair.
    """
    if pump_mode == mode:
        raise ValueError("pump mode must differ from the converted mode")
    max_pairs = (space.mode_dims[mode] - 1) // 2
    if space.mode_dims[pump_mode] - 1 < max_pairs:
        raise ValueError(
            f"pump dim {space.mode_dims[pump_mode]} cannot hold "
            f"{max_pairs} converted pairs")
    a = annihilation_operator(space.mode_dims, mode)
    p = annihilation_operator(space.mode_dims, pump_mode)
    return GeneratorSpec(space, (a @ a @ p.conj().T + a.conj().T @ a.conj().T @ p).tocsr())


def phase_generator(space: FockSpace, mode: int) -> GeneratorSpec:
    """Phase rotation: -i[n, rho], matching U(phi) = exp(-i phi n)."""
    a = annihilation_operator(space.mode_dims, mode)
    return GeneratorSpec(space, (a.conj().T @ a).tocsr())


def combine(weighted: list[tuple[GeneratorSpec, float]]) -> GeneratorSpec:
    """Weighted sum of generators over a shared space: the Hamiltonians add,
    the jumps are concatenated with their rates scaled, the parts are kept."""
    if not weighted:
        raise ValueError("combine needs at least one generator")
    space = weighted[0][0].space
    if any(gen.space != space for gen, _ in weighted):
        raise ValueError("generators live on different spaces")
    h = sum(gen.hamiltonian * rate for gen, rate in weighted)
    jumps = tuple((r * rate, jump) for gen, rate in weighted for r, jump in gen.jumps)
    parts = tuple((p, w * r) for gen, r in weighted for p, w in gen.parts or ((gen, 1.0),))
    return GeneratorSpec(space, sp.csr_array(h), jumps, parts)
