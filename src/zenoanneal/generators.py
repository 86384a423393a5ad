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
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import FockSpace

# Structural zeros below this magnitude are dropped from generator matrices.
SPARSE_PRUNE_TOL = 1e-15


@lru_cache(maxsize=None)
def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=None)
def annihilation_operator(mode_dims: tuple[int, ...], mode: int) -> sp.csr_array:
    """Global sparse annihilation operator for one mode, cached per space."""
    n_modes = len(mode_dims)
    if mode < 0 or mode >= n_modes:
        raise ValueError(f"mode {mode} out of range")
    parts = []
    for m, d in enumerate(mode_dims):
        parts.append(sp.csr_array(_annihilation(d)) if m == mode else sp.identity(d, format="csr"))
    out = parts[0]
    for p in parts[1:]:
        out = sp.kron(out, p, format="csr")
    return sp.csr_array(out)


def _prune(mat: sp.csr_array) -> sp.csr_array:
    mat = sp.csr_array(mat)
    mat.data[np.abs(mat.data) < SPARSE_PRUNE_TOL] = 0.0
    mat.eliminate_zeros()
    return mat


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
    (rate, jump operator) pairs, all sparse on ``space``.

    ``matrix`` is the Liouvillian, built on first read.
    """

    space: FockSpace
    hamiltonian: sp.csr_array
    jumps: tuple[tuple[float, sp.csr_array], ...] = ()

    @cached_property
    def matrix(self) -> sp.csr_array:
        d = self.space.total_dim
        out = hamiltonian_superop(self.hamiltonian, d)
        for rate, jump in self.jumps:
            out = out + rate * dissipator_superop(jump, d)
        return _prune(out)

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
    the jumps are concatenated with their rates scaled."""
    if not weighted:
        raise ValueError("combine needs at least one generator")
    space = weighted[0][0].space
    if any(gen.space != space for gen, _ in weighted):
        raise ValueError("generators live on different spaces")
    h = sum(gen.hamiltonian * rate for gen, rate in weighted)
    jumps = tuple((r * rate, jump) for gen, rate in weighted for r, jump in gen.jumps)
    return GeneratorSpec(space, sp.csr_array(h), jumps)
