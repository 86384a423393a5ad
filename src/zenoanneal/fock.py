"""Truncated bosonic Fock-space bookkeeping.

Conventions used throughout the package:

* Basis ordering is row-major over occupation tuples with the *last* mode
  varying fastest, i.e. ``index = sum(occ[m] * prod(dims[m+1:]))``.
* Density matrices are vectorized by column stacking (Fortran order), so a
  superoperator matrix ``S`` acts as ``vec(rho') = S @ vec(rho)`` and
  ``vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)``.
* A D x D matrix viewed as the C-order tensor ``mat.reshape(dims + dims)``
  has axes (row modes..., column modes...).  Column stacking makes the local
  vec index of a superoperator on modes ``t`` run over (column axes of ``t``,
  row axes of ``t``), so it acts on those doubled-tensor axes in that order.

All three conventions are load-bearing: every other module builds matrices
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

# Eigenvalues below this are treated as exact zeros in the entropy sum.
ENTROPY_EIG_CLIP = 1e-12


@dataclass(frozen=True)
class FockSpace:
    """Ordered collection of bosonic modes with per-mode truncation.

    ``mode_dims[m]`` is the dimension of mode ``m`` (photon cutoff + 1).
    """

    mode_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.mode_dims) == 0:
            raise ValueError("FockSpace needs at least one mode")
        for d in self.mode_dims:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"every mode dimension must be an integer >= 2, got {d}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.mode_dims)

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.mode_dims[m + 1:]) for m in range(self.n_modes))

    def index(self, occupations) -> int:
        """Flat basis index of an occupation tuple (last mode fastest)."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} occupations, got {len(occ)}")
        for m, (n, d) in enumerate(zip(occ, self.mode_dims)):
            if n < 0 or n >= d:
                raise ValueError(f"occupation {n} out of range for mode {m} (dim {d})")
        return sum(n * s for n, s in zip(occ, self.strides))

    def occupation_array(self, mode: int) -> np.ndarray:
        """Per-basis-state photon number of one mode, as an int array."""
        if mode < 0 or mode >= self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        after = math.prod(self.mode_dims[mode + 1:])  # 1 for the last mode
        return np.tile(np.repeat(np.arange(self.mode_dims[mode]), after),
                       math.prod(self.mode_dims[:mode]))


def make_space(mode_dims) -> FockSpace:
    """Build a :class:`FockSpace` from a list of per-mode dimensions."""
    return FockSpace(tuple(int(d) for d in mode_dims))


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a :class:`FockSpace`."""

    space: FockSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.total_dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, "
                             f"expected ({self.space.total_dim},)")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq}")
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityState":
        return DensityState(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityState:
    """Density matrix over a :class:`FockSpace`.

    Hermiticity and unit trace are checked on construction; positivity, an
    O(dim^3) eigenvalue check, is left to the runs that record eigenvalues.
    """

    space: FockSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"density matrix has shape {mat.shape}, expected ({d}, {d})")
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_err <= HERMITICITY_TOL:  # NaN fails too
            raise ValueError(f"density matrix not Hermitian (max deviation {herm_err:.3e})")
        tr_err = abs(complex(np.trace(mat)) - 1.0)
        if not tr_err <= TRACE_TOL:
            raise ValueError(f"density matrix trace differs from 1 by {tr_err:.3e}")
        object.__setattr__(self, "matrix", mat)


def vacuum(space: FockSpace) -> PureState:
    """All-modes-empty state."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[0] = 1.0
    return PureState(space, amps)


def _apply_axes(op, flat: np.ndarray, dims, axes) -> np.ndarray:
    """Apply ``op`` to the ``axes`` of ``flat`` seen as a C-order ``dims`` tensor.

    Leading axes of ``flat`` beyond ``dims`` form a batch, and ``op`` is one
    matrix or a stack with one per batch entry.  The targeted axes go first
    after the batch and the others follow in their original order, so ``op``
    multiplies each (d_loc, rest) matricization, a sparse ``op`` the single
    (d_loc, B rest) one; the permutation is then undone, giving ``flat``'s shape.
    """
    sparse = scipy.sparse.issparse(op)
    lead, rest = [a + 1 for a in axes], [a + 1 for a in range(len(dims)) if a not in axes]
    perm = lead + [0] + rest if sparse else [0] + lead + rest
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    tensor = np.asarray(flat).reshape((-1, *dims)).transpose(perm)
    shape = tensor.shape
    out = (op @ tensor.reshape(math.prod(shape[:len(axes)]), -1) if sparse else
           np.asarray(op) @ tensor.reshape(shape[0], math.prod(shape[1:len(axes) + 1]), -1))
    return out.reshape(shape).transpose(inv).reshape(np.shape(flat))


def apply_local_superop_matrix(superop: np.ndarray, mat: np.ndarray,
                               space: FockSpace, targets) -> np.ndarray:
    """Apply a local superoperator matrix to a raw density matrix, or to a
    (B, D, D) stack of them with one superoperator or a stack of B."""
    targets = [int(t) for t in targets]
    cols = [space.n_modes + t for t in targets]
    return _apply_axes(superop, mat, space.mode_dims * 2, cols + targets)


def apply_local_operator_matrix(op: np.ndarray, mat: np.ndarray,
                                space: FockSpace, targets) -> np.ndarray:
    """Conjugate a raw density matrix by a local operator: op @ rho @ op^dagger."""
    dims = space.mode_dims * 2
    mat = _apply_axes(op, mat, dims, targets)
    # rho @ op^dagger = (conj(op) @ rho^T)^T: a second left pass on the transpose.
    return _apply_axes(np.conj(op), mat.T, dims, targets).T


def embed_local_operator(op: np.ndarray, space: FockSpace, targets) -> np.ndarray:
    """Expand a local operator to the full space by identity tensoring."""
    return _apply_axes(op, np.eye(space.total_dim), space.mode_dims * 2, targets)


def eigenvalue_entropy(lam: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits from density-matrix eigenvalues on the last
    axis; eigenvalues below ``ENTROPY_EIG_CLIP`` count as zero and those of 1
    or more, which only rounding makes, as 1, so that no term is negative."""
    lam = np.where((lam > ENTROPY_EIG_CLIP) & (lam < 1.0), lam, 1.0)  # 1 log2(1) is exactly 0
    # 0.0 - sum, so that a pure state gives +0.0 and not -0.0
    return 0.0 - (lam * np.log2(lam)).sum(axis=-1)
