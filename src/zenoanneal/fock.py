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

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
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
        out = []
        acc = 1
        for d in reversed(self.mode_dims):
            out.append(acc)
            acc *= d
        return tuple(reversed(out))

    def index(self, occupations) -> int:
        """Flat basis index of an occupation tuple (last mode fastest)."""
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} occupations, got {len(occ)}")
        for m, (n, d) in enumerate(zip(occ, self.mode_dims)):
            if n < 0 or n >= d:
                raise ValueError(f"occupation {n} out of range for mode {m} (dim {d})")
        return sum(n * s for n, s in zip(occ, self.strides))

    def occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        if index < 0 or index >= self.total_dim:
            raise ValueError(f"basis index {index} out of range")
        out = []
        for s, d in zip(self.strides, self.mode_dims):
            n, index = divmod(index, s)
            out.append(n)
        return tuple(out)

    def all_occupations(self):
        """Iterate occupation tuples in basis order."""
        return np.ndindex(*self.mode_dims)

    def occupation_array(self, mode: int) -> np.ndarray:
        """Per-basis-state photon number of one mode, as an int array."""
        if mode < 0 or mode >= self.n_modes:
            raise ValueError(f"mode {mode} out of range")
        n = np.arange(self.mode_dims[mode])
        before = math.prod(self.mode_dims[:mode]) if mode > 0 else 1
        after = math.prod(self.mode_dims[mode + 1:]) if mode + 1 < self.n_modes else 1
        return np.tile(np.repeat(n, after), before)


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
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq}")
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityState":
        return DensityState(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityState:
    """Density matrix over a :class:`FockSpace`.

    Hermiticity and unit trace are checked on construction; positivity is an
    O(dim^3) eigenvalue check left to :meth:`validate`.
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

    def validate(self) -> None:
        """Full validity check including the positivity floor."""
        lam = np.linalg.eigvalsh(self.matrix)
        if lam.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lam.min():.3e} below floor")

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def vacuum(space: FockSpace) -> PureState:
    """All-modes-empty state."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[0] = 1.0
    return PureState(space, amps)


def number_state(space: FockSpace, occupations) -> PureState:
    """Basis state with the given photon numbers."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index(occupations)] = 1.0
    return PureState(space, amps)


def vectorize(state: DensityState | np.ndarray) -> np.ndarray:
    """Column-stack a density matrix into a vector."""
    mat = state.matrix if isinstance(state, DensityState) else np.asarray(state)
    return mat.flatten(order="F")


def devectorize(vec: np.ndarray, space: FockSpace) -> DensityState:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec)
    d = space.total_dim
    if vec.shape != (d * d,):
        raise ValueError(f"vector has shape {vec.shape}, expected ({d * d},)")
    return DensityState(space, vec.reshape((d, d), order="F"))


def partial_trace(state: DensityState, keep) -> DensityState:
    """Trace out every mode not listed in ``keep``."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one mode")
    n = state.space.n_modes
    for k in keep:
        if k < 0 or k >= n:
            raise ValueError(f"mode {k} out of range")
    mat = partial_trace_matrix(state.matrix, state.space.mode_dims, keep)
    return DensityState(make_space([state.space.mode_dims[k] for k in keep]), mat)


def partial_trace_matrix(mat: np.ndarray, mode_dims, keep) -> np.ndarray:
    """Partial trace on a raw matrix; ``keep`` is a sorted mode list."""
    dims = tuple(mode_dims)
    n = len(dims)
    tensor = np.asarray(mat).reshape(dims + dims)
    traced = [m for m in range(n) if m not in keep]
    # Trace highest axes first so earlier axis numbers stay valid.
    offset = n
    for m in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + offset)
        offset -= 1
    d_keep = math.prod(dims[k] for k in keep)
    return tensor.reshape((d_keep, d_keep))


def _apply_axes(op: np.ndarray, flat: np.ndarray, dims, axes) -> np.ndarray:
    """Apply ``op`` to the ``axes`` of ``flat`` seen as a C-order ``dims`` tensor.

    The targeted axes go first and the others follow in their original order,
    so ``op`` multiplies the (d_loc, rest) matricization; the permutation is
    then undone and the result has the shape of ``flat``.
    """
    perm = list(axes) + [a for a in range(len(dims)) if a not in axes]
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    tensor = np.asarray(flat).reshape(dims).transpose(perm)
    shape = tensor.shape
    d_loc = math.prod(shape[:len(axes)])
    out = np.asarray(op) @ tensor.reshape(d_loc, -1)
    return out.reshape(shape).transpose(inv).reshape(np.shape(flat))


def apply_local_superop_matrix(superop: np.ndarray, mat: np.ndarray,
                               space: FockSpace, targets) -> np.ndarray:
    """Apply a local superoperator matrix to a raw density matrix."""
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


def apply_local_operator_vector(op: np.ndarray, amps: np.ndarray,
                                space: FockSpace, targets) -> np.ndarray:
    """Apply a local operator to a raw amplitude vector."""
    return _apply_axes(op, amps, space.mode_dims, targets)


def embed_local_operator(op: np.ndarray, space: FockSpace, targets) -> np.ndarray:
    """Expand a local operator to the full space by identity tensoring."""
    return _apply_axes(op, np.eye(space.total_dim), space.mode_dims * 2, targets)


def von_neumann_entropy(state: DensityState | np.ndarray) -> float:
    """Entropy in bits of a state or raw density matrix; eigenvalues below
    ``ENTROPY_EIG_CLIP`` count as zero."""
    mat = state.matrix if isinstance(state, DensityState) else np.asarray(state)
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > ENTROPY_EIG_CLIP]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def population(state: PureState | DensityState, occupations) -> float:
    """Probability of one occupation pattern."""
    idx = state.space.index(occupations)
    if isinstance(state, PureState):
        return float(np.abs(state.amplitudes[idx]) ** 2)
    return float(state.matrix[idx, idx].real)
