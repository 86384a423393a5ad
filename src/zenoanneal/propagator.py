"""Exponentiation and fast application of generators.

Three interchangeable paths, each caller picking its own:

* :func:`expm_dense` materializes exp(t G) as a dense superoperator,
* :func:`expm_apply` computes the action on one vectorized state without
  ever forming the dense matrix,
* :class:`BinaryExpCache` precomputes exponentials for halved durations so a
  sweep with per-cycle times never exponentiates inside its inner loop.

Phase rotations additionally get :class:`PhaseKernel`: their superoperator is
diagonal in the number basis, so applying one reduces to a lookup-table
multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .fock import DensityState, FockSpace, devectorize, vectorize
from .generators import GeneratorSpec

# Dense exponentiation is the default up to this Hilbert-space dimension;
# larger problems should use the action path.
DENSE_DIM_THRESHOLD = 64


class DimensionGuardError(ValueError):
    """Raised when a dense superoperator would exceed the configured cap."""


class NonConvergenceError(RuntimeError):
    """Raised when an exponential application produced non-finite values."""


@dataclass(frozen=True)
class Superoperator:
    """A realized linear map on vectorized density matrices."""

    space: FockSpace
    matrix: np.ndarray
    provenance: str = ""

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        d = self.space.total_dim
        return (self.matrix @ mat.flatten(order="F")).reshape((d, d), order="F")

    def apply(self, state: DensityState) -> DensityState:
        return devectorize(self.matrix @ vectorize(state), self.space)


def _check_time(gen: GeneratorSpec, t: float) -> None:
    if not np.isfinite(t):
        raise ValueError(f"non-finite time {t}")
    if t < 0 and gen.is_dissipative:
        raise ValueError("negative time is not allowed for dissipative generators")


def expm_dense(gen: GeneratorSpec, t: float,
               dim_cap: int = DENSE_DIM_THRESHOLD) -> Superoperator:
    """Dense exp(t G) via scaling-and-squaring."""
    _check_time(gen, t)
    d = gen.space.total_dim
    if d > dim_cap:
        raise DimensionGuardError(
            f"total_dim {d} exceeds dense cap {dim_cap}; use expm_apply")
    mat = scipy.linalg.expm((t * gen.matrix).toarray())
    if not np.all(np.isfinite(mat)):
        raise NonConvergenceError("matrix exponential produced non-finite entries")
    return Superoperator(gen.space, mat, f"expm(t={t})")


def expm_apply(gen: GeneratorSpec, t: float, state: DensityState) -> DensityState:
    """Action of exp(t G) on one state without forming the dense matrix."""
    vec = expm_apply_vec(gen, t, vectorize(state))
    return devectorize(vec, gen.space)


def expm_apply_vec(gen: GeneratorSpec, t: float, vec: np.ndarray) -> np.ndarray:
    _check_time(gen, t)
    # expm_multiply picks its degree and step count from onenormest, which
    # draws from NumPy's global RNG; a fixed state makes the result repeat
    # from run to run, and the caller's state is put back afterwards.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        out = scipy.sparse.linalg.expm_multiply(gen.matrix * t, vec)
    finally:
        np.random.set_state(rng_state)
    if not np.all(np.isfinite(out)):
        raise NonConvergenceError("expm_multiply produced non-finite values")
    return out


@dataclass(frozen=True)
class BinaryExpCache:
    """Precomputed exponentials for durations t_max / 2^j, j = 0..m-1.

    Any 0 <= t < 2 t_max is then reproduced by composing the stages selected
    by the binary expansion of t, with truncation error O(t_max / 2^m).
    """

    generator: GeneratorSpec
    t_max: float
    m: int
    stages: tuple[Superoperator, ...]

    def select_stages(self, t: float) -> list[int]:
        if self.m < 1:
            raise ValueError("cache must have at least one stage")
        if t < 0 or t >= 2 * self.t_max:
            raise ValueError(f"t={t} outside [0, {2 * self.t_max})")
        chosen = []
        rem = float(t)
        step = self.t_max
        for j in range(self.m):
            if j == 0:
                # The leading stage may repeat once since t can reach 2 t_max.
                while rem >= step:
                    chosen.append(0)
                    rem -= step
            elif rem >= step:
                chosen.append(j)
                rem -= step
            step /= 2
        return chosen

    def apply_vec(self, t: float, vec: np.ndarray) -> np.ndarray:
        out = vec
        for j in self.select_stages(t):
            out = self.stages[j].matrix @ out
        return out

    def matrix_for(self, t: float) -> np.ndarray:
        """Composed superoperator matrix for duration t (small spaces only)."""
        d2 = self.generator.space.total_dim ** 2
        out = np.eye(d2, dtype=complex)
        for j in self.select_stages(t):
            out = self.stages[j].matrix @ out
        return out


def build_cache(gen: GeneratorSpec, t_max: float, m: int,
                dim_cap: int = DENSE_DIM_THRESHOLD) -> BinaryExpCache:
    """One dense exponential per stage; none in the caller's inner loop."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    stages = tuple(expm_dense(gen, t_max / 2 ** j, dim_cap=dim_cap) for j in range(m))
    return BinaryExpCache(gen, float(t_max), int(m), stages)


def apply_cached(cache: BinaryExpCache, t: float, state: DensityState) -> DensityState:
    return devectorize(cache.apply_vec(t, vectorize(state)), cache.generator.space)


class PhaseKernel:
    """Elementwise application of a single-mode phase rotation.

    exp(phi G_phase) multiplies element <m|rho|n> by exp(-i phi (m - n))
    where m, n are the mode's occupation numbers, so the whole superoperator
    collapses to an integer difference table and a scalar-exponential lookup.
    Within a qubit subspace the multipliers are just {1, e^{i phi}, e^{-i phi}}.
    """

    def __init__(self, space: FockSpace, mode: int):
        self.space = space
        self.mode = mode
        occ = space.occupation_array(mode)
        self.max_n = int(occ.max())
        self._diff_index = (occ[:, None] - occ[None, :]) + self.max_n

    def multipliers(self, phi: float) -> np.ndarray:
        table = np.exp(-1j * phi * np.arange(-self.max_n, self.max_n + 1))
        return table[self._diff_index]

    def apply_matrix(self, mat: np.ndarray, phi: float) -> np.ndarray:
        return mat * self.multipliers(phi)

    def apply(self, state: DensityState, phi: float) -> DensityState:
        return DensityState(state.space, self.apply_matrix(state.matrix, phi))
