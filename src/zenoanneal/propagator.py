"""Exponentiation and fast application of generators.

Entry points:

* :func:`expm_dense` materializes exp(t G) as a dense superoperator, up to
  Hilbert dimension ``DENSE_DIM_THRESHOLD``,
* :func:`expm_apply_vec` computes the action on one vectorized state
  without ever forming the dense matrix (Al-Mohy & Higham, SIAM J. Sci.
  Comput. 33, 2011),
* :func:`trajectory` returns the states on an evenly spaced time grid from 0:
  one dense step raised to successive powers up to ``DENSE_DIM_THRESHOLD``,
  the action method's interval form above it,
* :class:`BinaryExpCache` (:func:`build_cache`) precomputes exponentials for
  halved durations; :meth:`BinaryExpCache.matrix_for` composes them into the
  map for any per-cycle time, so a sweep never exponentiates inside its
  inner loop.

The action paths run on real coordinates: G keeps matrices Hermitian, so in
the orthonormal Hermitian basis U it is the real ``GeneratorSpec.real_matrix``
U^dag G U, a Hermitian state has real coordinates U^dag vec(rho), and every
matvec, norm and ``onenormest`` is real, which is cheaper than complex.

Phase rotations additionally get :class:`PhaseKernel`: the superoperator of a
weighted photon-number rotation is diagonal in the number basis, so applying
one reduces to a lookup-table multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .fock import FockSpace
from .generators import GeneratorSpec, hermitian_basis

# Dense exponentiation is allowed up to this Hilbert-space dimension;
# larger problems take the action path.
DENSE_DIM_THRESHOLD = 64

# Largest bytes a run's largest arrays may take, checked before they are built.
RUN_BYTES_MAX = 1 << 31


class DimensionGuardError(ValueError):
    """Raised when a dense superoperator would exceed DENSE_DIM_THRESHOLD."""


class NonConvergenceError(RuntimeError):
    """Raised when an exponential application produced non-finite values."""


def _guard_bytes(nbytes: int, what: str) -> None:
    if nbytes > RUN_BYTES_MAX:
        raise ValueError(f"{what} would take {nbytes} bytes, over the "
                         f"{RUN_BYTES_MAX}-byte bound")


def _check_time(gen: GeneratorSpec, t: float) -> None:
    if not np.isfinite(t):
        raise ValueError(f"non-finite time {t}")
    if t < 0 and gen.is_dissipative:
        raise ValueError("negative time is not allowed for dissipative generators")


def expm_dense(gen: GeneratorSpec, t: float) -> np.ndarray:
    """Dense exp(t G) via scaling-and-squaring."""
    _check_time(gen, t)
    d = gen.space.total_dim
    if d > DENSE_DIM_THRESHOLD:
        raise DimensionGuardError(
            f"total_dim {d} exceeds dense cap {DENSE_DIM_THRESHOLD}; use expm_apply_vec")
    mat = scipy.linalg.expm((t * gen.matrix).toarray())
    if not np.all(np.isfinite(mat)):
        raise NonConvergenceError("matrix exponential produced non-finite entries")
    return mat


def _expm_multiply(real_matrix, vec: np.ndarray, **interval) -> np.ndarray:
    """expm_multiply of a ``GeneratorSpec.real_matrix`` on the real coordinates
    of ``vec``: one column, and a second only for an anti-Hermitian part."""
    basis = hermitian_basis(math.isqrt(real_matrix.shape[0]))
    coords = basis.conj().T @ vec
    cols = np.stack([coords.real, coords.imag], -1) if np.any(coords.imag) else coords.real
    # expm_multiply picks its degree and step count from onenormest, which
    # draws from NumPy's global RNG; a fixed state makes the result repeat
    # from run to run, and the caller's state is put back afterwards.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        out = scipy.sparse.linalg.expm_multiply(real_matrix, cols, **interval)
    finally:
        np.random.set_state(rng_state)
    if not np.all(np.isfinite(out)):
        raise NonConvergenceError("expm_multiply produced non-finite values")
    return (basis @ (out @ [1.0, 1j] if cols.ndim == 2 else out).T).T


def expm_apply_vec(gen: GeneratorSpec, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(t G) vec without forming the dense matrix, on the real coordinates
    of the module docstring; ValueError if G does not keep matrices Hermitian."""
    _check_time(gen, t)
    return _expm_multiply(gen.real_matrix * t, vec)


def trajectory(gen: GeneratorSpec, times, vec: np.ndarray) -> np.ndarray:
    """Rows vec(rho(t)) for each t in ``times``, starting from vec(rho(0)) = vec.

    ``times`` must be evenly spaced from 0 with at least two points.  Above
    ``DENSE_DIM_THRESHOLD`` the action interval runs on real coordinates.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or not np.allclose(
            times, np.linspace(0.0, times[-1], len(times)), rtol=0.0,
            atol=1e-12 * abs(times[-1])):
        raise ValueError("trajectory times must be an evenly spaced grid of "
                         "at least two points starting at 0")
    n = len(times)
    _guard_bytes(16 * n * gen.space.total_dim ** 2, "the trajectory rows")
    if gen.space.total_dim > DENSE_DIM_THRESHOLD:
        _check_time(gen, times[-1])
        return _expm_multiply(gen.real_matrix, vec, start=0.0, stop=float(times[-1]),
                              num=n, endpoint=True)
    # One dense exponential of the step, then matrix-vector iteration;
    # robust to stiff generators where series stepping crawls.
    step = expm_dense(gen, float(times[1]))
    out = [vec]
    for _ in range(n - 1):
        out.append(step @ out[-1])
    return np.array(out)


@dataclass(frozen=True)
class BinaryExpCache:
    """Precomputed exponentials for durations t_max / 2^j, j = 0..m-1.

    Any 0 <= t < 2 t_max is then reproduced by composing the stages selected
    by the binary expansion of t, with truncation error O(t_max / 2^m).
    """

    generator: GeneratorSpec
    t_max: float
    m: int
    stages: tuple[np.ndarray, ...]

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

    def matrix_for(self, t: float) -> np.ndarray:
        """Composed superoperator matrix for duration t (small spaces only)."""
        d2 = self.generator.space.total_dim ** 2
        out = np.eye(d2, dtype=complex)
        for j in self.select_stages(t):
            out = self.stages[j] @ out
        return out


def build_cache(gen: GeneratorSpec, t_max: float, m: int) -> BinaryExpCache:
    """Dense exponentials for the smallest stage and every 6th, each other
    stage the square of the next smaller one (squaring all the way from the
    smallest drifts to 1e-8); none in the caller's inner loop."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    stages = [None] * m
    for j in reversed(range(m)):
        stages[j] = (expm_dense(gen, t_max / 2 ** j) if j % 6 == 0 or j == m - 1
                     else stages[j + 1] @ stages[j + 1])
    return BinaryExpCache(gen, float(t_max), int(m), tuple(stages))


class PhaseKernel:
    """Elementwise exp(phi G) for the weighted photon number N = sum_m w_m n_m.

    G = -i[N, .] is diagonal in the number basis: entry (a, b) of rho is
    multiplied by exp(-i phi (N(a) - N(b))), one exponential per distinct
    difference found once at construction.  The diagonal difference is exactly
    0, so the diagonal multiplier is exactly 1.
    """

    def __init__(self, space: FockSpace, weights):
        number = sum(w * space.occupation_array(m)
                     for m, w in zip(range(space.n_modes), weights, strict=True))
        diff = number[:, None] - number[None, :]
        self._distinct, index = np.unique(diff, return_inverse=True)
        self._index = index.reshape(diff.shape)

    def apply_matrix(self, mat: np.ndarray, phi: float) -> np.ndarray:
        return mat * np.exp(-1j * phi * self._distinct)[self._index]
