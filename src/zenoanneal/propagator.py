"""Exponentiation and fast application of generators.

Entry points:

* :func:`expm_dense` materializes exp(t G) as a dense superoperator, up to
  Hilbert dimension ``DENSE_DIM_THRESHOLD``,
* :func:`expm_apply_vec` computes the action on one vectorized state
  without ever forming the dense matrix: Krylov (Arnoldi) steps with the a
  posteriori step control of Expokit's dgexpv (Saad, SIAM J. Numer. Anal. 29,
  1992; Sidje, ACM TOMS 24, 1998), from exact norms and no random estimator,
* :func:`trajectory` returns the states on an evenly spaced time grid from 0:
  one dense step raised to successive powers up to ``DENSE_DIM_THRESHOLD``,
  above it scipy's ``expm_multiply`` interval form (Al-Mohy & Higham, SIAM J.
  Sci. Comput. 33, 2011), which reaches every grid point from one set of
  Taylor steps; Krylov steps taken grid interval by grid interval were 3-9x
  slower on the SFG ratios of the default zeno-onset,
* :class:`BinaryExpCache` (:func:`build_cache`) precomputes exponentials for
  halved durations; :meth:`BinaryExpCache.matrix_for` composes them into the
  map for any per-cycle time, so a sweep never exponentiates inside its
  inner loop.

The action paths run on real coordinates: G keeps matrices Hermitian, so in
the orthonormal Hermitian basis U it is the real ``GeneratorSpec.real_matrix``
U^dag G U, a Hermitian state has real coordinates U^dag vec(rho), and every
matvec and norm is real, which is cheaper than complex.

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

# Krylov basis size and tolerance, relative to |vec|, of the point action.
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-13

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


def _on_real_coords(vec: np.ndarray, action) -> np.ndarray:
    """``action`` on the real coordinates U^dag vec in the Hermitian basis U
    (one column, and a second only for an anti-Hermitian part), mapped back by
    U a vector or row at a time, so no complex copy of its output is made
    besides the result."""
    basis = hermitian_basis(math.isqrt(vec.shape[-1]))
    coords = basis.conj().T @ vec
    two = bool(np.any(coords.imag))
    out = action(np.stack([coords.real, coords.imag], -1) if two else coords.real)
    if not np.all(np.isfinite(out)):
        raise NonConvergenceError("the action produced non-finite values")
    lead = out.shape[:out.ndim - 1 - two]
    rows = np.empty(lead + vec.shape[-1:], dtype=complex)
    for i in np.ndindex(lead):
        rows[i] = basis @ (out[i] @ [1.0, 1j] if two else out[i])
    return rows


def _expm_multiply(real_matrix, vec: np.ndarray, **interval) -> np.ndarray:
    """scipy's expm_multiply interval form (``trajectory``'s action branch) of
    a ``GeneratorSpec.real_matrix`` on the real coordinates of ``vec``."""
    # expm_multiply picks its degree and step count from onenormest, which
    # draws from NumPy's global RNG; a fixed state makes the result repeat
    # from run to run, and the caller's state is put back afterwards.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        return _on_real_coords(vec, lambda cols: scipy.sparse.linalg.expm_multiply(
            real_matrix, cols, **interval))
    finally:
        np.random.set_state(rng_state)


def _round_step(t: float) -> float:
    """Expokit's rounding of a step to two significant digits."""
    unit = 10.0 ** (round(math.log10(t) - math.sqrt(0.1)) - 1)
    return math.floor(t / unit + 0.55) * unit


def _krylov_expv(a, v: np.ndarray) -> np.ndarray:
    """exp(a) v for a real sparse a and a real vector v: Arnoldi with the step
    control of Expokit's dgexpv over unit time.

    Each step builds an orthonormal Krylov basis of at most ``KRYLOV_DIM``
    vectors (block classical Gram-Schmidt, run twice) and exponentiates the
    augmented Hessenberg matrix; the phi_1 / phi_2 terms in its last two
    rows estimate the local error, a step over ``KRYLOV_TOL`` |v| per unit
    time is shrunk and retried, and the next one grows by the same rule.  A
    residual within round-off of |a|_1, or a basis spanning the space, makes
    the projection exact (happy breakdown): one step covers the rest of the
    time.  Exact norms throughout.
    """
    n = v.shape[0]
    m = min(KRYLOV_DIM, n)
    anorm = abs(a).sum(0).max()
    w = np.array(v, dtype=float)
    beta = np.linalg.norm(w)
    if not np.isfinite([anorm, beta]).all():
        raise NonConvergenceError("the action's matrix or vector is not finite")
    if beta == 0.0 or anorm == 0.0:
        return w
    tol, rndoff = KRYLOV_TOL * beta, anorm * np.finfo(float).eps
    t_new = _round_step((tol * ((m + 1) / 2.72) ** (m + 1) * math.sqrt(2 * math.pi * (m + 1))
                         / (4.0 * beta * anorm)) ** (1.0 / m) / anorm)
    basis = np.empty((m + 1, n))
    t_now = 0.0
    while t_now < 1.0:
        h = np.zeros((m + 2, m + 2))
        basis[0] = w / beta
        for j in range(m):
            p = a @ basis[j]
            for _ in range(2):
                coef = basis[:j + 1] @ p
                p -= coef @ basis[:j + 1]
                h[:j + 1, j] += coef
            s = math.sqrt(p @ p)
            if s <= rndoff or j + 1 == n:  # happy breakdown: the rest in one step
                f = scipy.linalg.expm((1.0 - t_now) * h[:j + 1, :j + 1])[:, 0]
                return beta * (f @ basis[:j + 1])
            h[j + 1, j] = s
            np.divide(p, s, out=basis[j + 1])
        avnorm = np.linalg.norm(a @ basis[m])
        h[m + 1, m] = 1.0
        t_step = min(1.0 - t_now, t_new)
        while True:
            f = scipy.linalg.expm(t_step * h)[:, 0]
            p1, p2 = abs(f[m]) * beta, abs(f[m + 1]) * beta * avnorm
            err, xm = ((p2, 1.0 / m) if p1 > 10.0 * p2 else
                       (p1 * p2 / (p1 - p2), 1.0 / m) if p1 > p2 else (p1, 1.0 / (m - 1)))
            if not math.isfinite(err):
                raise NonConvergenceError("a Krylov step produced non-finite values")
            # err is 0 only when exp(t_step h) underflows; keep the ratio finite
            t_new = _round_step(0.9 * t_step * (t_step * tol / max(err, 1e-300)) ** xm)
            if err <= 1.2 * t_step * tol:
                break
            t_step = t_new
        w = beta * (f[:m + 1] @ basis)
        beta = np.linalg.norm(w)
        t_now += t_step
    return w


def expm_apply_vec(gen: GeneratorSpec, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(t G) vec without forming the dense matrix, by :func:`_krylov_expv`
    on the real coordinates of the module docstring, one column at a time;
    ValueError if G does not keep matrices Hermitian."""
    _check_time(gen, t)
    a = gen.real_matrix * t
    return _on_real_coords(vec, lambda cols: np.apply_along_axis(
        lambda col: _krylov_expv(a, col), 0, cols))


def trajectory(gen: GeneratorSpec, times, vec: np.ndarray) -> np.ndarray:
    """Rows vec(rho(t)) for each t in ``times``, starting from vec(rho(0)) = vec.

    ``times`` must be evenly spaced from 0 with at least two points.  Above
    ``DENSE_DIM_THRESHOLD`` the expm_multiply interval runs on real
    coordinates.  Each branch checks the bytes it peaks at against
    ``RUN_BYTES_MAX`` before it allocates.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or not np.allclose(
            times, np.linspace(0.0, times[-1], len(times)), rtol=0.0,
            atol=1e-12 * abs(times[-1])):
        raise ValueError("trajectory times must be an evenly spaced grid of "
                         "at least two points starting at 0")
    n, d2 = len(times), gen.space.total_dim ** 2
    if gen.space.total_dim > DENSE_DIM_THRESHOLD:
        # expm_multiply's real rows (one or two columns), the complex rows, and
        # eight complex vectors for the coordinates and the row-by-row fill
        basis = hermitian_basis(gen.space.total_dim)
        columns = 1 + bool(np.any((basis.conj().T @ vec).imag))
        _guard_bytes(((16 + 8 * columns) * n + 128) * d2, "the trajectory rows")
        _check_time(gen, times[-1])
        return _expm_multiply(gen.real_matrix, vec, start=0.0, stop=float(times[-1]),
                              num=n, endpoint=True)
    # the complex rows, and ten (D^2, D^2) complex matrices: scipy's expm holds
    # up to nine at once (tracemalloc), and the step outlives it
    _guard_bytes(16 * (n + 10 * d2) * d2, "the trajectory rows")
    # One dense exponential of the step, then matrix-vector iteration;
    # robust to stiff generators where series stepping crawls.
    step = expm_dense(gen, float(times[1]))
    rows = np.empty((n, d2), dtype=complex)
    rows[0] = vec
    for i in range(1, n):
        np.matmul(step, rows[i - 1], out=rows[i])
    return rows


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
