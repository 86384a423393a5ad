"""Exponentiation of generators.

* :func:`trajectory` returns the states on an evenly spaced time grid from 0;
  :func:`expm_apply_vec` returns the last row of its grid [0, t],
* :func:`_block_steps` is the one exponential rule on a reachable block, a
  dense step or Krylov, taken by trajectories and by the drive points of
  :mod:`zenoanneal.experiments` on their cached blocks,
* :func:`expm_dense` materializes exp(t G) as a dense superoperator,
* :class:`BinaryExpCache` (:func:`build_cache`) precomputes exponentials for
  halved durations and composes them into the map for any per-cycle time, so
  a sweep never exponentiates inside its inner loop.

A trajectory takes one of three branches.  With every jump rate 0 it is
unitary: rho(t) = U rho U^dag, U(t) = V exp(-i lambda t) V^dag from one
eigendecomposition of the D x D Hamiltonian, on any vec.  Otherwise it runs on
the real coordinates U^dag vec(rho) in the orthonormal Hermitian basis U, where
G is the real ``GeneratorSpec.real_matrix`` a = U^dag G U, and only on the
block R of them reachable from the state's support along the nonzeros of a: a
is closed on R, so the rest stays exactly 0, with no symmetry assumed in code.
From the vacuum R is the D(D+1)/2 coordinates of one photon-parity pattern,
171 of 324 at D = 18, as the drive Hamiltonians are real and odd under parity
and the jumps real and covariant (the weak-symmetry block reduction of Buca &
Prosen, New J. Phys. 14, 2012).  In :func:`_block_steps`, a block of up to
``DENSE_BLOCK_MAX`` coordinates takes one real dense exponential of the grid
step (scaling and squaring, Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
2009), whose cost does not grow with |tG|; a larger one takes Krylov (Arnoldi)
steps over one grid interval at a time, with the step control of Expokit's
dgexpv (Saad, SIAM J. Numer. Anal. 29, 1992; Sidje, ACM TOMS 24, 1998) and
exact norms.

These replaced scipy's interval form of the action (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 2011) above the cap.  On 201-point trajectories over 2 pi
from the vacuum (a 2-vCPU Xeon VM, OpenBLAS on one thread, best of three), the
jump-free SFG ratios 0, 1 and 10 at D = 66 took 0.027, 0.025 and 0.025 s
against 0.009, 0.096 and 0.27 s, and TPA at d = 40 (a block of 820) ratios 2,
10 and 150 took 0.47, 0.64 and 2.8 s against 1.5, 7.1 and 101 s.

:class:`PhaseKernel` applies a weighted photon-number rotation, diagonal in
the number basis, as one lookup-table multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order

from .fock import FockSpace
from .generators import GeneratorSpec, hermitian_basis

# Largest block, in real coordinates, that takes a dense exponential of the
# grid step; larger blocks take Krylov steps, one grid interval at a time.
DENSE_BLOCK_MAX = 600

# Rows mapped back from real coordinates per sparse product.
MAP_ROWS = 64

# Krylov basis size and tolerance, relative to |vec|, of one Krylov-stepped interval.
KRYLOV_DIM = 30
KRYLOV_TOL = 1e-13

# Largest bytes a run's largest arrays may take, checked before they are built.
RUN_BYTES_MAX = 1 << 31


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
    # ten (D^2, D^2) complex matrices: scipy's expm holds up to nine at once
    _guard_bytes(160 * d ** 4, "the dense exponential")
    mat = scipy.linalg.expm((t * gen.matrix).toarray())
    if not np.all(np.isfinite(mat)):
        raise NonConvergenceError("matrix exponential produced non-finite entries")
    return mat


def _block(a, cols: np.ndarray) -> np.ndarray:
    """Sorted real coordinates reachable from the support of ``cols`` along the
    nonzeros of ``a`` (edge j -> i where a[i, j] != 0): a is closed on them, so
    exp(a) v is exp(a[R, R]) v[R] on the block R and exactly 0 off it."""
    start = np.flatnonzero(cols.reshape(len(cols), -1).any(1))
    # a.T with one extra node n whose edges lead to every start: one search
    csc, n = a.tocsc(), a.shape[0]
    indices = np.concatenate([csc.indices, start])
    graph = scipy.sparse.csr_array((np.ones(indices.size), indices,
                                    np.append(csc.indptr, indices.size)), shape=(n + 1, n + 1))
    return np.sort(breadth_first_order(graph, n, return_predecessors=False)[1:])


def _on_block(a, vec: np.ndarray, step: float, n: int) -> np.ndarray:
    """Rows vec(rho) of the grid 0, step, ..., (n - 1) step by :func:`_block_steps`
    on a[R, R] from cols[R]: cols = U^dag vec in the Hermitian basis U (a second
    column only for an anti-Hermitian part), R their :func:`_block`.  Row 0 is
    vec; the rest is mapped back by U ``MAP_ROWS`` rows at a time, so no complex
    copy of the whole output is made."""
    basis = hermitian_basis(math.isqrt(vec.size))
    coords = basis.conj().T @ vec
    two = bool(np.any(coords.imag))
    cols = np.stack([coords.real, coords.imag], -1) if two else coords.real
    block = _block(a, cols)
    a, cols, basis = a[block][:, block], cols[block], basis[:, block]
    # the complex rows, three complex copies of the rows mapped back at once
    # and eight complex vectors
    out = _block_steps(a, cols, step, n, 16 * (n + 3 * min(n, MAP_ROWS) + 8) * vec.size)
    rows = np.empty((len(out), vec.size), dtype=complex)
    rows[0] = vec  # exact, not U U^dag vec
    for i in range(1, len(out), MAP_ROWS):
        part = out[i:i + MAP_ROWS]
        rows[i:i + MAP_ROWS] = (basis @ (part @ [1.0, 1j] if two else part).T).T
    return rows


def _block_steps(a, cols: np.ndarray, step: float, n: int, rows_bytes: int = 0) -> np.ndarray:
    """The (n, R[, 2]) real coordinates exp(k step a) cols, k < n, on a block of
    R coordinates closed under the real sparse ``a``: one real dense exponential
    of the step for R up to ``DENSE_BLOCK_MAX`` (read at each call), else Krylov
    steps over one interval at a time.  The bytes it peaks at, plus the caller's
    ``rows_bytes``, are checked against ``RUN_BYTES_MAX`` before it allocates;
    NonConvergenceError for a non-finite a, cols or result."""
    if not (np.isfinite(a.data).all() and np.isfinite(cols).all()):
        raise NonConvergenceError("the action's matrix or vector is not finite")
    dense = len(cols) <= DENSE_BLOCK_MAX
    # the real block rows, eight copies of the block matrix (12 bytes a
    # nonzero), and for the dense step ten (R, R) real matrices (scipy's expm
    # holds up to nine at once), for Krylov steps the basis and ten augmented
    # Hessenberg matrices
    work = (80 * len(cols) ** 2 if dense else
            8 * (KRYLOV_DIM + 1) * len(cols) + 80 * (KRYLOV_DIM + 2) ** 2)
    _guard_bytes(rows_bytes + 8 * n * cols.size + 96 * a.nnz + work, "the trajectory rows")
    out = np.empty((n,) + cols.shape)
    out[0] = cols
    if dense:
        step_map = scipy.linalg.expm(step * a.toarray())
        for i in range(1, n):
            np.matmul(step_map, out[i - 1], out=out[i])
    else:
        a = a * step
        for i in range(1, n):
            out[i] = np.apply_along_axis(lambda col: _krylov_expv(a, col), 0, out[i - 1])
    if not np.all(np.isfinite(out)):
        raise NonConvergenceError("the action produced non-finite values")
    return out


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


def _unitary_rows(h, times: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Rows vec(U rho U^dag) by the unitary branch, one grid point at a time;
    ValueError if ``h`` is not Hermitian (eigh reads one triangle)."""
    d = h.shape[0]
    # the rows, H, V, the state in V and five (D, D) temporaries of one point
    _guard_bytes(16 * (len(times) + 12) * vec.size, "the trajectory rows")
    h = h.toarray()
    if not (np.isfinite(h).all() and np.isfinite(vec).all()):
        raise NonConvergenceError("the action's matrix or vector is not finite")
    if not abs(h - h.conj().T).max() <= 1e-12 * abs(h).max():  # NaN fails too
        raise ValueError("generator does not keep Hermitian matrices Hermitian")
    lam, v = np.linalg.eigh(h)
    rho = v.conj().T @ vec.reshape((d, d), order="F") @ v
    rows = np.empty((len(times), vec.size), dtype=complex)
    rows[0] = vec
    for i in range(1, len(times)):
        u = v * np.exp(-1j * times[i] * lam)
        rows[i] = (u @ rho @ u.conj().T).ravel(order="F")
    return rows


def trajectory(gen: GeneratorSpec, times, vec: np.ndarray) -> np.ndarray:
    """Rows vec(rho(t)) for each t in ``times``, an evenly spaced grid of at
    least two points from 0, by the module docstring's branches; row 0 is vec.
    Each branch checks the bytes it peaks at against ``RUN_BYTES_MAX`` before
    it allocates; ValueError if G does not keep matrices Hermitian.
    """
    times = np.asarray(times, dtype=float)
    if times.size:  # before the grid check, which a non-finite end makes warn
        _check_time(gen, times.flat[-1])
    if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or not np.allclose(
            times, np.linspace(0.0, times[-1], len(times)), rtol=0.0,
            atol=1e-12 * abs(times[-1])):
        raise ValueError("trajectory times must be an evenly spaced grid of "
                         "at least two points starting at 0")
    if all(rate == 0.0 for rate, _ in gen.jumps):
        return _unitary_rows(gen.hamiltonian, times, vec)
    return _on_block(gen.real_matrix, vec, float(times[1]), len(times))


def expm_apply_vec(gen: GeneratorSpec, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(t G) vec: the last row of :func:`trajectory` on the grid [0, t]."""
    return trajectory(gen, (0.0, t), vec)[1]


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
        if not 0 <= t < 2 * self.t_max:  # NaN fails too
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
