"""Closed forms and a direct ODE integrator for the pump-coupled coherence.

With the displacement turned off, the coherence between the one- and
two-photon states under lossy SFG obeys a damped-oscillator pair

    d rho_12 / dt = i sqrt(2) gamma rho_1p
    d rho_1p / dt = i sqrt(2) gamma rho_12 - (eta / 2) rho_1p

with the pump initially empty (rho_1p(0) = 0).  This module integrates that
linear system with a fixed-step RK4 scheme, each step one 2 x 2 matrix, and
also evaluates the closed-form solutions per damping regime.  The integrator
is the authoritative oracle for cross-checking the full superoperator
propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Refinement target: halving the step must change the result less than this.
ODE_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class DampingParams:
    """SFG rate and pump loss rate; the regime boundary sits at eta = 4 sqrt(2) gamma."""

    gamma: float
    eta: float

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf and 0 <= self.eta < math.inf):  # NaN fails too
            raise ValueError(f"rates must be finite and nonnegative, "
                             f"got gamma={self.gamma}, eta={self.eta}")

    @property
    def discriminant(self) -> float:
        return self.eta ** 2 - 32.0 * self.gamma ** 2

    @property
    def regime(self) -> str:
        disc = self.discriminant
        scale = max(self.eta ** 2, 32.0 * self.gamma ** 2, 1e-300)
        if abs(disc) <= 1e-12 * scale:
            return "critical"
        return "underdamped" if disc < 0 else "overdamped"


def _rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of the linear system y' = A y as a matrix, y <- P y:
    the RK4 stability polynomial P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24."""
    ha = h * a
    ha2 = ha @ ha
    return np.eye(len(a)) + ha + ha2 / 2 + ha2 @ ha / 6 + ha2 @ ha2 / 24


def _rk4(params: DampingParams, y0: np.ndarray, t_grid: np.ndarray,
         substeps: int) -> np.ndarray:
    coupling = 1j * math.sqrt(2) * params.gamma
    a = np.array([[0.0, coupling], [coupling, -0.5 * params.eta]])
    out = np.empty((len(t_grid), 2), dtype=complex)
    u, v = map(complex, y0)
    t_prev = 0.0
    for i, t in enumerate(t_grid):
        span = t - t_prev
        if span < 0:
            raise ValueError("t_grid must be nondecreasing")
        if span > 0:
            (p00, p01), (p10, p11) = _rk4_step_matrix(a, span / substeps).tolist()
            # y <- P y on Python complex scalars: 2x faster than a 2x2 NumPy matvec
            for _ in range(substeps):
                u, v = p00 * u + p01 * v, p10 * u + p11 * v
        out[i] = u, v
        t_prev = t
    return out


def pair_coherence_ode(params: DampingParams, rho12_0: complex,
                       t_grid) -> np.ndarray:
    """rho_12 trajectory on ``t_grid`` by RK4, step-refined below 1e-10."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    y0 = np.array([rho12_0, 0.0], dtype=complex)
    # Resolve both the oscillation and the damping timescale.
    rate = math.sqrt(2.0) * params.gamma + params.eta
    span = max(float(t_grid[-1]), 1e-30)
    substeps = max(8, int(math.ceil(2.0 * rate * span / max(len(t_grid), 1))))
    prev = _rk4(params, y0, t_grid, substeps)[:, 0]
    for _ in range(12):
        substeps *= 2
        cur = _rk4(params, y0, t_grid, substeps)[:, 0]
        if np.max(np.abs(cur - prev)) < ODE_REFINE_TOL:
            return cur
        prev = cur
    return prev


def pair_coherence_closed_form(params: DampingParams, rho12_0: complex, t):
    """Closed-form rho_12(t) consistent with the ODE in every regime.

    Derived from the characteristic roots with rho_12'(0) = 0; continuous
    across the critical boundary.  The dimensionally slipped coefficient
    variants live in :func:`pair_coherence_closed_form_uncorrected`.
    """
    t = np.asarray(t, dtype=float)
    eta, gamma = params.eta, params.gamma
    decay = np.exp(-eta * t / 4.0)
    regime = params.regime
    if regime == "critical":
        body = 1.0 + eta * t / 4.0
    elif regime == "underdamped":
        omega = math.sqrt(2.0 * gamma ** 2 - eta ** 2 / 16.0)
        body = np.cos(omega * t) + (eta / (4.0 * omega)) * np.sin(omega * t)
    else:
        s = math.sqrt(eta ** 2 / 16.0 - 2.0 * gamma ** 2)
        body = np.cosh(s * t) + (eta / (4.0 * s)) * np.sinh(s * t)
    return rho12_0 * body * decay


def pair_coherence_closed_form_uncorrected(params: DampingParams, rho12_0: complex, t):
    """Variant closed forms carrying two dimensional slips.

    The underdamped sine coefficient lacks its 1/omega frequency factor and
    the overdamped prefactors mix a bare rate into a dimensionless weight, so
    both branches disagree with the ODE away from eta = 0.  Kept verbatim so
    the test suite can measure and flag the discrepancy instead of silently
    correcting it.
    """
    t = np.asarray(t, dtype=float)
    eta, gamma = params.eta, params.gamma
    regime = params.regime
    if regime == "critical":
        return rho12_0 * (1.0 + eta * t / 4.0) * np.exp(-eta * t / 4.0)
    if regime == "underdamped":
        omega = math.sqrt(2.0 * gamma ** 2 - eta ** 2 / 16.0)
        return rho12_0 * (np.cos(omega * t) + (eta / 4.0) * np.sin(omega * t)) \
            * np.exp(-eta * t / 4.0)
    s = math.sqrt(eta ** 2 / 16.0 - 2.0 * gamma ** 2)
    slow = np.exp(-(eta / 4.0 - s) * t)
    fast = np.exp(-(eta / 4.0 + s) * t)
    return rho12_0 * ((4.0 + eta) / 8.0 * slow + (4.0 - eta) / 8.0 * fast)


def effective_tpa_rate(gamma: float, eta: float) -> float:
    """Decay rate of the slow overdamped branch: eta/4 - sqrt(eta^2/16 - 2 gamma^2)."""
    if gamma < 0 or eta < 0:
        raise ValueError("rates must be nonnegative")
    disc = eta ** 2 / 16.0 - 2.0 * gamma ** 2
    if disc < 0:
        # tolerate rounding exactly at the critical point
        if disc > -1e-12 * max(eta ** 2 / 16.0, 1e-300):
            disc = 0.0
        else:
            raise ValueError("effective rate is defined at or beyond critical "
                             f"damping (eta >= 4 sqrt(2) gamma); got "
                             f"gamma={gamma}, eta={eta}")
    return eta / 4.0 - math.sqrt(disc)


def sfg_rate_for_tpa_target(gamma_tpa: float, eta: float) -> float:
    """Exact inversion of :func:`effective_tpa_rate` for gamma at fixed eta.

    Solves the quadratic exactly rather than the large-eta Taylor shortcut;
    a target above eta/4 is unreachable (that is the critical-point rate).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if gamma_tpa < 0:
        raise ValueError("gamma_tpa must be nonnegative")
    if gamma_tpa > eta / 4.0:
        raise ValueError(f"target rate {gamma_tpa} unreachable: max is eta/4 = {eta / 4.0}")
    return math.sqrt(gamma_tpa * (eta / 2.0 - gamma_tpa) / 2.0)
