"""Composite superoperators: drives, pumped phase gadgets, edge constraints.

The pair-conversion processes here follow the convention fixed by the
generators module: the SFG Hamiltonian couples |2, 0_p> to |0, 1_p> with
matrix element sqrt(2), so a single conversion half-rotation corresponds to
gamma*t = pi/(4 sqrt(2)) inside the two-pass gadget.  Pump modes are always
private to one gadget invocation: appended empty, evolved, traced out,
discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

# apply_local_superop_matrix is unused here but perfbench/tracing.py binds it.
from .fock import (FockSpace, apply_local_superop_matrix, embed_local_operator,
                   make_space)
from .generators import (GeneratorSpec, combine, displacement_generator,
                         loss_dissipator, phase_generator, sfg_generator,
                         tpa_dissipator, annihilation_operator)
from .propagator import expm_dense

# Per-half SFG angles bounding the coherence interpolation: at the lower
# endpoint the photon pair ends up in the (traced) pump, at the upper endpoint
# it returns coherently with a phase.
GAMMA_T_INCOHERENT = math.pi / (4 * math.sqrt(2))
GAMMA_T_COHERENT = math.pi / (2 * math.sqrt(2))


@dataclass(frozen=True)
class ConstraintParams:
    """Knobs of the two-pass constraint gadget.

    ``gamma_t`` is the SFG angle of each half-application, ``phi_q`` the pump
    phase injected between halves, ``eta_t`` the pump loss exposure.
    """

    phi_q: float
    gamma_t: float
    eta_t: float = 0.0

    def __post_init__(self):
        for name in ("phi_q", "gamma_t", "eta_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma_t < 0:
            raise ValueError("gamma_t must be nonnegative")
        if self.eta_t < 0:
            raise ValueError("eta_t must be nonnegative")


@dataclass(frozen=True)
class DriveParams:
    """Rates of a Zeno-blockaded drive: displacement, blockade, pump loss."""

    c: float
    gamma: float
    eta: float = 0.0

    def __post_init__(self):
        for name in ("c", "gamma", "eta"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative")


def default_pump_dim(mode_dim: int) -> int:
    """Smallest pump truncation holding every convertible photon pair."""
    return 1 + (mode_dim - 1) // 2


def unitary_conjugation_superop(u: np.ndarray) -> np.ndarray:
    """Matrix of rho -> U rho U^dag under column stacking."""
    return np.kron(np.asarray(u).conj(), np.asarray(u))


def embed_local_superop(local: np.ndarray, space: FockSpace, targets) -> np.ndarray:
    """Expand a local superoperator to the full space.

    Under column stacking vec(rho) is a state on the modes (columns...,
    rows...), so this is an operator embedding on that doubled space.
    """
    targets = [int(t) for t in targets]
    n = space.n_modes
    return embed_local_operator(local, make_space(space.mode_dims * 2),
                                targets + [n + t for t in targets])


def pump_maps(d: int, pump_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(append, trace): vec(rho) -> vec(rho (x) |0><0|) and the pump trace back.

    With A = I_d (x) e_0 and B_k = I_d (x) e_k^T, appending is A rho A^T and
    the trace is sum_k B_k sigma B_k^T; vec(X rho X^T) = kron(X, X) vec(rho)
    for a real X.
    """
    pump_rows = np.eye(pump_dim)
    blocks = [np.kron(np.eye(d), pump_rows[k]) for k in range(pump_dim)]
    return np.kron(blocks[0].T, blocks[0].T), sum(np.kron(b, b) for b in blocks)


def drive_generator(kind: str, space: FockSpace, mode: int, c: float = 0.0,
                    gamma: float = 1.0, eta: float = 0.0) -> tuple[GeneratorSpec, FockSpace]:
    """c G_disp + gamma G_blockade on ``mode``; returns the generator and its space.

    "tpa" blockades by two-photon absorption and has no pump, so eta must be
    0.  "sfg" converts pairs into a pump appended as the last mode, sized by
    :func:`default_pump_dim` to hold every convertible pair, that loses
    photons at rate ``eta``.  Both rates must be finite and nonnegative.
    """
    if not (0 <= gamma < math.inf and 0 <= eta < math.inf):  # NaN fails too
        raise ValueError(f"drive rates must be finite and nonnegative, "
                         f"got gamma={gamma}, eta={eta}")
    if kind == "tpa":
        if eta != 0.0:
            raise ValueError("a TPA drive has no pump to lose photons from; eta must be 0")
        return combine([(displacement_generator(space, mode), c),
                        (tpa_dissipator(space, mode), gamma)]), space
    if kind != "sfg":
        raise ValueError("drive kind must be 'tpa' or 'sfg'")
    joint = make_space(list(space.mode_dims) + [default_pump_dim(space.mode_dims[mode])])
    pump = joint.n_modes - 1
    parts = [(displacement_generator(joint, mode), c),
             (sfg_generator(joint, mode, pump), gamma)]
    if eta != 0.0:
        parts.append((loss_dissipator(joint, pump), eta))
    return combine(parts), joint


def beamsplitter(space: FockSpace, j: int, k: int) -> np.ndarray:
    """50:50 beamsplitter unitary with convention a_j -> (a_j + i a_k)/sqrt(2).

    Built as the exponential of the truncated coupler Hamiltonian, so it is
    exactly unitary on the truncated space and reproduces photon bunching on
    the two-photon block.
    """
    if j == k:
        raise ValueError("beamsplitter needs two distinct modes")
    if space.mode_dims[j] != space.mode_dims[k]:
        raise ValueError("beamsplitter modes must share a dimension")
    aj = annihilation_operator(space.mode_dims, j).toarray()
    ak = annihilation_operator(space.mode_dims, k).toarray()
    coupler = aj.conj().T @ ak + ak.conj().T @ aj
    return scipy.linalg.expm(1j * (math.pi / 4) * coupler)


@lru_cache(maxsize=None)
def _gadget_parts(space: FockSpace, mode: int):
    """Params-free parts of :func:`pumped_phase_gadget`, shared and read-only:
    (unit SFG generator, unit pump loss, pump phase diagonal, append, trace)."""
    gen_sfg, joint_space = drive_generator("sfg", space, mode)
    pump = joint_space.n_modes - 1
    loss = loss_dissipator(joint_space, pump)
    arrays = (phase_generator(joint_space, pump).matrix.diagonal(),
              *pump_maps(space.total_dim, joint_space.mode_dims[pump]))
    for arr in (gen_sfg.matrix.data, loss.matrix.data, *arrays):
        arr.flags.writeable = False
    return (gen_sfg, loss, *arrays)


def pumped_phase_gadget(space: FockSpace, mode: int, params: ConstraintParams) -> np.ndarray:
    """Two SFG half-passes with pump phase/loss in between, pump traced at the end.

    At gamma_t = pi/(4 sqrt 2) the photon pair is dumped into the pump
    (incoherent removal); at pi/(2 sqrt 2) it returns with amplitude
    -exp(i phi_q) (coherent phase kick of pi + phi_q).
    """
    gen_sfg, loss, phase, append, trace = _gadget_parts(space, mode)
    half = expm_dense(gen_sfg, params.gamma_t)
    # The phase superoperator is diagonal and pump loss is phase covariant, so
    # the two commute and the phase is exponentiated entrywise.  Left inside
    # one expm, a tiny phi_q makes the triangular generator's diagonal nearly
    # degenerate and scipy's triangular shortcut overflows.
    mid = np.diag(np.exp(-params.phi_q * phase))
    if params.eta_t != 0.0:
        mid = mid @ expm_dense(loss, params.eta_t)
    return trace @ (half @ mid @ half) @ append


def constraint_superop(space: FockSpace, j: int, k: int,
                       params: ConstraintParams) -> np.ndarray:
    """Edge constraint: beamsplitter-conjugated pumped phase gadgets on both modes.

    Leaves all zero/one-photon patterns except |1_j 1_k> alone; what happens
    to |1_j 1_k> ranges from incoherent removal to a pure phase kick of
    pi + phi_q depending on ``params``.  The beamsplitter needs both modes to
    share a dimension, so one local gadget serves both.
    """
    if j == k:
        raise ValueError("constraint needs two distinct modes")
    s_bs = unitary_conjugation_superop(beamsplitter(space, j, k))
    local = pumped_phase_gadget(make_space([space.mode_dims[j]]), 0, params)
    nl_j, nl_k = (embed_local_superop(local, space, [m]) for m in (j, k))
    return s_bs.conj().T @ nl_j @ nl_k @ s_bs
