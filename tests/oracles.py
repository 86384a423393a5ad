"""Reference helpers that only tests use: basis states, populations, a
superoperator matrix applied to a density state, the partial trace, and the
dense map of a drive with its pump traced out."""

import math

import numpy as np

from zenoanneal.fock import DensityState, PureState, make_space
from zenoanneal.gadgets import drive_generator, pump_maps
from zenoanneal.propagator import expm_dense


def number_state(space, occupations) -> PureState:
    """Basis state with the given photon numbers."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index(occupations)] = 1.0
    return PureState(space, amps)


def population(state, occupations) -> float:
    """Probability of one occupation pattern in a pure or density state."""
    idx = state.space.index(occupations)
    if isinstance(state, PureState):
        return float(np.abs(state.amplitudes[idx]) ** 2)
    return float(state.matrix[idx, idx].real)


def apply_superop(mat: np.ndarray, state: DensityState) -> DensityState:
    """vec(rho') = mat @ vec(rho) under column stacking."""
    d = state.space.total_dim
    out = mat @ state.matrix.flatten(order="F")
    return DensityState(state.space, out.reshape((d, d), order="F"))


def partial_trace(state: DensityState, keep) -> DensityState:
    """Trace out every mode not listed in ``keep``."""
    dims = state.space.mode_dims
    keep = sorted(set(int(k) for k in keep))
    tensor = state.matrix.reshape(dims + dims)
    # Highest axes first, so the lower axis numbers stay valid.
    for m in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + tensor.ndim // 2)
    d_keep = math.prod(dims[k] for k in keep)
    return DensityState(make_space([dims[k] for k in keep]), tensor.reshape(d_keep, d_keep))


def drive_superop(kind, space, mode, t, c=0.0, gamma=1.0, eta=0.0) -> np.ndarray:
    """exp(t G) of the ``drive_generator`` drive on ``mode``; an SFG pump is
    appended empty and traced out afterwards.  With c = 0 and the default
    rates this is the bare blockade at exposure gamma t = t."""
    gen, joint = drive_generator(kind, space, mode, c, gamma, eta)
    mat = expm_dense(gen, t)
    if joint != space:
        append, trace = pump_maps(space.total_dim, joint.mode_dims[-1])
        mat = trace @ mat @ append
    return mat
