"""Zeno-constrained all-optical annealing toolkit."""

from .fock import DensityState, FockSpace, PureState, make_space, vacuum
from .generators import (GeneratorSpec, combine, displacement_generator,
                         loss_dissipator, phase_generator, sfg_generator,
                         tpa_dissipator)
from .propagator import (BinaryExpCache, NonConvergenceError, PhaseKernel,
                         build_cache, expm_apply_vec, expm_dense, trajectory)
from .gadgets import (ConstraintParams, DriveParams, GAMMA_T_COHERENT,
                      GAMMA_T_INCOHERENT, beamsplitter, constraint_superop,
                      drive_generator, pump_maps, pumped_phase_gadget)
from .anneal import (AnnealReport, Schedule, anneal_density, anneal_ideal,
                     anneal_statevector, make_schedule, qubo_anneal)
from .problems import (ProblemGraph, brute_force_mis, brute_force_wmis,
                       complete_graph, five_node_example, graph_from_edges,
                       parse_edge_list, parse_qubo, three_node_line)
from .analytic import (DampingParams, effective_tpa_rate,
                       pair_coherence_closed_form, pair_coherence_ode,
                       sfg_rate_for_tpa_target)
from .timebin import (SwitchProgram, all_pairs_shuffle, compile_graph_program,
                      compile_round, render_program, verify_program)

__version__ = "0.1.0"
