"""Gossip topologies with size-independent consensus rates, plus the
decentralized optimization algorithms that run over them."""

from .consensus import (ConsensusTrace, SizeSweep, consensus_experiment, fit_decay_slope,
                        gossip_run, size_independence_experiment)
from .errors import ConstructionError, NonFiniteError, ParameterError
from .optim import (OptState, OptTrace, StepSchedule, dsgd_step, dsgt_step, init_state,
                    make_least_squares, make_logistic_ncvx, run)
from .seeds import derive_seed, make_rng
from .spectral import (ConsensusEstimate, MatrixReport, consensus_factor,
                       empirical_contraction, validate_matrix)
from .topology import (BasisIndex, DynSampler, GossipMatrix, OdEquiDynSampler,
                       OnePeerExpSampler, OuEquiDynSampler, TopologySpec, basis_matrix,
                       build_baseline, build_d_equistatic, build_topology,
                       build_u_equistatic, complete_basis, default_basis_count,
                       matrix_csv_text, mod_n, ou_equidyn_euclid, ou_equidyn_node_view,
                       ou_scan_matrix)

__all__ = [
    "BasisIndex", "ConsensusEstimate", "ConsensusTrace", "ConstructionError",
    "DynSampler", "GossipMatrix", "MatrixReport", "NonFiniteError", "OdEquiDynSampler",
    "OnePeerExpSampler", "OptState", "OptTrace", "OuEquiDynSampler", "ParameterError",
    "SizeSweep", "StepSchedule", "TopologySpec", "basis_matrix", "build_baseline",
    "build_d_equistatic", "build_topology", "build_u_equistatic", "complete_basis",
    "consensus_experiment", "consensus_factor", "default_basis_count", "derive_seed",
    "dsgd_step", "dsgt_step", "empirical_contraction", "fit_decay_slope", "gossip_run",
    "init_state", "make_least_squares", "make_logistic_ncvx", "make_rng",
    "matrix_csv_text", "mod_n", "ou_equidyn_euclid", "ou_equidyn_node_view",
    "ou_scan_matrix", "run", "size_independence_experiment", "validate_matrix",
]

__version__ = "0.1.0"
