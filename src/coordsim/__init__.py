"""Time coordination of multiple vehicles over switched directional
communication topologies: switching-law synthesis, decentralized
virtual-time control, point-mass path following and communication-cost
metrics."""

from .coordalg import (
    GainReport,
    ProjectionMatrix,
    SpectrumReductionReport,
    SwitchingCertificate,
    build_certificate,
    build_projection,
    check_spectrum_reduction,
    convergence_rate_bound,
    dwell_time_bound,
    reduced_laplacian,
    solve_lyapunov,
    validate_gains,
)
from .coordctrl import (
    MissionRateProfile,
    Violation,
    constant_profile,
    coordination_accel_matrix,
    coordination_error,
    feasibility_check,
    path_error_feedback_all,
    smoothstep_profile,
)
from .digraph import (
    Digraph,
    adjacency,
    contains_spanning_tree,
    jointly_connected,
    laplacian,
    union_digraphs,
)
from .errors import ConfigError, NumericError, SynthesisError
from .simharness import (
    MetricsLog,
    ScenarioConfig,
    communication_amount,
    default_bidirectional_config,
    default_directed_config,
    load_config,
    pe_connectivity,
    random_bidirectional_schedule,
    run_scenario,
    write_outputs,
)
from .switchlaw import SwitchingState, advance, init_switching
from .vehicle import LaneSweepFamily, apply_disturbance, pf_control_all

__version__ = "0.1.0"
