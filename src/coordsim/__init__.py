"""Time coordination of multiple vehicles over switched directional
communication topologies: switching-law synthesis, decentralized
virtual-time control, point-mass path following and communication-cost
metrics."""

from .coordalg import (
    GainReport,
    ProjectionMatrix,
    SwitchingCertificate,
    build_certificate,
    build_projection,
    convergence_rate_bound,
    reduced_laplacian,
    solve_lyapunov,
    validate_gains,
)
from .coordctrl import (
    MissionRateProfile,
    Violation,
    coordination_accel_matrix,
    coordination_error,
    feasibility_check,
    path_error_feedback_all,
)
from .digraph import (
    Digraph,
    contains_spanning_tree,
    jointly_connected,
)
from .errors import ConfigError, NumericError, SynthesisError
from .simharness import (
    MetricsLog,
    ScenarioConfig,
    load_config,
    pe_connectivity,
    run_scenario,
    write_outputs,
)
from .switchlaw import schedule
from .vehicle import LaneSweepFamily, PDGains, apply_disturbance, pf_control_all

__version__ = "0.1.0"
