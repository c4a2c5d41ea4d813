"""flockpp: succinct threshold population protocols, verified exhaustively.

Construct protocols that decide "population size >= d" without ever
overclaiming (no agent accepts below the threshold), model-check them on
concrete population sizes, validate the state-count upper and lower bounds
on instances, and simulate seeded random runs.
"""

from .core import (
    DEFAULT_NODE_CAP,
    MAX_POPULATION,
    CapExceeded,
    Configuration,
    Protocol,
    ProtocolError,
    ReachGraph,
    State,
    can_reach_predicate,
    initial_configuration,
    make_protocol,
    protocol_from_json,
    protocol_to_json,
    reach,
    successors,
)
from .lowerbound import (
    OccurrenceMap,
    check_doubling_gaps,
    check_state_lower_bound,
    occurrence_thresholds,
    occurrence_upper_bounds,
)
from .protocols import (
    FAMILIES,
    InvalidThreshold,
    ThresholdParams,
    build_angluin,
    build_best,
    build_family,
    build_power_of_two,
    build_protocol_a,
    build_protocol_b,
    threshold_params,
)
from .sim import SimReport, run
from .verify import (
    TableRow,
    Verdict,
    VerificationReport,
    check_completeness,
    check_consensus,
    check_soundness,
    encounter_trace,
    state_count_table,
    table_to_csv,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_NODE_CAP",
    "MAX_POPULATION",
    "CapExceeded",
    "Configuration",
    "Protocol",
    "ProtocolError",
    "ReachGraph",
    "State",
    "can_reach_predicate",
    "initial_configuration",
    "make_protocol",
    "protocol_from_json",
    "protocol_to_json",
    "reach",
    "successors",
    "OccurrenceMap",
    "check_doubling_gaps",
    "check_state_lower_bound",
    "occurrence_thresholds",
    "occurrence_upper_bounds",
    "FAMILIES",
    "InvalidThreshold",
    "ThresholdParams",
    "build_angluin",
    "build_best",
    "build_family",
    "build_power_of_two",
    "build_protocol_a",
    "build_protocol_b",
    "threshold_params",
    "SimReport",
    "run",
    "TableRow",
    "Verdict",
    "VerificationReport",
    "check_completeness",
    "check_consensus",
    "check_soundness",
    "encounter_trace",
    "state_count_table",
    "table_to_csv",
    "verify_range",
    "__version__",
]
