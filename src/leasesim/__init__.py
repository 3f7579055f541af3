"""Cost- and delay-aware leasing of RIS and spectrum resources.

A discrete-time simulator built around a drift-plus-penalty controller:
a data queue tracks backlog, a virtual queue tracks deferral, and each
slot the policy decides whether to lease both resources at the current
prices. Baseline policies, an intent translator, an assurance monitor,
an offline oracle, and reporting harnesses round out the package.
"""
from ._version import VERSION as __version__
from .core import (
    HOLD,
    LEASE,
    ConfigError,
    ControlParams,
    LeaseDecision,
    QueueState,
    advance_data_queue,
    advance_virtual_queue,
    departure,
    lyapunov,
    slot_cost,
)
from .environment import (
    DEFAULT_SEED,
    MarketObservation,
    Realization,
    ScenarioConfig,
    draw_realization,
    expected_price,
    scenario_from_dict,
)
from .intent import (
    AssuranceReport,
    IntentSpec,
    TranslationResult,
    assure,
    derive_scenario,
    intent_from_dict,
    translate_intent,
)
from .policies import (
    PolicyInput,
    PolicySpec,
    decide,
    dsf_decide,
    dsf_decide_exact_argmin,
    dsf_objective,
    parse_policy,
    policy_label,
)
from .reporting import (
    RunSummary,
    SweepTable,
    compare,
    cumulative_average_cost_series,
    read_trace_csv,
    summarize,
    sweep,
    write_trace_csv,
)
from .simulator import (
    SlotRecord,
    Trace,
    default_params,
    offline_min_cost,
    run,
    step,
)

__all__ = [
    "__version__",
    "ConfigError",
    "QueueState",
    "LeaseDecision",
    "HOLD",
    "LEASE",
    "ControlParams",
    "advance_data_queue",
    "advance_virtual_queue",
    "departure",
    "slot_cost",
    "lyapunov",
    "DEFAULT_SEED",
    "ScenarioConfig",
    "MarketObservation",
    "Realization",
    "draw_realization",
    "expected_price",
    "scenario_from_dict",
    "PolicySpec",
    "PolicyInput",
    "decide",
    "dsf_objective",
    "dsf_decide",
    "dsf_decide_exact_argmin",
    "parse_policy",
    "policy_label",
    "SlotRecord",
    "Trace",
    "run",
    "step",
    "default_params",
    "offline_min_cost",
    "IntentSpec",
    "TranslationResult",
    "AssuranceReport",
    "translate_intent",
    "derive_scenario",
    "assure",
    "intent_from_dict",
    "RunSummary",
    "SweepTable",
    "summarize",
    "cumulative_average_cost_series",
    "sweep",
    "compare",
    "write_trace_csv",
    "read_trace_csv",
]
