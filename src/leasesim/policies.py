"""Leasing policies: the drift-plus-penalty threshold rule, its exact
per-slot minimizer, and five baselines, all answering the same question
each slot: lease both resources now, or hold.

Policies return the decision they *want*; availability masking is the
simulator's job. Every policy is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import HOLD, LEASE, ConfigError, ControlParams, LeaseDecision, QueueState, check_int, check_positive
from .environment import MARKET_FIELDS, check_value

__all__ = [
    "POLICY_KINDS",
    "PolicyInput",
    "PolicySpec",
    "dsf_objective",
    "dsf_decide",
    "dsf_decide_exact_argmin",
    "decide",
    "parse_policy",
    "policy_label",
]

# kinds and the parameter each one requires (None = parameter-free)
POLICY_KINDS: dict[str, str | None] = {
    "dsf": None,
    "dsf_exact_argmin": None,
    "periodic": "period_k",
    "greedy": None,
    "price_only": "price_cutoff",
    "queue_threshold": "queue_cutoff",
    "myopic": None,
}


@dataclass(frozen=True)
class PolicyInput:
    """Uniform observation bundle handed to every policy for one slot.

    The slot index is an integer >= 0; the realized prices and the flags
    must hold what COLUMN_RULES allows in the market columns price_ris,
    price_spectrum, avail_ris and avail_spectrum. A bad value raises a
    ConfigError naming the field.
    """

    state: QueueState
    slot_index: int
    realized_price_ris: float
    realized_price_spectrum: float
    avail_ris: int
    avail_spectrum: int
    params: ControlParams

    def __post_init__(self) -> None:
        check_int("PolicyInput: slot_index", self.slot_index, 0)
        market = (self.realized_price_ris, self.realized_price_spectrum, self.avail_ris, self.avail_spectrum)
        for name, value in zip(MARKET_FIELDS[1:], market):  # every market field but arrival
            check_value("PolicyInput", name, value)


@dataclass(frozen=True)
class PolicySpec:
    """A policy kind plus exactly the parameters that kind requires."""

    kind: str
    period_k: int | None = None
    price_cutoff: float | None = None
    queue_cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(
                f"unknown policy kind {self.kind!r}; valid kinds: {', '.join(POLICY_KINDS)}"
            )
        required = POLICY_KINDS[self.kind]
        for name in ("period_k", "price_cutoff", "queue_cutoff"):
            value = getattr(self, name)
            if name != required:
                if value is not None:
                    raise ConfigError(f"policy {self.kind!r} takes no parameter {name!r}, got {value!r}")
            elif value is None:
                raise ConfigError(f"policy {self.kind!r} requires parameter {name!r}")
            elif name == "period_k":
                check_int(name, value, 1)
            else:
                check_positive(name, value)


def dsf_objective(
    state: QueueState,
    decision: LeaseDecision,
    params: ControlParams,
    price_ris: float,
    price_spectrum: float,
) -> float:
    """Per-slot drift-plus-penalty score of one decision, as written.

    Weighs the leasing charge (scaled by v) against the backlog relief a
    departure buys, with a deferral term active when nothing departs. The
    prices may be expected (threshold usage) or realized (myopic).

    Note the deferral term carries a minus sign here, so holding looks
    cheaper as z grows; a drift derivation of the virtual queue charges
    deferral with the opposite sign. The decision rules therefore use the
    closed-form thresholds below rather than comparing this score.
    """
    x, y = decision.x, decision.y
    r = x * y
    return (
        params.v * (x * price_ris + y * price_spectrum)
        - state.q * r
        - state.z * params.eps_d * (1 - r)
    )


def dsf_decide(state: QueueState, params: ControlParams) -> LeaseDecision:
    """Threshold rule: lease both resources when combined backlog pressure
    q + z strictly exceeds v times the expected joint price; ties hold."""
    threshold = params.v * (params.expected_price_ris + params.expected_price_spectrum)
    return LEASE if state.q + state.z > threshold else HOLD


def dsf_decide_exact_argmin(
    state: QueueState,
    params: ControlParams,
    price_ris: float,
    price_spectrum: float,
) -> LeaseDecision:
    """Exact per-slot minimizer over {hold, lease}: lease iff
    q + eps_d * z strictly exceeds v * (p + s); ties hold.

    This is the argmin of the drift-consistent slot score, where holding
    accrues the deferral charge eps_d * z. Coincides with dsf_decide when
    eps_d = 1; other eps_d weight the virtual queue differently and the
    two rules can disagree.
    """
    return LEASE if state.q + params.eps_d * state.z > params.v * (price_ris + price_spectrum) else HOLD


def decide(spec: PolicySpec, inp: PolicyInput) -> LeaseDecision:
    """Desired decision of any policy, before availability masking.

    Baselines guard against paying with an empty queue; the threshold rules
    consult only their objective.
    """
    q = inp.state.q
    kind = spec.kind
    if kind == "dsf":
        return dsf_decide(inp.state, inp.params)
    if kind == "dsf_exact_argmin":
        return dsf_decide_exact_argmin(
            inp.state,
            inp.params,
            inp.params.expected_price_ris,
            inp.params.expected_price_spectrum,
        )
    if kind == "periodic":
        return LEASE if inp.slot_index % spec.period_k == 0 and q > 0 else HOLD
    if kind == "greedy":
        return LEASE if q > 0 else HOLD
    if kind == "price_only":
        cheap = inp.realized_price_ris + inp.realized_price_spectrum <= spec.price_cutoff
        return LEASE if cheap and q > 0 else HOLD
    if kind == "queue_threshold":
        return LEASE if q >= spec.queue_cutoff else HOLD
    if kind == "myopic":
        return dsf_decide_exact_argmin(
            inp.state, inp.params, inp.realized_price_ris, inp.realized_price_spectrum
        )
    raise ConfigError(f"unknown policy kind {kind!r}")  # unreachable after validation


def parse_policy(text: str) -> PolicySpec:
    """Parse the policy-string grammar: `name` or `name:param`.

    The parameter is an integer cadence for periodic and a real cutoff for
    price_only / queue_threshold; the other kinds take none. Only what the
    text itself gets wrong is caught here: an empty string, a parameter on
    a kind that takes none, a parameter that is not a number. PolicySpec
    judges the rest (an unknown kind, a missing or out-of-range parameter)
    with the same messages as when it is built directly.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty policy string")
    name, sep, raw = text.partition(":")
    name = name.strip()
    if not sep or name not in POLICY_KINDS:
        return PolicySpec(kind=name)  # raises for an unknown kind or a missing parameter
    required = POLICY_KINDS[name]
    if required is None:
        raise ConfigError(f"policy {name!r} takes no parameter, got {raw!r}")
    raw = raw.strip()
    try:
        if required == "period_k":
            value: int | float = int(raw)
        else:
            value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad parameter {raw!r} for policy {name!r}") from exc
    return PolicySpec(kind=name, **{required: value})


def policy_label(spec: PolicySpec) -> str:
    """Round-trip a PolicySpec back to its string form: parse_policy of the
    label is the spec. A cutoff is written short (`:g`) when that parses
    back to the same float, and in full (repr) otherwise."""
    required = POLICY_KINDS[spec.kind]
    if required is None:
        return spec.kind
    value = getattr(spec, required)
    if required == "period_k":
        return f"{spec.kind}:{value}"
    text = f"{value:g}"
    return f"{spec.kind}:{text if float(text) == value else repr(float(value))}"
