"""Leasing policies: the drift-plus-penalty threshold rule, its exact
per-slot minimizer, and five baselines, all answering the same question
each slot: lease both resources now, or hold.

Policies return the decision they *want*; availability masking is the
simulator's job. Every policy is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import HOLD, LEASE, ConfigError, ControlParams, LeaseDecision, QueueState, check_int, check_positive
from .environment import check_value

# kinds and the name of the one parameter each requires (None = parameter-free)
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

    The slot index is an integer >= 0; the realized prices must hold what
    COLUMN_RULES allows in the market columns price_ris and price_spectrum.
    A bad value raises a ConfigError naming the field.
    """

    state: QueueState
    slot_index: int
    realized_price_ris: float
    realized_price_spectrum: float
    params: ControlParams

    def __post_init__(self) -> None:
        check_int("PolicyInput: slot_index", self.slot_index, 0)
        check_value("PolicyInput", "price_ris", self.realized_price_ris)
        check_value("PolicyInput", "price_spectrum", self.realized_price_spectrum)


@dataclass(frozen=True)
class PolicySpec:
    """A policy kind and its one parameter, None for a kind that takes
    none; errors name the parameter as POLICY_KINDS does. A cutoff is
    stored as a float."""

    kind: str
    param: int | float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(
                f"unknown policy kind {self.kind!r}; valid kinds: {', '.join(POLICY_KINDS)}"
            )
        name = POLICY_KINDS[self.kind]
        if name is None:
            if self.param is not None:
                raise ConfigError(f"policy {self.kind!r} takes no parameter, got {self.param!r}")
        elif self.param is None:
            raise ConfigError(f"policy {self.kind!r} requires parameter {name!r}")
        elif name == "period_k":
            check_int(name, self.param, 1)
        else:  # a cutoff is held as the float the loop and the label read
            check_positive(name, self.param)
            object.__setattr__(self, "param", float(self.param))


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
    return LEASE if state.q + state.z > params.threshold else HOLD


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
    state, params, q = inp.state, inp.params, inp.state.q
    kind = spec.kind
    if kind == "dsf":
        return dsf_decide(state, params)
    if kind == "dsf_exact_argmin":
        return dsf_decide_exact_argmin(state, params, params.expected_price_ris, params.expected_price_spectrum)
    if kind == "periodic":
        return LEASE if inp.slot_index % spec.param == 0 and q > 0 else HOLD
    if kind == "greedy":
        return LEASE if q > 0 else HOLD
    if kind == "price_only":
        cheap = inp.realized_price_ris + inp.realized_price_spectrum <= spec.param
        return LEASE if cheap and q > 0 else HOLD
    if kind == "queue_threshold":
        return LEASE if q >= spec.param else HOLD
    if kind == "myopic":
        return dsf_decide_exact_argmin(state, params, inp.realized_price_ris, inp.realized_price_spectrum)
    raise ConfigError(f"unknown policy kind {kind!r}")  # unreachable after validation


def parse_policy(text: str) -> PolicySpec:
    """Parse the policy-string grammar: `name` or `name:param`.

    The parameter is an integer cadence for periodic and a real cutoff for
    price_only / queue_threshold; the other kinds take none. Only what the
    text itself gets wrong is caught here: an empty string, a parameter
    that is not a number. PolicySpec judges the rest (an unknown kind, a
    parameter missing, out of range or on a kind that takes none) with the
    same messages as when it is built directly.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty policy string")
    name, sep, raw = text.partition(":")
    name = name.strip()
    required = POLICY_KINDS.get(name)
    if required is None or not sep:  # PolicySpec builds it or names what is wrong
        return PolicySpec(name, raw if sep else None)
    raw = raw.strip()
    try:
        value = int(raw) if required == "period_k" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad parameter {raw!r} for policy {name!r}") from exc
    return PolicySpec(name, value)


def policy_label(spec: PolicySpec) -> str:
    """Round-trip a PolicySpec back to its string form: parse_policy of the
    label is the spec. A cutoff is written short (`:g`) when that parses
    back to the same float, and in full (repr) otherwise."""
    param = spec.param
    if param is None:
        return spec.kind
    if not isinstance(param, float):  # period_k
        return f"{spec.kind}:{param}"
    text = f"{param:g}"
    return f"{spec.kind}:{text if float(text) == param else repr(param)}"
