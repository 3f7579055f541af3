"""Intent translation and closed-loop assurance.

An intent states what the user wants moved ("this payload, by this
deadline, at this reliability"); the translator turns it into controller
parameters through a small deterministic rule table keyed on tightness,
the ratio of packets to expected usable slots. The assurance check reads
a finished trace back against the intent and reports drift.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, ControlParams, check_bool, check_int, check_positive, record_dict, record_from_dict
from .environment import MAX_HORIZON_SLOTS, ScenarioConfig
from .simulator import default_params

PRIORITIES = ("cost_saver", "balanced", "delay_critical")

# translator rule-table constants; tuning choices, so translator_settings
# puts them in a translation's header, all but EPS_BY_BAND
SLOT_DURATION_S = 1.0
PACKET_SIZE_MB = 10.0
V_BASE = 20.0
TIGHTNESS_BANDS = (0.5, 0.8)
EPS_BY_BAND = (0.5, 1.0, 2.0)
PRIORITY_MULTIPLIER = 2.0


def translator_settings(slot_duration_s: float, packet_size_mb: float) -> dict:
    """The `translator` block of a translation's header."""
    return {
        "slot_duration_s": slot_duration_s,
        "packet_size_mb": packet_size_mb,
        "tightness_bands": list(TIGHTNESS_BANDS),
        "v_base": V_BASE,
        "priority_multiplier": PRIORITY_MULTIPLIER,
    }


@dataclass(frozen=True)
class IntentSpec:
    """A service request: move payload_mb within deadline_s at reliability_pct."""

    payload_mb: float
    deadline_s: float
    reliability_pct: float
    priority: str = "balanced"

    def __post_init__(self) -> None:
        check_positive("payload_mb", self.payload_mb)
        check_positive("deadline_s", self.deadline_s)
        pct = self.reliability_pct
        if isinstance(pct, bool) or not isinstance(pct, numbers.Real) or not 0 < pct <= 100:
            raise ConfigError(f"reliability_pct must be a number in (0, 100], got {pct!r}")
        if self.priority not in PRIORITIES:
            raise ConfigError(
                f"priority must be one of {', '.join(PRIORITIES)}; got {self.priority!r}"
            )


@dataclass(frozen=True)
class TranslationResult:
    """Controller parameters derived from an intent, plus the sizing facts."""

    n_packets: int
    deadline_slots: int
    tightness: float
    feasible: bool
    params: ControlParams

    def __post_init__(self) -> None:
        check_int("n_packets", self.n_packets, 1)
        check_int("deadline_slots", self.deadline_slots, 1, MAX_HORIZON_SLOTS)  # a horizon derive_scenario can run
        check_bool("feasible", self.feasible)
        tightness = self.tightness  # inf when the resources are never jointly available
        if isinstance(tightness, bool) or not isinstance(tightness, numbers.Real) or not tightness >= 0:
            raise ConfigError(f"tightness must be a number >= 0, got {tightness!r}")


@dataclass(frozen=True)
class AssuranceReport:
    """Verdict of checking a trace against an intent."""

    delivered_packets: int
    required_packets: int
    deadline_met: bool
    reliability_met: bool
    verdict: str
    drift_warnings: tuple[tuple[int, str], ...]


def translate_intent(
    intent: IntentSpec,
    scenario: ScenarioConfig,
    slot_duration_s: float = SLOT_DURATION_S,
    packet_size_mb: float = PACKET_SIZE_MB,
) -> TranslationResult:
    """Map an intent onto (v, eps_d) through the tightness rule table.

    Tightness is n_packets over the expected count of slots where both
    resources are available within the deadline. Loose intents get a low
    deferral weight and a high cost weight; tight ones the reverse.
    Tightness above 1 yields feasible=False, with parameters still
    emitted so the caller can decide what to do.
    """
    check_positive("slot_duration_s", slot_duration_s)
    check_positive("packet_size_mb", packet_size_mb)

    packets, slots = intent.payload_mb / packet_size_mb, intent.deadline_s / slot_duration_s
    if math.isinf(packets):
        raise ConfigError(
            f"packet_size_mb={packet_size_mb} is too small for payload_mb={intent.payload_mb}: "
            f"the packet count overflows"
        )
    if math.isinf(slots):
        raise ConfigError(
            f"slot_duration_s={slot_duration_s} is too small for deadline_s={intent.deadline_s}: "
            f"the slot count overflows"
        )
    n_packets = math.ceil(packets)
    deadline_slots = math.floor(slots)
    if deadline_slots < 1:
        raise ConfigError(
            f"deadline_s={intent.deadline_s} is shorter than one slot "
            f"({slot_duration_s} s); nothing can be scheduled"
        )

    joint_availability = scenario.avail_prob_ris * scenario.avail_prob_spectrum
    if joint_availability > 0:
        tightness = n_packets / (joint_availability * deadline_slots)
    else:
        tightness = math.inf

    eps_d = EPS_BY_BAND[bisect.bisect_right(TIGHTNESS_BANDS, tightness)]
    v = max(1.0, V_BASE * (1.0 - tightness))  # 1.0 for an infinite tightness too

    if intent.priority == "cost_saver":
        v *= PRIORITY_MULTIPLIER
    elif intent.priority == "delay_critical":
        eps_d *= PRIORITY_MULTIPLIER

    return TranslationResult(
        params=default_params(scenario, v=v, eps_d=eps_d),
        n_packets=n_packets,
        deadline_slots=deadline_slots,
        tightness=tightness,
        feasible=bool(tightness <= 1),  # a numpy bool when the scenario holds numpy floats
    )


def derive_scenario(
    translation: TranslationResult,
    base: ScenarioConfig,
    streaming: bool = False,
) -> ScenarioConfig:
    """Scenario for running the translated intent.

    Bulk (default): the payload already exists, so it becomes the initial
    backlog, no further arrivals, horizon = deadline, and the virtual queue
    freezes once the backlog clears so a finished upload stops leasing.
    Streaming: arrivals spread over the window as Bernoulli draws instead.
    """
    if streaming:
        return replace(
            base,
            initial_backlog=0,
            arrival_prob=translation.n_packets / translation.deadline_slots,
            horizon_slots=translation.deadline_slots,
        )
    return replace(
        base,
        initial_backlog=translation.n_packets,
        arrival_prob=0.0,
        horizon_slots=translation.deadline_slots,
        freeze_z_when_empty=True,
    )


def required_packet_count(reliability_pct: float, n_packets: int) -> int:
    """Packets needed to meet the reliability fraction, ceiling semantics.

    Multiplies before dividing: 99% of 100 must be exactly 99, and
    ceil(0.99 * 100) is not safe in floating point.
    """
    return math.ceil(reliability_pct * n_packets / 100.0)


def assure(trace, intent: IntentSpec, translation: TranslationResult) -> AssuranceReport:
    """Check a finished trace against the intent it was meant to serve.

    Delivered packets are actual departures (a lease against an empty
    queue moves nothing) within the deadline window. Checkpoints every
    tenth of the deadline linearly extrapolate the service rate and warn
    when the projection falls short.

    Before judging, every slot's queue is checked by the loop's own rules,
    exactly: q_after is q_before where r is 0 and max(q_before - 1, 0)
    where r is 1, and each later slot's q_before is the slot before's
    q_after plus its arrival. The first row that breaks the first rule is
    a ConfigError naming the 1-based row and q_after; after the backlog
    check, the first that breaks the second, naming q_before.
    """
    horizon = len(trace)
    if horizon == 0:
        raise ConfigError("cannot assure an empty trace")
    deadline = translation.deadline_slots

    q_before = trace.column("q_before")
    q_after = trace.column("q_after")
    arrival = trace.column("arrival")
    r = trace.column("r")

    departed = np.where(r == 0, q_before, np.maximum(q_before - 1.0, 0.0))
    broken = (q_after != departed).nonzero()[0]
    if len(broken):
        i = int(broken[0])
        raise ConfigError(
            f"trace row {i + 1}: q_after must be {float(departed[i])!r} after q_before "
            f"{float(q_before[i])!r} with r {int(r[i])}, got {float(q_after[i])!r}"
        )

    initial_backlog = float(q_before[0]) - float(arrival[0])
    if initial_backlog > 0 and initial_backlog != translation.n_packets:
        raise ConfigError(
            f"translation expects {translation.n_packets} packets but the trace "
            f"starts with a backlog of {initial_backlog:g}"
        )

    chained = q_after[:-1] + arrival[1:]  # the loop's own float add
    broken = (q_before[1:] != chained).nonzero()[0]
    if len(broken):
        i = int(broken[0]) + 1
        raise ConfigError(
            f"trace row {i + 1}: q_before must be {float(chained[i - 1])!r} after q_after "
            f"{float(q_after[i - 1])!r} and arrival {int(arrival[i])}, got {float(q_before[i])!r}"
        )

    window = min(horizon, deadline)
    served = q_before[:window] - q_after[:window]  # departures, not leases
    cumulative = np.cumsum(served)
    delivered = int(cumulative[-1])
    required = required_packet_count(intent.reliability_pct, translation.n_packets)
    reliability_met = delivered >= required
    deadline_met = reliability_met if horizon >= deadline else False

    warnings: list[tuple[int, str]] = []
    interval = math.ceil(deadline / 10)
    checkpoint = interval
    while checkpoint <= window:
        seen = float(cumulative[checkpoint - 1])
        projected = seen * (deadline / checkpoint)
        if projected < required:
            warnings.append(
                (
                    checkpoint,
                    f"slot {checkpoint}: {seen:g} delivered, projecting "
                    f"{projected:.1f} by slot {deadline}, below required {required}",
                )
            )
        checkpoint += interval

    return AssuranceReport(
        delivered_packets=delivered,
        required_packets=required,
        deadline_met=deadline_met,
        reliability_met=reliability_met,
        verdict="pass" if reliability_met else "fail",
        drift_warnings=tuple(warnings),
    )


def intent_from_dict(data: dict) -> IntentSpec:
    """Build an IntentSpec from parsed JSON, rejecting unknown and missing fields."""
    return record_from_dict(IntentSpec, data, "intent")


def translation_from_dict(data: dict) -> TranslationResult:
    """Inverse of record_dict(TranslationResult), for reloading emitted JSON."""
    return record_from_dict(TranslationResult, data, "translation")


def report_to_dict(report: AssuranceReport) -> dict:
    return {
        **record_dict(report),
        "drift_warnings": [
            {"slot": slot, "message": message} for slot, message in report.drift_warnings
        ],
    }
