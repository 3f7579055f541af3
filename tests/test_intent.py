"""Intent translation and assurance tests."""
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leasesim.core import ConfigError
from leasesim.environment import ScenarioConfig
from leasesim.intent import (
    IntentSpec,
    assure,
    derive_scenario,
    intent_from_dict,
    required_packet_count,
    translate_intent,
    translation_from_dict,
)
from leasesim.policies import parse_policy
from leasesim.simulator import Trace, default_params, run

FLAGSHIP = IntentSpec(payload_mb=1000.0, deadline_s=900.0, reliability_pct=99.0)
DEFAULT_SCENARIO = ScenarioConfig()
FULL_AVAIL = ScenarioConfig(avail_prob_ris=1.0, avail_prob_spectrum=1.0, arrival_prob=0.0)

GREEDY = parse_policy("greedy")
DSF = parse_policy("dsf")


def test_flagship_translation():
    result = translate_intent(FLAGSHIP, DEFAULT_SCENARIO)
    assert result.n_packets == 100
    assert result.deadline_slots == 900
    assert round(result.tightness, 3) == 0.137
    assert result.params.eps_d == 0.5
    assert round(result.params.v, 2) == 17.26
    assert result.feasible
    assert result.params.expected_price_ris == 5.5


def test_flagship_with_tight_deadline_is_infeasible():
    tight = IntentSpec(payload_mb=1000.0, deadline_s=120.0, reliability_pct=99.0)
    result = translate_intent(tight, DEFAULT_SCENARIO)
    assert round(result.tightness, 3) == 1.029
    assert not result.feasible
    assert result.params.eps_d == 2.0  # tightest band
    assert result.params.v == 1.0  # floor


def test_single_packet_translation():
    intent = IntentSpec(payload_mb=10.0, deadline_s=100.0, reliability_pct=99.0)
    result = translate_intent(intent, FULL_AVAIL)
    assert result.n_packets == 1
    assert result.tightness == 0.01
    assert result.params.eps_d == 0.5
    assert round(result.params.v, 2) == 19.8


@pytest.mark.parametrize(
    "payload_mb, deadline_s, scenario, tightness, eps_d, v",
    [
        (49990.0, 10000.0, FULL_AVAIL, 0.4999, 0.5, 10.001999999999999),  # just below the first edge
        (10.0, 2.0, FULL_AVAIL, 0.5, 1.0, 10.0),
        (79990.0, 10000.0, FULL_AVAIL, 0.7999, 1.0, 4.001999999999999),  # just below the second edge
        (40.0, 5.0, FULL_AVAIL, 0.8, 2.0, 3.999999999999999),
        (10.0, 1.0, FULL_AVAIL, 1.0, 2.0, 1.0),
        (10.0, 1.0, ScenarioConfig(avail_prob_ris=0.0, arrival_prob=0.0), math.inf, 2.0, 1.0),
    ],
)
def test_band_edges(payload_mb, deadline_s, scenario, tightness, eps_d, v):
    """Each band holds its lower edge; v floors at 1.0, an infinite
    tightness included."""
    result = translate_intent(IntentSpec(payload_mb, deadline_s, 99.0), scenario)
    assert (result.tightness, result.params.eps_d, result.params.v) == (tightness, eps_d, v)


def test_priority_overrides_apply_after_banding():
    saver = translate_intent(
        IntentSpec(1000.0, 900.0, 99.0, priority="cost_saver"), DEFAULT_SCENARIO
    )
    critical = translate_intent(
        IntentSpec(1000.0, 900.0, 99.0, priority="delay_critical"), DEFAULT_SCENARIO
    )
    base = translate_intent(FLAGSHIP, DEFAULT_SCENARIO)
    assert saver.params.v == pytest.approx(2 * base.params.v)
    assert saver.params.eps_d == base.params.eps_d
    assert critical.params.eps_d == pytest.approx(2 * base.params.eps_d) == 1.0
    assert critical.params.v == base.params.v


def test_zero_availability_pins_tightness_at_infinity():
    dark = ScenarioConfig(avail_prob_ris=0.0, arrival_prob=0.0)
    result = translate_intent(FLAGSHIP, dark)
    assert math.isinf(result.tightness)
    assert not result.feasible
    assert result.params.v == 1.0


def test_subslot_deadline_rejected():
    with pytest.raises(ConfigError, match="slot"):
        translate_intent(IntentSpec(10.0, 0.5, 99.0), DEFAULT_SCENARIO)
    with pytest.raises(ConfigError):
        translate_intent(FLAGSHIP, DEFAULT_SCENARIO, slot_duration_s=0.0)
    with pytest.raises(ConfigError):
        translate_intent(FLAGSHIP, DEFAULT_SCENARIO, packet_size_mb=-1.0)


def test_intent_validation():
    with pytest.raises(ConfigError):
        IntentSpec(payload_mb=0.0, deadline_s=10.0, reliability_pct=99.0)
    with pytest.raises(ConfigError):
        IntentSpec(payload_mb=10.0, deadline_s=-1.0, reliability_pct=99.0)
    with pytest.raises(ConfigError):
        IntentSpec(payload_mb=10.0, deadline_s=10.0, reliability_pct=101.0)
    with pytest.raises(ConfigError):
        IntentSpec(payload_mb=10.0, deadline_s=10.0, reliability_pct=99.0, priority="rush")


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"payload_mb": "1000"}, "payload_mb must be a finite number > 0, got '1000'"),
        ({"payload_mb": math.nan}, "payload_mb must be a finite number > 0, got nan"),
        ({"payload_mb": True}, "payload_mb must be a finite number > 0, got True"),
        ({"deadline_s": math.inf}, "deadline_s must be a finite number > 0, got inf"),
        ({"deadline_s": None}, "deadline_s must be a finite number > 0, got None"),
        ({"reliability_pct": "99"}, r"reliability_pct must be a number in \(0, 100\], got '99'"),
        ({"reliability_pct": math.nan}, "reliability_pct must be a number"),
        ({"reliability_pct": True}, "reliability_pct must be a number"),
    ],
)
def test_intent_rejects_non_numbers_and_non_finite(fields, message):
    with pytest.raises(ConfigError, match=message):
        IntentSpec(**{"payload_mb": 1000.0, "deadline_s": 900.0, "reliability_pct": 99.0, **fields})


@pytest.mark.parametrize("knob", ["slot_duration_s", "packet_size_mb"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_translate_rejects_non_finite_knobs(knob, value):
    with pytest.raises(ConfigError, match=f"{knob} must be a finite number > 0"):
        translate_intent(FLAGSHIP, DEFAULT_SCENARIO, **{knob: value})


@given(
    payload=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    d1=st.floats(min_value=2.0, max_value=5000.0),
    d2=st.floats(min_value=2.0, max_value=5000.0),
)
def test_longer_deadline_never_tightens(payload, d1, d2):
    lo, hi = sorted((d1, d2))
    a = translate_intent(IntentSpec(payload, lo, 99.0), DEFAULT_SCENARIO)
    b = translate_intent(IntentSpec(payload, hi, 99.0), DEFAULT_SCENARIO)
    assert b.params.eps_d <= a.params.eps_d
    assert b.params.v >= a.params.v
    assert b.tightness <= a.tightness


@given(
    payload=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    deadline=st.floats(min_value=2.0, max_value=5000.0),
)
def test_feasible_exactly_when_tightness_at_most_one(payload, deadline):
    result = translate_intent(IntentSpec(payload, deadline, 99.0), DEFAULT_SCENARIO)
    assert result.feasible == (result.tightness <= 1)


def test_derive_scenario_bulk():
    translation = translate_intent(FLAGSHIP, DEFAULT_SCENARIO)
    derived = derive_scenario(translation, DEFAULT_SCENARIO)
    assert derived.initial_backlog == 100
    assert derived.arrival_prob == 0.0
    assert derived.horizon_slots == 900
    assert derived.freeze_z_when_empty is True
    assert derived.seed == DEFAULT_SCENARIO.seed


def test_derive_scenario_streaming():
    translation = translate_intent(FLAGSHIP, DEFAULT_SCENARIO)
    derived = derive_scenario(translation, DEFAULT_SCENARIO, streaming=True)
    assert derived.initial_backlog == 0
    assert derived.arrival_prob == pytest.approx(100 / 900)
    assert derived.horizon_slots == 900


@pytest.mark.parametrize("flag", ["no", 1, None, np.True_], ids=repr)
def test_derive_scenario_rejects_a_streaming_flag_that_is_not_a_bool(flag):
    intent = IntentSpec(payload_mb=100.0, deadline_s=100.0, reliability_pct=99.0)
    translation = translate_intent(intent, DEFAULT_SCENARIO)
    with pytest.raises(ConfigError, match=f"^streaming must be true or false, got {re.escape(repr(flag))}$"):
        derive_scenario(translation, DEFAULT_SCENARIO, streaming=flag)


def test_derive_scenario_streaming_needs_a_slot_per_packet():
    """Streaming draws at most one arrival a slot: 100 packets in 50 slots
    are rejected naming both counts, and 50 in 50 give arrival_prob 1.0."""
    crowded = translate_intent(IntentSpec(payload_mb=1000.0, deadline_s=50.0, reliability_pct=99.0), FULL_AVAIL)
    with pytest.raises(ConfigError) as info:
        derive_scenario(crowded, FULL_AVAIL, streaming=True)
    assert str(info.value) == (
        "streaming needs n_packets <= deadline_slots, one arrival a slot at most; got n_packets=100, deadline_slots=50"
    )
    assert derive_scenario(crowded, FULL_AVAIL).initial_backlog == 100  # bulk has no such limit
    full = translate_intent(IntentSpec(payload_mb=500.0, deadline_s=50.0, reliability_pct=99.0), FULL_AVAIL)
    with pytest.warns(UserWarning, match="stability headroom"):
        derived = derive_scenario(full, FULL_AVAIL, streaming=True)
    assert (derived.arrival_prob, derived.horizon_slots) == (1.0, 50)


def test_required_packet_count():
    assert required_packet_count(99.0, 100) == 99
    assert required_packet_count(99.0, 7) == 7
    assert required_packet_count(50.0, 3) == 2
    assert required_packet_count(100.0, 5) == 5


def full_delivery_setup():
    intent = IntentSpec(payload_mb=50.0, deadline_s=50.0, reliability_pct=99.0)
    translation = translate_intent(intent, FULL_AVAIL)
    derived = derive_scenario(translation, FULL_AVAIL)
    return intent, translation, derived


def test_assure_full_delivery_passes_without_warnings():
    intent, translation, derived = full_delivery_setup()
    trace = run(derived, GREEDY, translation.params)
    report = assure(trace, intent, translation)
    assert report.delivered_packets == 5
    assert report.required_packets == 5
    assert report.reliability_met and report.deadline_met
    assert report.verdict == "pass"
    assert report.drift_warnings == ()


def test_assure_truncated_trace_fails():
    intent, translation, derived = full_delivery_setup()
    trace = run(replace(derived, horizon_slots=2, initial_backlog=5), GREEDY, translation.params)
    report = assure(trace, intent, translation)
    assert report.delivered_packets == 2
    assert not report.deadline_met  # horizon shorter than the deadline
    assert report.verdict == "fail"


def test_assure_zero_delivery_fails():
    intent = IntentSpec(payload_mb=1000.0, deadline_s=60.0, reliability_pct=99.0)
    translation = translate_intent(intent, FULL_AVAIL)
    trace = hand_trace(n_slots=60, backlog=100, skip=set(range(60)))
    report = assure(trace, intent, translation)
    assert report.required_packets == 99
    assert report.delivered_packets == 0
    assert report.verdict == "fail"


def hand_trace(n_slots, backlog, skip=frozenset()):
    """Constant-price trace serving one packet per slot except `skip` slots."""
    t = np.arange(1, n_slots + 1, dtype=np.int64)
    served = np.array([0 if i in skip else 1 for i in range(n_slots)], dtype=np.int64)
    q_after = backlog - np.cumsum(served).astype(np.float64)
    q_before = np.concatenate(([float(backlog)], q_after[:-1]))
    ones = np.ones(n_slots, dtype=np.int64)
    return Trace(
        {
            "t": t,
            "q_before": q_before,
            "z_before": np.zeros(n_slots),
            "arrival": np.zeros(n_slots, dtype=np.int64),
            "avail_ris": served,
            "avail_spectrum": ones,
            "price_ris": np.ones(n_slots),
            "price_spectrum": np.ones(n_slots),
            "x_desired": ones,
            "y_desired": ones,
            "x_effective": served,
            "y_effective": served,
            "r": served,
            "cost": 2.0 * served,
            "q_after": q_after,
            "z_after": np.zeros(n_slots),
        }
    )


def test_assure_boundary_99_of_100_passes():
    intent = IntentSpec(payload_mb=1000.0, deadline_s=100.0, reliability_pct=99.0)
    translation = translate_intent(intent, FULL_AVAIL)
    trace = hand_trace(n_slots=100, backlog=100, skip={49})
    report = assure(trace, intent, translation)
    assert report.required_packets == 99
    assert report.delivered_packets == 99
    assert report.verdict == "pass"
    # the mid-run stumble shows up as advisory drift warnings even though
    # the intent is ultimately met
    assert len(report.drift_warnings) > 0
    assert all(slot % 10 == 0 for slot, _ in report.drift_warnings)


def test_assure_checkpoint_warnings_on_slow_start():
    intent = IntentSpec(payload_mb=1000.0, deadline_s=100.0, reliability_pct=99.0)
    translation = translate_intent(intent, FULL_AVAIL)
    # nothing moves during the first 30 slots, full rate afterwards: never
    # catches up to 99 within the window
    trace = hand_trace(n_slots=100, backlog=100, skip=set(range(30)))
    report = assure(trace, intent, translation)
    slots = [slot for slot, _ in report.drift_warnings]
    assert slots[:3] == [10, 20, 30]
    for slot, message in report.drift_warnings:
        assert message.startswith(f"slot {slot}:")
        assert "below required 99" in message


def test_assure_backlog_mismatch_rejected():
    intent, translation, derived = full_delivery_setup()
    wrong = run(replace(derived, initial_backlog=3), GREEDY, translation.params)
    with pytest.raises(ConfigError, match="backlog"):
        assure(wrong, intent, translation)


def test_assure_is_deterministic():
    intent, translation, derived = full_delivery_setup()
    trace = run(derived, GREEDY, translation.params)
    a = assure(trace, intent, translation)
    b = assure(trace, intent, translation)
    assert a == b


def test_intent_dict_round_trip():
    doc = asdict(FLAGSHIP)
    assert doc == {
        "payload_mb": 1000.0,
        "deadline_s": 900.0,
        "reliability_pct": 99.0,
        "priority": "balanced",
    }
    assert intent_from_dict(doc) == FLAGSHIP


def test_intent_from_dict_errors():
    with pytest.raises(ConfigError, match="unknown"):
        intent_from_dict({"payload_mb": 1, "deadline_s": 1, "reliability_pct": 1, "color": "red"})
    with pytest.raises(ConfigError, match="missing"):
        intent_from_dict({"payload_mb": 1})
    with pytest.raises(ConfigError):
        intent_from_dict([1, 2, 3])


def test_translation_of_a_scenario_holding_numpy_floats():
    scenario = ScenarioConfig(avail_prob_ris=np.float64(0.9))
    assert translate_intent(FLAGSHIP, scenario).feasible is True


def test_translation_dict_round_trip():
    translation = translate_intent(FLAGSHIP, DEFAULT_SCENARIO)
    again = translation_from_dict(asdict(translation))
    assert again == translation
    # no joint availability: tightness is inf, which the document may carry
    never = ScenarioConfig(arrival_prob=0.0, avail_prob_ris=0.0)
    translation = translate_intent(FLAGSHIP, never)
    assert translation.tightness == math.inf
    assert translation_from_dict(asdict(translation)) == translation
