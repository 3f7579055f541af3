"""Unit and property tests for the policy layer."""
import math
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leasesim.core import HOLD, LEASE, ConfigError, ControlParams, QueueState, record_dict
from leasesim.environment import MarketObservation
from leasesim.policies import (
    POLICY_KINDS,
    PolicyInput,
    PolicySpec,
    decide,
    dsf_decide,
    dsf_decide_exact_argmin,
    dsf_objective,
    parse_policy,
    policy_label,
)
from leasesim.simulator import step


def make_params(v=1.0, eps_d=1.0, ep=5.5, es=5.5):
    return ControlParams(v=v, eps_d=eps_d, expected_price_ris=ep, expected_price_spectrum=es)


def make_input(q=0.0, z=0.0, t=1, p=5.5, s=5.5, params=None):
    return PolicyInput(
        state=QueueState(q=q, z=z),
        slot_index=t,
        realized_price_ris=p,
        realized_price_spectrum=s,
        params=params or make_params(),
    )


# ---------------------------------------------------------------------------
# frozen examples


def test_dsf_objective_examples():
    params = make_params(v=2.0, eps_d=1.0)
    state = QueueState(q=4.0, z=3.0)
    assert dsf_objective(state, LEASE, params, 5.5, 5.5) == 18
    assert dsf_objective(state, HOLD, params, 5.5, 5.5) == -3
    from leasesim.core import LeaseDecision

    assert dsf_objective(state, LeaseDecision(1, 0), params, 5.5, 5.5) == 8


def test_dsf_decide_examples():
    assert dsf_decide(QueueState(q=8, z=4), make_params(v=1.0)) == LEASE
    assert dsf_decide(QueueState(q=0, z=0), make_params(v=3.0)) == HOLD
    # boundary: 11 > 11 is false, strict inequality holds the lease
    assert dsf_decide(QueueState(q=8, z=3), make_params(v=1.0)) == HOLD


def test_exact_argmin_examples():
    assert dsf_decide_exact_argmin(QueueState(q=8, z=4), make_params(eps_d=1.0), 5.5, 5.5) == LEASE
    assert dsf_decide_exact_argmin(QueueState(q=8, z=4), make_params(eps_d=0.5), 5.5, 5.5) == HOLD
    assert dsf_decide_exact_argmin(QueueState(q=11, z=0), make_params(eps_d=2.0), 5.5, 5.5) == HOLD


def test_objective_transcription_diverges_from_rule():
    """The recorded slot score keeps its source sign convention, under which
    holding *gains* from a large z; the decision rule charges deferral the
    other way. Freeze one state where they visibly part ways."""
    params = make_params(v=1.0, eps_d=1.0)
    state = QueueState(q=8.0, z=4.0)
    assert dsf_decide_exact_argmin(state, params, 5.5, 5.5) == LEASE
    lease_score = dsf_objective(state, LEASE, params, 5.5, 5.5)
    hold_score = dsf_objective(state, HOLD, params, 5.5, 5.5)
    assert lease_score == 3 and hold_score == -4
    assert lease_score > hold_score  # literal score comparison would hold here


def test_decide_baseline_examples():
    params = make_params()
    assert decide(PolicySpec("periodic", param=2), make_input(q=3, t=4, params=params)) == LEASE
    assert decide(PolicySpec("price_only", param=8.0), make_input(q=1, p=3, s=4)) == LEASE
    assert decide(PolicySpec("queue_threshold", param=10.0), make_input(q=9)) == HOLD


def test_periodic_needs_backlog():
    assert decide(PolicySpec("periodic", param=2), make_input(q=0, t=4)) == HOLD
    assert decide(PolicySpec("periodic", param=2), make_input(q=3, t=5)) == HOLD


def test_greedy():
    assert decide(PolicySpec("greedy"), make_input(q=1)) == LEASE
    assert decide(PolicySpec("greedy"), make_input(q=0)) == HOLD


def test_price_only_needs_backlog_and_cheap_prices():
    spec = PolicySpec("price_only", param=8.0)
    assert decide(spec, make_input(q=0, p=1, s=1)) == HOLD
    assert decide(spec, make_input(q=5, p=6, s=3)) == HOLD
    assert decide(spec, make_input(q=5, p=4, s=4)) == LEASE  # boundary: 8 <= 8 leases


def test_myopic_uses_realized_prices():
    params = make_params(v=1.0, eps_d=1.0)
    # q + z = 12 clears v*(p+s) only when the realized pair is cheap enough
    assert decide(PolicySpec("myopic"), make_input(q=8, z=4, p=5.0, s=5.0, params=params)) == LEASE
    assert decide(PolicySpec("myopic"), make_input(q=8, z=4, p=9.0, s=9.0, params=params)) == HOLD


def test_dsf_ignores_realized_prices():
    params = make_params(v=1.0)
    assert decide(PolicySpec("dsf"), make_input(q=8, z=4, p=500.0, s=500.0, params=params)) == LEASE


# ---------------------------------------------------------------------------
# spec validation and the string grammar


def test_policy_spec_parameter_iff():
    with pytest.raises(ConfigError):
        PolicySpec("periodic")  # missing cadence
    with pytest.raises(ConfigError):
        PolicySpec("dsf", param=2)  # parameter on a parameter-free kind
    with pytest.raises(ConfigError):
        PolicySpec("periodic", param=0)
    with pytest.raises(ConfigError):
        PolicySpec("queue_threshold", param=-3.0)
    with pytest.raises(ConfigError):
        PolicySpec("nosuch")


def test_parse_policy_round_trip():
    for text in ["dsf", "dsf_exact_argmin", "greedy", "myopic", "periodic:2", "periodic:7",
                 "price_only:8", "queue_threshold:10", "price_only:7.5"]:
        spec = parse_policy(text)
        assert policy_label(spec) == text
        assert parse_policy(policy_label(spec)) == spec


specs = st.one_of(
    st.sampled_from([kind for kind, (required, _) in POLICY_KINDS.items() if required is None]).map(PolicySpec),
    st.integers(1, 10**12).map(lambda k: PolicySpec("periodic", param=k)),
    st.builds(
        lambda kind, cutoff: PolicySpec(kind, param=cutoff),
        st.sampled_from(["price_only", "queue_threshold"]),
        # an int cutoff is stored as the float parse_policy reads
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(min_value=1),
    ),
)


@example(PolicySpec("price_only", param=8.0000001))
@example(PolicySpec("queue_threshold", param=1234567.5))
@example(PolicySpec("price_only", param=5e-324))
@example(PolicySpec("price_only", param=2**53 + 1))
@given(specs)
def test_policy_label_parses_back_to_its_spec(spec):
    """Every spec's label parses back to the spec, so distinct specs get
    distinct labels; a cutoff `:g` writes exactly keeps its short form."""
    label = policy_label(spec)
    assert parse_policy(label) == spec
    if POLICY_KINDS[spec.kind][0] in ("price_cutoff", "queue_cutoff"):
        short = f"{spec.param:g}"
        assert label.endswith(":" + short) == (float(short) == spec.param)


def test_parse_policy_errors():
    with pytest.raises(ConfigError, match="period_k"):
        parse_policy("periodic")
    with pytest.raises(ConfigError, match="valid kinds"):
        parse_policy("nosuch")
    with pytest.raises(ConfigError):
        parse_policy("periodic:two")
    with pytest.raises(ConfigError):
        parse_policy("dsf:3")
    with pytest.raises(ConfigError):
        parse_policy("")
    with pytest.raises(ConfigError):
        parse_policy("periodic:2:3")
    with pytest.raises(ConfigError, match="queue_cutoff must be a finite number > 0, got nan"):
        parse_policy("queue_threshold:nan")
    with pytest.raises(ConfigError, match="price_cutoff must be a finite number > 0, got inf"):
        parse_policy("price_only:inf")


@pytest.mark.parametrize("text", ["nosuch", "nosuch:3", "periodic", "price_only", "queue_threshold"])
def test_parse_policy_reports_kind_and_missing_parameter_as_policy_spec_does(text):
    with pytest.raises(ConfigError) as parsed:
        parse_policy(text)
    with pytest.raises(ConfigError) as built:
        PolicySpec(text.partition(":")[0])
    assert str(parsed.value) == str(built.value)


def test_parse_policy_reports_a_parameter_on_a_parameter_free_kind_as_policy_spec_does():
    with pytest.raises(ConfigError) as parsed:
        parse_policy("dsf:3")
    with pytest.raises(ConfigError) as built:
        PolicySpec("dsf", "3")
    assert str(parsed.value) == str(built.value) == "policy 'dsf' takes no parameter, got '3'"


def test_policy_spec_is_a_kind_and_one_parameter():
    assert [f.name for f in fields(PolicySpec)] == ["kind", "param"]
    spec = PolicySpec("price_only", 8.0)
    assert policy_label(spec) == "price_only:8"
    assert parse_policy(policy_label(spec)) == spec


def test_policy_input_validation():
    with pytest.raises(ValueError):
        make_input(p=-1.0)
    for field, bad in [
        ("price_ris", {"p": math.nan}),
        ("price_ris", {"p": math.inf}),
        ("price_spectrum", {"s": math.nan}),
        ("price_spectrum", {"s": math.inf}),
        ("slot_index", {"t": -1}),
        ("slot_index", {"t": 0}),
        ("slot_index", {"t": 2**63}),
        ("slot_index", {"t": 1.5}),
        ("slot_index", {"t": True}),
    ]:
        with pytest.raises(ConfigError, match=f"^PolicyInput: {field} must be"):
            make_input(**bad)


# ---------------------------------------------------------------------------
# properties

state_floats = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
v_floats = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
price_floats = st.floats(min_value=0.1, max_value=20.0, allow_nan=False)

all_specs = st.sampled_from(
    [
        PolicySpec("dsf"),
        PolicySpec("dsf_exact_argmin"),
        PolicySpec("greedy"),
        PolicySpec("myopic"),
        PolicySpec("periodic", param=3),
        PolicySpec("price_only", param=8.0),
        PolicySpec("queue_threshold", param=10.0),
    ]
)


@given(
    spec=all_specs,
    q=state_floats,
    z=state_floats,
    t=st.integers(min_value=1, max_value=10_000),
    p=price_floats,
    s=price_floats,
)
def test_no_policy_emits_a_mixed_pair(spec, q, z, t, p, s):
    d = decide(spec, make_input(q=q, z=z, t=t, p=p, s=s))
    assert (d.x, d.y) in ((0, 0), (1, 1))


@given(q=state_floats, z=state_floats, v=v_floats, ep=price_floats, es=price_floats)
def test_equivalence_at_unit_deferral_weight(q, z, v, ep, es):
    params = ControlParams(v=v, eps_d=1.0, expected_price_ris=ep, expected_price_spectrum=es)
    state = QueueState(q=q, z=z)
    assert dsf_decide(state, params) == dsf_decide_exact_argmin(state, params, ep, es)


@given(
    q=state_floats,
    z=state_floats,
    dq=state_floats,
    dz=state_floats,
    v=v_floats,
    ep=price_floats,
    es=price_floats,
)
def test_threshold_monotonicity(q, z, dq, dz, v, ep, es):
    params = ControlParams(v=v, eps_d=1.0, expected_price_ris=ep, expected_price_spectrum=es)
    if dsf_decide(QueueState(q=q, z=z), params) == LEASE:
        assert dsf_decide(QueueState(q=q + dq, z=z + dz), params) == LEASE
    else:
        low_q = max(q - dq, 0.0)
        low_z = max(z - dz, 0.0)
        assert dsf_decide(QueueState(q=low_q, z=low_z), params) == HOLD


@given(v=v_floats, eps_d=v_floats, ep=price_floats, es=price_floats, on_z=st.booleans())
def test_dsf_holds_at_the_threshold_and_leases_just_above_it(v, eps_d, ep, es, on_z):
    """ControlParams.threshold is dsf's one threshold: dsf_decide and the
    dsf loop, through step, hold at q + z == threshold and lease one float
    above it. It is a read-only property, not a field, so no document
    holds it."""
    params = ControlParams(v=v, eps_d=eps_d, expected_price_ris=ep, expected_price_spectrum=es)
    assert "threshold" not in record_dict(params)
    with pytest.raises(AttributeError):
        params.threshold = 0.0
    market = MarketObservation(price_ris=ep, price_spectrum=es, avail_ris=1, avail_spectrum=1, arrival=0)
    for pressure, want in ((params.threshold, HOLD), (math.nextafter(params.threshold, math.inf), LEASE)):
        state = QueueState(q=0.0, z=pressure) if on_z else QueueState(q=pressure, z=0.0)
        assert dsf_decide(state, params) == want
        _, record = step(state, market, PolicySpec("dsf"), params)
        assert (record.x_desired, record.r) == (want.x, want.x)


@given(
    q=state_floats,
    z=state_floats,
    v=v_floats,
    ep=price_floats,
    es=price_floats,
    k=st.integers(min_value=-8, max_value=8),
)
def test_scale_invariance(q, z, v, ep, es, k):
    # powers of two keep the scaling bit-exact, so the decision cannot move
    factor = 2.0**k
    params = ControlParams(v=v, eps_d=1.0, expected_price_ris=ep, expected_price_spectrum=es)
    scaled = ControlParams(
        v=v * factor,
        eps_d=1.0,
        expected_price_ris=ep / factor,
        expected_price_spectrum=es / factor,
    )
    state = QueueState(q=q, z=z)
    assert dsf_decide(state, params) == dsf_decide(state, scaled)


def _drift_consistent_score(state, decision, params, p, s):
    """Slot score whose argmin the rule implements: holding accrues the
    deferral charge eps_d * z instead of receiving it as a credit."""
    r = decision.x * decision.y
    return (
        params.v * (decision.x * p + decision.y * s)
        - state.q * r
        + state.z * params.eps_d * (1 - r)
    )


eighths = st.integers(min_value=0, max_value=800).map(lambda n: n / 8.0)


@given(
    q=eighths,
    z=eighths,
    v=st.integers(min_value=1, max_value=128).map(lambda n: n / 8.0),
    eps=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    p=eighths,
    s=eighths,
)
def test_argmin_consistency(q, z, v, eps, p, s):
    # dyadic inputs keep every product exact, so the comparison has no
    # rounding boundary and the closed form must match the explicit argmin
    params = ControlParams(v=v, eps_d=eps, expected_price_ris=max(p, 0.125), expected_price_spectrum=max(s, 0.125))
    state = QueueState(q=q, z=z)
    chosen = dsf_decide_exact_argmin(state, params, p, s)
    other = HOLD if chosen == LEASE else LEASE
    assert _drift_consistent_score(state, chosen, params, p, s) <= _drift_consistent_score(
        state, other, params, p, s
    )
    # and ties must resolve to hold
    if _drift_consistent_score(state, LEASE, params, p, s) == _drift_consistent_score(
        state, HOLD, params, p, s
    ):
        assert chosen == HOLD


def test_divergence_exists_away_from_unit_weight():
    # same state, same prices: the two rules disagree once eps_d != 1
    state = QueueState(q=8.0, z=4.0)
    assert dsf_decide(state, make_params(v=1.0, eps_d=0.5)) == LEASE
    assert dsf_decide_exact_argmin(state, make_params(v=1.0, eps_d=0.5), 5.5, 5.5) == HOLD
