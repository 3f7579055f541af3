"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
criterion is implemented exactly as stated, including its runtime budget;
criterion 5 is known to fail under the literal virtual-queue accrual (the
deferral counter keeps growing while the queue is empty, so the threshold
rule eventually leases every available slot and outspends greedy). It is
left red on purpose rather than weakened; see the decisions ledger.
"""
import json
import math
import time

import numpy as np
import pytest

from leasesim.cli import main
from leasesim.core import (
    ControlParams,
    QueueState,
    advance_data_queue,
    advance_virtual_queue,
    departure,
    lyapunov,
    slot_cost,
)
from leasesim.environment import (
    MarketObservation,
    ScenarioConfig,
    draw_realization,
    expected_price,
)
from leasesim.policies import (
    HOLD,
    LEASE,
    LeaseDecision,
    decide,
    dsf_decide,
    dsf_decide_exact_argmin,
    dsf_objective,
    parse_policy,
    policy_label,
)
from leasesim.reporting import (
    comparison_ranking,
    cumulative_average_cost_series,
    summarize,
    write_trace_csv,
)
from leasesim.simulator import default_params, offline_min_cost, run

V_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
EPS_GRID = (0.5, 1.0, 2.0)
SIX_POLICIES = ("dsf", "greedy", "periodic:2", "price_only:8", "queue_threshold:10", "myopic")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def violations(values, direction: str) -> list[float]:
    """Relative magnitudes of adjacent-pair violations of a monotone trend."""
    out = []
    for a, b in zip(values, values[1:]):
        delta = b - a if direction == "non-increasing" else a - b
        if delta > 0:
            out.append(delta / max(abs(a), 1e-12))
    return out


def tolerant_monotone(values, direction: str) -> tuple[bool, str]:
    bad = violations(values, direction)
    ok = len(bad) <= 1 and all(v <= 0.02 for v in bad)
    detail = f"{len(bad)} violation(s)" + (f", worst {max(bad):.4%}" if bad else "")
    return ok, detail


@pytest.fixture(scope="module", autouse=True)
def warm_backend():
    # generate the dsf loop and import what a run needs outside any timed window
    scenario = ScenarioConfig(horizon_slots=4)
    run(scenario, parse_policy("dsf"), default_params(scenario, v=1.0, eps_d=1.0))


@pytest.fixture(scope="module")
def v_axis():
    """Criterion 3 runs: default scenario, eps_d=1, common realization."""
    scenario = ScenarioConfig()
    start = time.perf_counter()
    traces = {
        v: run(scenario, parse_policy("dsf"), default_params(scenario, v=v, eps_d=1.0))
        for v in V_GRID
    }
    return traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def eps_axis():
    """Criterion 4 runs: default scenario, V=10, common realization."""
    scenario = ScenarioConfig()
    start = time.perf_counter()
    traces = {
        eps: run(scenario, parse_policy("dsf"), default_params(scenario, v=10.0, eps_d=eps))
        for eps in EPS_GRID
    }
    return traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def comparison():
    """Criterion 5 runs: six policies, V=10, eps_d=1, common realization."""
    scenario = ScenarioConfig()
    params = default_params(scenario, v=10.0, eps_d=1.0)
    start = time.perf_counter()
    traces = {label: run(scenario, parse_policy(label), params) for label in SIX_POLICIES}
    return traces, time.perf_counter() - start


def test_criterion_1_exact_formula_suite():
    start = time.perf_counter()

    # queue recursions
    assert advance_data_queue(5, 1, 1) == 5
    assert advance_data_queue(0, 1, 0) == 0
    assert advance_data_queue(3, 0, 1) == 4
    assert advance_virtual_queue(2, 0, 0.5) == 2.5
    assert advance_virtual_queue(2, 1, 0.5) == 1
    assert advance_virtual_queue(0.3, 1, 0.5) == 0

    # departure and slot cost
    assert departure(1, 1) == 1
    assert departure(1, 0) == 0
    assert departure(0, 0) == 0
    assert slot_cost(1, 1, 3, 4) == 7
    assert slot_cost(0, 0, 9, 9) == 0
    assert slot_cost(1, 0, 2.5, 9) == 2.5

    # Lyapunov level
    assert lyapunov(3, 4) == 12.5
    assert lyapunov(0, 0) == 0
    assert lyapunov(1, 1) == 1

    # per-slot objective score
    p2 = ControlParams(v=2.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    s43 = QueueState(4.0, 3.0)
    assert dsf_objective(s43, LeaseDecision(1, 1), p2, 5.5, 5.5) == 18
    assert dsf_objective(s43, LeaseDecision(0, 0), p2, 5.5, 5.5) == -3
    assert dsf_objective(s43, LeaseDecision(1, 0), p2, 5.5, 5.5) == 8

    # threshold rule
    p1 = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    assert dsf_decide(QueueState(8, 4), p1) == LEASE
    assert dsf_decide(QueueState(0, 0), p1) == HOLD
    assert dsf_decide(QueueState(8, 3), p1) == HOLD  # strict inequality at the boundary

    # exact argmin rule
    assert dsf_decide_exact_argmin(QueueState(8, 4), p1, 5.5, 5.5) == LEASE
    ph = ControlParams(v=1.0, eps_d=0.5, expected_price_ris=5.5, expected_price_spectrum=5.5)
    assert dsf_decide_exact_argmin(QueueState(8, 4), ph, 5.5, 5.5) == HOLD
    p2e = ControlParams(v=1.0, eps_d=2.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    assert dsf_decide_exact_argmin(QueueState(11, 0), p2e, 5.5, 5.5) == HOLD

    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"24 formula evaluations in {elapsed:.3f}s (budget 1s)")


def test_criterion_2_threshold_argmin_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10_000
    qs = rng.uniform(0, 100, n)
    zs = rng.uniform(0, 100, n)
    vs = rng.uniform(0.1, 100, n)
    mean_p = mean_s = 5.5
    disagreements = 0
    for q, z, v in zip(qs, zs, vs):
        params = ControlParams(v=v, eps_d=1.0, expected_price_ris=mean_p, expected_price_spectrum=mean_s)
        state = QueueState(q, z)
        if dsf_decide(state, params) != dsf_decide_exact_argmin(state, params, mean_p, mean_s):
            disagreements += 1

    half = ControlParams(v=1.0, eps_d=0.5, expected_price_ris=5.5, expected_price_spectrum=5.5)
    counter_state = QueueState(8.0, 4.0)
    diverges = dsf_decide(counter_state, half) != dsf_decide_exact_argmin(counter_state, half, 5.5, 5.5)

    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and diverges and elapsed < 1.0
    report(
        2,
        ok,
        f"eps_d=1: {disagreements}/{n} disagreements; eps_d=0.5 counterexample "
        f"(Q=8, Z=4, V=1) diverges={diverges}; {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_3_cost_and_queue_vs_v(v_axis):
    traces, build_time = v_axis
    start = time.perf_counter()
    summaries = [summarize(traces[v]) for v in V_GRID]
    costs = [s.accumulated_cost for s in summaries]
    queues = [s.average_queue for s in summaries]
    cost_ok, cost_detail = tolerant_monotone(costs, "non-increasing")
    queue_ok, queue_detail = tolerant_monotone(queues, "non-decreasing")
    elapsed = build_time + time.perf_counter() - start
    ok = cost_ok and queue_ok and elapsed < 10.0
    report(
        3,
        ok,
        f"cost {['%.1f' % c for c in costs]} {cost_detail}; "
        f"avg queue {['%.3f' % q for q in queues]} {queue_detail}; {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_4_cost_and_queue_vs_eps(eps_axis):
    traces, build_time = eps_axis
    start = time.perf_counter()
    summaries = [summarize(traces[eps]) for eps in EPS_GRID]
    costs = [s.accumulated_cost for s in summaries]
    queues = [s.average_queue for s in summaries]
    queue_ok, queue_detail = tolerant_monotone(queues, "non-increasing")
    cost_ok, cost_detail = tolerant_monotone(costs, "non-decreasing")
    elapsed = build_time + time.perf_counter() - start
    ok = cost_ok and queue_ok and elapsed < 5.0
    report(
        4,
        ok,
        f"avg queue {['%.3f' % q for q in queues]} {queue_detail}; "
        f"cost {['%.1f' % c for c in costs]} {cost_detail}; {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_dsf_beats_greedy_and_periodic(comparison):
    traces, build_time = comparison
    start = time.perf_counter()
    results = [
        (traces[label].policy, summarize(traces[label]), cumulative_average_cost_series(traces[label]))
        for label in SIX_POLICIES
    ]
    finals = {
        policy_label(policy): series[-1] for policy, _summary, series in results
    }
    print("[ACCEPTANCE 5] six-policy ranking (final cumulative average cost):")
    for entry in comparison_ranking(results):
        final = finals[entry["policy"]]
        print(f"    {entry['rank']}. {entry['policy']}: {final:.4f}")
    elapsed = build_time + time.perf_counter() - start
    ok = (
        finals["dsf"] <= finals["greedy"]
        and finals["dsf"] <= finals["periodic:2"]
        and elapsed < 10.0
    )
    report(
        5,
        ok,
        f"dsf={finals['dsf']:.4f} vs greedy={finals['greedy']:.4f} "
        f"and periodic:2={finals['periodic:2']:.4f}; {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_6_stability_bound(v_axis):
    traces, _ = v_axis
    start = time.perf_counter()
    trace = traces[10.0]
    tail = trace.column("q_after")[-1000:]
    scenario = trace.scenario
    mean_total = expected_price(scenario.price_low, scenario.price_high) * 2
    bound = 10.0 * mean_total + 50.0
    peak = float(tail.max())
    elapsed = time.perf_counter() - start
    ok = peak <= bound and elapsed < 5.0
    report(6, ok, f"max Q over final 1000 slots = {peak:g} <= bound {bound:g}; {elapsed:.2f}s (budget 5s)")


def test_criterion_7_conservation_and_accounting(v_axis, eps_axis, comparison):
    all_traces = list(v_axis[0].values()) + list(eps_axis[0].values()) + list(comparison[0].values())
    checked = 0
    for trace in all_traces:
        initial = trace.scenario.initial_backlog
        served = trace.column("q_before") - trace.column("q_after")
        assert initial + trace.column("arrival").sum() == served.sum() + trace.column("q_after")[-1]
        rederived = (
            trace.column("x_effective") * trace.column("price_ris")
            + trace.column("y_effective") * trace.column("price_spectrum")
        )
        assert np.array_equal(trace.column("cost"), rederived)
        assert trace.column("cost").sum() == rederived.sum()
        checked += 1
    report(7, checked == 15, f"conservation and cost accounting exact on {checked} traces")


def test_criterion_8_oracle_lower_bound():
    start = time.perf_counter()

    worked_market = [
        MarketObservation(price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=1, arrival=0),
        MarketObservation(price_ris=9.0, price_spectrum=9.0, avail_ris=1, avail_spectrum=1, arrival=0),
        MarketObservation(price_ris=1.0, price_spectrum=1.0, avail_ris=1, avail_spectrum=1, arrival=0),
    ]
    worked = offline_min_cost(worked_market, 1, 3)
    worked_ok = worked == (2.0, [0, 0, 1], True)

    policies = [parse_policy(label) for label in SIX_POLICIES]
    cleared = 0
    beaten = 0
    for i in range(100):
        backlog = (i % 3) + 1
        scenario = ScenarioConfig(horizon_slots=10, initial_backlog=backlog, seed=1000 + i)
        oracle_cost, _, feasible = offline_min_cost(draw_realization(scenario), backlog, 10)
        params = default_params(scenario, v=10.0, eps_d=1.0)
        for policy in policies:
            trace = run(scenario, policy, params)
            if trace.column("q_after")[-1] != 0.0:
                continue
            cleared += 1
            assert feasible  # a clearing policy trace is itself a feasible schedule
            if trace.column("cost").sum() < oracle_cost - 1e-9:
                beaten += 1

    elapsed = time.perf_counter() - start
    ok = worked_ok and beaten == 0 and cleared > 0 and elapsed < 30.0
    report(
        8,
        ok,
        f"worked example min cost 2 reproduced={worked_ok}; {cleared} clearing runs, "
        f"{beaten} beat the oracle; {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_9_cheapest_cell_determinism(v_axis, tmp_path):
    traces, _ = v_axis
    cheapest_v = min(V_GRID, key=lambda v: summarize(traces[v]).accumulated_cost)
    scenario = ScenarioConfig()
    params = default_params(scenario, v=cheapest_v, eps_d=1.0)
    paths = []
    for name in ("first.csv", "second.csv"):
        trace = run(scenario, parse_policy("dsf"), params)
        path = tmp_path / name
        write_trace_csv(trace, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(9, identical, f"cheapest cell v={cheapest_v:g} rerun twice -> byte-identical CSVs: {identical}")


def test_criterion_10_intent_pipeline(tmp_path):
    start = time.perf_counter()

    intent_path = tmp_path / "intent.json"
    intent_path.write_text(
        json.dumps({"payload_mb": 1000, "deadline_s": 900, "reliability_pct": 99})
    )
    translation_path = tmp_path / "translation.json"
    derived_path = tmp_path / "derived.json"
    code = main(
        [
            "intent",
            "--file",
            str(intent_path),
            "--out",
            str(translation_path),
            "--scenario-out",
            str(derived_path),
        ]
    )
    assert code == 0
    translation = json.loads(translation_path.read_text())["translation"]
    numbers_ok = (
        translation["n_packets"] == 100
        and translation["deadline_slots"] == 900
        and translation["params"]["eps_d"] == 0.5
        and round(translation["params"]["v"], 2) == 17.26
    )

    # full availability for the execution stage, as the criterion states
    derived = json.loads(derived_path.read_text())
    derived["avail_prob_ris"] = 1.0
    derived["avail_prob_spectrum"] = 1.0
    full_path = tmp_path / "derived_full.json"
    full_path.write_text(json.dumps(derived))

    trace_path = tmp_path / "bulk.csv"
    code = main(
        [
            "run",
            "--scenario",
            str(full_path),
            "--policy",
            "dsf",
            "--v",
            repr(translation["params"]["v"]),
            "--eps",
            repr(translation["params"]["eps_d"]),
            "--out",
            str(trace_path),
        ]
    )
    assert code == 0
    pass_code = main(
        [
            "assure",
            "--trace",
            str(trace_path),
            "--intent",
            str(intent_path),
            "--translation",
            str(translation_path),
        ]
    )

    truncated = dict(derived)
    truncated["horizon_slots"] = 50
    short_path = tmp_path / "derived_short.json"
    short_path.write_text(json.dumps(truncated))
    short_trace = tmp_path / "short.csv"
    code = main(
        [
            "run",
            "--scenario",
            str(short_path),
            "--policy",
            "dsf",
            "--v",
            repr(translation["params"]["v"]),
            "--eps",
            repr(translation["params"]["eps_d"]),
            "--out",
            str(short_trace),
        ]
    )
    assert code == 0
    fail_code = main(
        [
            "assure",
            "--trace",
            str(short_trace),
            "--intent",
            str(intent_path),
            "--translation",
            str(translation_path),
        ]
    )

    elapsed = time.perf_counter() - start
    ok = numbers_ok and pass_code == 0 and fail_code == 2 and elapsed < 5.0
    report(
        10,
        ok,
        f"translation numbers ok={numbers_ok}; full run assure exit={pass_code} (want 0); "
        f"50-slot run assure exit={fail_code} (want 2); {elapsed:.2f}s (budget 5s)",
    )
