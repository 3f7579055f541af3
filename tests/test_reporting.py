"""Summaries, sweeps, comparisons, and serialization round-trips."""
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from leasesim.core import ConfigError
from leasesim.environment import (
    ScenarioConfig,
    derive_seed,
    scenario_from_dict,
)
from leasesim import reporting, simulator
from leasesim.policies import parse_policy, policy_label
from leasesim.reporting import (
    compare,
    comparison_ranking,
    cumulative_average_cost_series,
    read_realization_csv,
    read_trace_csv,
    report_header,
    summarize,
    sweep,
    sweep_to_dict,
    write_comparison_series_csv,
    write_json,
    write_summary_json,
    write_sweep_csv,
    write_trace_csv,
)
from leasesim.simulator import TRACE_COLUMNS, Trace, default_params, run

GREEDY = parse_policy("greedy")
DSF = parse_policy("dsf")


def small_trace(horizon=40, seed=6, policy=GREEDY, v=1.0):
    scenario = ScenarioConfig(horizon_slots=horizon, seed=seed, initial_backlog=2)
    return run(scenario, policy, default_params(scenario, v=v, eps_d=1.0))


def hand_trace(cost, q_after):
    """Trace with given cost and q_after columns; everything else zeroed."""
    n = len(cost)
    zeros_i = np.zeros(n, dtype=np.int64)
    zeros_f = np.zeros(n, dtype=np.float64)
    columns = {name: zeros_i if name in ("t", "arrival", "avail_ris", "avail_spectrum",
                                         "x_desired", "y_desired", "x_effective",
                                         "y_effective", "r") else zeros_f
               for name in TRACE_COLUMNS}
    columns["t"] = np.arange(1, n + 1, dtype=np.int64)
    columns["cost"] = np.asarray(cost, dtype=np.float64)
    columns["q_after"] = np.asarray(q_after, dtype=np.float64)
    return Trace(columns)


def test_summarize_literal_examples():
    summary = summarize(hand_trace([7.0, 0.0, 5.0], [1.0, 2.0, 0.0]))
    assert summary.accumulated_cost == 12.0
    assert summary.average_queue == 1.0

    zero = summarize(hand_trace([0.0] * 4, [0.0] * 4))
    assert zero.accumulated_cost == 0.0
    assert zero.average_queue == 0.0
    assert zero.lease_count == 0
    assert zero.final_backlog == 0.0
    assert zero.cumulative_average_cost_final == 0.0

    single = summarize(hand_trace([3.0], [4.0]))
    assert single.accumulated_cost == 3.0
    assert single.average_queue == 4.0


def test_series_literal_examples():
    assert cumulative_average_cost_series(hand_trace([7.0, 0.0, 5.0], [0.0] * 3)) == [7.0, 3.5, 4.0]
    assert cumulative_average_cost_series(hand_trace([0.0] * 3, [0.0] * 3)) == [0.0, 0.0, 0.0]
    assert cumulative_average_cost_series(hand_trace([2.0], [0.0])) == [2.0]


def test_summarize_hand_trace():
    trace = small_trace(horizon=3)
    # recompute every metric from raw columns
    summary = summarize(trace)
    cost = trace.column("cost")
    assert summary.accumulated_cost == cost.sum()
    assert summary.average_queue == trace.column("q_after").mean()
    assert summary.average_virtual_queue == trace.column("z_after").mean()
    assert summary.lease_count == trace.column("r").sum()
    assert summary.final_backlog == trace.column("q_after")[-1]
    assert summary.cumulative_average_cost_final == pytest.approx(cost.mean())


def test_series_is_running_mean():
    trace = small_trace(horizon=10)
    series = cumulative_average_cost_series(trace)
    cost = trace.column("cost")
    assert len(series) == 10
    assert series[0] == cost[0]
    assert series[4] == pytest.approx(cost[:5].mean())


def test_series_final_matches_summary_exactly():
    trace = small_trace(horizon=500, policy=DSF, v=10.0)
    series = cumulative_average_cost_series(trace)
    summary = summarize(trace)
    assert series[-1] == summary.cumulative_average_cost_final  # bitwise, not approx
    assert summary.accumulated_cost == float(np.cumsum(trace.column("cost"))[-1])


def test_sweep_grid_order_and_determinism():
    scenario = ScenarioConfig(horizon_slots=100, seed=8)
    table = sweep(scenario, DSF, v_grid=[1.0, 5.0, 20.0], eps_grid=[0.5, 1.0])
    assert len(table.rows) == 6
    # row-major: v is the outer loop
    assert [(c.v, c.eps_d) for c in table.rows] == [
        (1.0, 0.5),
        (1.0, 1.0),
        (5.0, 0.5),
        (5.0, 1.0),
        (20.0, 0.5),
        (20.0, 1.0),
    ]
    again = sweep(scenario, DSF, v_grid=[1.0, 5.0, 20.0], eps_grid=[0.5, 1.0])
    assert again == table


def test_sweep_crn_reuses_base_seed():
    scenario = ScenarioConfig(horizon_slots=50, seed=3)
    table = sweep(scenario, DSF, [1.0, 2.0], [1.0], common_random_numbers=True)
    assert all(cell.seed == 3 for cell in table.rows)
    assert table.common_random_numbers


def test_sweep_without_crn_derives_per_cell_seeds():
    scenario = ScenarioConfig(horizon_slots=50, seed=3)
    table = sweep(scenario, DSF, [1.0, 2.0], [1.0], common_random_numbers=False)
    assert [cell.seed for cell in table.rows] == [derive_seed(3, 0), derive_seed(3, 1)]
    assert len({cell.seed for cell in table.rows}) == 2


def test_sweep_single_cell_equals_plain_run():
    scenario = ScenarioConfig(horizon_slots=200, seed=12)
    table = sweep(scenario, DSF, [10.0], [1.0])
    direct = summarize(run(scenario, DSF, default_params(scenario, v=10.0, eps_d=1.0)))
    assert table.rows[0].summary == direct


def test_sweep_higher_v_spends_less():
    scenario = ScenarioConfig(horizon_slots=3000, seed=42)
    table = sweep(scenario, DSF, [1.0, 50.0], [1.0])
    assert table.rows[1].summary.accumulated_cost <= table.rows[0].summary.accumulated_cost


def test_sweep_validation():
    scenario = ScenarioConfig(horizon_slots=10)
    with pytest.raises(ConfigError):
        sweep(scenario, DSF, [], [1.0])
    with pytest.raises(ConfigError):
        sweep(scenario, DSF, [1.0], [0.0])
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError, match="^v must be a finite number > 0"):
            sweep(scenario, DSF, [1.0, bad], [1.0])
        with pytest.raises(ConfigError, match="^eps_d must be a finite number > 0"):
            sweep(scenario, DSF, [1.0], [1.0, bad])


def _no_cell_runs(monkeypatch):
    def no_run(*args):
        raise AssertionError("a cell ran")

    # a CRN sweep runs its cells through runs, a reseeded one through run
    monkeypatch.setattr(reporting, "run", no_run)
    monkeypatch.setattr(reporting, "runs", no_run)


def test_sweep_rejects_a_bad_grid_value_before_any_cell_runs(monkeypatch):
    _no_cell_runs(monkeypatch)
    with pytest.raises(ConfigError, match="^eps_d must be a finite number > 0, got nan"):
        sweep(ScenarioConfig(horizon_slots=10), DSF, [1.0, 2.0], [1.0, math.nan])


def test_reseeded_sweep_rejects_a_bad_grid_value_before_any_cell_runs(monkeypatch):
    _no_cell_runs(monkeypatch)
    with pytest.raises(ConfigError, match="^eps_d must be a finite number > 0, got nan"):
        sweep(
            ScenarioConfig(horizon_slots=10), DSF, [1.0, 2.0], [1.0, math.nan],
            common_random_numbers=False,
        )


@pytest.mark.parametrize("crn", [True, False])
def test_sweep_rejects_a_v_whose_threshold_overflows_before_any_cell_runs(monkeypatch, crn):
    _no_cell_runs(monkeypatch)
    with pytest.raises(ConfigError, match=r"^v=1e\+308 is too large: the lease threshold"):
        sweep(ScenarioConfig(horizon_slots=10), DSF, [1.0, 1e308], [1.0], common_random_numbers=crn)


def test_crn_sweep_equals_cell_by_cell_runs():
    scenario = ScenarioConfig(horizon_slots=300, initial_backlog=2, seed=23)
    v_grid, eps_grid = [1.0, 10.0, 50.0], [0.5, 2.0]
    table = sweep(scenario, DSF, v_grid, eps_grid)
    want = []
    for v in v_grid:
        for eps_d in eps_grid:
            trace = run(scenario, DSF, default_params(scenario, v=v, eps_d=eps_d))
            want.append(reporting.SweepCell(v=v, eps_d=eps_d, seed=scenario.seed, summary=summarize(trace)))
    assert table.rows == tuple(want)


@pytest.fixture
def call_counts(monkeypatch):
    """Calls so far to simulator's draw_realization, which runs() makes
    once per market, and get_loop, which it makes once per cell."""
    counts = dict.fromkeys(("draw_realization", "get_loop"), 0)

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    return counts


def test_crn_sweep_draws_the_market_once(call_counts):
    v_grid = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    eps_grid = [0.5, 1.0, 2.0]
    with pytest.raises(ConfigError, match="^eps_d must be a finite number > 0, got nan"):
        sweep(ScenarioConfig(horizon_slots=30), DSF, v_grid, [1.0, math.nan])
    assert call_counts == dict.fromkeys(call_counts, 0)  # a bad grid value fails before the market is drawn
    cells = len(v_grid) * len(eps_grid)
    sweep(ScenarioConfig(horizon_slots=30), DSF, v_grid, eps_grid)
    assert call_counts == {"draw_realization": 1, "get_loop": cells}
    sweep(ScenarioConfig(horizon_slots=30), DSF, v_grid, eps_grid, common_random_numbers=False)
    assert call_counts == {"draw_realization": 1 + cells, "get_loop": 2 * cells}


def test_compare_draws_the_market_once(call_counts):
    scenario = ScenarioConfig(horizon_slots=30)
    labels = ("dsf", "greedy", "periodic:2", "myopic", "price_only:8", "queue_threshold:10")
    compare(scenario, [parse_policy(p) for p in labels], default_params(scenario, v=10.0, eps_d=1.0))
    assert call_counts == {"draw_realization": 1, "get_loop": len(labels)}


def test_compare_shares_the_market():
    scenario = ScenarioConfig(horizon_slots=300, seed=9)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    policies = [parse_policy(p) for p in ("dsf", "greedy", "periodic:2")]
    results = compare(scenario, policies, params)
    assert [policy_label(p) for p, _, _ in results] == ["dsf", "greedy", "periodic:2"]
    traces = [run(scenario, p, params) for p in policies]
    for name in ("arrival", "price_ris", "avail_ris"):
        first = traces[0].column(name)
        for other in traces[1:]:
            assert np.array_equal(first, other.column(name))
    for (_, summary, series), trace in zip(results, traces):
        assert summary == summarize(trace)
        assert series == cumulative_average_cost_series(trace)


def test_compare_nothing_to_send_is_free():
    scenario = ScenarioConfig(horizon_slots=100, arrival_prob=0.0)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    results = compare(scenario, [GREEDY], params)
    assert results[0][1].accumulated_cost == 0.0


def test_compare_rejects_empty_policy_list():
    with pytest.raises(ConfigError):
        compare(ScenarioConfig(horizon_slots=10), [], default_params(ScenarioConfig(), 1.0, 1.0))


def test_comparison_ranking_orders_by_cost():
    scenario = ScenarioConfig(horizon_slots=500, seed=42)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    results = compare(scenario, [parse_policy(p) for p in ("greedy", "price_only:8")], params)
    ranking = comparison_ranking(results)
    assert [row["rank"] for row in ranking] == [1, 2]
    costs = [row["summary"]["accumulated_cost"] for row in ranking]
    assert costs == sorted(costs)


def test_trace_csv_round_trip_is_exact(tmp_path):
    trace = small_trace(horizon=60, policy=DSF, v=5.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    again = read_trace_csv(path)
    for name in TRACE_COLUMNS:
        assert np.array_equal(trace.column(name), again.column(name)), name
        assert trace.column(name).dtype == again.column(name).dtype

    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


def test_trace_csv_rewrite_is_byte_stable(tmp_path):
    trace = small_trace(horizon=60, policy=DSF, v=5.0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace_csv(trace, a)
    write_trace_csv(read_trace_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_read_trace_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,q_before\n1,0\n")
    with pytest.raises(ConfigError, match="missing"):
        read_trace_csv(path)


def test_read_trace_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(small_trace(horizon=5), path)
    with open(path, "a", newline="") as fh:
        fh.write("6,0.0\r\n")
    with pytest.raises(ConfigError, match="row 6: expected 16 cells, got 2"):
        read_trace_csv(path)


def test_read_trace_csv_names_the_first_bad_row(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(small_trace(horizon=5), path)
    lines = path.read_text().splitlines()
    for i in (2, 4):  # data rows 2 and 4
        cells = lines[i].split(",")
        cells[TRACE_COLUMNS.index("z_after")] = "inf"
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n\n")  # a trailing blank line is skipped
    with pytest.raises(ConfigError, match="row 2: z_after must be a finite number >= 0, got inf"):
        read_trace_csv(path)


def test_read_trace_csv_header_only_is_an_empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n")
    trace = read_trace_csv(path)
    assert len(trace) == 0
    assert {trace.column(name).dtype for name in TRACE_COLUMNS} == {np.dtype(np.int64), np.dtype(np.float64)}


def test_read_realization_from_trace_csv(tmp_path):
    trace = small_trace(horizon=30)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    realization = read_realization_csv(path)
    assert np.array_equal(realization.arrival, trace.column("arrival"))
    assert np.array_equal(realization.price_ris, trace.column("price_ris"))
    assert np.array_equal(realization.avail_spectrum, trace.column("avail_spectrum"))


def test_read_realization_csv_requires_market_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("arrival,price_ris\n1,2.0\n")
    with pytest.raises(ConfigError, match="avail"):
        read_realization_csv(path)


def test_summary_json_header_suffices_to_rerun(tmp_path):
    trace = small_trace(horizon=80, policy=DSF, v=7.0)
    path = tmp_path / "summary.json"
    write_summary_json(trace, path)
    document = json.loads(path.read_text())
    assert document["header"]["tool"] == "leasesim"
    assert document["header"]["policy"] == "dsf"

    rebuilt = scenario_from_dict(document["header"]["scenario"])
    rerun = run(rebuilt, DSF, trace.params)
    assert asdict(summarize(rerun)) == document["summary"]


def test_write_json_keeps_the_bytes_of_json_dump(tmp_path):
    document = {"header": {"tool": "leasesim"}, "rows": [{"cost": 0.1 + 0.2, "seed": 3}], "empty": []}
    path = tmp_path / "doc.json"
    write_json(document, path)
    assert path.read_text() == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "document, key, value",
    [
        ({"summary": {"cost": 1.0, "average_virtual_queue": math.inf}}, "summary.average_virtual_queue", "inf"),
        ({"rows": [{"cost": 1.0}, {"cost": -math.inf}]}, "rows[1].cost", "-inf"),
        ({"v_grid": [1.0, math.nan], "eps": math.inf}, "v_grid[1]", "nan"),
    ],
)
def test_write_json_names_the_first_non_finite_key_and_writes_nothing(tmp_path, document, key, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {re.escape(key)} is {value}, "):
        write_json(document, path)
    assert not path.exists()


def test_summary_json_requires_provenance(tmp_path):
    trace = small_trace(horizon=10)
    stripped = Trace({name: trace.column(name) for name in TRACE_COLUMNS})
    with pytest.raises(ConfigError, match="scenario"):
        write_summary_json(stripped, tmp_path / "x.json")


def test_report_header_params_block():
    scenario = ScenarioConfig(horizon_slots=10)
    header = report_header(scenario, DSF, default_params(scenario, v=2.0, eps_d=0.5))
    assert header["params"]["v"] == 2.0
    assert header["params"]["eps_d"] == 0.5
    assert header["scenario_fingerprint"] == report_header(scenario)["scenario_fingerprint"]


def test_sweep_writers(tmp_path):
    scenario = ScenarioConfig(horizon_slots=40, seed=2)
    table = sweep(scenario, DSF, [1.0, 2.0], [1.0])
    document = sweep_to_dict(table, scenario)
    assert document["v_grid"] == [1.0, 2.0]
    assert len(document["rows"]) == 2
    json.dumps(document)  # must be serializable as-is

    path = tmp_path / "sweep.csv"
    write_sweep_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("v,eps_d,seed,accumulated_cost")
    assert len(lines) == 3


def test_comparison_series_writer(tmp_path):
    scenario = ScenarioConfig(horizon_slots=5, seed=1)
    params = default_params(scenario, v=1.0, eps_d=1.0)
    results = compare(scenario, [GREEDY], params)
    path = tmp_path / "series.csv"
    write_comparison_series_csv(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "policy,t,cumulative_average_cost"
    assert len(lines) == 6
    assert lines[1].startswith("greedy,1,")
