"""Metrics, sweep/compare harnesses, and CSV/JSON export.

Everything here is deterministic: sweeps assemble rows by grid position,
comparisons run every policy against the identical market realization,
and files are written with round-trip float precision so repeated runs
diff clean.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._version import VERSION
from .core import ConfigError, ControlParams
from .environment import ScenarioConfig, derive_seed, scenario_fingerprint, scenario_overridden
from .policies import PolicySpec, policy_label
from .simulator import TRACE_COLUMNS, Trace, default_params, run

_INT_TRACE_COLUMNS = frozenset(
    (
        "t",
        "arrival",
        "avail_ris",
        "avail_spectrum",
        "x_desired",
        "y_desired",
        "x_effective",
        "y_effective",
        "r",
    )
)


@dataclass(frozen=True)
class RunSummary:
    """Scalar metrics of one run."""

    accumulated_cost: float
    average_queue: float
    average_virtual_queue: float
    lease_count: int
    final_backlog: float
    cumulative_average_cost_final: float


@dataclass(frozen=True)
class SweepCell:
    v: float
    eps_d: float
    seed: int
    summary: RunSummary


@dataclass(frozen=True)
class SweepTable:
    """One row per (v, eps_d) grid cell, assembled in grid order."""

    policy: PolicySpec
    v_grid: tuple[float, ...]
    eps_grid: tuple[float, ...]
    common_random_numbers: bool
    base_seed: int
    scenario_fingerprint: str
    rows: tuple[SweepCell, ...]


def summarize(trace: Trace) -> RunSummary:
    """Scalar metrics of a trace; errors on an empty one.

    The accumulated cost is taken from the running sum so that the last
    element of cumulative_average_cost_series matches the final average
    exactly, not merely to rounding.
    """
    n = len(trace)
    if n == 0:
        raise ConfigError("cannot summarize an empty trace")
    running_cost = np.cumsum(trace.column("cost"))
    accumulated = float(running_cost[-1])
    return RunSummary(
        accumulated_cost=accumulated,
        average_queue=float(trace.column("q_after").mean()),
        average_virtual_queue=float(trace.column("z_after").mean()),
        lease_count=int(trace.column("r").sum()),
        final_backlog=float(trace.column("q_after")[-1]),
        cumulative_average_cost_final=accumulated / n,
    )


def cumulative_average_cost_series(trace: Trace) -> list[float]:
    """Running mean of realized cost; element t is the average over slots 1..t."""
    n = len(trace)
    if n == 0:
        raise ConfigError("cannot build a series from an empty trace")
    running = np.cumsum(trace.column("cost"))
    return (running / np.arange(1, n + 1)).tolist()


def sweep(
    scenario: ScenarioConfig,
    policy: PolicySpec,
    v_grid: list[float],
    eps_grid: list[float],
    common_random_numbers: bool = True,
) -> SweepTable:
    """Run one simulation per (v, eps_d) cell, in row-major grid order.

    With common random numbers (the default) every cell sees the same
    market realization, so differences between rows are pure policy
    effect. Otherwise each cell gets a seed derived from (base seed,
    cell index), stable across runs and independent of execution order.
    """
    if not v_grid or not eps_grid:
        raise ConfigError("sweep grids must be non-empty")
    for value in list(v_grid) + list(eps_grid):
        if value <= 0:
            raise ConfigError(f"grid values must be positive, got {value!r}")
    rows = []
    cell_index = 0
    for v in v_grid:
        for eps_d in eps_grid:
            seed = scenario.seed if common_random_numbers else derive_seed(scenario.seed, cell_index)
            cell_scenario = scenario_overridden(scenario, seed=seed)
            params = default_params(cell_scenario, v=v, eps_d=eps_d)
            trace = run(cell_scenario, policy, params)
            rows.append(SweepCell(v=v, eps_d=eps_d, seed=seed, summary=summarize(trace)))
            cell_index += 1
    return SweepTable(
        policy=policy,
        v_grid=tuple(v_grid),
        eps_grid=tuple(eps_grid),
        common_random_numbers=common_random_numbers,
        base_seed=scenario.seed,
        scenario_fingerprint=scenario_fingerprint(scenario),
        rows=tuple(rows),
    )


def compare(
    scenario: ScenarioConfig,
    policies: list[PolicySpec],
    params: ControlParams,
) -> list[tuple[PolicySpec, RunSummary, list[float]]]:
    """Run every policy against the identical market realization.

    Common random numbers are mandatory here: the scenario (seed included)
    is shared verbatim, so the logged arrival, price, and availability
    columns agree across all returned runs.
    """
    if not policies:
        raise ConfigError("compare needs at least one policy")
    results = []
    for policy in policies:
        trace = run(scenario, policy, params)
        results.append((policy, summarize(trace), cumulative_average_cost_series(trace)))
    return results


# ---------------------------------------------------------------------------
# serialization


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write the trace with the fixed column order and full float precision.

    Integer columns print as str(int), float columns as repr(float), in
    csv.writer's excel dialect (no field needs quoting, rows end in CRLF).
    """
    cells = [
        map(str, trace.column(name).astype(np.int64).tolist())
        if name in _INT_TRACE_COLUMNS
        else map(repr, trace.column(name).astype(np.float64).tolist())
        for name in TRACE_COLUMNS
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace CSV back; columns are matched by name."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty file, expected a trace CSV header")
        missing = [name for name in TRACE_COLUMNS if name not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{path}: missing trace columns: {', '.join(missing)}")
        rows = list(reader)
    columns: dict[str, np.ndarray] = {}
    for name in TRACE_COLUMNS:
        if name in _INT_TRACE_COLUMNS:
            columns[name] = np.array([int(row[name]) for row in rows], dtype=np.int64)
        else:
            columns[name] = np.array([float(row[name]) for row in rows], dtype=np.float64)
    return Trace(columns)


def read_realization_csv(path: str | Path):
    """Read market columns (arrival, prices, availability) from a CSV.

    Matches by header name and ignores any other columns, so a full trace
    CSV works as input wherever a bare realization is expected.
    """
    from .environment import Realization

    required = ("arrival", "price_ris", "price_spectrum", "avail_ris", "avail_spectrum")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty file, expected a realization CSV header")
        missing = [name for name in required if name not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{path}: missing realization columns: {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: realization CSV has no data rows")
    return Realization(
        arrival=np.array([int(row["arrival"]) for row in rows], dtype=np.int64),
        price_ris=np.array([float(row["price_ris"]) for row in rows], dtype=np.float64),
        price_spectrum=np.array([float(row["price_spectrum"]) for row in rows], dtype=np.float64),
        avail_ris=np.array([int(row["avail_ris"]) for row in rows], dtype=np.int64),
        avail_spectrum=np.array([int(row["avail_spectrum"]) for row in rows], dtype=np.int64),
    )


def summary_to_dict(summary: RunSummary) -> dict:
    return {
        "accumulated_cost": summary.accumulated_cost,
        "average_queue": summary.average_queue,
        "average_virtual_queue": summary.average_virtual_queue,
        "lease_count": summary.lease_count,
        "final_backlog": summary.final_backlog,
        "cumulative_average_cost_final": summary.cumulative_average_cost_final,
    }


def report_header(
    scenario: ScenarioConfig,
    policy: PolicySpec | None = None,
    params: ControlParams | None = None,
) -> dict:
    """Header block embedded in every JSON output; enough to rerun exactly."""
    header = {
        "tool": "leasesim",
        "version": VERSION,
        "scenario": asdict(scenario),
        "scenario_fingerprint": scenario_fingerprint(scenario),
        "seed": scenario.seed,
    }
    if policy is not None:
        header["policy"] = policy_label(policy)
    if params is not None:
        header["params"] = {
            "v": params.v,
            "eps_d": params.eps_d,
            "expected_price_ris": params.expected_price_ris,
            "expected_price_spectrum": params.expected_price_spectrum,
        }
    return header


def write_json(document: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def write_summary_json(trace: Trace, path: str | Path) -> None:
    if trace.scenario is None or trace.policy is None or trace.params is None:
        raise ConfigError("trace lacks scenario/policy/params; cannot build a summary header")
    document = {
        "header": report_header(trace.scenario, trace.policy, trace.params),
        "summary": summary_to_dict(summarize(trace)),
    }
    write_json(document, path)


def sweep_to_dict(table: SweepTable, scenario: ScenarioConfig) -> dict:
    return {
        "header": report_header(scenario, table.policy),
        "v_grid": list(table.v_grid),
        "eps_grid": list(table.eps_grid),
        "common_random_numbers": table.common_random_numbers,
        "base_seed": table.base_seed,
        "scenario_fingerprint": table.scenario_fingerprint,
        "rows": [
            {
                "v": cell.v,
                "eps_d": cell.eps_d,
                "seed": cell.seed,
                "summary": summary_to_dict(cell.summary),
            }
            for cell in table.rows
        ],
    }


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    """Long-form CSV of the sweep table, one row per grid cell."""
    fields = (
        "v",
        "eps_d",
        "seed",
        "accumulated_cost",
        "average_queue",
        "average_virtual_queue",
        "lease_count",
        "final_backlog",
        "cumulative_average_cost_final",
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for cell in table.rows:
            summary = summary_to_dict(cell.summary)
            writer.writerow(
                [repr(float(cell.v)), repr(float(cell.eps_d)), str(cell.seed)]
                + [
                    str(summary[name]) if name == "lease_count" else repr(float(summary[name]))
                    for name in fields[3:]
                ]
            )


def comparison_ranking(
    results: list[tuple[PolicySpec, RunSummary, list[float]]],
) -> list[dict]:
    """Policies ordered by accumulated cost, cheapest first; label breaks ties."""
    ordered = sorted(results, key=lambda item: (item[1].accumulated_cost, policy_label(item[0])))
    return [
        {"rank": rank, "policy": policy_label(policy), "summary": summary_to_dict(summary)}
        for rank, (policy, summary, _series) in enumerate(ordered, start=1)
    ]


def write_comparison_series_csv(
    results: list[tuple[PolicySpec, RunSummary, list[float]]],
    path: str | Path,
) -> None:
    """Per-policy cumulative-average-cost series in long form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("policy", "t", "cumulative_average_cost"))
        for policy, _summary, series in results:
            label = policy_label(policy)
            for t, value in enumerate(series, start=1):
                writer.writerow((label, str(t), repr(float(value))))
