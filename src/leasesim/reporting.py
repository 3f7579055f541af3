"""Metrics, sweep/compare harnesses, and CSV/JSON export.

Everything here is deterministic: sweeps assemble rows by grid position,
comparisons run every policy against the identical market realization,
and files are written with round-trip float precision so repeated runs
diff clean. Every CSV is written by `_write_csv`; trace and realization
CSVs are read by numpy's loadtxt, with the csv module as the fallback
that names a bad cell (`_read_csv_columns`). The values a cell may hold
are environment.COLUMN_RULES, the rule the oracle applies too.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._version import VERSION
from .core import ConfigError, ControlParams, record_dict
from .environment import (
    MARKET_FIELDS,
    Realization,
    ScenarioConfig,
    check_value,
    derive_seed,
    first_bad_row,
    scenario_fingerprint,
    with_seed,
)
from .policies import PolicySpec, policy_label
from .simulator import TRACE_COLUMNS, TRACE_DTYPES, Trace, default_params, run, runs


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
    rows: tuple[SweepCell, ...]


@np.errstate(over="ignore")
def summarize(trace: Trace) -> RunSummary:
    """Scalar metrics of a trace; errors on an empty one.

    The accumulated cost is taken from the running sum so that the last
    element of cumulative_average_cost_series matches the final average
    exactly, not merely to rounding. A sum that overflows is inf, without
    numpy's warning: write_json names it instead of writing it. The two
    means are `float(column.sum()) / n`, ndarray.mean's own rule for
    float64, so the same bits in one pass instead of two.
    """
    n = len(trace)
    if n == 0:
        raise ConfigError("cannot summarize an empty trace")
    running_cost = np.cumsum(trace.column("cost"))
    accumulated = float(running_cost[-1])
    return RunSummary(
        accumulated_cost=accumulated,
        average_queue=float(trace.column("q_after").sum()) / n,
        average_virtual_queue=float(trace.column("z_after").sum()) / n,
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
    market realization, drawn and prepared once (simulator.runs), so
    differences between rows are pure policy effect. Otherwise each cell
    gets a seed derived from (base seed, cell index), stable across runs
    and independent of execution order.
    """
    if not v_grid or not eps_grid:
        raise ConfigError("sweep grids must be non-empty")
    # every cell's params, built before the first run so that a bad grid
    # value fails before any cell runs; reseeded cells keep the base
    # scenario's prices and horizon, so its params serve them all
    cell_params = [default_params(scenario, v=v, eps_d=eps_d) for v in v_grid for eps_d in eps_grid]
    if common_random_numbers:
        traces = runs(scenario, [(policy, params) for params in cell_params])
    else:
        traces = (
            run(with_seed(scenario, derive_seed(scenario.seed, cell_index)), policy, params)
            for cell_index, params in enumerate(cell_params)
        )
    rows = [
        SweepCell(v=params.v, eps_d=params.eps_d, seed=trace.scenario.seed, summary=summarize(trace))
        for params, trace in zip(cell_params, traces)
    ]
    return SweepTable(
        policy=policy,
        v_grid=tuple(v_grid),
        eps_grid=tuple(eps_grid),
        common_random_numbers=common_random_numbers,
        rows=tuple(rows),
    )


def compare(
    scenario: ScenarioConfig,
    policies: list[PolicySpec],
    params: ControlParams,
) -> list[tuple[PolicySpec, RunSummary, list[float]]]:
    """Run every policy against the identical market realization.

    Common random numbers are mandatory here: one market is drawn for all
    policies (simulator.runs), so the logged arrival, price, and
    availability columns agree across all returned runs.
    """
    if not policies:
        raise ConfigError("compare needs at least one policy")
    return [
        (trace.policy, summarize(trace), cumulative_average_cost_series(trace))
        for trace in runs(scenario, [(policy, params) for policy in policies])
    ]


# ---------------------------------------------------------------------------
# serialization


def _column_texts(values: np.ndarray, end: str) -> tuple[list[str], np.ndarray]:
    """Each distinct value of a column formatted once, with `end`
    appended, and every row's index into those texts.

    A float prints as repr(float) and is told apart by its bit pattern, so
    -0.0 keeps its sign; anything else prints as str(value). An integer
    column whose range is shorter than the column (max - min < len, as
    the trace's slot index, flags and counts are) indexes the texts of
    min..max by `values - min`, with no sort; a wider range, such as the
    int64 extremes, and an object column, such as 64-bit sweep seeds
    held as Python ints, take np.unique.
    """
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        bits, inverse = np.unique(bits, return_inverse=True)
        return [repr(value) + end for value in bits.view(np.float64).tolist()], inverse
    if values.dtype.kind in "iu" and len(values):
        low, high = int(values.min()), int(values.max())
        if high - low < len(values):
            return [str(value) + end for value in range(low, high + 1)], values - low
    distinct, inverse = np.unique(values, return_inverse=True)
    return [str(value) + end for value in distinct.tolist()], inverse


# rows formatted and written per block, which bounds the writer's memory
_BLOCK_ROWS = 8192


def _write_csv(path: str | Path, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under `header`: the one CSV formatting rule.

    Cells are joined by "," and rows end in CRLF, as csv.writer's excel
    dialect writes them, with no quoting, since no cell written here holds
    a comma, a quote or a line break. Rows go out in blocks of _BLOCK_ROWS:
    per block, `_column_texts` formats each distinct value of a column's
    slice once, separator included, and the texts are scattered into a
    (rows, columns) grid and written with one join. A cell's text depends
    only on its value, so the blocks change no byte.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [values[start:start + _BLOCK_ROWS] for values in columns]
            grid = np.empty((len(block[0]), len(block)), dtype=object)
            for j, values in enumerate(block):
                texts, inverse = _column_texts(values, "\r\n" if j == len(block) - 1 else ",")
                grid[:, j] = np.array(texts, dtype=object)[inverse]
            fh.write("".join(grid.ravel().tolist()))


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write the trace with the fixed column order and full float precision.

    Integer columns print as str(int), float columns as repr(float), rows
    end in CRLF (see `_write_csv`).
    """
    _write_csv(path, TRACE_COLUMNS, [trace.column(name) for name in TRACE_COLUMNS])


def _parse_column(path, name: str, cells: tuple[str, ...]) -> np.ndarray:
    """One CSV column as its TRACE_DTYPES array, parsed cell by cell with
    the Python type of that dtype.

    The first cell that does not parse or breaks COLUMN_RULES is a
    ConfigError naming the field and its 1-based data row.
    """
    dtype = TRACE_DTYPES[name]
    parse = type(dtype.type().item())
    values = []
    for row, cell in enumerate(cells, start=1):
        try:
            value = parse(cell)
        except ValueError:
            value = cell
        check_value(f"{path}: row {row}", name, value)
        values.append(value)
    return np.array(values, dtype=dtype)


def _loadtxt_columns(
    lines: list[str], header: list[str], names: tuple[str, ...]
) -> dict[str, np.ndarray] | None:
    """The named columns of the body `lines`, parsed by numpy's C reader.

    Every header column is one positional field of its TRACE_DTYPES
    dtype, float64 for a column outside the trace. None, to fall back to
    the csv module, when loadtxt rejects the body (a quoted cell, `1_0`,
    text in any column, a ragged row, no data rows) or a named column
    breaks COLUMN_RULES.
    """
    dtype = np.dtype([(f"f{i}", TRACE_DTYPES.get(name, np.float64)) for i, name in enumerate(header)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data" on an empty body
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    columns = {name: np.ascontiguousarray(table[f"f{header.index(name)}"]) for name in names}
    return columns if all(first_bad_row(name, values) is None for name, values in columns.items()) else None


def _read_csv_columns(path, names: tuple[str, ...], what: str) -> dict[str, np.ndarray]:
    """The named columns of a CSV, matched by header and checked. A header
    that names a column twice is a ConfigError naming it.

    The body lines go to numpy's loadtxt first. When that rejects them or
    a value fails the check, the csv module splits the same lines into
    rows and `_parse_column` parses them cell by cell, which returns the
    values or raises a ConfigError naming the first bad row or cell. Text
    that is not UTF-8, or a cell over the csv module's field size limit, is
    a ConfigError naming the file.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file, expected a {what} CSV header")
            missing = [name for name in names if name not in header]
            if missing:
                raise ConfigError(f"{path}: missing {what} columns: {', '.join(missing)}")
            seen = set()
            for name in header:
                if name in seen:
                    raise ConfigError(f"{path}: {what} CSV header repeats column {name}")
                seen.add(name)
            lines = fh.readlines()  # kept for the fallback: the file may be a pipe
        columns = _loadtxt_columns(lines, header, names)
        if columns is not None:
            return columns
        rows = [row for row in csv.reader(lines) if row]  # blank lines are skipped
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: unreadable {what} CSV ({exc})") from exc
    for row, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise ConfigError(f"{path}: row {row}: expected {len(header)} cells, got {len(cells)}")
    columns = list(zip(*rows)) or [()] * len(header)
    return {name: _parse_column(path, name, columns[header.index(name)]) for name in names}


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace CSV back; columns are matched by name.

    A cell that does not parse, or a value that breaks COLUMN_RULES, is a
    ConfigError naming the field and the 1-based data row.
    """
    return Trace(_read_csv_columns(path, TRACE_COLUMNS, "trace"))


def read_realization_csv(path: str | Path) -> Realization:
    """Read market columns (arrival, prices, availability) from a CSV.

    Matches by header name and ignores any other columns, so a full trace
    CSV works as input wherever a bare realization is expected. A cell
    that does not parse, or a value that breaks COLUMN_RULES, is a
    ConfigError naming the field and the 1-based data row.
    """
    columns = _read_csv_columns(path, MARKET_FIELDS, "realization")
    if not len(columns["arrival"]):
        raise ConfigError(f"{path}: realization CSV has no data rows")
    return Realization(**columns)


def report_header(
    scenario: ScenarioConfig | None = None,
    policy: PolicySpec | None = None,
    params: ControlParams | None = None,
) -> dict:
    """Header block embedded in every JSON output; with a scenario, enough
    to rerun exactly, and without one only the tool and its version."""
    header = {"tool": "leasesim", "version": VERSION}
    if scenario is not None:
        header.update(
            scenario=record_dict(scenario),
            scenario_fingerprint=scenario_fingerprint(scenario),
            seed=scenario.seed,
        )
    if policy is not None:
        header["policy"] = policy_label(policy)
    if params is not None:
        header["params"] = record_dict(params)
    return header


def json_text(document: dict, where: str | Path) -> str:
    """`document` as strict JSON (RFC 8259), indented by 2, with a final
    newline: the one JSON output rule. A NaN or infinite value raises a
    ConfigError naming `where` (a path, or stdout) and its key."""
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError:
        found = _first_non_finite(document)
        if found is None:
            raise
        raise ConfigError(f"{where}: {found[0]} is {found[1]}, which JSON cannot hold") from None


def write_json(document: dict, path: str | Path) -> None:
    """Write `document` by json_text's rule; a value JSON cannot hold
    raises before the file is opened, so nothing is written."""
    text = json_text(document, path)
    with open(path, "w") as fh:
        fh.write(text)


def _first_non_finite(node, key: str = "") -> tuple[str, float] | None:
    """The key of the first NaN or infinite float in a JSON document, as
    `summary.cost` or `rows[3].cost`, with its value; None if there is none."""
    if isinstance(node, float):
        return None if math.isfinite(node) else (key, node)
    if isinstance(node, dict):
        children = ((f"{key}.{name}" if key else str(name), child) for name, child in node.items())
    elif isinstance(node, (list, tuple)):
        children = ((f"{key}[{i}]", child) for i, child in enumerate(node))
    else:
        return None
    for child_key, child in children:
        found = _first_non_finite(child, child_key)
        if found is not None:
            return found
    return None


def write_summary_json(trace: Trace, path: str | Path) -> RunSummary:
    """Write the trace's header and summary as JSON; returns the summary."""
    if trace.scenario is None or trace.policy is None or trace.params is None:
        raise ConfigError("trace lacks scenario/policy/params; cannot build a summary header")
    summary = summarize(trace)
    document = {
        "header": report_header(trace.scenario, trace.policy, trace.params),
        "summary": record_dict(summary),
    }
    write_json(document, path)
    return summary


def sweep_to_dict(table: SweepTable, scenario: ScenarioConfig) -> dict:
    """The sweep document; its base seed and fingerprint are the header's,
    taken from `scenario`, the one the sweep ran."""
    header = report_header(scenario, table.policy)
    return {
        "header": header,
        "v_grid": list(table.v_grid),
        "eps_grid": list(table.eps_grid),
        "common_random_numbers": table.common_random_numbers,
        "base_seed": header["seed"],
        "scenario_fingerprint": header["scenario_fingerprint"],
        "rows": [record_dict(cell) for cell in table.rows],
    }


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    """Long-form CSV of the sweep table, one row per grid cell."""
    rows = [vars(cell) | vars(cell.summary) for cell in table.rows]
    columns = {
        # int columns stay Python ints: a seed can reach 2**64 - 1
        field.name: np.array(
            [row[field.name] for row in rows], dtype=object if field.type in ("int", int) else np.float64
        )
        for field in fields(SweepCell) + fields(RunSummary)
        if field.name != "summary"
    }
    _write_csv(path, tuple(columns), list(columns.values()))


def comparison_ranking(
    results: list[tuple[PolicySpec, RunSummary, list[float]]],
) -> list[dict]:
    """Policies ordered by accumulated cost, cheapest first; label breaks ties."""
    ordered = sorted(results, key=lambda item: (item[1].accumulated_cost, policy_label(item[0])))
    return [
        {"rank": rank, "policy": policy_label(policy), "summary": record_dict(summary)}
        for rank, (policy, summary, _series) in enumerate(ordered, start=1)
    ]


def write_comparison_series_csv(
    results: list[tuple[PolicySpec, RunSummary, list[float]]],
    path: str | Path,
) -> None:
    """Per-policy cumulative-average-cost series in long form."""
    labels = np.array([policy_label(policy) for policy, _summary, _series in results], dtype=object)
    series = [np.asarray(values, dtype=np.float64) for _policy, _summary, values in results]
    _write_csv(
        path,
        ("policy", "t", "cumulative_average_cost"),
        [
            np.repeat(labels, [len(values) for values in series]),
            # the leading empty arrays keep an empty `results` writable
            np.concatenate([np.empty(0, np.int64)] + [np.arange(1, len(values) + 1) for values in series]),
            np.concatenate([np.empty(0)] + series),
        ],
    )
