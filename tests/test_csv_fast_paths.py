"""The bulk trace CSV writer and reader against their per-cell references.

`write_trace_csv` formats each distinct value of a column once and joins
one grid, indexing the texts of a small integer range by value instead of
sorting; `_read_csv_columns` parses the body with numpy's loadtxt and
falls back to the csv module. The references below are the per-cell
trace writer, the csv.writer sweep writer and the csv-module reader they
replaced, kept verbatim (the reader with the later repeated-header rule
added), and a csv.writer comparison-series writer: for
every trace or table the bytes must match, and for every CSV text both
readers must return the same arrays with the same dtypes or raise the
same error.
"""
import csv
import math
import os
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leasesim import reporting
from leasesim.core import ConfigError, check_int, check_price
from leasesim.environment import MARKET_FIELDS, ScenarioConfig
from leasesim.policies import parse_policy, policy_label
from leasesim.reporting import (
    read_realization_csv,
    read_trace_csv,
    sweep,
    write_comparison_series_csv,
    write_sweep_csv,
    write_trace_csv,
)
from leasesim.simulator import TRACE_COLUMNS, TRACE_DTYPES, Trace

INT_TRACE_COLUMNS = frozenset(name for name, dtype in TRACE_DTYPES.items() if dtype == np.int64)

# ---------------------------------------------------------------------------
# references


def reference_write_trace_csv(trace, path):
    cells = [
        map(str, trace.column(name).astype(np.int64).tolist())
        if name in INT_TRACE_COLUMNS
        else map(repr, trace.column(name).astype(np.float64).tolist())
        for name in TRACE_COLUMNS
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


_INT_RANGES = {"t": (1, 2**63 - 1), "arrival": (0, 2**63 - 1)}


def reference_parse_column(path, name, cells):
    if name in INT_TRACE_COLUMNS:
        parse, dtype = int, np.int64
        low, high = _INT_RANGES.get(name, (0, 1))
    else:
        parse, dtype = float, np.float64
    try:
        values = np.array(list(map(parse, cells)), dtype=dtype)
    except (ValueError, OverflowError):
        pass
    else:
        if parse is float:
            if (np.isfinite(values) & (values >= 0)).all():
                return values
        elif not len(values) or (low <= values.min() and values.max() <= high):
            return values
    for row, cell in enumerate(cells, start=1):
        try:
            value = parse(cell)
        except ValueError:
            value = cell
        where = f"{path}: row {row}: {name}"
        if parse is int:
            check_int(where, value, low, high)
        else:
            check_price(where, value)
    raise AssertionError("a cell that failed the column check passed the cell check")


def reference_read_columns(path, names, what):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty file, expected a {what} CSV header")
        missing = [name for name in names if name not in header]
        if missing:
            raise ConfigError(f"{path}: missing {what} columns: {', '.join(missing)}")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ConfigError(f"{path}: {what} CSV header repeats column {name}")
        rows = [row for row in reader if row]
    for row, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise ConfigError(f"{path}: row {row}: expected {len(header)} cells, got {len(cells)}")
    columns = list(zip(*rows)) or [()] * len(header)
    return {name: reference_parse_column(path, name, columns[header.index(name)]) for name in names}


def reference_read_realization_columns(path):
    columns = reference_read_columns(path, MARKET_FIELDS, "realization")
    if not len(columns["arrival"]):
        raise ConfigError(f"{path}: realization CSV has no data rows")
    return columns


def outcome(read, path):
    """('ok', {name: (dtype, bytes)}) or ('error', type, message)."""
    try:
        columns = read(path)
    except Exception as exc:  # compared by type and message below
        return ("error", type(exc), str(exc))
    return ("ok", {name: (values.dtype, values.shape, values.tobytes()) for name, values in columns.items()})


def fast_trace_columns(path):
    trace = read_trace_csv(path)
    return {name: trace.column(name) for name in TRACE_COLUMNS}


def fast_realization_columns(path):
    realization = read_realization_csv(path)
    return {name: getattr(realization, name) for name in MARKET_FIELDS}


# ---------------------------------------------------------------------------
# writer


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 0.1 + 0.2, 1e22,
                  1.7976931348623157e308, 123456789.125, math.inf, -math.inf, math.nan]
SPECIAL_INTS = [0, 1, -1, 2**63 - 1, -(2**63), 2**53 + 1, 10**18]


@st.composite
def traces(draw):
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 30))
    columns = {}
    for name in TRACE_COLUMNS:
        if name in INT_TRACE_COLUMNS:
            cell = st.sampled_from(SPECIAL_INTS) | st.integers(-(2**63), 2**63 - 1)
            columns[name] = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.int64)
        else:
            cell = st.sampled_from(SPECIAL_FLOATS) | st.floats()
            columns[name] = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
    return Trace(columns)


@settings(max_examples=100, deadline=None)
@given(trace=traces())
def test_writer_matches_the_per_cell_reference(tmp_path_factory, trace):
    directory = tmp_path_factory.getbasetemp()
    reference_write_trace_csv(trace, directory / "reference.csv")
    write_trace_csv(trace, directory / "bulk.csv")
    assert (directory / "bulk.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_writer_keeps_every_special_value(tmp_path, n):
    floats = np.resize(np.array(SPECIAL_FLOATS), max(n, len(SPECIAL_FLOATS)))[:n] if n else np.empty(0)
    ints = np.resize(np.array(SPECIAL_INTS, dtype=np.int64), n)
    trace = Trace({name: ints if name in INT_TRACE_COLUMNS else floats for name in TRACE_COLUMNS})
    reference_write_trace_csv(trace, tmp_path / "reference.csv")
    write_trace_csv(trace, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_writer_keeps_negative_zero_apart_from_zero(tmp_path):
    floats = np.array([0.0, -0.0, 0.0, -0.0])
    trace = Trace({name: np.arange(4) if name in INT_TRACE_COLUMNS else floats for name in TRACE_COLUMNS})
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[TRACE_COLUMNS.index("cost")] for row in rows] == ["0.0", "-0.0", "0.0", "-0.0"]


def reference_write_sweep_csv(table, path):
    fields = ("v", "eps_d", "seed", *asdict(table.rows[0].summary))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for cell in table.rows:
            summary = asdict(cell.summary)
            writer.writerow(
                [repr(float(cell.v)), repr(float(cell.eps_d)), str(cell.seed)]
                + [
                    str(summary[name]) if name == "lease_count" else repr(float(summary[name]))
                    for name in fields[3:]
                ]
            )


def test_sweep_writer_matches_the_csv_writer_reference_on_64_bit_seeds(tmp_path):
    table = sweep(ScenarioConfig(horizon_slots=30), parse_policy("dsf"), [1, 2.5], [1.0, 3], False)
    seeds = [0, 2**63 - 1, 2**63, 2**64 - 1]
    table = replace(table, rows=tuple(replace(cell, seed=seed) for cell, seed in zip(table.rows, seeds)))
    reference_write_sweep_csv(table, tmp_path / "reference.csv")
    write_sweep_csv(table, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize(
    "ints, sorted_",
    [
        ([7, 7, 7, 7, 7], False),
        ([-3, -1, -2, -3, 0], False),
        ([0, 4, 2, 2, 1], False),  # max - min == n - 1
        ([0, 5, 2, 2, 1], True),  # max - min == n
        ([2**63 - 1, 2**63 - 3, 2**63 - 2], False),
        ([-(2**63), -(2**63) + 1], False),
        ([-(2**63), 2**63 - 1, 0], True),
        ([9], False),
    ],
    ids=["repeated", "negative_small_range", "range_n_minus_1", "range_n", "near_int64_max",
         "near_int64_min", "int64_extremes", "one_row"],
)
def test_writer_indexes_small_integer_ranges_without_a_sort(tmp_path, monkeypatch, ints, sorted_):
    """An integer column with max - min < n takes the sort-free path and a
    wider one takes np.unique; both write the reference's bytes."""
    n = len(ints)
    trace = Trace({
        name: np.array(ints, dtype=np.int64) if name in INT_TRACE_COLUMNS else np.linspace(-1.5, 2.5, n)
        for name in TRACE_COLUMNS
    })
    reference_write_trace_csv(trace, tmp_path / "reference.csv")
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda values, **kw: calls.append(values) or unique(values, **kw))
    write_trace_csv(trace, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    float_columns = len(TRACE_COLUMNS) - len(INT_TRACE_COLUMNS)
    assert len(calls) == float_columns + (len(INT_TRACE_COLUMNS) if sorted_ else 0)


def reference_write_comparison_series_csv(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "t", "cumulative_average_cost"])
        for policy, _summary, series in results:
            for t, value in enumerate(series, start=1):
                writer.writerow([policy_label(policy), str(t), repr(float(value))])


@pytest.mark.parametrize(
    "lengths", [[], [0], [0, 3], [3, 3], [1, 5, 2]], ids=["no_policy", "empty", "empty_and_3", "3_3", "1_5_2"]
)
def test_comparison_series_writer_matches_the_csv_writer_reference(tmp_path, lengths):
    labels = ["dsf", "greedy", "periodic:2"]
    results = [
        (parse_policy(label), None, [0.5 * t - 0.25 for t in range(length)])
        for label, length in zip(labels, lengths)
    ]
    reference_write_comparison_series_csv(results, tmp_path / "reference.csv")
    write_comparison_series_csv(results, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize(
    "seeds",
    [[5, 5, 5, 5], [3, 0, 2, 1], [2**64 - 1, 2**64 - 4, 2**64 - 2, 2**64 - 3]],
    ids=["repeated", "small_range", "small_range_below_2_64"],
)
def test_sweep_writer_matches_the_csv_writer_reference_on_narrow_seed_ranges(tmp_path, seeds):
    """Seeds are Python ints in an object column, which takes np.unique
    however narrow their range; the spread 64-bit case is the test above."""
    table = sweep(ScenarioConfig(horizon_slots=30), parse_policy("dsf"), [1, 2.5], [1.0, 3], False)
    table = replace(table, rows=tuple(replace(cell, seed=seed) for cell, seed in zip(table.rows, seeds)))
    reference_write_sweep_csv(table, tmp_path / "reference.csv")
    write_sweep_csv(table, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 3, 7, 9])
def test_writers_in_blocks_of_three_rows_keep_every_byte(tmp_path, monkeypatch, n):
    """With blocks of 3 rows, each block formats its own slice: the trace,
    sweep and comparison-series writers still write the references'
    bytes, for a length that is a multiple of the block and one that is not,
    with values repeated across blocks and -0.0 beside 0.0."""
    monkeypatch.setattr(reporting, "_BLOCK_ROWS", 3)
    floats = np.resize(np.array([0.0, -0.0, 0.1 + 0.2, 2.5, 0.0, 1e22, math.inf]), n)
    trace = Trace({
        name: np.arange(n) % 4 if name in INT_TRACE_COLUMNS else floats for name in TRACE_COLUMNS
    })
    reference_write_trace_csv(trace, tmp_path / "reference.csv")
    write_trace_csv(trace, tmp_path / "bulk.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    results = [(parse_policy("dsf"), None, floats.tolist()), (parse_policy("greedy"), None, floats[1:].tolist())]
    reference_write_comparison_series_csv(results, tmp_path / "series_reference.csv")
    write_comparison_series_csv(results, tmp_path / "series.csv")
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "series_reference.csv").read_bytes()

    if n:
        v_grid = [1.0, 2.5, 4.0][: min(n, 3)]
        table = sweep(ScenarioConfig(horizon_slots=10), parse_policy("dsf"), v_grid, [1.0, 3], False)
        seeds = [2**64 - 1 - i % 2 for i in range(len(table.rows))]
        table = replace(table, rows=tuple(replace(cell, seed=seed) for cell, seed in zip(table.rows, seeds)))
        reference_write_sweep_csv(table, tmp_path / "sweep_reference.csv")
        write_sweep_csv(table, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "sweep_reference.csv").read_bytes()


# ---------------------------------------------------------------------------
# reader

# cells that a run can write, per kind of column
VALID_CELLS = {
    "t": st.integers(1, 10**6).map(str),
    "arrival": st.integers(0, 3).map(str),
    "flag": st.sampled_from(["0", "1"]),
    "float": st.sampled_from(["0.0", "-0.0", "2.5", "7.25", "1e-05", "5e-324", "3"])
    | st.floats(0, 1e6).map(repr),
}

# cells of a column no reader returns: text makes loadtxt give up
EXTRA_CELLS = st.sampled_from(["x", "1.5", "2", "0.25"])

# cells that one of the two parsers, or the value check, refuses or reads
# in its own way
ODD_CELLS = st.sampled_from([
    '"1"', '"2.5"', '"1,5"', "1_0", "1_0.5", " 1 ", "\t0 ", " 2.5", "+1", "-0", "007",
    "", " ", "abc", "1.0", "1e3", "nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "-2.5",
    "2", "-1", str(2**63), str(2**63 - 1), str(-(2**63) - 1), "0x10", "١", "1\xa0", "1#2", "#",
])


def kind(name):
    if name in ("t", "arrival"):
        return name
    return "flag" if name in INT_TRACE_COLUMNS else "float"


@st.composite
def csv_texts(draw, names):
    """A CSV text over `names`: the header reordered, extended with extra
    columns or now and then a repeated one, or short of one, sometimes
    quoted; up to six rows of valid cells with a few odd ones, blank and
    whitespace-only lines, a short row now and then, and mixed CRLF, LF
    and CR line ends."""
    header = list(names)
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    extras = st.sampled_from([name for name in ("note", "t", "cost", "r", "") if name not in header])
    for extra in draw(st.lists(extras, max_size=3, unique=True)):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 4)) == 0:  # both readers reject a repeated column
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    if draw(st.integers(0, 9)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    header_cells = [f'"{name}"' if draw(st.integers(0, 9)) == 0 else name for name in header]

    lines = [",".join(header_cells)]
    for _ in range(draw(st.integers(0, 6))):
        filler = draw(st.integers(0, 11))
        if filler < 2:  # a blank or a whitespace-only line
            lines.append(draw(st.sampled_from(["", " ", "\t"])) if filler else "")
            continue
        cells = [draw(EXTRA_CELLS if name in ("note", "") else VALID_CELLS[kind(name)]) for name in header]
        for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 3)) == 0 else 0):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELLS)
        if draw(st.integers(0, 14)) == 0:
            cells = cells[:-1]
        lines.append(",".join(cells))
    endings = [draw(st.sampled_from(["\r\n", "\n", "\r"])) for _ in lines]
    last = draw(st.sampled_from(["", "\r\n", "\n", "\r", "\n\n", "\r\n\r\n", "\r\n \r\n"]))
    return "".join(line + end for line, end in zip(lines, endings[:-1] + [""])) + last


def write_text(directory, text):
    path = directory / "input.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(text=csv_texts(TRACE_COLUMNS))
def test_trace_reader_matches_the_csv_module_reference(tmp_path_factory, text):
    path = write_text(tmp_path_factory.getbasetemp(), text)
    expected = outcome(lambda p: reference_read_columns(p, TRACE_COLUMNS, "trace"), path)
    assert outcome(fast_trace_columns, path) == expected


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(text=csv_texts(MARKET_FIELDS))
def test_realization_reader_matches_the_csv_module_reference(tmp_path_factory, text):
    path = write_text(tmp_path_factory.getbasetemp(), text)
    expected = outcome(reference_read_realization_columns, path)
    assert outcome(fast_realization_columns, path) == expected


def trace_text(end="\r\n", extra=None, **cells):
    """A three-row trace CSV. Keyword cells replace row 1's cell of that
    column; `extra` is a (name, cells) column appended to the right."""
    header = list(TRACE_COLUMNS)
    rows = [
        [str(t) if name == "t" else "1" if name in INT_TRACE_COLUMNS else f"{t}.5" for name in TRACE_COLUMNS]
        for t in (1, 2, 3)
    ]
    rows[0][TRACE_COLUMNS.index("q_before")] = "-0.0"
    for name, cell in cells.items():
        rows[0][TRACE_COLUMNS.index(name)] = cell
    if extra is not None:
        header.append(extra[0])
        for row, cell in zip(rows, extra[1]):
            row.append(cell)
    return "".join(",".join(line) + end for line in [header] + rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        trace_text(),
        trace_text(end="\r"),
        trace_text(end="\n").replace("\n", "\n\n", 1),
        trace_text(x_desired=" 1 ", cost="\t2.5 ", r="+1"),
        trace_text(extra=("note", ["4.5", "0", "1e400"])),
    ],
    ids=["crlf", "cr", "blank_line", "spaces_and_sign", "extra_numeric_column"],
)
def test_numeric_bodies_take_the_loadtxt_path(tmp_path, monkeypatch, text):
    path = write_text(tmp_path, text)
    expected = outcome(lambda p: reference_read_columns(p, TRACE_COLUMNS, "trace"), path)
    assert expected[0] == "ok"
    monkeypatch.setattr(reporting, "_parse_column", None)  # the csv-module path cannot run
    assert outcome(fast_trace_columns, path) == expected


@pytest.mark.parametrize(
    "read,what", [(read_trace_csv, "trace"), (read_realization_csv, "realization")], ids=["trace", "realization"]
)
def test_a_repeated_header_column_is_rejected_before_the_body(tmp_path, monkeypatch, read, what):
    """A second cost column, which loadtxt would parse and the reader would
    ignore, makes the header an error before either body parser runs."""
    path = write_text(tmp_path, trace_text(extra=("cost", ["-1", "nan", "inf"])))
    monkeypatch.setattr(reporting, "_loadtxt_columns", None)
    monkeypatch.setattr(reporting, "_parse_column", None)
    with pytest.raises(ConfigError) as info:
        read(path)
    assert str(info.value) == f"{path}: {what} CSV header repeats column cost"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text,message",
    [
        (trace_text(x_desired='"1"'), None),
        (trace_text(arrival="1_0"), None),
        (trace_text(extra=("note", ["x", "y", "z"])), None),
        (",".join(TRACE_COLUMNS) + "\r\n", None),
        (",".join(TRACE_COLUMNS) + "\r\n\r\n\n", None),
        (trace_text() + " \r\n", "row 4: expected 16 cells, got 1"),
        (trace_text(q_before="nan"), "row 1: q_before must be a finite number >= 0, got nan"),
        (trace_text(price_ris="-2.5"), "row 1: price_ris must be a finite number >= 0, got -2.5"),
        (trace_text(r="2"), "row 1: r must be <= 1, got 2"),
        (trace_text(t=str(2**63)), f"row 1: t must be <= {2**63 - 1}, got {2**63}"),
    ],
    ids=["quoted", "underscore", "text_column", "header_only", "blank_body", "whitespace_line", "nan",
         "negative_price", "flag_2", "t_2_63"],
)
def test_other_bodies_fall_back_to_the_csv_module(tmp_path, monkeypatch, text, message):
    path = write_text(tmp_path, text)
    expected = outcome(lambda p: reference_read_columns(p, TRACE_COLUMNS, "trace"), path)
    parsed = []
    parse_column = reporting._parse_column
    monkeypatch.setattr(reporting, "_parse_column", lambda *args: parsed.append(args) or parse_column(*args))
    assert outcome(fast_trace_columns, path) == expected
    if message is None:
        assert expected[0] == "ok"
    else:
        assert expected[0] == "error" and expected[2] == f"{path}: {message}"
    assert parsed or message and "cells, got" in message


@pytest.mark.parametrize("body", ["", "\r\n", "\n\r\n\r"], ids=["none", "crlf", "blank_lines"])
def test_an_empty_body_warns_nothing(tmp_path, body):
    path = write_text(tmp_path, ",".join(TRACE_COLUMNS) + "\r\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(read_trace_csv(path)) == 0
        with pytest.raises(ConfigError, match="realization CSV has no data rows"):
            read_realization_csv(path)
    assert [str(w.message) for w in caught] == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="reads a pipe through /dev/fd")
def test_the_fallback_reads_a_pipe():
    read_end, write_end = os.pipe()
    os.write(write_end, trace_text(x_desired='"1"').encode())  # a quoted cell: loadtxt gives up
    os.close(write_end)
    try:
        trace = read_trace_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert trace.column("x_desired").tolist() == [1, 1, 1]
