"""Spans around calls into leasesim's layers, recorded from outside the package.

`Tracer.install` replaces module attributes at the places where the
package (or a workload op) looks each function up, so nothing in `src/`
changes; `Tracer.uninstall` puts every original back. Spans are kept in
memory as (name, start_ns, end_ns, parent, op, work, key) and written
once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. The op's root span, ``bench.op``, therefore keeps as self time
exactly the part no wrapped layer accounts for, and the self times of
all spans of an op add up to the op's traced duration.
"""
from __future__ import annotations

import csv
import os
from collections import defaultdict
from time import perf_counter_ns

from leasesim import cli, environment, reporting, simulator

NAME, START, END, PARENT, OP, WORK, KEY = range(7)


def _draw_key(args, kwargs):
    config = args[0]
    n_slots = args[1] if len(args) > 1 else kwargs.get("n_slots")
    return (config.seed, config.horizon_slots if n_slots is None else n_slots)


def _len_result(args, kwargs, result):
    return len(result)


def _loop_slots(args, kwargs, result):
    return len(args[4])  # the arrival column


def _size_of_arg(index):
    def work(args, kwargs, result):
        return os.path.getsize(args[index])

    return work


# (module, attribute, span name, work counter, key) for every wrapped lookup.
# `run`, `summarize` and `write_json` are wrapped in each module that imports
# them, since each import is a separate lookup.
TARGETS = (
    (simulator, "draw_realization", "environment.draw", _len_result, _draw_key),
    (environment, "draw_realization", "environment.draw", _len_result, _draw_key),
    (reporting, "run", "simulator.run", None, None),
    (cli, "run", "simulator.run", None, None),
    (simulator, "step", "simulator.step", None, None),
    (simulator, "offline_min_cost", "simulator.oracle", None, None),
    (reporting, "sweep", "reporting.sweep", None, None),
    (reporting, "summarize", "reporting.summarize", None, None),
    (cli, "summarize", "reporting.summarize", None, None),
    (cli, "write_trace_csv", "reporting.csv_write", _size_of_arg(1), None),
    (cli, "read_trace_csv", "reporting.csv_read", _size_of_arg(0), None),
    (cli, "write_summary_json", "reporting.json_write", None, None),
    (cli, "write_json", "reporting.json_write", None, None),
    (reporting, "write_json", "reporting.json_write", None, None),
    (cli, "translate_intent", "intent.translate", None, None),
    (cli, "assure", "intent.assure", None, None),
    (cli, "main", "cli.main", None, None),
)
LOOP_SPAN = "kernels.loop"
ROOT_SPAN = "bench.op"


class Tracer:
    """Spans of the wrapped calls made while `run_op` runs an op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._loops: dict[int, object] = {}
        self.op = -1

    def wrap(self, name, fn, work=None, key=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            if key is not None:
                span[KEY] = key(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _traced_get_loop(self, get_loop):
        def traced_get_loop(backend=None):
            loop = get_loop(backend)
            if id(loop) not in self._loops:
                self._loops[id(loop)] = self.wrap(LOOP_SPAN, loop, _loop_slots)
            return self._loops[id(loop)]

        return traced_get_loop

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, work, key in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work, key))
        self._saved.append((simulator, "get_loop", simulator.get_loop))
        simulator.get_loop = self._traced_get_loop(simulator.get_loop)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span, with the wrappers installed."""
        self.op = op_id
        self.install()
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "op", "work"))
            for span in self.spans:
                out.writerow(span[:KEY])


def nesting_problems(spans) -> list[str]:
    """Spans that leave their parent's interval, or overlap a sibling."""
    problems = []
    last_child_end: dict[int, int] = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if span[END] < span[START]:
            problems.append(f"span {i} ({span[NAME]}) ends before it starts")
        if parent < 0:
            continue
        outer = spans[parent]
        if span[START] < outer[START] or span[END] > outer[END] or span[OP] != outer[OP]:
            problems.append(f"span {i} ({span[NAME]}) is not inside its parent {parent}")
        if span[START] < last_child_end.get(parent, span[START]):
            problems.append(f"span {i} ({span[NAME]}) overlaps a sibling")
        last_child_end[parent] = span[END]
    return problems


def op_durations(spans, scales: dict[int, float]) -> list[float]:
    """Seconds of the root span of each op in `scales`, scaled as in layer_metrics."""
    return [
        (span[END] - span[START]) * scales[span[OP]] / 1e9
        for span in spans if span[PARENT] < 0 and span[OP] in scales
    ]


def layer_metrics(spans, scales: dict[int, float]) -> dict[str, float]:
    """Per-op layer metrics from the spans of the traced ops in `scales`, a
    dict of op id -> speed scale that multiplies every time of that op.

    Times and counts are means per traced op, except the per-call and
    per-slot rates, which are totals divided by calls or slots.
    """
    child_ns: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0 and span[OP] in scales:
            child_ns[span[PARENT]] += (span[END] - span[START]) * scales[span[OP]]
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, float] = defaultdict(float)
    self_ns: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    draw_keys: dict[int, set] = defaultdict(set)
    for i, span in enumerate(spans):
        if span[OP] not in scales:
            continue
        name = span[NAME]
        duration = (span[END] - span[START]) * scales[span[OP]]
        calls[name] += 1
        total_ns[name] += duration
        self_ns[name] += duration - child_ns[i]
        work[name] += span[WORK]
        if span[KEY] is not None:
            draw_keys[span[OP]].add(span[KEY])

    def per_op(value):
        return value / len(scales)

    def ms(ns):
        return per_op(ns) / 1e6

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    draw, loop = "environment.draw", LOOP_SPAN
    return {
        "environment.draw_calls": per_op(calls[draw]),
        "environment.draw_slots": per_op(work[draw]),
        "environment.draw_self_ms": ms(self_ns[draw]),
        "environment.draw_ns_per_slot": ratio(self_ns[draw], work[draw]),
        "environment.distinct_draw_ratio": ratio(
            sum(len(keys) for keys in draw_keys.values()), calls[draw]
        ),
        "kernels.loop_calls": per_op(calls[loop]),
        "kernels.loop_slots": per_op(work[loop]),
        "kernels.loop_self_ms": ms(self_ns[loop]),
        "kernels.loop_ns_per_slot": ratio(self_ns[loop], work[loop]),
        "simulator.run_calls": per_op(calls["simulator.run"]),
        "simulator.run_self_ms": ms(self_ns["simulator.run"]),
        "simulator.step_calls": per_op(calls["simulator.step"]),
        "simulator.step_self_us": ratio(self_ns["simulator.step"], calls["simulator.step"]) / 1e3,
        "simulator.oracle_calls": per_op(calls["simulator.oracle"]),
        "simulator.oracle_ms_per_call": ratio(
            total_ns["simulator.oracle"], calls["simulator.oracle"]
        ) / 1e6,
        "reporting.sweep_self_ms": ms(self_ns["reporting.sweep"]),
        "reporting.summarize_calls": per_op(calls["reporting.summarize"]),
        "reporting.summarize_self_ms": ms(self_ns["reporting.summarize"]),
        "reporting.csv_write_ms": ms(self_ns["reporting.csv_write"]),
        "reporting.csv_write_bytes": per_op(work["reporting.csv_write"]),
        "reporting.csv_write_mb_per_s": ratio(
            work["reporting.csv_write"] * 1e3, self_ns["reporting.csv_write"]
        ),
        "reporting.csv_read_ms": ms(self_ns["reporting.csv_read"]),
        "reporting.csv_read_mb_per_s": ratio(
            work["reporting.csv_read"] * 1e3, self_ns["reporting.csv_read"]
        ),
        "reporting.json_write_ms": ms(self_ns["reporting.json_write"]),
        "intent.translate_ms": ms(self_ns["intent.translate"]),
        "intent.assure_ms": ms(self_ns["intent.assure"]),
        "cli.self_ms": ms(self_ns["cli.main"]),
        "bench.unattributed_ms": ms(self_ns[ROOT_SPAN]),
        "bench.traced_op_ms": ms(total_ns[ROOT_SPAN]),
    }


# per-op self times; with the step and oracle totals they add up to bench.traced_op_ms
SELF_TIME_METRICS = (
    "environment.draw_self_ms",
    "kernels.loop_self_ms",
    "simulator.run_self_ms",
    "reporting.sweep_self_ms",
    "reporting.summarize_self_ms",
    "reporting.csv_write_ms",
    "reporting.csv_read_ms",
    "reporting.json_write_ms",
    "intent.translate_ms",
    "intent.assure_ms",
    "cli.self_ms",
    "bench.unattributed_ms",
)


def self_time_sum_ms(metrics: dict[str, float]) -> float:
    """Sum of the per-op layer self times and the unattributed remainder."""
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    total += metrics["simulator.step_calls"] * metrics["simulator.step_self_us"] / 1e3
    return total + metrics["simulator.oracle_calls"] * metrics["simulator.oracle_ms_per_call"]
