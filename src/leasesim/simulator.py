"""Discrete-time slot engine: full runs, single steps, and the offline oracle.

Each slot proceeds through the same stages regardless of policy:
arrival joins the queue, the policy sees (state, market), the desired
lease is masked by availability, departure and cost accrue, both queues
advance. A run logs every stage so traces can be audited after the fact.
runs() draws one market and resolves the backend once for many cells;
run() is its one-cell case; runs() and step() share one record rule.
The oracle checks the market slots it reads against
environment.COLUMN_RULES, the rule the CSV readers apply too.
"""
from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import POLICY_CODES, PRICE_READING_KINDS, get_loop, resolve_backend
from .core import ConfigError, ControlParams, QueueState, check_int, check_price, frozen
from .environment import (
    MARKET_FIELDS,
    MarketObservation,
    Realization,
    ScenarioConfig,
    check_market_slot,
    draw_realization,
    expected_price,
    first_bad_row,
)
from .policies import PolicySpec


@dataclass(frozen=True)
class SlotRecord:
    """Everything observed and decided during one slot.

    r is the joint lease (both resources leased and available), not a
    departure: it is 1 on an empty queue too, where the lease serves
    nothing. The packets served are q_before - q_after.
    """

    t: int
    q_before: float
    z_before: float
    arrival: int
    avail_ris: int
    avail_spectrum: int
    price_ris: float
    price_spectrum: float
    x_desired: int
    y_desired: int
    x_effective: int
    y_effective: int
    r: int
    cost: float
    q_after: float
    z_after: float


TRACE_COLUMNS = tuple(f.name for f in fields(SlotRecord))

# the trace columns held as int64, SlotRecord's int fields; the rest are float64
INT_TRACE_COLUMNS = frozenset(f.name for f in fields(SlotRecord) if f.type in ("int", int))

# per trace column, the Python type a SlotRecord field holds
_RECORD_TYPES = tuple(int if name in INT_TRACE_COLUMNS else float for name in TRACE_COLUMNS)


class Trace:
    """Column-oriented log of a run; iterates as SlotRecord rows."""

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        scenario: ScenarioConfig | None = None,
        policy: PolicySpec | None = None,
        params: ControlParams | None = None,
    ):
        missing = [name for name in TRACE_COLUMNS if name not in columns]
        if missing:
            raise ConfigError(f"trace is missing columns: {missing}")
        lengths = {len(columns[name]) for name in TRACE_COLUMNS}
        if len(lengths) > 1:
            raise ConfigError("trace columns have unequal lengths")
        self._columns = {name: np.asarray(columns[name]) for name in TRACE_COLUMNS}
        self.scenario = scenario
        self.policy = policy
        self.params = params

    def __len__(self) -> int:
        return len(self._columns["t"])

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"no trace column named {name!r}")
        return self._columns[name]

    def record(self, i: int) -> SlotRecord:
        return frozen(
            SlotRecord,
            [cast(column[i]) for cast, column in zip(_RECORD_TYPES, self._columns.values())],
        )

    def __iter__(self) -> Iterator[SlotRecord]:
        for i in range(len(self)):
            yield self.record(i)

    @property
    def records(self) -> list[SlotRecord]:
        return list(self)


def default_params(scenario: ScenarioConfig, v: float, eps_d: float) -> ControlParams:
    """Control parameters with expected prices taken from the scenario."""
    mean_price = expected_price(scenario.price_low, scenario.price_high)
    return ControlParams(
        v=v,
        eps_d=eps_d,
        expected_price_ris=mean_price,
        expected_price_spectrum=mean_price,
    )


def _kernel_args(policy: PolicySpec, params: ControlParams) -> tuple:
    """The loop's scalar policy and control arguments, in argument order."""
    period_k = policy.period_k if policy.period_k is not None else 1
    price_cutoff = policy.price_cutoff if policy.price_cutoff is not None else 0.0
    queue_cutoff = policy.queue_cutoff if policy.queue_cutoff is not None else 0.0
    return (
        POLICY_CODES[policy.kind],
        period_k,
        float(price_cutoff),
        float(queue_cutoff),
        params.v,
        params.eps_d,
        params.v * (params.expected_price_ris + params.expected_price_spectrum),
    )


# dtypes of the loop's output columns x_desired (the wish, as a flag), q_after,
# z_after; the python loop stores the two floats through memoryviews of them
_LOOP_DTYPES = (np.bool_, np.float64, np.float64)


def _shifted(first: float, column: np.ndarray) -> np.ndarray:
    """The column one slot later, with `first` in slot 0."""
    out = np.empty(len(column))
    out[:1] = first
    out[1:] = column[:-1]
    return out


def _slot_values(
    t, q, z, arrival, avail_ris, avail_spectrum, price_ris, price_spectrum,
    joint_avail, x_desired, q_after, z_after,
) -> tuple:
    """A slot's values in TRACE_COLUMNS order, the one record rule, from the
    slot index, the state (q, z) before the arrival, the market and the
    loop's outputs (the wish x_desired as an int). Python numbers give one
    SlotRecord, numpy columns a trace, each value bit for bit the slot's own.
    """
    r = x_desired & joint_avail
    return (
        t, q + arrival, z, arrival, avail_ris, avail_spectrum, price_ris, price_spectrum,
        x_desired, x_desired, r, r, r, r * price_ris + r * price_spectrum, q_after, z_after,
    )


def _packed(values: list, dtype) -> np.ndarray:
    """np.asarray(values, dtype) for a list of Python numbers, bit for bit.

    struct packs the whole list in one call, about twice as fast as
    numpy's per-element conversion; the array stays writable.
    """
    out = np.empty(len(values), dtype)
    struct.pack_into(f"{len(values)}{out.dtype.char}", out, 0, *values)
    return out


def _market_columns(realization: Realization, python: bool, read_prices: bool = True) -> tuple:
    """The loop's three market columns (arrival as float64, joint_price,
    joint_avail), and joint_avail as an int64 array, from which r is derived.

    Float arrivals keep the loop's queue updates float with float; the
    python backend's lists of arrival and joint_price hold only floats.
    Without `read_prices` (no cell's kind is in PRICE_READING_KINDS), the
    python backend gets joint_price as the array, which the loop never
    indexes, and the list is not built."""
    joint_avail = ((realization.avail_ris == 1) & (realization.avail_spectrum == 1)).astype(np.int64)
    joint_price = realization.price_ris + realization.price_spectrum
    arrival = realization.arrival.astype(np.float64)
    if python:
        # the interpreted loop indexes plain lists far faster than numpy scalars
        prices = joint_price.tolist() if read_prices else joint_price
        return (arrival.tolist(), prices, joint_avail.tolist()), joint_avail
    return (arrival, joint_price, joint_avail), joint_avail


def _run_loop(
    loop,
    market: tuple,
    realization: Realization,
    q0: float,
    z0: float,
    t0: int,
    freeze_z: bool,
    policy: PolicySpec,
    params: ControlParams,
) -> dict[str, np.ndarray]:
    """All trace columns of `loop` run on `market`, the realization's
    _market_columns.

    The output arrays are allocated first. Where the loop reads lists
    (python), it stores q_after and z_after through memoryviews of them,
    so no float output is kept alive as an object, and the wish goes to
    a list of bools (singletons, free to hold) packed after the loop.
    """
    n = len(realization)
    market, joint_avail = market
    outputs = [np.empty(n, dtype=dtype) for dtype in _LOOP_DTYPES]
    if isinstance(market[0], list):
        wishes = [False] * n
        views = [memoryview(column) for column in outputs[1:]]
        loop(q0, z0, t0, freeze_z, *market, *_kernel_args(policy, params), wishes, *views)
        outputs[0] = _packed(wishes, _LOOP_DTYPES[0])
    else:
        loop(q0, z0, t0, freeze_z, *market, *_kernel_args(policy, params), *outputs)
    wish, q_after, z_after = outputs
    return dict(zip(TRACE_COLUMNS, _slot_values(
        np.arange(t0, t0 + n, dtype=np.int64), _shifted(q0, q_after), _shifted(z0, z_after),
        realization.arrival, realization.avail_ris, realization.avail_spectrum,
        realization.price_ris, realization.price_spectrum,
        joint_avail, wish.astype(np.int64), q_after, z_after,
    )))


def runs(
    scenario: ScenarioConfig,
    cells: Iterable[tuple[PolicySpec, ControlParams]],
) -> Iterator[Trace]:
    """One trace per (policy, params) cell, all on one market realization.

    The market is drawn and prepared, and the backend resolved, once
    however many cells follow; each trace is the one run() gives for its
    cell, and holds its own copy of the market columns. The joint-price
    list is built only when a cell's kind reads it (PRICE_READING_KINDS).
    Traces are yielded one at a time, so only the caller keeps them alive.
    """
    cells = list(cells)
    realization = draw_realization(scenario)
    backend = resolve_backend()
    loop = get_loop(backend)
    read_prices = any(policy.kind in PRICE_READING_KINDS for policy, _ in cells)
    market = _market_columns(realization, backend == "python", read_prices)
    q0, freeze_z = float(scenario.initial_backlog), scenario.freeze_z_when_empty
    for policy, params in cells:
        columns = _run_loop(loop, market, realization, q0, 0.0, 1, freeze_z, policy, params)
        columns.update({name: columns[name].copy() for name in MARKET_FIELDS})
        yield Trace(columns, scenario=scenario, policy=policy, params=params)


def run(
    scenario: ScenarioConfig,
    policy: PolicySpec,
    params: ControlParams,
) -> Trace:
    """Simulate the whole horizon and return the slot-by-slot trace."""
    [trace] = runs(scenario, [(policy, params)])
    return trace


def step(
    state: QueueState,
    observation: MarketObservation,
    policy: PolicySpec,
    params: ControlParams,
    t: int = 1,
    freeze_z_when_empty: bool = False,
) -> tuple[QueueState, SlotRecord]:
    """Advance one slot; returns the new state and the slot's record.

    Runs the python loop on one-slot columns and builds the record by
    run()'s rule, so a chain of step() calls reproduces a full run exactly.
    """
    if type(t) is not int or t < 1:
        check_int("slot index", t, 1)
        t = int(t)
    q, z = float(state.q), float(state.z)
    arrival = observation.arrival
    if type(arrival) is not int or arrival < 0:
        check_int("observation: arrival", arrival, 0)
        arrival = int(arrival)
    avail_ris, avail_spectrum = observation.avail_ris, observation.avail_spectrum
    if not (type(avail_ris) is int and avail_ris >= 0 and type(avail_spectrum) is int and avail_spectrum >= 0):
        check_int("observation: avail_ris", avail_ris, 0)
        check_int("observation: avail_spectrum", avail_spectrum, 0)
        avail_ris, avail_spectrum = int(avail_ris), int(avail_spectrum)
    price_ris, price_spectrum = observation.price_ris, observation.price_spectrum
    if not (type(price_ris) is float and type(price_spectrum) is float
            and 0.0 <= price_ris < math.inf and 0.0 <= price_spectrum < math.inf):
        check_price("observation: price_ris", price_ris)
        check_price("observation: price_spectrum", price_spectrum)
        price_ris, price_spectrum = float(price_ris), float(price_spectrum)
    joint_avail = 1 if avail_ris == 1 and avail_spectrum == 1 else 0
    x_desired, q_after, z_after = [0], [0], [0]
    get_loop("python")(
        q, z, t, freeze_z_when_empty, [arrival], [price_ris + price_spectrum], [joint_avail],
        *_kernel_args(policy, params), x_desired, q_after, z_after
    )
    record = frozen(SlotRecord, _slot_values(
        t, q, z, arrival, avail_ris, avail_spectrum, price_ris, price_spectrum,
        joint_avail, int(x_desired[0]), q_after[0], z_after[0]  # the wish is a bool; records hold ints
    ))
    # the state came in checked and the arrival is >= 0, so the loop's
    # queues stay >= 0 (it clamps them after a lease) and frozen skips
    # QueueState's check, which every step would pay
    return frozen(QueueState, (q_after[0], z_after[0])), record


def _market_slots(
    realization: Realization | Sequence[MarketObservation], deadline: int
) -> list[tuple]:
    """The first `deadline` slots as MARKET_FIELDS tuples, checked.

    Observations become object columns. A column that first_bad_row
    rejects, or cannot check, sends the slots to check_market_slot one by
    one, to name the first bad slot.
    """
    if not isinstance(realization, Realization):
        observations = list(realization)
        realization = Realization(*(
            np.fromiter((getattr(obs, name) for obs in observations), dtype=object, count=len(observations))
            for name in MARKET_FIELDS
        ))
    lengths = [len(getattr(realization, name)) for name in MARKET_FIELDS]
    n = min(lengths)
    if n < max(lengths):
        short = MARKET_FIELDS[lengths.index(n)]
        raise ConfigError(
            f"realization columns differ in length: {short} has {n} slots, another has {max(lengths)}"
        )
    if n < deadline:
        raise ConfigError(f"realization has {n} slots but the deadline needs {deadline}")
    columns = [getattr(realization, name)[:deadline] for name in MARKET_FIELDS]
    slots = list(zip(*(column.tolist() for column in columns)))
    if any(first_bad_row(name, column) is not None for name, column in zip(MARKET_FIELDS, columns)):
        for t, slot in enumerate(slots, start=1):
            check_market_slot(f"slot {t}", *slot)
    return slots


def offline_min_cost(
    realization: Realization | Sequence[MarketObservation],
    initial_backlog: int,
    deadline: int,
) -> tuple[float, list[int], bool]:
    """Cheapest lease schedule clearing the backlog by the deadline.

    Over the first `deadline` slots, each slot either holds (the backlog
    takes the arrival) or, where both resources are available, leases
    jointly: one packet is served, clamped at empty, for
    price_ris + price_spectrum. Returns (min_total_cost, decisions,
    feasible); infeasible instances come back as (inf, [], False).

    A packet can be served by any open slot from its arrival on, and the
    initial backlog arrives in the first slot. These sets of slots are
    nested suffixes, so a backward sweep is optimal: it pushes each open
    slot onto a min-heap keyed (joint price, -slot) and pops one slot per
    packet arriving there; an empty heap means the instance is infeasible.
    That is O(deadline log deadline), with at most deadline + 1 pops
    whatever the backlog.

    The schedule minimises the exact sum of the slots' float joint prices,
    since the heap only compares single prices. Among exact ties the later
    slot wins, so the decisions are the lexicographically first optimal
    vector (hold before lease). The returned cost is the leased prices
    added in slot order.

    Bad inputs raise ConfigError naming the field (and the 1-based slot).
    """
    check_int("initial backlog", initial_backlog, 0)
    check_int("deadline", deadline, 1)
    slots = _market_slots(realization, deadline)

    heap: list[tuple[float, int]] = []  # open slots not leased yet, as (joint price, -slot)
    decisions = [0] * deadline
    for t in range(deadline - 1, -1, -1):
        arrival, price_ris, price_spectrum, avail_ris, avail_spectrum = slots[t]
        if avail_ris == 1 and avail_spectrum == 1:
            heapq.heappush(heap, (price_ris + price_spectrum, -t))
        # range is lazy: a huge backlog stops at the first pop from an empty heap
        for _ in range(int(arrival) + (int(initial_backlog) if t == 0 else 0)):
            if not heap:
                return math.inf, [], False
            decisions[-heapq.heappop(heap)[1]] = 1
    # a plain loop, not sum(): from Python 3.12 sum() compensates float rounding
    cost = 0.0
    for (_, price_ris, price_spectrum, _, _), leased in zip(slots, decisions):
        if leased:
            cost += price_ris + price_spectrum
    return cost, decisions, True
