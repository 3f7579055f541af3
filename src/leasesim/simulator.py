"""Discrete-time slot engine: full runs, single steps, and the offline oracle.

Each slot proceeds through the same stages regardless of policy:
arrival joins the queue, the policy sees (state, market), the desired
lease is masked by availability, departure and cost accrue, both queues
advance. A run logs every stage so traces can be audited after the fact.
The oracle checks the market slots it reads against
environment.COLUMN_RULES, the rule the CSV readers apply too.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from ._kernels import POLICY_CODES, get_loop, resolve_backend
from .core import ConfigError, ControlParams, QueueState, check_int, frozen
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


# dtypes of the loop's output columns x_desired, r, q_after, z_after
_LOOP_DTYPES = (np.int64, np.int64, np.float64, np.float64)


def _shifted(first: float, column: np.ndarray) -> np.ndarray:
    """The column one slot later, with `first` in slot 0."""
    out = np.empty(len(column))
    out[:1] = first
    out[1:] = column[:-1]
    return out


def _trace_columns(
    realization: Realization, t0: int, q0: float, z0: float,
    x_desired: np.ndarray, r: np.ndarray, q_after: np.ndarray, z_after: np.ndarray,
) -> dict[str, np.ndarray]:
    """All trace columns, from the market and the loop's four outputs.

    Each derived column repeats the arithmetic the slot itself did, so it
    comes out bit for bit as if the loop had written it.
    """
    return {
        "t": np.arange(t0, t0 + len(r), dtype=np.int64),
        "q_before": _shifted(q0, q_after) + realization.arrival,
        "z_before": _shifted(z0, z_after),
        **{name: getattr(realization, name) for name in MARKET_FIELDS},
        "x_desired": x_desired,
        "y_desired": x_desired,
        "x_effective": r,
        "y_effective": r,
        "r": r,
        "cost": r * realization.price_ris + r * realization.price_spectrum,
        "q_after": q_after,
        "z_after": z_after,
    }


def _run_loop(
    realization: Realization,
    q0: float,
    z0: float,
    t0: int,
    freeze_z: bool,
    policy: PolicySpec,
    params: ControlParams,
    backend: str | None = None,
) -> dict[str, np.ndarray]:
    n = len(realization)
    market = (
        realization.arrival,
        realization.price_ris + realization.price_spectrum,
        ((realization.avail_ris == 1) & (realization.avail_spectrum == 1)).astype(np.int64),
    )
    if resolve_backend(backend) == "python":
        # the interpreted loop indexes plain lists far faster than numpy scalars
        market = tuple(column.tolist() for column in market)
        outputs = [[0] * n for _ in _LOOP_DTYPES]
    else:
        outputs = [np.empty(n, dtype=dtype) for dtype in _LOOP_DTYPES]
    q0, z0 = float(q0), float(z0)
    get_loop(backend)(q0, z0, t0, freeze_z, *market, *_kernel_args(policy, params), *outputs)
    outputs = [np.asarray(values, dtype=dtype) for dtype, values in zip(_LOOP_DTYPES, outputs)]
    return _trace_columns(realization, t0, q0, z0, *outputs)


def run(
    scenario: ScenarioConfig,
    policy: PolicySpec,
    params: ControlParams,
    backend: str | None = None,
) -> Trace:
    """Simulate the whole horizon and return the slot-by-slot trace."""
    realization = draw_realization(scenario)
    columns = _run_loop(
        realization,
        q0=float(scenario.initial_backlog),
        z0=0.0,
        t0=1,
        freeze_z=scenario.freeze_z_when_empty,
        policy=policy,
        params=params,
        backend=backend,
    )
    return Trace(columns, scenario=scenario, policy=policy, params=params)


def step(
    state: QueueState,
    observation: MarketObservation,
    policy: PolicySpec,
    params: ControlParams,
    t: int = 1,
    freeze_z_when_empty: bool = False,
) -> tuple[QueueState, SlotRecord]:
    """Advance one slot; returns the new state and the slot's record.

    Runs the same python loop as run() on one-slot columns, so a chain
    of step() calls reproduces a full run exactly.
    """
    if t < 1:
        raise ConfigError(f"slot index must be >= 1, got {t}")
    q, z = float(state.q), float(state.z)
    arrival = int(observation.arrival)
    avail_ris, avail_spectrum = int(observation.avail_ris), int(observation.avail_spectrum)
    price_ris, price_spectrum = float(observation.price_ris), float(observation.price_spectrum)
    joint_avail = 1 if avail_ris == 1 and avail_spectrum == 1 else 0
    x_desired, r_out, q_after, z_after = [0], [0], [0], [0]
    get_loop("python")(
        q, z, t, freeze_z_when_empty, [arrival], [price_ris + price_spectrum], [joint_avail],
        *_kernel_args(policy, params), x_desired, r_out, q_after, z_after
    )
    xd, r = x_desired[0], r_out[0]
    record = frozen(SlotRecord, (
        t, q + arrival, z, arrival, avail_ris, avail_spectrum, price_ris, price_spectrum,
        xd, xd, r, r, r, r * price_ris + r * price_spectrum, q_after[0], z_after[0]
    ))
    # the loop clamps both queues at zero, so QueueState's check cannot fail
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
