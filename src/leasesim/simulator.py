"""Discrete-time slot engine: full runs, single steps, and the offline oracle.

Each slot proceeds through the same stages regardless of policy:
arrival joins the queue, the policy sees (state, market), the desired
lease is masked by availability, departure and cost accrue, both queues
advance. A run logs every stage, and audit() rebuilds a trace by the
same rule. runs() draws one market for many cells; run() is its
one-cell case; step() checks a slot and returns what a kind's one-slot
kernel builds, its state and record. runs(), audit() and the kernels
share one record rule, _kernels.RECORD_RULE: _slot_values is generated
from it, and each kernel runs it inline.
The oracle and step check the market slots they read against
environment.COLUMN_RULES, the rule the CSV readers apply too; that table
is also the trace schema, from which SlotRecord, TRACE_COLUMNS and
TRACE_DTYPES are built.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import make_dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import PRICE_READING_KINDS, get_loop, slot_values as _slot_values
from .core import ConfigError, ControlParams, QueueState, builder, check_bool, check_int
from .environment import (
    COLUMN_RULES,
    MARKET_FIELDS,
    MarketObservation,
    Realization,
    ScenarioConfig,
    check_column,
    check_market_slot,
    check_value,
    draw_realization,
    expected_price,
)
from .policies import PolicySpec


TRACE_COLUMNS = tuple(COLUMN_RULES)

# each trace column's dtype: int64 where COLUMN_RULES gives a range, float64 elsewhere
TRACE_DTYPES = {name: np.dtype(np.int64 if rule is not None else np.float64) for name, rule in COLUMN_RULES.items()}

SlotRecord = make_dataclass(
    "SlotRecord",
    [(name, type(dtype.type().item()).__name__) for name, dtype in TRACE_DTYPES.items()],  # "int" or "float"
    frozen=True,
    namespace={
        "__module__": __name__,  # before Python 3.12, make_dataclass would give "types"
        "__doc__": """Everything observed and decided during one slot.

        r is the joint lease (both resources leased and available), not a
        departure: it is 1 on an empty queue too, where the lease serves
        nothing. The packets served are q_before - q_after.
        """,
    },
)

# the record constructor, looked up once
_build_record = builder(SlotRecord)

# the COLUMN_RULES bounds of step's integer inputs, read once for its fast accept
_T_LOW, _T_HIGH = COLUMN_RULES["t"]
_ARRIVAL_LOW, _ARRIVAL_HIGH = COLUMN_RULES["arrival"]
_RIS_LOW, _RIS_HIGH = COLUMN_RULES["avail_ris"]
_SPECTRUM_LOW, _SPECTRUM_HIGH = COLUMN_RULES["avail_spectrum"]


class Trace:
    """Column-oriented log of a run; iterates as SlotRecord rows.

    Each column is stored as its TRACE_DTYPES dtype, copied only where
    it is not already an array of that dtype. A column of another dtype is
    first checked value by value, through check_value: a value that
    COLUMN_RULES rejects, or that the cast to an integer column would
    change (a fraction, NaN, inf), raises a ConfigError naming its 1-based
    row."""

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
        self._columns = {}
        for name, dtype in TRACE_DTYPES.items():
            column = np.asarray(columns[name])
            if column.dtype != dtype:
                for i, value in enumerate(column.tolist(), start=1):
                    if dtype == np.int64 and isinstance(value, (bool, float)) and float(value).is_integer():
                        value = int(value)  # the cast to an integer column keeps it
                    check_value(f"trace row {i}", name, value)
                column = column.astype(dtype)
            self._columns[name] = column
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
        return _build_record([column.item(i) for column in self._columns.values()])

    def __iter__(self) -> Iterator[SlotRecord]:
        return map(_build_record, zip(*(column.tolist() for column in self._columns.values())))


def default_params(scenario: ScenarioConfig, v: float, eps_d: float) -> ControlParams:
    """Control parameters with expected prices taken from the scenario.

    z gains up to eps_d a slot, so a run's sum of z, which its summary
    averages, stays under horizon_slots**2 * eps_d. Where that overflows,
    no JSON could hold the summary, so a ConfigError names eps_d here,
    before any policy runs.
    """
    mean_price = expected_price(scenario.price_low, scenario.price_high)
    params = ControlParams(
        v=v,
        eps_d=eps_d,
        expected_price_ris=mean_price,
        expected_price_spectrum=mean_price,
    )
    if not math.isfinite(scenario.horizon_slots**2 * params.eps_d):
        raise ConfigError(
            f"eps_d={params.eps_d!r} is too large for horizon_slots={scenario.horizon_slots}: "
            "the sum of z over the horizon, up to horizon_slots**2 * eps_d, overflows"
        )
    return params


def _shifted(first: float, column: np.ndarray) -> np.ndarray:
    """The column one slot later, with `first` in slot 0."""
    out = np.empty(len(column))
    out[:1] = first
    out[1:] = column[:-1]
    return out


def _replay_q(q_first, arrival, q_ops, r) -> np.ndarray:
    """q_before and q_after of every slot, the loop's q replayed from slot
    1's q_before: np.cumsum adds each slot's q_ops * r (-1.0, a clamp
    operand, or ±0.0 without a lease) and then the next slot's arrival, so
    its partial sums alternate q_before and q_after."""
    q_steps = np.empty((len(arrival), 2))
    q_steps[:, 0] = arrival
    np.multiply(q_ops, r, out=q_steps[:, 1])
    q_steps[:1, 0] = q_first
    return np.cumsum(q_steps).reshape(-1, 2).T.copy()


def _cell_columns(
    realization: Realization,
    q0: float,
    z0: float,
    t0: int,
    freeze_z: bool,
    cells: Sequence[tuple[PolicySpec, ControlParams]],
) -> Iterator[dict[str, np.ndarray]]:
    """All trace columns of each (policy, params) cell, run on
    `realization` from q0, z0 and slot t0, each with its own copy of the
    market columns.

    The loop's three market columns are built once as lists: arrival as
    floats, which keep its queue updates float with float, joint_price and
    joint_avail. Where no cell's kind is in PRICE_READING_KINDS, the loop
    gets joint_price as the array, which it never indexes, and the list is
    not built. joint_avail is kept as an int64 array, from which r is derived.

    Each cell's loop stores only True wishes, into a zeroed bytearray, and
    the operand -x of each lease that clamps a queue x, through memoryviews
    into q_ops or z_ops, prefilled with -1.0, the operand of a lease that
    does not clamp. np.cumsum, which adds left to right, then replays both
    queues with the loop's own adds in the loop's order: q by _replay_q, z
    over z_ops where r is 1 and the accrual elsewhere. Overflow is left to
    the JSON writers to name.
    """
    n = len(realization)
    joint_avail = ((realization.avail_ris == 1) & (realization.avail_spectrum == 1)).astype(np.int64)
    joint_price = realization.price_ris + realization.price_spectrum
    if any(policy.kind in PRICE_READING_KINDS for policy, _ in cells):
        joint_price = joint_price.tolist()
    market = (realization.arrival.astype(np.float64).tolist(), joint_price, joint_avail.tolist())
    for policy, params in cells:
        wishes, q_ops, z_ops = bytearray(n), np.full(n, -1.0), np.full(n, -1.0)
        get_loop((policy.kind, freeze_z))(q0, z0, t0, policy.param, *market, params.v, params.eps_d, params.threshold,
                                          wishes, memoryview(q_ops), memoryview(z_ops))
        x_desired = np.frombuffer(wishes, np.bool_).astype(np.int64)
        r = x_desired & joint_avail
        with np.errstate(over="ignore"):
            q_before, q_after = _replay_q(q0 + realization.arrival[0], realization.arrival, q_ops, r)
            accrual = np.where(q_after == 0.0, 0.0, params.eps_d) if freeze_z else params.eps_d
            z_steps = np.where(r, z_ops, accrual)
            z_steps[:1] += z0
            z_after = np.cumsum(z_steps)
        yield dict(zip(TRACE_COLUMNS, _slot_values(
            np.arange(t0, t0 + n, dtype=np.int64), q_before, _shifted(z0, z_after),
            realization.arrival.copy(), realization.avail_ris.copy(), realization.avail_spectrum.copy(),
            realization.price_ris.copy(), realization.price_spectrum.copy(),
            joint_avail, x_desired, q_after, z_after,
        )))


def runs(
    scenario: ScenarioConfig,
    cells: Iterable[tuple[PolicySpec, ControlParams]],
) -> Iterator[Trace]:
    """One trace per (policy, params) cell, all on one market realization.

    The market is drawn and prepared once however many cells follow, and
    each cell runs its kind's loop; each trace is the one run() gives for
    its cell. Traces are yielded one at a time, so only the caller keeps
    them alive.
    """
    cells = list(cells)
    realization = draw_realization(scenario)
    columns = _cell_columns(realization, float(scenario.initial_backlog), 0.0, 1, scenario.freeze_z_when_empty, cells)
    for (policy, params), cell_columns in zip(cells, columns):
        yield Trace(cell_columns, scenario=scenario, policy=policy, params=params)


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

    Checks the slot, then returns what the kind's one-slot kernel returns:
    it applies the slot loop's operations and builds the record by the
    record rule runs() applies too, so a chain of step() calls reproduces
    a full run exactly.
    A slot index or observation that breaks COLUMN_RULES raises a ConfigError naming it.
    """
    if type(freeze_z_when_empty) is not bool:
        check_bool("freeze_z_when_empty", freeze_z_when_empty)
    if type(t) is not int or not _T_LOW <= t <= _T_HIGH:
        check_int("slot index", t, _T_LOW, _T_HIGH)
        t = int(t)
    q, z = state.q, state.z
    if type(q) is not float or type(z) is not float:
        q, z = float(q), float(z)
    arrival, avail_ris, avail_spectrum = observation.arrival, observation.avail_ris, observation.avail_spectrum
    price_ris, price_spectrum = observation.price_ris, observation.price_spectrum
    # the fast accept: plain ints and floats that COLUMN_RULES allows
    if not (type(arrival) is int and _ARRIVAL_LOW <= arrival <= _ARRIVAL_HIGH
            and type(avail_ris) is int and _RIS_LOW <= avail_ris <= _RIS_HIGH
            and type(avail_spectrum) is int and _SPECTRUM_LOW <= avail_spectrum <= _SPECTRUM_HIGH
            and type(price_ris) is float and type(price_spectrum) is float
            and 0.0 <= price_ris < math.inf and 0.0 <= price_spectrum < math.inf):
        check_market_slot("observation", arrival, price_ris, price_spectrum, avail_ris, avail_spectrum)
        arrival, avail_ris, avail_spectrum = int(arrival), int(avail_ris), int(avail_spectrum)
        price_ris, price_spectrum = float(price_ris), float(price_spectrum)
    return get_loop((policy.kind, freeze_z_when_empty, True))(
        q, z, t, policy.param, (arrival,), price_ris, price_spectrum, avail_ris, avail_spectrum,
        params.v, params.eps_d, params.threshold,
    )


def audit(trace: Trace) -> None:
    """Rebuild `trace` by runs()' slot rule from t[0], q_before[0],
    z_before[0], the market, x_desired, z_after and the clamp operands the
    loop stores, and raise a ConfigError naming the first row that differs
    and its first differing column. The z step needs eps_d and the freeze
    flag, which a trace does not hold, so only the z_before chain is judged.
    Every column is first judged by check_column, in TRACE_COLUMNS order,
    so a value no slot could hold is named as such."""
    column = trace.column
    for name in TRACE_COLUMNS:
        check_column("trace row", name, column(name))
    q_before, x_desired, z_after = column("q_before"), column("x_desired"), column("z_after")
    market = [column(name) for name in ("arrival", "avail_ris", "avail_spectrum", "price_ris", "price_spectrum")]
    joint_avail = ((market[1] == 1) & (market[2] == 1)).astype(np.int64)  # as _cell_columns
    clamps = np.where(q_before < 1.0, -q_before, -1.0)  # -q where a lease takes q below zero
    with np.errstate(over="ignore"):
        q_replayed = _replay_q(q_before[:1], market[0], clamps, x_desired & joint_avail)
        values = _slot_values(
            column("t")[:1] + np.arange(len(trace)), q_replayed[0], _shifted(column("z_before")[:1], z_after),
            *market, joint_avail, x_desired, q_replayed[1], z_after,
        )
    differs = np.array([value != column(name) for name, value in zip(TRACE_COLUMNS, values)]).T
    if differs.any():
        i, j = divmod(int(differs.argmax()), len(TRACE_COLUMNS))  # the first differing row, then column
        raise ConfigError(f"trace row {i + 1}: {TRACE_COLUMNS[j]} must be {values[j][i].item()!r} by the slot rule, "
                          f"got {column(TRACE_COLUMNS[j])[i].item()!r}")


def _market_slots(
    realization: Realization | Sequence[MarketObservation], deadline: int
) -> list[tuple]:
    """The first `deadline` slots as MARKET_FIELDS tuples, checked.

    Only the first `deadline` observations are read; they become object
    columns. Each column is judged by check_column in MARKET_FIELDS order,
    so a bad market is named by its first bad column and that column's
    first bad slot.
    """
    if not isinstance(realization, Realization):
        observations = list(islice(realization, deadline))
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
    for name, column in zip(MARKET_FIELDS, columns):
        check_column("slot", name, column)
    return list(zip(*(column.tolist() for column in columns)))


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
