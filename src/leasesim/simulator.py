"""Discrete-time slot engine: full runs, single steps, and the offline oracle.

Each slot proceeds through the same stages regardless of policy:
arrival joins the queue, the policy sees (state, market), the desired
lease is masked by availability, departure and cost accrue, both queues
advance. A run logs every stage so traces can be audited after the fact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._kernels import POLICY_CODES, get_loop, resolve_backend
from .core import ConfigError, ControlParams, QueueState
from .environment import (
    MarketObservation,
    Realization,
    ScenarioConfig,
    draw_realization,
    expected_price,
)
from .policies import PolicySpec

# deadlines beyond this make 2^deadline enumeration unreasonable
ORACLE_MAX_DEADLINE = 16

TRACE_COLUMNS = (
    "t",
    "q_before",
    "z_before",
    "arrival",
    "avail_ris",
    "avail_spectrum",
    "price_ris",
    "price_spectrum",
    "x_desired",
    "y_desired",
    "x_effective",
    "y_effective",
    "r",
    "cost",
    "q_after",
    "z_after",
)

_INT_COLUMNS = frozenset(
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
class SlotRecord:
    """Everything observed and decided during one slot."""

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
        values = {}
        for name in TRACE_COLUMNS:
            raw = self._columns[name][i]
            values[name] = int(raw) if name in _INT_COLUMNS else float(raw)
        return SlotRecord(**values)

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
        params.expected_price_ris,
        params.expected_price_spectrum,
    )


# the loop's output columns, in argument order, with their trace dtypes
_LOOP_OUTPUTS = (
    ("q_before", np.float64),
    ("z_before", np.float64),
    ("x_desired", np.int64),
    ("y_desired", np.int64),
    ("x_effective", np.int64),
    ("y_effective", np.int64),
    ("r", np.int64),
    ("cost", np.float64),
    ("q_after", np.float64),
    ("z_after", np.float64),
)


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
        realization.price_ris,
        realization.price_spectrum,
        realization.avail_ris,
        realization.avail_spectrum,
    )
    if resolve_backend(backend) == "python":
        # the interpreted loop indexes plain lists far faster than numpy scalars
        market = tuple(column.tolist() for column in market)
        outputs = [[0] * n for _ in _LOOP_OUTPUTS]
    else:
        outputs = [np.empty(n, dtype=dtype) for _, dtype in _LOOP_OUTPUTS]
    get_loop(backend)(
        float(q0), float(z0), t0, freeze_z, *market, *_kernel_args(policy, params), *outputs
    )
    out = {
        name: np.asarray(values, dtype=dtype)
        for (name, dtype), values in zip(_LOOP_OUTPUTS, outputs)
    }
    out["t"] = np.arange(t0, t0 + n, dtype=np.int64)
    out["arrival"] = realization.arrival
    out["avail_ris"] = realization.avail_ris
    out["avail_spectrum"] = realization.avail_spectrum
    out["price_ris"] = realization.price_ris
    out["price_spectrum"] = realization.price_spectrum
    return out


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
    market = {
        "arrival": int(observation.arrival),
        "avail_ris": int(observation.avail_ris),
        "avail_spectrum": int(observation.avail_spectrum),
        "price_ris": float(observation.price_ris),
        "price_spectrum": float(observation.price_spectrum),
    }
    outputs = [[0] for _ in _LOOP_OUTPUTS]
    get_loop("python")(
        float(state.q),
        float(state.z),
        t,
        freeze_z_when_empty,
        [market["arrival"]],
        [market["price_ris"]],
        [market["price_spectrum"]],
        [market["avail_ris"]],
        [market["avail_spectrum"]],
        *_kernel_args(policy, params),
        *outputs,
    )
    record = SlotRecord(
        t=t, **market, **{name: column[0] for (name, _), column in zip(_LOOP_OUTPUTS, outputs)}
    )
    return QueueState(q=record.q_after, z=record.z_after), record


def _observations(realization: Realization | Sequence[MarketObservation]) -> list[MarketObservation]:
    if isinstance(realization, Realization):
        return [realization.observation(i) for i in range(len(realization))]
    return list(realization)


def offline_min_cost(
    realization: Realization | Sequence[MarketObservation],
    initial_backlog: int,
    deadline: int,
) -> tuple[float, list[int], bool]:
    """Cheapest lease schedule clearing the backlog by the deadline.

    Enumerates every decision vector over the first `deadline` slots with
    leases forced off wherever either resource is unavailable, and returns
    (min_total_cost, decisions, feasible). Infeasible instances come back
    as (inf, [], False).
    """
    if initial_backlog < 0:
        raise ConfigError(f"initial backlog must be >= 0, got {initial_backlog}")
    if deadline < 1:
        raise ConfigError(f"deadline must be >= 1, got {deadline}")
    if deadline > ORACLE_MAX_DEADLINE:
        raise ConfigError(
            f"deadline {deadline} exceeds the exhaustive-search limit of "
            f"{ORACLE_MAX_DEADLINE} slots; a dynamic-programming variant would "
            "be needed for longer windows"
        )
    observations = _observations(realization)
    if len(observations) < deadline:
        raise ConfigError(
            f"realization has {len(observations)} slots but the deadline needs {deadline}"
        )
    observations = observations[:deadline]
    open_slots = [
        i for i, obs in enumerate(observations) if obs.avail_ris == 1 and obs.avail_spectrum == 1
    ]

    best_cost = math.inf
    best_decisions: list[int] = []
    feasible = False
    for choices in itertools.product((0, 1), repeat=len(open_slots)):
        decisions = [0] * deadline
        for slot, d in zip(open_slots, choices):
            decisions[slot] = d
        q = float(initial_backlog)
        cost = 0.0
        for i, obs in enumerate(observations):
            q += obs.arrival
            d = decisions[i]
            if d:
                cost += obs.price_ris + obs.price_spectrum
            q = max(q - d, 0.0)
        if q == 0.0 and cost < best_cost:
            best_cost = cost
            best_decisions = decisions
            feasible = True
    if not feasible:
        return math.inf, [], False
    return best_cost, best_decisions, True
