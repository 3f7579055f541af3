"""Seeded market processes: packet arrivals, per-slot resource prices, and
availability flags.

Arrivals are Bernoulli, prices continuous uniform, availabilities two
independent Bernoullis, all i.i.d. across slots. One generator owns one run;
the draw order inside a slot (arrival, price_ris, price_spectrum, avail_ris,
avail_spectrum) is fixed so that identical seeds always reproduce identical
observation sequences.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    ConfigError, builder, check_bool, check_int, check_positive, check_price, record_dict, record_from_dict,
)

DEFAULT_SEED = 42

# the longest horizon a scenario may ask for: a run holds its market and
# trace in memory, and a 10**6-slot run peaks near 250 MiB resident
MAX_HORIZON_SLOTS = 10**6


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated market plus the workload it serves.

    freeze_z_when_empty deviates from the verbatim urgency update by
    suspending accrual while the data queue is empty; it is off by default
    and exists for experimentation (bulk-upload scenarios switch it on).
    """

    horizon_slots: int = 5000
    arrival_prob: float = 0.3
    price_low: float = 1.0
    price_high: float = 10.0
    avail_prob_ris: float = 0.9
    avail_prob_spectrum: float = 0.9
    initial_backlog: int = 0
    seed: int = DEFAULT_SEED
    freeze_z_when_empty: bool = False

    def __post_init__(self) -> None:
        check_int("horizon_slots", self.horizon_slots, 1, MAX_HORIZON_SLOTS)
        # the loop's float queue is exact up to 2**53 packets, and a drawn
        # market adds at most one per slot
        check_int("initial_backlog", self.initial_backlog, 0, 2**53 - self.horizon_slots)
        check_int("seed", self.seed, 0, 2**64 - 1)
        for name in ("arrival_prob", "avail_prob_ris", "avail_prob_spectrum"):
            p = getattr(self, name)
            check_price(name, p)
            if p > 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        check_positive("price_low", self.price_low)
        check_positive("price_high", self.price_high)
        if not math.isfinite(self.price_high + self.price_high):
            raise ConfigError(
                f"price_high must keep the joint price price_high + price_high finite, got {self.price_high}"
            )
        if self.price_high < self.price_low:
            raise ConfigError(
                f"prices must satisfy 0 < price_low <= price_high, "
                f"got [{self.price_low}, {self.price_high}]"
            )
        check_bool("freeze_z_when_empty", self.freeze_z_when_empty)
        joint = self.avail_prob_ris * self.avail_prob_spectrum
        if self.arrival_prob >= joint and self.arrival_prob > 0:
            warnings.warn(
                f"arrival_prob={self.arrival_prob} is not below the joint availability "
                f"{joint:.4f}; the data queue has no stability headroom",
                stacklevel=3,  # past the generated __init__, to the code that built it
            )


@dataclass(frozen=True)
class MarketObservation:
    """What one slot shows the controller: realized prices, availability
    flags, and whether a packet arrived."""

    price_ris: float
    price_spectrum: float
    avail_ris: int
    avail_spectrum: int
    arrival: int


_build_observation = builder(MarketObservation)


@dataclass
class Realization:
    """A fully drawn observation sequence as columns, one entry per slot;
    unchecked, since the oracle checks the slots it reads (COLUMN_RULES)."""

    arrival: np.ndarray = field(repr=False)
    price_ris: np.ndarray = field(repr=False)
    price_spectrum: np.ndarray = field(repr=False)
    avail_ris: np.ndarray = field(repr=False)
    avail_spectrum: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.arrival)

    def observation(self, i: int) -> MarketObservation:
        """Slot i's values as its columns hold them, unchecked: step judges
        them. Read by ndarray.item(i), on step's hot path, so only ndarrays."""
        return _build_observation((
            self.price_ris.item(i),
            self.price_spectrum.item(i),
            self.avail_ris.item(i),
            self.avail_spectrum.item(i),
            self.arrival.item(i),
        ))


# one slot's market values, in Realization's column order
MARKET_FIELDS = tuple(f.name for f in fields(Realization))

# the trace schema, one entry per trace column in trace order: an integer
# column's (low, high) range, or None for a float column of finite numbers
# >= 0; simulator builds SlotRecord from it, and the oracle, step, audit
# and the CSV readers all apply it through check_value, the oracle and step
# after accept_expression's fast accept
COLUMN_RULES = {
    "t": (1, 2**63 - 1), "q_before": None, "z_before": None,
    "arrival": (0, 2**63 - 1), "avail_ris": (0, 1), "avail_spectrum": (0, 1),
    "price_ris": None, "price_spectrum": None,
    "x_desired": (0, 1), "y_desired": (0, 1), "x_effective": (0, 1), "y_effective": (0, 1), "r": (0, 1),
    "cost": None, "q_after": None, "z_after": None,
}


def check_value(where: str, name: str, value) -> None:
    """Reject a value of column `name` that breaks its COLUMN_RULES entry,
    through check_int or check_price, as "{where}: {name} must be ..."."""
    rule = COLUMN_RULES[name]
    if rule is None:
        check_price(f"{where}: {name}", value)
    else:
        check_int(f"{where}: {name}", value, *rule)


def accept_expression(name: str, value: str) -> str:
    """The fast accept of column `name` as Python source on the variable
    `value`: true only for a plain int in the column's COLUMN_RULES range,
    or, under the float rule, a plain float in [0.0, inf) (run with `inf`
    bound to math.inf). check_value accepts whatever it accepts; a value
    it rejects is left to check_value, which names it."""
    rule = COLUMN_RULES[name]
    if rule is None:
        return f"type({value}) is float and 0.0 <= {value} < inf"
    low, high = rule
    return f"type({value}) is int and {low} <= {value} <= {high}"


# a float rule's (low, high); a float64 high, so a NaN or inf of any float
# dtype fails `<= high`, where a Python float would be cast to that dtype
_FLOAT_RANGE = (0, np.finfo(np.float64).max)


def check_column(where: str, name: str, column: np.ndarray) -> None:
    """Raise check_value's ConfigError, as "{where} {row}: {name} must be
    ...", for the first row of `column` that breaks COLUMN_RULES[name].

    A 1-D integer (or, under a float rule, float) column is accepted when
    its min and max lie in the rule's range, which a NaN fails. Otherwise
    a mask of that range finds the first row outside it, and the rows from
    there go value by value: check_value accepts every row the range
    holds, and may accept one outside it (a longdouble just past float64's
    max). Any other column goes value by value."""
    rule = COLUMN_RULES[name]
    low, high = rule or _FLOAT_RANGE
    start = 0
    if column.ndim == 1 and column.dtype.kind in ("iu" if rule else "iuf"):
        if not len(column) or (low <= column.min().item() and column.max().item() <= high):
            return
        start = int((~((column >= low) & (column <= high))).argmax())
        column = column[start:]
    for row, value in enumerate(column.tolist(), start=start + 1):
        check_value(f"{where} {row}", name, value)


def check_market_slot(where: str, arrival, price_ris, price_spectrum, avail_ris, avail_spectrum) -> None:
    """Reject a slot whose values break COLUMN_RULES, as a ConfigError
    naming `where` and the field."""
    for name, value in zip(MARKET_FIELDS, (arrival, price_ris, price_spectrum, avail_ris, avail_spectrum)):
        check_value(where, name, value)


def draw_realization(config: ScenarioConfig) -> Realization:
    """Draw the whole observation sequence for a scenario up front.

    One rng.random((n, 5)) call fills the slots row by row in the draw
    order (arrival, price_ris, price_spectrum, avail_ris, avail_spectrum),
    and each column turns its uniform u into a value: a flag is `u < p`, a
    price is `low + (high - low) * u`, exactly what the scalar
    Generator.uniform computes. The sequence is therefore bit-identical to
    drawing each slot's five values in that order with scalar calls on
    one generator, which the test suite keeps as its reference.
    """
    try:
        u = np.random.default_rng(config.seed).random((config.horizon_slots, 5))
    except MemoryError as exc:
        raise ConfigError(f"horizon_slots={config.horizon_slots} is too many slots to draw ({exc})") from exc
    span = config.price_high - config.price_low
    return Realization(
        arrival=(u[:, 0] < config.arrival_prob).astype(np.int64),
        price_ris=config.price_low + span * u[:, 1],
        price_spectrum=config.price_low + span * u[:, 2],
        avail_ris=(u[:, 3] < config.avail_prob_ris).astype(np.int64),
        avail_spectrum=(u[:, 4] < config.avail_prob_spectrum).astype(np.int64),
    )


def expected_price(price_low: float, price_high: float) -> float:
    """Mean of the uniform price law on [price_low, price_high]."""
    if price_low > price_high:
        raise ValueError(f"price_low {price_low} exceeds price_high {price_high}")
    return (price_low + price_high) / 2.0


def derive_seed(base_seed: int, index: int) -> int:
    """Mix a base seed and a run index into an independent 64-bit seed.

    The fixed mixing rule for parallel or per-cell runs: feed both numbers
    as the entropy of a numpy SeedSequence and take one 64-bit word.
    """
    ss = np.random.SeedSequence([base_seed, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def scenario_fingerprint(config: ScenarioConfig) -> str:
    """Short stable digest of every scenario field, seed included; two runs
    share a fingerprint exactly when they see the same market and workload."""
    payload = json.dumps(record_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, rejecting unknown fields."""
    return record_from_dict(ScenarioConfig, data, "scenario")


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Copy a scenario with another seed. Only the seed is checked: the
    other fields passed when `config` was built, and checking them again
    would repeat their warning."""
    check_int("seed", seed, 0, 2**64 - 1)
    return builder(ScenarioConfig)({**vars(config), "seed": seed}.values())

