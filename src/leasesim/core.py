"""Scalar building blocks of the leasing control loop.

Queue recurrences, the joint-lease departure rule, per-slot cost, and the
quadratic potential used by the drift-plus-penalty controller, each a pure
function of plain numbers. They are the paper's equations as written; the
simulator does not call them. Tests check the slot loop against them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

__all__ = [
    "ConfigError",
    "check_int",
    "check_price",
    "check_positive",
    "frozen",
    "builder",
    "record_dict",
    "QueueState",
    "LeaseDecision",
    "ControlParams",
    "HOLD",
    "LEASE",
    "advance_data_queue",
    "advance_virtual_queue",
    "departure",
    "slot_cost",
    "lyapunov",
]


class ConfigError(ValueError):
    """Invalid configuration: bad field values, missing policy parameters,
    malformed files. Maps to exit code 1 at the CLI boundary."""


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Reject anything but an integer in [low, high] (bools too), naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{name} must be <= {high}, got {value}")


def check_price(name: str, value) -> None:
    """Reject anything but a finite number >= 0 (bools too), naming the field."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value >= 0)
    ):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")


def check_positive(name: str, value) -> None:
    """Reject anything but a finite number > 0 (bools too), naming the field."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value > 0)
    ):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


# per dataclass, the builder frozen() generated for it on first use
_BUILDERS: dict = {}


def frozen(cls, values):
    """An instance of the frozen dataclass `cls` holding `values` in field order.

    Equal to `cls(*values)`, hash and `vars()` order included, but built
    without the generated __init__, which pays one guarded setattr per
    field. __post_init__ does not run either, so its checks are skipped:
    for per-slot records whose values are known to pass them.

    On first use for a class, a builder is generated with exec, as
    dataclasses generates __init__: `[d['t'], d['q_before'], ...] = values`
    into the new instance's __dict__, one constant-key store per field,
    which CPython specializes. Values of the wrong length raise ValueError.
    """
    return (_BUILDERS.get(cls) or builder(cls))(values)


def builder(cls):
    """The function frozen(cls, values) calls, `build(values)`, generated
    on first use for `cls` and kept. A caller that builds one class on a
    hot path looks it up once and skips frozen's lookup on every call."""
    build = _BUILDERS.get(cls)
    if build is None:
        build = _BUILDERS[cls] = _builder(cls)
    return build


def _builder(cls):
    """The function frozen() calls to build `cls` from a sequence of values."""
    targets = ", ".join(f"d[{f.name!r}]" for f in fields(cls))
    source = (
        "def build(values):\n"
        "    instance = new(cls)\n"
        "    d = instance.__dict__\n"
        f"    [{targets}] = values\n"
        "    return instance\n"
    )
    namespace = {"new": object.__new__, "cls": cls}
    exec(source, namespace)
    return namespace["build"]


def record_dict(record) -> dict:
    """The fields of the dataclass instance `record` as a dict, the one
    serialization rule for records.

    Equal to `dataclasses.asdict(record)`, key order included, for records
    whose fields hold plain values or other records: a nested record
    becomes a nested dict, and every other value is the object itself,
    not asdict's deep copy. `vars()` holds the fields in field order, as
    both the generated __init__ and frozen() store them.
    """
    return {
        name: record_dict(value) if hasattr(type(value), "__dataclass_fields__") else value
        for name, value in vars(record).items()
    }


@dataclass(frozen=True)
class QueueState:
    """Backlog pair a policy observes: data packets q, delay urgency z."""

    q: float
    z: float

    def __post_init__(self) -> None:
        check_price("q", self.q)
        check_price("z", self.z)


@dataclass(frozen=True)
class LeaseDecision:
    """Joint lease pair (x, y): x leases the reflecting surface, y the
    spectrum. A packet departs only when both are leased in the same slot."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x not in (0, 1) or self.y not in (0, 1):
            raise ValueError(f"decision components must be binary, got ({self.x}, {self.y})")


HOLD = LeaseDecision(0, 0)
LEASE = LeaseDecision(1, 1)


@dataclass(frozen=True)
class ControlParams:
    """Controller knobs.

    v weights cost against queue drift (larger v tolerates more backlog to
    save money); eps_d is the per-slot urgency accrued while not serving
    (larger eps_d buys delay down at higher cost). The expected prices feed
    the threshold rule, which deliberately ignores realized prices.
    """

    v: float
    eps_d: float
    expected_price_ris: float
    expected_price_spectrum: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            check_positive(name, getattr(self, name))
        # the threshold of both dsf rules; an infinite one never leases
        threshold = self.v * (self.expected_price_ris + self.expected_price_spectrum)
        if not math.isfinite(threshold):
            raise ConfigError(
                f"v={self.v!r} is too large: the lease threshold "
                f"v * (expected_price_ris + expected_price_spectrum) is {threshold}"
            )


def advance_data_queue(q: float, r: int, a: int) -> float:
    """Next data backlog: serve up to r, clamp at empty, add a arrivals."""
    if q < 0 or r < 0 or a < 0:
        raise ValueError("advance_data_queue arguments must be non-negative")
    return max(q - r, 0.0) + a


def advance_virtual_queue(z: float, r: int, eps_d: float) -> float:
    """Next delay urgency: a slot with a joint lease (r = 1) relieves one
    unit, even on an empty queue where the lease serves nothing; any other
    slot accrues eps_d. Clamped at zero."""
    if z < 0 or r < 0 or eps_d < 0:
        raise ValueError("advance_virtual_queue arguments must be non-negative")
    return max(z - r + eps_d * (1 - r), 0.0)


def departure(x: int, y: int) -> int:
    """The joint-lease flag r: 1 only when both resources are leased.

    It is 1 on an empty queue too, where the lease serves nothing; the
    packets served are q_before - q_after, as intent.assure counts them."""
    return x * y


def slot_cost(x: int, y: int, price_ris: float, price_spectrum: float) -> float:
    """Leasing charge for the slot; each leased resource pays its own price,
    so a single-resource lease is charged even though it serves nothing."""
    if price_ris < 0 or price_spectrum < 0:
        raise ValueError("prices must be non-negative")
    return x * price_ris + y * price_spectrum


def lyapunov(q: float, z: float) -> float:
    """Quadratic congestion potential (q^2 + z^2) / 2."""
    return 0.5 * (q * q + z * z)
