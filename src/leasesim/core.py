"""Scalar building blocks of the leasing control loop.

Queue recurrences, the joint-lease departure rule, per-slot cost, and the
quadratic potential used by the drift-plus-penalty controller, each a pure
function of plain numbers. They are the paper's equations as written; the
simulator does not call them. Tests check the slot loop against them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import get_type_hints


class ConfigError(ValueError):
    """Invalid configuration: bad field values, missing policy parameters,
    malformed files. Maps to exit code 1 at the CLI boundary."""


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Reject anything but an integer in [low, high] (bools too), naming the field."""
    if type(value) is int and value >= low and (high is None or value <= high):
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{name} must be <= {high}, got {value}")


def check_bool(name: str, value) -> None:
    """Reject anything but True or False (numpy bools and 0/1 too), naming the field."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def _finite(value) -> bool:
    """Whether `value` is a real number, not a bool, that a float holds finitely."""
    if type(value) is float:
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_price(name: str, value) -> None:
    """Reject anything but a finite number >= 0 (bools too), naming the field."""
    if not (_finite(value) and value >= 0):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")


def check_positive(name: str, value) -> None:
    """Reject anything but a finite number > 0 (bools too), naming the field."""
    if not (_finite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


# per dataclass, the builder generated for it on first use
_BUILDERS: dict = {}


def builder(cls):
    """`build(values)`, which returns an instance of the frozen dataclass
    `cls` holding `values` in field order; generated on first use for
    `cls` and kept, so a hot path looks it up once.

    An instance it builds equals `cls(*values)`, hash and `vars()` order
    included, but skips the generated __init__, which pays one guarded
    setattr per field. __post_init__ does not run either, so its checks
    are skipped: for per-slot records whose values are known to pass them.

    The builder is generated with exec, as dataclasses generates __init__:
    `[d['t'], d['q_before'], ...] = values` into the new instance's
    __dict__, one constant-key store per field, which CPython specializes.
    Values of the wrong length raise ValueError.
    """
    build = _BUILDERS.get(cls)
    if build is None:
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
        build = _BUILDERS[cls] = namespace["build"]
    return build


def record_dict(record) -> dict:
    """The fields of the dataclass instance `record` as a dict, the one
    serialization rule for records.

    Equal to `dataclasses.asdict(record)`, key order included, for records
    whose fields hold plain values or other records: a nested record
    becomes a nested dict, and every other value is the object itself,
    not asdict's deep copy. `vars()` holds the fields in field order, as
    both the generated __init__ and builder() store them.
    """
    return {
        name: record_dict(value) if hasattr(type(value), "__dataclass_fields__") else value
        for name, value in vars(record).items()
    }


def record_from_dict(cls, data, name: str, where: str = "document"):
    """The record of dataclass `cls` in `data`, parsed JSON: the inverse of
    record_dict. A non-object, an unknown field or a missing required one
    raises a ConfigError naming `name` `where` ("translation document"); a
    nested record is read by the same rule, named by its field
    ("translation params"). The record's own checks judge the values."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} {where} must be a JSON object, got {type(data).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(
            f"{name} {where} has unknown fields: {', '.join(unknown)}; valid fields: {', '.join(names)}"
        )
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"{name} {where} is missing required fields: {', '.join(missing)}")
    types = get_type_hints(cls)
    return cls(**{
        key: record_from_dict(types[key], value, name, key) if is_dataclass(types[key]) else value
        for key, value in data.items()
    })


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
        if not _finite(self.threshold):  # an infinite threshold never leases
            raise ConfigError(
                f"v={self.v!r} is too large: the lease threshold "
                f"v * (expected_price_ris + expected_price_spectrum) is {self.threshold}"
            )

    @property
    def threshold(self) -> float:
        """Both dsf rules' lease threshold; not a field, so no document holds it."""
        return self.v * (self.expected_price_ris + self.expected_price_spectrum)


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
