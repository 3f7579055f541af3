"""Tests for the seeded stochastic environment."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leasesim.core import ConfigError, ControlParams, QueueState
from leasesim.environment import (
    COLUMN_RULES,
    DEFAULT_SEED,
    MARKET_FIELDS,
    MAX_HORIZON_SLOTS,
    MarketObservation,
    Realization,
    ScenarioConfig,
    check_column,
    check_value,
    derive_seed,
    draw_realization,
    expected_price,
    scenario_fingerprint,
    scenario_from_dict,
    with_seed,
)
from leasesim.policies import parse_policy
from leasesim.simulator import TRACE_COLUMNS, TRACE_DTYPES, offline_min_cost, step


def test_defaults_match_contract():
    config = ScenarioConfig()
    assert config.horizon_slots == 5000
    assert config.arrival_prob == 0.3
    assert (config.price_low, config.price_high) == (1.0, 10.0)
    assert config.avail_prob_ris == config.avail_prob_spectrum == 0.9
    assert config.initial_backlog == 0
    assert config.seed == DEFAULT_SEED == 42
    assert config.freeze_z_when_empty is False


def test_expected_price_examples():
    assert expected_price(1, 10) == 5.5
    assert expected_price(5, 5) == 5
    assert expected_price(0, 2) == 1


def test_determinism():
    config = ScenarioConfig(horizon_slots=500)
    a = draw_realization(config)
    b = draw_realization(config)
    for name in ("arrival", "price_ris", "price_spectrum", "avail_ris", "avail_spectrum"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_different_seeds_differ():
    a = draw_realization(ScenarioConfig(horizon_slots=500, seed=1))
    b = draw_realization(ScenarioConfig(horizon_slots=500, seed=2))
    assert not np.array_equal(a.price_ris, b.price_ris)


def test_degenerate_draws():
    no_arrivals = draw_realization(ScenarioConfig(horizon_slots=200, arrival_prob=0.0))
    assert not no_arrivals.arrival.any()
    fixed_price = draw_realization(ScenarioConfig(horizon_slots=200, price_low=5.0, price_high=5.0))
    assert (fixed_price.price_ris == 5.0).all() and (fixed_price.price_spectrum == 5.0).all()
    always_avail = draw_realization(ScenarioConfig(horizon_slots=200, avail_prob_ris=1.0, avail_prob_spectrum=1.0))
    assert (always_avail.avail_ris == 1).all() and (always_avail.avail_spectrum == 1).all()


def test_price_support():
    real = draw_realization(ScenarioConfig(horizon_slots=2000, price_low=2.0, price_high=3.0))
    assert real.price_ris.min() >= 2.0 and real.price_ris.max() <= 3.0
    assert real.price_spectrum.min() >= 2.0 and real.price_spectrum.max() <= 3.0


def test_binary_columns():
    real = draw_realization(ScenarioConfig(horizon_slots=1000))
    for name in ("arrival", "avail_ris", "avail_spectrum"):
        assert set(np.unique(getattr(real, name))).issubset({0, 1})


def test_empirical_means_against_analytic():
    config = ScenarioConfig(arrival_prob=0.5)
    real = draw_realization(dataclasses.replace(config, horizon_slots=100_000))
    assert abs(real.price_ris.mean() - 5.5) < 0.1
    assert abs(real.price_spectrum.mean() - 5.5) < 0.1
    assert abs(real.avail_ris.mean() - 0.9) < 0.02
    assert abs(real.avail_spectrum.mean() - 0.9) < 0.02
    assert abs(real.arrival.mean() - 0.5) < 0.02


def test_empirical_means_degenerate_availability():
    config = ScenarioConfig(avail_prob_ris=1.0, avail_prob_spectrum=1.0, arrival_prob=0.5)
    real = draw_realization(dataclasses.replace(config, horizon_slots=1000))
    assert real.avail_ris.mean() == 1.0 and real.avail_spectrum.mean() == 1.0


def test_price_streams_uncorrelated():
    real = draw_realization(ScenarioConfig(horizon_slots=100_000))
    corr = np.corrcoef(real.price_ris, real.price_spectrum)[0, 1]
    assert abs(corr) < 0.02


def test_observation_accessor():
    real = draw_realization(ScenarioConfig(horizon_slots=10))
    obs = real.observation(3)
    assert isinstance(obs, MarketObservation)
    assert obs.price_ris == real.price_ris[3]
    assert obs.arrival == real.arrival[3]
    assert len(real) == 10
    assert [type(getattr(obs, name)) for name in MARKET_FIELDS] == [int, float, float, int, int]


@pytest.mark.parametrize(
    "column, value",
    [("arrival", 1.5), ("arrival", 1.0), ("avail_ris", 0.7)],
    ids=["arrival-1.5", "arrival-1.0", "flag-0.7"],
)
def test_observation_hands_each_value_over_as_its_column_holds_it(column, value):
    """observation(i) casts nothing, so step names a float in an integer
    column as the oracle does on the same realization; an int() cast
    would have run the slot on 1 or 0 without complaint."""
    market = {"arrival": [0, 0], "price_ris": [2.0, 2.0], "price_spectrum": [3.0, 3.0],
              "avail_ris": [1, 1], "avail_spectrum": [1, 1]}
    market[column] = [value, 1]
    realization = Realization(**{name: np.array(values) for name, values in market.items()})
    observation = realization.observation(0)
    assert type(getattr(observation, column)) is float and getattr(observation, column) == value
    message = f"{column} must be an integer, got {value!r}"
    with pytest.raises(ConfigError, match=f"^slot 1: {message}$"):
        offline_min_cost(realization, 0, 2)
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError, match=f"^observation: {message}$"):
        step(QueueState(0.0, 0.0), observation, parse_policy("greedy"), params)


def test_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(horizon_slots=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(arrival_prob=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(price_low=5.0, price_high=2.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(price_low=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(avail_prob_ris=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(initial_backlog=-1)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"horizon_slots": 10.5}, "horizon_slots must be an integer, got 10.5"),
        ({"horizon_slots": True}, "horizon_slots must be an integer, got True"),
        ({"initial_backlog": 1.5}, "initial_backlog must be an integer, got 1.5"),
        ({"initial_backlog": "3"}, "initial_backlog must be an integer, got '3'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 4.0}, "seed must be an integer, got 4.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 2**64}, "seed must be <= 18446744073709551615"),
        # the float queue is exact up to 2**53 packets
        ({"horizon_slots": 200, "initial_backlog": 2**53 - 199}, f"initial_backlog must be <= {2**53 - 200}, got"),
        ({"initial_backlog": 2**53 + 2}, f"initial_backlog must be <= {2**53 - 5000}, got {2**53 + 2}"),
        # a run holds its market and trace in memory
        ({"horizon_slots": 10**6 + 1}, "horizon_slots must be <= 1000000, got 1000001"),
    ],
)
def test_validation_rejects_non_integer_counts(fields, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**fields)


def test_validation_accepts_the_longest_horizon():
    """10**6 slots is the cap: the scenario is built (not drawn), and its
    backlog cap is 2**53 - 10**6."""
    config = ScenarioConfig(horizon_slots=10**6, initial_backlog=2**53 - 10**6)
    assert config.horizon_slots == MAX_HORIZON_SLOTS == 10**6
    assert with_seed(config, 3).horizon_slots == 10**6


def test_validation_accepts_numpy_integers():
    config = ScenarioConfig(horizon_slots=np.int64(10), seed=np.uint64(2**64 - 1))
    assert len(draw_realization(config)) == 10


@pytest.mark.parametrize(
    "bounds,field",
    [
        ({"price_high": float("inf")}, "price_high"),
        ({"price_high": float("nan")}, "price_high"),
        ({"price_low": float("nan")}, "price_low"),
        ({"price_low": float("inf"), "price_high": float("inf")}, "price_low"),
    ],
    ids=["high_inf", "high_nan", "low_nan", "both_inf"],
)
def test_validation_rejects_non_finite_prices(bounds, field):
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**bounds)


def test_validation_rejects_a_price_high_whose_joint_price_overflows():
    """price_ris + price_spectrum would be inf, and no policy would lease."""
    with pytest.raises(ConfigError, match="^price_high must keep the joint price price_high [+] price_high finite"):
        ScenarioConfig(price_high=1e308)
    assert ScenarioConfig(price_high=8e307).price_high == 8e307


def test_draw_without_memory_names_horizon(monkeypatch):
    class NoMemory:
        def random(self, shape):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoMemory())
    with pytest.raises(ConfigError, match=r"horizon_slots=7 is too many slots to draw \(Unable"):
        draw_realization(ScenarioConfig(horizon_slots=7))


def test_stability_headroom_warning():
    with pytest.warns(UserWarning) as record:
        ScenarioConfig(arrival_prob=0.9, avail_prob_ris=0.9, avail_prob_spectrum=0.9)
    assert record[0].filename == __file__  # the caller, not the generated __init__
    with pytest.warns(UserWarning):
        ScenarioConfig(arrival_prob=1.0, avail_prob_ris=1.0, avail_prob_spectrum=1.0)


def test_scenario_dict_round_trip():
    config = ScenarioConfig(horizon_slots=77, arrival_prob=0.25, seed=9)
    again = scenario_from_dict(dataclasses.asdict(config))
    assert again == config


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_dict({"horizon_slots": 10, "bogus": 1})


def test_with_seed_changes_only_the_seed():
    config = ScenarioConfig(horizon_slots=30, initial_backlog=2)
    other = with_seed(config, 2**64 - 1)
    assert other == dataclasses.replace(config, seed=2**64 - 1)
    assert config.seed == DEFAULT_SEED  # original untouched
    for seed, message in [(-1, "seed must be >= 0"), (2**64, "seed must be <="), (True, "seed must be an integer")]:
        with pytest.raises(ConfigError, match=message):
            with_seed(config, seed)


def test_column_rules_cover_the_trace_schema():
    assert set(COLUMN_RULES) == set(TRACE_COLUMNS) >= set(MARKET_FIELDS)
    assert {name for name, rule in COLUMN_RULES.items() if rule is not None} == {
        name for name, dtype in TRACE_DTYPES.items() if dtype == np.int64
    }


@pytest.mark.parametrize(
    "name,values,row",
    [
        ("t", np.array([1, 2, 0, -1]), 2),
        ("arrival", np.array([0, 5, -1], dtype=np.int8), 2),
        ("arrival", np.array([0, 2**63], dtype=np.uint64), 1),
        ("avail_ris", np.array([1, 0, 2], dtype=np.uint8), 2),
        ("avail_ris", np.array([0, 1, 1]), None),
        ("price_ris", np.array([0.0, -0.0, 1e308, 3]), None),
        ("price_ris", np.array([1, 2, -3]), 2),
        ("cost", np.array([0.5, np.inf, np.nan]), 1),
        ("q_after", np.array([0.5, np.nan], dtype=np.float16), 1),
        ("r", np.empty(0, dtype=np.int64), None),
        # columns min and max do not judge, which go value by value
        ("r", np.array([True, False]), 0),
        ("arrival", np.array([0.0, 1.0]), 0),
        ("price_ris", np.array([[1.0, 2.0]]), 0),
        # wider than a float64 on most platforms, where tolist() keeps longdoubles
        ("price_ris", np.array([1.0], dtype=np.longdouble), None),
        ("price_ris", np.array([1.0], dtype=object), None),
    ],
)
def test_first_bad_row_agrees_with_check_value(name, values, row):
    """check_column raises what check_value raises at the column's first
    bad row, given here 0-based, or nothing."""
    error = column_error(name, values)
    assert error == first_rejection(name, values)
    assert error is None if row is None else error.startswith(f"row {row + 1}: {name} must be ")


def column_error(name, values):
    """check_column's message for a column, or None."""
    try:
        check_column("row", name, values)
    except ConfigError as exc:
        return str(exc)
    return None


def first_rejection(name, values):
    """check_value's message for the first row whose tolist() value it
    rejects, named "row {1-based row}", or None."""
    for row, value in enumerate(values.tolist(), start=1):
        try:
            check_value(f"row {row}", name, value)
        except ConfigError as exc:
            return str(exc)
    return None


INT_DTYPES = [np.dtype(f"{kind}{size}") for kind in "iu" for size in (1, 2, 4, 8)]
FLOAT_DTYPES = [np.dtype(f"f{size}") for size in (2, 4, 8)]


@st.composite
def judged_columns(draw):
    """A COLUMN_RULES name and a 1-D column it judges: any int or uint
    dtype under any rule, or any float dtype under the float rule, up to 8
    bytes. The rows are valid but for up to three at any position, drawn
    from the dtype's edge values (NaN, +-inf, -0.0, subnormals, extremes,
    one past the rule) or, for an int dtype, from its whole range; a
    column may be empty."""
    dtype = draw(st.sampled_from(INT_DTYPES + FLOAT_DTYPES))
    names = [name for name, rule in COLUMN_RULES.items() if rule is None or dtype.kind != "f"]
    name = draw(st.sampled_from(names))
    rule = COLUMN_RULES[name]
    if dtype.kind == "f":
        info = np.finfo(dtype)
        valid = st.floats(0.0, float(info.max), width=8 * dtype.itemsize)
        changes = st.sampled_from([
            math.nan, math.inf, -math.inf, -0.0, 0.0, float(info.smallest_subnormal),
            -float(info.smallest_subnormal), float(info.tiny), float(info.max), -float(info.max), -1.0,
        ])
    else:
        info = np.iinfo(dtype)
        low, high = rule if rule is not None else (0, info.max)
        low, high = max(low, info.min), min(high, info.max)
        valid = st.integers(low, high)
        edges = [value for value in (info.min, info.max, low - 1, high + 1, 0, 1, -1) if info.min <= value <= info.max]
        changes = st.sampled_from(edges) | st.integers(info.min, info.max)
    rows = draw(st.lists(valid, max_size=10))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(changes)
    return name, np.array(rows, dtype=dtype)


@settings(max_examples=500)
@given(column=judged_columns())
# columns that only max() rejects; a `<= inf` test would pass the first two
@example(column=("price_ris", np.array([1.0, math.inf], dtype=np.float16)))
@example(column=("cost", np.array([-0.0, 5e-324, math.inf])))
@example(column=("arrival", np.array([0, 2**64 - 1], dtype=np.uint64)))
# edges of the one-reduction accept, the max of the unsigned view less low:
# a negative int wraps past the bound, and so does a value below low 1
@example(column=("arrival", np.array([0, -1], dtype=np.int8)))
@example(column=("t", np.array([0], dtype=np.uint64)))
@example(column=("t", np.array([1, 0], dtype=np.int64)))
# -0.0's bit pattern passes the bound, so the scan accepts it
@example(column=("price_ris", np.array([-0.0, 1.0])))
# a float dtype's own max is the bound, and inf lies just past it
@example(column=("price_ris", np.array([np.finfo(np.float32).max], dtype=np.float32)))
@example(column=("price_ris", np.array([math.inf], dtype=np.float32)))
@example(column=("arrival", np.array([2**63 - 1], dtype=np.int64)))
@example(column=("q_before", np.array([-1], dtype=np.int64)))
def test_first_bad_row_is_the_first_row_check_value_rejects(column):
    name, values = column
    assert column_error(name, values) == first_rejection(name, values)


def test_derive_seed_is_stable_and_spread():
    seeds = [derive_seed(42, i) for i in range(100)]
    assert seeds == [derive_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_fingerprint_sensitivity():
    base = ScenarioConfig()
    fp = scenario_fingerprint(base)
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert scenario_fingerprint(ScenarioConfig(seed=43)) != fp
    assert scenario_fingerprint(ScenarioConfig(arrival_prob=0.31)) != fp
    assert scenario_fingerprint(ScenarioConfig()) == fp
