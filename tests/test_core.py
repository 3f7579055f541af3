"""Unit tests for the scalar building blocks."""
import ast
import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leasesim.core import (
    HOLD,
    LEASE,
    ConfigError,
    ControlParams,
    LeaseDecision,
    QueueState,
    advance_data_queue,
    advance_virtual_queue,
    departure,
    lyapunov,
    record_dict,
    slot_cost,
)

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
binary = st.integers(min_value=0, max_value=1)
positive_eps = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)


def test_advance_data_queue_examples():
    assert advance_data_queue(5, 1, 1) == 5
    assert advance_data_queue(0, 1, 0) == 0
    assert advance_data_queue(3, 0, 1) == 4


def test_advance_virtual_queue_examples():
    assert advance_virtual_queue(2, 0, 0.5) == 2.5
    assert advance_virtual_queue(2, 1, 0.5) == 1
    assert advance_virtual_queue(0.3, 1, 0.5) == 0


def test_departure_examples():
    assert departure(1, 1) == 1
    assert departure(1, 0) == 0
    assert departure(0, 0) == 0


def test_slot_cost_examples():
    assert slot_cost(1, 1, 3, 4) == 7
    assert slot_cost(0, 0, 9, 9) == 0
    assert slot_cost(1, 0, 2.5, 9) == 2.5


def test_lyapunov_examples():
    assert lyapunov(3, 4) == 12.5
    assert lyapunov(0, 0) == 0
    assert lyapunov(1, 1) == 1


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        advance_data_queue(-1, 0, 0)
    with pytest.raises(ValueError):
        advance_virtual_queue(-0.5, 0, 1.0)
    with pytest.raises(ValueError):
        slot_cost(1, 1, -2, 3)


@given(q=nonneg, r=binary, a=binary)
def test_data_queue_nonnegative(q, r, a):
    assert advance_data_queue(q, r, a) >= 0


@given(z=nonneg, r=binary, eps=positive_eps)
def test_virtual_queue_nonnegative(z, r, eps):
    assert advance_virtual_queue(z, r, eps) >= 0


@given(q=nonneg)
def test_clamp_identity(q):
    # no departure, no arrival: the queue must pass through unchanged
    assert advance_data_queue(q, 0, 0) == q


@given(q=nonneg, dq=nonneg, r=binary, a=binary)
def test_data_queue_monotone_in_backlog(q, dq, r, a):
    assert advance_data_queue(q + dq, r, a) >= advance_data_queue(q, r, a)


@given(q=nonneg, a=binary)
def test_data_queue_monotone_in_departure(q, a):
    assert advance_data_queue(q, 1, a) <= advance_data_queue(q, 0, a)


@given(z=nonneg, dz=nonneg, r=binary, eps=positive_eps)
def test_virtual_queue_monotone(z, dz, r, eps):
    assert advance_virtual_queue(z + dz, r, eps) >= advance_virtual_queue(z, r, eps)
    assert advance_virtual_queue(z, r, 2 * eps) >= advance_virtual_queue(z, r, eps)


@given(x=binary, y=binary)
def test_departure_equals_min(x, y):
    assert departure(x, y) == min(x, y)


@given(q=st.floats(min_value=1e-3, max_value=1e3), z=st.floats(min_value=1e-3, max_value=1e3))
def test_lyapunov_strictly_increasing(q, z):
    assert lyapunov(2 * q, z) > lyapunov(q, z)
    assert lyapunov(q, 2 * z) > lyapunov(q, z)


@given(x=binary, y=binary, p=nonneg, s=nonneg)
def test_slot_cost_bounds(x, y, p, s):
    c = slot_cost(x, y, p, s)
    assert 0 <= c <= p + s
    if x == 0 and y == 0:
        assert c == 0


def test_queue_state_validation():
    QueueState(q=0.0, z=0.0)
    with pytest.raises(ValueError):
        QueueState(q=-1.0, z=0.0)
    with pytest.raises(ValueError):
        QueueState(q=0.0, z=-0.1)


@pytest.mark.parametrize("field", ["q", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False])
def test_queue_state_rejects_non_finite_and_bool(field, bad):
    values = {"q": 1.0, "z": 1.0, field: bad}
    with pytest.raises(ConfigError, match=f"^{field} must be a finite number >= 0, got {bad!r}$"):
        QueueState(**values)


def test_lease_decision_validation():
    assert LEASE == LeaseDecision(1, 1)
    assert HOLD == LeaseDecision(0, 0)
    LeaseDecision(1, 0)  # mixed pairs are valid values, policies just never emit them
    with pytest.raises(ValueError):
        LeaseDecision(2, 0)
    with pytest.raises(ValueError):
        LeaseDecision(0, -1)


@pytest.mark.parametrize(
    "field", ["v", "eps_d", "expected_price_ris", "expected_price_spectrum"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0"])
def test_control_params_rejects_non_finite_and_non_numbers(field, value):
    fields = dict(v=1.0, eps_d=0.5, expected_price_ris=5.5, expected_price_spectrum=5.5)
    fields[field] = value
    with pytest.raises(ConfigError, match=f"^{field} must be a finite number > 0"):
        ControlParams(**fields)


def test_control_params_validation():
    ControlParams(v=1.0, eps_d=0.5, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError):
        ControlParams(v=0.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError):
        ControlParams(v=1.0, eps_d=0.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError):
        ControlParams(v=1.0, eps_d=1.0, expected_price_ris=0.0, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError):
        ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=-2.0)


def test_control_params_rejects_a_v_whose_threshold_overflows():
    """v * (expected_price_ris + expected_price_spectrum) is the threshold of
    both dsf rules; an infinite one would never lease, so v is named."""
    prices = dict(eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    ControlParams(v=1e307, **prices)  # threshold 1.1e308, still finite
    with pytest.raises(ConfigError, match=r"^v=1e\+308 is too large: the lease threshold .* is inf"):
        ControlParams(v=1e308, **prices)
    with pytest.raises(ConfigError, match=r"^v=1\.0 is too large"):
        ControlParams(v=1.0, eps_d=1.0, expected_price_ris=1e308, expected_price_spectrum=1e308)


# --- record_dict ---------------------------------------------------------


@pytest.fixture(scope="module")
def serialized_records() -> dict:
    """One instance of every record the package serializes, built as the
    package builds it, by name."""
    from leasesim.environment import ScenarioConfig, with_seed
    from leasesim.intent import AssuranceReport, IntentSpec, assure, derive_scenario, translate_intent
    from leasesim.policies import parse_policy
    from leasesim.reporting import sweep
    from leasesim.simulator import run

    scenario = ScenarioConfig(horizon_slots=120, initial_backlog=2, seed=3)
    intent = IntentSpec(payload_mb=300, deadline_s=60, reliability_pct=99, priority="delay_critical")
    translation = translate_intent(intent, scenario)
    derived = derive_scenario(translation, scenario)
    table = sweep(scenario, parse_policy("myopic"), [1.0, 5.0], [0.5])
    return {
        "ScenarioConfig": scenario,
        "ScenarioConfig from with_seed": with_seed(scenario, 2**64 - 1),  # built by builder()
        "derived ScenarioConfig": derived,
        "ControlParams": translation.params,
        "IntentSpec": intent,
        "TranslationResult": translation,
        "AssuranceReport": assure(run(derived, parse_policy("dsf"), translation.params), intent, translation),
        "AssuranceReport with warnings": AssuranceReport(
            3, 4, False, False, "fail", ((1, "slot 1: short"), (2, "slot 2: short"))
        ),
        "RunSummary": table.rows[0].summary,
        "SweepCell": table.rows[1],
    }


def _items(document: dict) -> list:
    """The (key, value) pairs of a dict in order, nested dicts included."""
    return [(key, _items(value) if isinstance(value, dict) else value) for key, value in document.items()]


@pytest.mark.parametrize(
    "name",
    [
        "ScenarioConfig",
        "ScenarioConfig from with_seed",
        "derived ScenarioConfig",
        "ControlParams",
        "IntentSpec",
        "TranslationResult",
        "AssuranceReport",
        "AssuranceReport with warnings",
        "RunSummary",
        "SweepCell",
    ],
)
def test_record_dict_equals_asdict_in_key_order(serialized_records, name):
    record = serialized_records[name]
    assert _items(record_dict(record)) == _items(dataclasses.asdict(record))


def test_record_dict_is_shallow():
    """Only nested records become new dicts; other values are the record's own."""
    from leasesim.intent import AssuranceReport

    warnings = ((1, "slot 1: short"),)
    report = AssuranceReport(3, 4, False, False, "fail", warnings)
    assert record_dict(report)["drift_warnings"] is warnings


def test_no_module_uses_dataclasses_asdict():
    """record_dict is the one serialization rule for records: no module of
    the package imports, names or calls dataclasses.asdict."""
    import leasesim

    found = []
    for path in sorted(Path(leasesim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "asdict" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imported_names(tree: ast.Module) -> list[str]:
    """The names a module's import statements bind, in order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_no_module_imports_a_name_it_does_not_use():
    """Every module but __init__ uses each name it imports, so a deletion
    leaves no dangling import. The one exception is cli's summarize, which
    perfbench traces there."""
    import leasesim

    unused = []
    for path in sorted(Path(leasesim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree) if name not in used]
    assert unused == ["cli.summarize"]


def test_package_all_is_what_init_imports():
    """leasesim.__all__ is the one public list: each name __init__ imports,
    once, and each resolves on a star import."""
    import leasesim

    imported = _imported_names(ast.parse(Path(leasesim.__file__).read_text()))
    assert sorted(leasesim.__all__) == sorted(imported)
    namespace = {}
    exec("from leasesim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(imported)


def test_pyproject_takes_the_version_from_the_package():
    """pyproject.toml declares no version of its own: setuptools reads
    the attribute that leasesim.__version__ is, so the two cannot part."""
    import importlib

    import leasesim

    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    module, _, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert getattr(importlib.import_module(module), name) == leasesim.__version__
