"""Byte-identity gate: trace CSVs must not change by a single byte.

The digests below are sha256 sums of write_trace_csv(run(...)) taken
from the implementation in which every draw went through draw_slot and
the python loop indexed numpy arrays. Any optimisation of the draw, the
loop, or the CSV writer must reproduce them exactly; a mismatch means the
reproducibility contract broke, not that the digests need refreshing.
"""
import hashlib

import numpy as np
import pytest

from leasesim.environment import ScenarioConfig, draw_realization, draw_slot
from leasesim.policies import parse_policy
from leasesim.reporting import write_trace_csv
from leasesim.simulator import default_params, run

SCENARIOS = {
    "max_seed": ScenarioConfig(seed=2**64 - 1),
    "backlog_freeze": ScenarioConfig(initial_backlog=3, freeze_z_when_empty=True),
}

# eps_d = 0.5 keeps dsf and dsf_exact_argmin apart
DIGESTS = {
    ("max_seed", "dsf"): "2717fdfb03688d33d22c78b9f608cb65db954a6d162f789e8a699cba7b6c0ff0",
    ("max_seed", "dsf_exact_argmin"): "08b1bd881589b8ee92a0292d8c5812b189778b5277b0c277b899ace3b7d8ed8b",
    ("max_seed", "periodic:3"): "5f8133177073d31225fdd31c715ba2994691f3b829c6a5d26e04a8d3410abe11",
    ("max_seed", "greedy"): "e944378a203359af0fb1802ed04e7537f02883d100204ae81bcc7d32f2162bf0",
    ("max_seed", "price_only:8"): "3726cd8aedcfebacc0c0228e4dbea92d91a0e280c0c040517973f76aa6d1d289",
    ("max_seed", "queue_threshold:5"): "e20feec2f87d69663924998b560b04359f6dea2a525568b8d51e7dd78f8a3200",
    ("max_seed", "myopic"): "4e376826ad8fab19d2dd95fc111c707029075f7ff8d7c493bc11c00ac7a6c859",
    ("backlog_freeze", "dsf"): "e4e51843302ab0177ac22963c7d634ff483509b26769e94efc447b08d9749a85",
    ("backlog_freeze", "dsf_exact_argmin"): "d9eee7bb797f428d0340ccf8f67aa02b35028c043dc53ad907e6c86358c1c3c7",
    ("backlog_freeze", "periodic:3"): "96a0ff493d0ae101e65e4951eede8f51ff2dce86a8c73f15e53508abe7fc4d14",
    ("backlog_freeze", "greedy"): "3d9b3d620a55f1f9c811e26cfb15ad7f0cbbac24ea12f246d536b567a6aa7bf7",
    ("backlog_freeze", "price_only:8"): "4e2de0f43c927014f55c99ee1a45f03339208c9cf695fb2960e7daf6fa09d3e1",
    ("backlog_freeze", "queue_threshold:5"): "f54b932c92364a157a0f77337b906f73d74ff7238442d80136e0b107f6e1cf03",
    ("backlog_freeze", "myopic"): "3ef1987e1e20dd505d42ab73efb51c077a4783c65253529e3b452d2cb272ea0a",
}


@pytest.mark.parametrize("scenario_name,label", sorted(DIGESTS))
def test_trace_csv_digest(tmp_path, scenario_name, label):
    scenario = SCENARIOS[scenario_name]
    params = default_params(scenario, v=10.0, eps_d=0.5)
    path = tmp_path / "trace.csv"
    write_trace_csv(run(scenario, parse_policy(label), params, backend="python"), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(scenario_name, label)]


@pytest.mark.filterwarnings("ignore:arrival_prob")  # degenerate markets have no headroom
@pytest.mark.parametrize(
    "fields",
    [
        dict(horizon_slots=300, seed=2**64 - 1),
        dict(horizon_slots=50, price_low=3.25, price_high=3.25),
        dict(horizon_slots=50, arrival_prob=0.0),
        dict(horizon_slots=50, arrival_prob=1.0, avail_prob_ris=1.0, avail_prob_spectrum=1.0),
        dict(horizon_slots=50, avail_prob_ris=0.0, avail_prob_spectrum=0.0),
        dict(horizon_slots=50, avail_prob_ris=1.0, avail_prob_spectrum=0.0),
        dict(horizon_slots=1, seed=5),
    ],
    ids=["max_seed", "flat_price", "no_arrivals", "all_ones", "never_available",
         "mixed_availability", "one_slot"],
)
def test_draw_realization_matches_draw_slot_chain(fields):
    config = ScenarioConfig(**fields)
    rng = np.random.default_rng(config.seed)
    chain = [draw_slot(config, rng) for _ in range(config.horizon_slots)]
    real = draw_realization(config)
    for name, dtype in (
        ("arrival", np.int64),
        ("price_ris", np.float64),
        ("price_spectrum", np.float64),
        ("avail_ris", np.int64),
        ("avail_spectrum", np.int64),
    ):
        want = np.array([getattr(obs, name) for obs in chain], dtype=dtype)
        got = getattr(real, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
