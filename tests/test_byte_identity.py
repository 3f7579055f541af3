"""Byte-identity gate: trace CSVs and sweep JSONs must not change by a single byte.

The trace digests below are sha256 sums of write_trace_csv(run(...))
taken from the implementation in which every draw went through draw_slot
and the python loop indexed numpy arrays. The sweep digests are sha256
sums of the sweep_to_dict JSON taken from the implementation in which the
loop wrote all ten of its trace columns itself. Any optimisation of the
draw, the loop, or the writers must reproduce them exactly; a mismatch
means the reproducibility contract broke, not that the digests need
refreshing.
"""
import hashlib
import json

import numpy as np
import pytest

from leasesim.cli import main
from leasesim.environment import ScenarioConfig, draw_realization, draw_slot
from leasesim.policies import parse_policy
from leasesim.reporting import sweep, sweep_to_dict, write_trace_csv
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
    write_trace_csv(run(scenario, parse_policy(label), params), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(scenario_name, label)]


SWEEP_SCENARIOS = {
    "default": ScenarioConfig(horizon_slots=600),
    "backlog_freeze": ScenarioConfig(horizon_slots=600, initial_backlog=3, freeze_z_when_empty=True),
}
SWEEP_V_GRID = [0.5, 4.0, 20.0]
SWEEP_EPS_GRID = [0.25, 1.0]

# keyed (scenario, common random numbers, policy)
SWEEP_DIGESTS = {
    ("default", True, "dsf"): "4104cc3e49b6fc69144e7847261d9175e65c201cfe22cc53139c52d429fb0f66",
    ("default", True, "dsf_exact_argmin"): "78e972c7d3576bd8ccab11ea99f48dc3e463231c4063a4c8afc574f243c64a61",
    ("default", True, "periodic:3"): "bb0bf559a48ce37782112a232b4cac7113aaf687248a98e9472502839c2385ec",
    ("default", True, "greedy"): "f02b67c8be675439e41ee1ab2de26b772367efce08f318d10eb6048b98876dee",
    ("default", True, "price_only:8"): "8daf5e81670fbb0a7d41369a3585f9b30b25f88668047c98e6105231cc0bcb57",
    ("default", True, "queue_threshold:5"): "358cc36f224aca1ea8b12a14076b1239ad3dc0b9c39da84fbf9cf7d5411a1a1a",
    ("default", True, "myopic"): "354570f9fdbb089fa75639ce48c65de9dc26d19af67191b5ed55e92525efda8a",
    ("default", False, "dsf"): "92679197c7d197a7c162624896060c2d7590991e44ab85aa71d277ca46e72718",
    ("default", False, "dsf_exact_argmin"): "c85b8a504c06fc4ca254952b1e5420e1d0e610d442b92e9e48f4a9ff4ba66344",
    ("default", False, "periodic:3"): "c96537be95f9b8cb7df1de3e34425d43c7ff0bb2d0ba9405d223fc514019eee3",
    ("default", False, "greedy"): "abc107e8eb374df1452f5c2efa1e7a9f39742686628abb00b12ab3f180d0f5ae",
    ("default", False, "price_only:8"): "5d15286d5b0b5afbfc4ddefd1aac8f723d73c7f683bc92e1b83803181ce41594",
    ("default", False, "queue_threshold:5"): "d7d6f047e205f204c564eb5da7b19832ca80657f655b0d11fc647ebc2c4c331c",
    ("default", False, "myopic"): "a606294d0f77d351d42a249a2dcc66f32cf55c4139cb94e1be103a150b60234b",
    ("backlog_freeze", True, "dsf"): "dd08fb8b8657580c6f0bfc4155bcf264b031dfdd344f91d705866fa53f750592",
    ("backlog_freeze", True, "dsf_exact_argmin"): "fb2e726a5bdffd3f4526bfb323d87b9d904461ef511921f3ad7918920fcf8b21",
    ("backlog_freeze", True, "periodic:3"): "d218f27ab8c4224c4b0fe67e0d1915436069275253e33fe0b88facac60ef8d83",
    ("backlog_freeze", True, "greedy"): "7a9fc4adf3d45cd9726c10514b1a2217cd6822baba8f6bb4a338ca11bbfcd16a",
    ("backlog_freeze", True, "price_only:8"): "a62ebaa8da2a22998626209efa78ca7776788992a502ac08983ab9fcfebb35dd",
    ("backlog_freeze", True, "queue_threshold:5"): "9bd4606d034d1e758004bd7de0a68a34f6164694849e6e8bc9525965cfd38164",
    ("backlog_freeze", True, "myopic"): "9e1ecc21018c47cde41332d60131a15c1ac403abe87a4071c44f70b337758b50",
    ("backlog_freeze", False, "dsf"): "52350132385b721897c5b9553e8c5d32c851b8968adced42964c9b3b84ab2f13",
    ("backlog_freeze", False, "dsf_exact_argmin"): "04f136710f3040ed0cc7f11167f579c7ae3a077dd92223c1851092b0c987d422",
    ("backlog_freeze", False, "periodic:3"): "79c17ee08eb5d80c8afa32cf64f3d4511a1ff14a1fff22fc7a938dc060e2e9a2",
    ("backlog_freeze", False, "greedy"): "cf72f81711ebb5e99a831a5c06a709029051ca7d802f0c068a43d6c533945626",
    ("backlog_freeze", False, "price_only:8"): "29de8d3a26d9174e24940bcf434c8d98683be82af8cbc6bebe0dd4b97a70b382",
    ("backlog_freeze", False, "queue_threshold:5"): "bf952555d657145388ae6b8fdc115d5226807a96812f7a337b5d1ff4fd4b7b0f",
    ("backlog_freeze", False, "myopic"): "63713872eb9f0445596a7296e22f29e58552f83bc1f6f7d9e6baf88c8e855109",
}


@pytest.mark.parametrize("scenario_name,crn,label", sorted(SWEEP_DIGESTS))
def test_sweep_json_digest(scenario_name, crn, label):
    scenario = SWEEP_SCENARIOS[scenario_name]
    table = sweep(scenario, parse_policy(label), SWEEP_V_GRID, SWEEP_EPS_GRID, common_random_numbers=crn)
    document = json.dumps(sweep_to_dict(table, scenario), indent=2) + "\n"
    assert hashlib.sha256(document.encode()).hexdigest() == SWEEP_DIGESTS[(scenario_name, crn, label)]


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


# sha256 of the CSVs written by a default `leasesim sweep` and `leasesim
# compare`, taken before the two writers shared the trace CSV's formatter
CLI_CSV_DIGESTS = {
    "sweep": ("sweep.csv", "f5c9db86723631883f1aa697195f6957a7399b012c7fb284ed5536814d138633"),
    "compare": ("compare/series.csv", "c03b8dce2807d31c399a06c9944621374e30196a10f1a5123fec1a21cd92c905"),
}


@pytest.mark.parametrize("command", sorted(CLI_CSV_DIGESTS))
def test_default_cli_csv_digest(tmp_path, command):
    out = tmp_path / ("sweep.json" if command == "sweep" else "compare")
    assert main([command, "--out", str(out)]) == 0
    name, digest = CLI_CSV_DIGESTS[command]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of the JSON files the CLI writes, taken while each result
# dataclass was still serialized from a hand-written field list
CLI_JSON_DIGESTS = {
    "run": ("trace.summary.json", "c4626afebabdfa56cf4df5336f9a3e6d440bbc7b15e2f84c03776167c7ba144f"),
    "compare": ("compare/ranking.json", "bffa9ca89e69153f5a300b70dde5949d8229a630ee5ad419dbd83e177e6553ed"),
    "intent": ("translation.json", "24d2b59cf6c512e54568cc3de9dbb9f0ae3267761c7550b5d822e4f47058beaf"),
    "intent_scenario": ("derived.json", "91f31dee399ec9cc62362db414f4cdf4b2a2c740942cd4768bc4b0a8f203687c"),
    "assure_drift": ("report.json", "543a0edd0c498a178bbcba7317ac8c5036c1e5c7d7cded803a2cf0cbfc26a2ab"),
    "oracle_feasible": ("oracle.json", "689a1beda29eb52a01533ac747582c4d7bea3f0bda7ec5008a615917ad05dbcc"),
    "oracle_infeasible": ("oracle_infeasible.json", "85524050eba6ff1845d0ca8ce487c4265ac6e05b7aa680c1e234f4800bc0ad51"),
}


@pytest.fixture(scope="module")
def cli_json_dir(tmp_path_factory):
    """One run of every JSON-writing command, each exit code checked."""
    d = tmp_path_factory.mktemp("cli_json")
    (d / "scenario.json").write_text(json.dumps({"horizon_slots": 300, "seed": 7}))
    (d / "intent.json").write_text(json.dumps({"payload_mb": 50, "deadline_s": 50, "reliability_pct": 99}))
    (d / "real.csv").write_text(
        "t,arrival,avail_ris,avail_spectrum,price_ris,price_spectrum\n"
        "1,0,1,1,2.0,3.0\n"
        "2,1,1,1,9.0,9.0\n"
        "3,0,1,1,1.25,1.0\n"
    )
    steps = [
        (0, ["run", "--scenario", "scenario.json", "--out", "trace.csv"]),
        (0, ["compare", "--scenario", "scenario.json", "--out", "compare"]),
        (0, ["intent", "--file", "intent.json", "--out", "translation.json", "--scenario-out", "derived.json"]),
        # leasing every 20th slot misses the 99% target, with drift warnings
        (0, ["run", "--scenario", "derived.json", "--policy", "periodic:20", "--out", "bulk.csv"]),
        (2, ["assure", "--trace", "bulk.csv", "--intent", "intent.json",
             "--translation", "translation.json", "--out", "report.json"]),
        (0, ["oracle", "--realization", "real.csv", "--initial-backlog", "1", "--deadline", "3",
             "--out", "oracle.json"]),
        (0, ["oracle", "--realization", "real.csv", "--initial-backlog", "3", "--deadline", "3",
             "--out", "oracle_infeasible.json"]),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for code, argv in steps:
            assert main(argv) == code, argv
    return d


@pytest.mark.parametrize("case", sorted(CLI_JSON_DIGESTS))
def test_cli_json_digest(cli_json_dir, case):
    name, digest = CLI_JSON_DIGESTS[case]
    assert hashlib.sha256((cli_json_dir / name).read_bytes()).hexdigest() == digest
