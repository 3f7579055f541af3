"""The four benchmark workloads.

Each workload builds one op's inputs from a market seed (untimed), runs
the op (timed), then turns the op's result into canonical output bytes
and a list of invariant violations (untimed). The op calls into leasesim
through module attributes looked up at call time (``reporting.sweep``,
``cli.main``, ``simulator.step``), so the traced run can wrap them.

Every op sees a fresh market: seeds come from this file's own
``numpy.random.SeedSequence`` tree, never from ``leasesim.derive_seed``,
so no op in a run repeats an earlier op's market and a cross-call cache
can show no gain that a one-shot CLI user would not see.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from leasesim import cli, environment, reporting, simulator
from leasesim.core import QueueState
from leasesim.environment import Realization, ScenarioConfig
from leasesim.policies import parse_policy, policy_label

# SeedSequence spawn-key streams: ops timed in a run, ops run by the
# fresh-interpreter set-up probes, and ops whose digests are committed.
TIMED, SETUP, GOLDEN = 0, 1, 2

# the CLI's sweep and compare defaults, so the benchmark times what users run
V_GRID = tuple(float(v) for v in cli.DEFAULT_V_GRID.split(","))
EPS_GRID = tuple(float(e) for e in cli.DEFAULT_EPS_GRID.split(","))
COMPARE_POLICIES = tuple(cli.DEFAULT_COMPARE_POLICIES.split(","))


def market_seed(workload_seed: int, stream: int, index: int) -> int:
    """64-bit market seed of op `index` in `stream` of a workload seed."""
    ss = np.random.SeedSequence(workload_seed, spawn_key=(stream, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _queue_steps_ok(q_before, q_after) -> bool:
    return all(b - a in (0.0, 1.0) for b, a in zip(q_before, q_after))


class Sweep:
    """`reporting.sweep` of dsf over the CLI's default 6x3 (v, eps) grid.

    With common random numbers all 18 cells redraw one identical market,
    so realization reuse would help; without them every draw is useful,
    so reuse must show no change while a faster draw still helps.
    """

    def __init__(self, crn: bool, horizon: int = 2000):
        self.crn = crn
        self.horizon = horizon
        self.slots_per_op = len(V_GRID) * len(EPS_GRID) * horizon
        self.policy = parse_policy("dsf")

    def setup(self, workdir: Path) -> None:
        pass

    def make_input(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(horizon_slots=self.horizon, seed=seed)

    def op(self, scenario: ScenarioConfig) -> bytes:
        table = reporting.sweep(
            scenario, self.policy, list(V_GRID), list(EPS_GRID), common_random_numbers=self.crn
        )
        return (json.dumps(reporting.sweep_to_dict(table, scenario), indent=2) + "\n").encode()

    def check(self, scenario: ScenarioConfig, result: bytes) -> tuple[bytes, list[str]]:
        doc = json.loads(result)
        problems = []
        grid = [(v, e) for v in V_GRID for e in EPS_GRID]
        rows = doc["rows"]
        if [(row["v"], row["eps_d"]) for row in rows] != grid:
            problems.append("sweep rows are not in row-major grid order")
        seeds = [row["seed"] for row in rows]
        if self.crn and set(seeds) != {scenario.seed}:
            problems.append("CRN sweep cells do not all use the base seed")
        if not self.crn and len(set(seeds)) != len(seeds):
            problems.append("independent sweep cells share a seed")
        for row in rows:
            s = row["summary"]
            if not 0 <= s["lease_count"] <= self.horizon:
                problems.append(f"cell {row['v']},{row['eps_d']}: lease_count out of range")
            if s["accumulated_cost"] < 0 or s["final_backlog"] < 0 or s["average_queue"] < 0:
                problems.append(f"cell {row['v']},{row['eps_d']}: negative cost or queue")
            if s["cumulative_average_cost_final"] != s["accumulated_cost"] / self.horizon:
                problems.append(f"cell {row['v']},{row['eps_d']}: average cost != cost / horizon")
        return result, problems


class IntentPipeline:
    """In-process `cli.main` chain: intent -> run on the derived scenario -> assure.

    The only workload that exercises `cli`, `intent` and the trace CSV
    writer and reader; the draw is a minority of its time.
    """

    OUTPUTS = ("translation.json", "derived.json", "trace.csv", "trace.summary.json", "assurance.json")

    def __init__(self, payload_mb: float = 10000, deadline_s: float = 5000):
        self.intent = {"payload_mb": payload_mb, "deadline_s": deadline_s, "reliability_pct": 99}
        self.slots_per_op = math.floor(deadline_s)  # one slot per second, the CLI default
        self.dir: Path | None = None

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        (workdir / "intent.json").write_text(json.dumps(self.intent))

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def make_input(self, seed: int) -> str:
        base = self._path("base.json")
        Path(base).write_text(json.dumps({"seed": seed}))
        return base

    def op(self, base: str) -> tuple[int, int, int]:
        p = self._path
        with contextlib.redirect_stdout(io.StringIO()):
            rc_intent = cli.main(
                ["intent", "--file", p("intent.json"), "--scenario", base,
                 "--out", p("translation.json"), "--scenario-out", p("derived.json")]
            )
            params = json.loads(Path(p("translation.json")).read_text())["translation"]["params"]
            rc_run = cli.main(
                ["run", "--scenario", p("derived.json"), "--v", repr(params["v"]),
                 "--eps", repr(params["eps_d"]), "--out", p("trace.csv")]
            )
            rc_assure = cli.main(
                ["assure", "--trace", p("trace.csv"), "--intent", p("intent.json"),
                 "--translation", p("translation.json"), "--out", p("assurance.json")]
            )
        return rc_intent, rc_run, rc_assure

    def check(self, base: str, result: tuple[int, int, int]) -> tuple[bytes, list[str]]:
        problems = [
            f"leasesim {cmd} exited {rc}"
            for cmd, rc in zip(("intent", "run", "assure"), result)
            if rc != 0
        ]
        blobs = [Path(self._path(name)).read_bytes() for name in self.OUTPUTS]
        report = json.loads(blobs[-1])["report"]
        if report.get("verdict") not in ("pass", "fail"):
            problems.append("assurance verdict is not recorded")
        with open(self._path("trace.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.slots_per_op:
            problems.append(f"trace has {len(rows)} rows, expected {self.slots_per_op}")
        if not _queue_steps_ok((float(r["q_before"]) for r in rows), (float(r["q_after"]) for r in rows)):
            problems.append("trace has q_before - q_after outside {0, 1}")
        output = b"".join(len(blob).to_bytes(8, "little") + blob for blob in blobs)
        return output, problems


class OnlineOracle:
    """Short windows stepped slot by slot under each compare policy, then
    solved by the offline oracle, whose cost bounds every policy that
    clears its queue. The only workload where the oracle and per-call
    `step` overhead matter; the draw and CSV layers are nearly idle.
    """

    BACKLOG = 2
    V, EPS = 10.0, 1.0  # the compare subcommand's defaults

    def __init__(self, windows: int = 10, window_slots: int = 12):
        self.windows = windows
        self.window_slots = window_slots
        self.policies = [parse_policy(text) for text in COMPARE_POLICIES]
        self.slots_per_op = windows * window_slots * (len(self.policies) + 1)
        self.params = simulator.default_params(ScenarioConfig(), v=self.V, eps_d=self.EPS)

    def setup(self, workdir: Path) -> None:
        pass

    def make_input(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(horizon_slots=self.windows * self.window_slots, seed=seed)

    def op(self, scenario: ScenarioConfig) -> list:
        market = environment.draw_realization(scenario)
        results = []
        for w in range(self.windows):
            cut = slice(w * self.window_slots, (w + 1) * self.window_slots)
            window = Realization(
                market.arrival[cut], market.price_ris[cut], market.price_spectrum[cut],
                market.avail_ris[cut], market.avail_spectrum[cut],
            )
            observations = [window.observation(i) for i in range(len(window))]
            runs = []
            for policy in self.policies:
                state = QueueState(q=float(self.BACKLOG), z=0.0)
                records = []
                for t, obs in enumerate(observations, start=1):
                    state, record = simulator.step(state, obs, policy, self.params, t=t)
                    records.append(record)
                runs.append(records)
            oracle = simulator.offline_min_cost(window, self.BACKLOG, self.window_slots)
            results.append((runs, oracle))
        return results

    def check(self, scenario: ScenarioConfig, result: list) -> tuple[bytes, list[str]]:
        problems = []
        document = []
        for w, (runs, (bound, decisions, feasible)) in enumerate(result):
            entry = {"policies": {}, "oracle": [bound, decisions, feasible]}
            for policy, records in zip(self.policies, runs):
                entry["policies"][policy_label(policy)] = [list(vars(r).values()) for r in records]
                if not _queue_steps_ok((r.q_before for r in records), (r.q_after for r in records)):
                    problems.append(f"window {w} {policy_label(policy)}: q step outside {{0, 1}}")
                if records[-1].q_after != 0.0:
                    continue
                cost = 0.0
                for r in records:
                    cost += r.cost
                # the policy's schedule is one the oracle enumerates; the slack
                # only forgives a different floating-point summation order
                if not feasible or cost < bound - 1e-9 * abs(bound):
                    problems.append(
                        f"window {w} {policy_label(policy)}: cleared at cost {cost!r} "
                        f"below the oracle bound {bound!r} (feasible={feasible})"
                    )
            document.append(entry)
        return (json.dumps(document) + "\n").encode(), problems


def build(name: str, tiny: bool = False):
    """The workload called `name`, at the benchmark's size or a tiny one for tests."""
    if name == "sweep_crn":
        return Sweep(crn=True, horizon=20 if tiny else 2000)
    if name == "sweep_indep":
        return Sweep(crn=False, horizon=20 if tiny else 2000)
    if name == "intent_pipeline":
        return IntentPipeline(2000, 1000) if tiny else IntentPipeline()
    if name == "online_oracle":
        return OnlineOracle(1, 4) if tiny else OnlineOracle()
    raise ValueError(f"unknown workload {name!r}")
