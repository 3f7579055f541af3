"""leasesim benchmark: one workload per call, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_crn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload, one table

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
alternates untraced and traced ops and reports the per-layer metrics.
Each call prints a human-readable report, writes it with the environment
record to `perfbench/out/`, and prints one JSON object as its last line.
The program under test is imported from `src/` of the same checkout; the
call exits 1 without a result when that is missing. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("sweep_crn", "sweep_indep", "intent_pipeline", "online_oracle")
SETUP_PROBES = 7  # fresh interpreters per set-up measurement; the median is reported
MIN_OPS = 4
PROBE_TIMEOUT_S = 60
# Seconds the calibration kernel takes on the reference host (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4); timings are reported at that speed.
CAL_REF_S = 0.003
CAL_BLOCK = 5  # calibrations between two ops or probes; their median is one reading

END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "slots_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "environment.draw_calls": "count",
    "environment.draw_slots": "count",
    "environment.draw_self_ms": "ms",
    "environment.draw_ns_per_slot": "ns",
    "environment.distinct_draw_ratio": "ratio",
    "kernels.loop_calls": "count",
    "kernels.loop_slots": "count",
    "kernels.loop_self_ms": "ms",
    "kernels.loop_ns_per_slot": "ns",
    "simulator.run_calls": "count",
    "simulator.run_self_ms": "ms",
    "simulator.step_calls": "count",
    "simulator.step_self_us": "us",
    "simulator.oracle_calls": "count",
    "simulator.oracle_ms_per_call": "ms",
    "reporting.sweep_self_ms": "ms",
    "reporting.summarize_calls": "count",
    "reporting.summarize_self_ms": "ms",
    "reporting.csv_write_ms": "ms",
    "reporting.csv_write_bytes": "bytes",
    "reporting.csv_write_mb_per_s": "MB/s",
    "reporting.csv_read_ms": "ms",
    "reporting.csv_read_mb_per_s": "MB/s",
    "reporting.json_write_ms": "ms",
    "intent.translate_ms": "ms",
    "intent.assure_ms": "ms",
    "cli.self_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.traced_op_ms": "ms",
    "bench.unattributed_ms": "ms",
}


def import_program():
    """Import leasesim from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "leasesim" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'leasesim'} not found; run from a leasesim checkout")
    sys.path.insert(0, str(SRC))
    try:
        import leasesim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import leasesim from {SRC}: {exc}")
    if SRC.resolve() not in Path(leasesim.__file__).resolve().parents:
        sys.exit(f"perfbench: imported leasesim from {leasesim.__file__}, not {SRC}")
    return leasesim


def environment_record() -> dict:
    import numpy as np
    from leasesim import _kernels
    from leasesim.core import ConfigError

    try:
        backend = _kernels.resolve_backend()
    except ConfigError as exc:
        backend = f"error: {exc}"
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": _kernels.HAVE_NUMBA,
        "backend": backend,
        "LEASESIM_BACKEND": os.environ.get(_kernels.ENV_VAR),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def calibrate() -> float:
    """Seconds a fixed reference kernel takes now.

    On a shared host the CPU speed one process sees switches between two
    levels about 1.7x apart every few hundred milliseconds (neighbours on
    the same cores), and op times swing with it. Every op and set-up probe is therefore timed between two readings
    of this kernel, and its time is scaled by CAL_REF_S over the mean of
    the reading just before and the one just after it. The kernel does the
    simulator's kind of work (interpreted float arithmetic on numpy
    scalars, float reprs, list appends) but calls nothing in leasesim, so
    no change to the program can speed it up. Raw times stay in the report.
    """
    import numpy as np

    prices = np.linspace(1.0, 10.0, 512)
    start = time.perf_counter()
    q = z = 0.0
    text = []
    for _ in range(6):
        for i in range(512):
            p = prices[i]
            lease = 1.0 if q + z > 3.0 * p else 0.0
            q = max(q + (i & 1) - lease, 0.0)
            z = max(z + 0.5 - lease, 0.0)
            if i % 8 == 0:
                text.append(repr(float(p)))
    return time.perf_counter() - start


def reading() -> float:
    """One speed reading: the median of CAL_BLOCK calibrations."""
    return statistics.median(calibrate() for _ in range(CAL_BLOCK))


def speed_scale(before: float, after: float) -> float:
    """Factor that turns the time of a stretch between two readings into
    reference-speed time."""
    return 2 * CAL_REF_S / (before + after)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, capped at p90 so that runs doing more ops stay
    comparable, and never below the median (runs of fewer than 21 ops)."""
    ordered = sorted(samples)
    n = len(ordered)
    index = math.ceil(0.9 * n) - 1 if n >= 100 else max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


class Run:
    """Op counts and problems of one benchmark call."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(f"{what}: {p}" for p in problems[:5])

    def attempt(self, what: str, seed: int, timed=None):
        """Run one op on the market `seed`; returns (output bytes, wall s, cpu s)
        or None when the op raised or broke an invariant."""
        wl = self.workload
        self.attempted += 1
        try:
            inputs = wl.make_input(seed)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = timed(wl.op, inputs) if timed else wl.op(inputs)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            output, problems = wl.check(inputs, result)
        except Exception as exc:  # an op that raises is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(what, [f"{type(exc).__name__}: {exc}"])
            return None
        if problems:
            self.fail(what, problems)
            return None
        return output, wall, cpu


def probe_setup(name: str, seed: int, index: int) -> None:
    """Child side of a set-up measurement: import, build, run one op, report.

    The probe takes a speed reading before and after that work. The first
    comes after numpy's import, which the reading needs; its own duration
    is reported so that the parent takes it out of the probe's time.
    """
    import numpy  # noqa: F401  (part of set-up: leasesim imports it too)

    start = time.perf_counter()
    before = reading()
    excluded = time.perf_counter() - start
    import_program()
    import workloads

    wl = workloads.build(name)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(workdir)
        inputs = wl.make_input(workloads.market_seed(seed, workloads.SETUP, index))
        result = wl.op(inputs)
        print("ready", flush=True)
        after = reading()
        _, problems = wl.check(inputs, result)
        print(json.dumps({"scale": speed_scale(before, after), "excluded_s": excluded,
                          "problems": problems}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(run: Run, name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the end of its first op,
    for SETUP_PROBES interpreters started one after another, and the speed
    scale of each probe. The probe takes its speed readings itself: a
    reading in this process may see the other core."""
    samples, scales = [], []
    for index in range(SETUP_PROBES):
        run.attempted += 1
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--setup-probe", str(index)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        try:
            ready = rest = ""
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                rest = proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        try:
            report = json.loads(rest) if ready.strip() == "ready" else {"problems": ["no ready line"]}
            problems = report["problems"]
        except (json.JSONDecodeError, KeyError, TypeError):
            problems = ["unreadable probe report"]
        if proc.returncode != 0:
            problems.append(f"probe exited {proc.returncode}")
        if problems:
            run.fail(f"setup probe {index}", problems)
        else:
            samples.append(elapsed - report["excluded_s"])
            scales.append(report["scale"])
    return samples, scales


def check_goldens(run: Run, name: str) -> int:
    """Run the committed golden ops and compare their output digests."""
    import workloads

    golden = json.loads(GOLDENS.read_text())
    expected = golden["workloads"][name]
    for index, want in enumerate(expected):
        seed = workloads.market_seed(golden["seed"], workloads.GOLDEN, index)
        done = run.attempt(f"golden op {index}", seed)
        if done is not None and digest(done[0]) != want:
            run.fail(f"golden op {index}", [f"digest {digest(done[0])} != {want}"])
    return len(expected)


def write_goldens(count: int, seed: int) -> None:
    import workloads

    digests = {}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            wl = workloads.build(name)
            wl.setup(workdir)
            digests[name] = []
            for index in range(count):
                inputs = wl.make_input(workloads.market_seed(seed, workloads.GOLDEN, index))
                output, problems = wl.check(inputs, wl.op(inputs))
                if problems:
                    sys.exit(f"perfbench: golden op {index} of {name} broke invariants: {problems}")
                digests[name].append(digest(output))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDENS.write_text(json.dumps({"seed": seed, "workloads": digests}, indent=2) + "\n")
    print(f"wrote {GOLDENS}")


def timed_loop(run: Run, seed: int, seconds: float, tracer=None):
    """Closed loop of fresh ops for `seconds`; with a tracer, odd ops are traced.

    A speed reading is taken between every two ops. Returns (wall s, cpu s,
    speed scale) per successful untraced op and {op index: speed scale} for
    the successful traced ops.
    """
    import workloads

    untraced, traced = [], {}
    deadline = time.perf_counter() + seconds
    index = 0
    before = reading()
    while index < MIN_OPS or time.perf_counter() < deadline:
        seed_i = workloads.market_seed(seed, workloads.TIMED, index)
        if tracer is not None and index % 2 == 1:
            done = run.attempt(f"op {index}", seed_i, lambda op, x, i=index: tracer.run_op(i, op, x))
        else:
            done = run.attempt(f"op {index}", seed_i)
        after = reading()
        if done is not None:
            scale = speed_scale(before, after)
            if tracer is not None and index % 2 == 1:
                traced[index] = scale
            else:
                untraced.append((done[1], done[2], scale))
        before = after
        index += 1
    return untraced, traced


def end_to_end(run, samples, setup, setup_scales, slots_per_op) -> tuple[dict, dict]:
    walls = [wall * scale for wall, _, scale in samples]
    p50 = statistics.median(walls)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "slots_per_s": slots_per_op / p50,
        "cpu_ms_per_op": statistics.median(cpu * scale for _, cpu, scale in samples) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - run.failed / run.attempted,
    }
    if setup:
        metrics["setup_s"] = statistics.median(t * k for t, k in zip(setup, setup_scales))
    extra = {
        "ops_timed": len(walls),
        "op_tail_percentile": tail_pct,
        "error_rate": run.failed / run.attempted,
        "speed_scale_median": statistics.median(scale for _, _, scale in samples),
        "speed_scale_range": [min(s for _, _, s in samples), max(s for _, _, s in samples)],
        "setup_speed_scale_median": statistics.median(setup_scales) if setup else None,
        "raw_op_p50_ms": statistics.median(wall for wall, _, _ in samples) * 1e3,
        "raw_setup_s": statistics.median(setup) if setup else None,
    }
    return metrics, extra


def per_layer(tracer, traced, untraced) -> tuple[dict, dict, list[str]]:
    import spans

    metrics = spans.layer_metrics(tracer.spans, traced)
    p50_traced = statistics.median(spans.op_durations(tracer.spans, traced))
    p50_untraced = statistics.median(wall * scale for wall, _, scale in untraced)
    metrics["bench.trace_overhead_pct"] = (p50_traced / p50_untraced - 1) * 100
    problems = spans.nesting_problems(tracer.spans)
    total = spans.self_time_sum_ms(metrics)
    if not math.isclose(total, metrics["bench.traced_op_ms"], rel_tol=1e-9):
        problems.append(
            f"layer self times sum to {total!r} ms, traced op time is {metrics['bench.traced_op_ms']!r} ms"
        )
    extra = {"ops_traced": len(traced), "ops_untraced": len(untraced),
             "self_time_sum_ms": total, "speed_scale_median": statistics.median(traced.values())}
    return metrics, extra, problems


def bench(name: str, seed: int, seconds: float, trace: int) -> int:
    import_program()
    import spans
    import workloads

    wl = workloads.build(name)
    run = Run(wl)
    env = environment_record()
    setup, setup_scales = measure_setup(run, name, seed) if trace == 0 else ([], [])
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    try:
        wl.setup(workdir)
        goldens = check_goldens(run, name)  # also the untimed warm-up
        untraced, traced = timed_loop(run, seed, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    harness_problems = []
    if len(untraced) < 2 or (trace and len(traced) < 2):
        harness_problems.append("too few successful ops to report")
        metrics, extra = {}, {}
    elif trace == 0:
        metrics, extra = end_to_end(run, untraced, setup, setup_scales, wl.slots_per_op)
        if not setup:
            harness_problems.append("no set-up probe succeeded")
    else:
        metrics, extra, harness_problems = per_layer(tracer, traced, untraced)
    units = PER_LAYER if trace else END_TO_END
    correct = run.failed == 0 and not harness_problems and set(metrics) == set(units)

    tag = f"{name}-seed{seed}-trace{trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.csv")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "golden_ops": goldens, "problems": run.problems + harness_problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {name}  seed {seed}  trace {trace}  backend {env['backend']}  "
          f"numba {env['numba_importable']}  python {env['python']}  numpy {env['numpy']}  "
          f"cpus {env['cpu_count']} ({env['cpu_model']})")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    for key, value in extra.items():
        print(f"  {key:34s} {value}")
    print(f"  ops attempted {run.attempted}, failed {run.failed} "
          f"(golden ops {goldens}); report {OUT / (tag + '.json')}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def bench_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"perfbench: workload {name} printed no result (exit {proc.returncode})")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="leasesim benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--write-goldens", type=int, metavar="OPS",
                        help="regenerate goldens.json with OPS ops per workload, then exit")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.setup_probe is not None:
        probe_setup(args.workload, args.seed, args.setup_probe)
        return 0
    if args.write_goldens is not None:
        import_program()
        write_goldens(args.write_goldens, args.seed)
        return 0
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, args.trace)
    return bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
