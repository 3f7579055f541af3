"""Run-to-run spread of the end-to-end metrics across workload seeds.

Runs `run.py` once per seed, one run after another, and prints for each
metric the median and the quartile distance as a share of the median,
next to the bound in BENCHMARK.json; use it to check that the benchmark
is steady and to compare two commits with identical settings. From the
repository root:

    python3 perfbench/spread.py --workload online_oracle --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/out/spread.json
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stdout}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args()
    names = [w["name"] for w in BENCHMARK["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {}
    steady = True
    for name in names:
        results = [run_once(name, seed, args.seconds, 0) for seed in seed_range(args.seeds)]
        summary[name] = {
            metric: summarize([r["metrics"][metric]["value"] for r in results]) for metric in bounds
        }
        print(f"{name}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
        for metric, s in summary[name].items():
            ok = metric == "setup_s" or s["spread"] < bounds[metric] / 3
            steady &= ok and all(r["correct"] for r in results)
            print(f"  {metric:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:7.2%}  bound {bounds[metric]:.0%}  {'ok' if ok else 'WIDE'}")
    if args.out:
        seeds = seed_range(args.seeds)
        report = json.loads((HERE / "out" / f"{names[0]}-seed{seeds[0]}-trace0.json").read_text())
        document = {"environment": report["environment"], "seconds": args.seconds,
                    "seeds": seeds, "workloads": summary}
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
