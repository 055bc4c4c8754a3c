"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py [--workloads W ...] [--seeds 1 2 ...] [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one after another,
with the settings of BENCHMARK.json. For every metric it reports the
median of the runs, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median. With ``--trace 0`` each spread is compared with its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from machine import machine_info

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine_info(ROOT), "run_seconds": spec["run_seconds"],
               "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            if name in bounds:
                stats["bound"] = bounds[name]
            metrics[name] = stats
        summary["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            verdict = ""
            if s["spread"] is None:
                verdict = "(always 0: layer not reached)"
            elif "bound" in s:
                verdict = "ok" if s["spread"] <= s["bound"] / 3 else (
                    "within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            print(f"  {workload:<15} {name:<26} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"spread {s['spread'] or 0:.4f} {verdict}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
