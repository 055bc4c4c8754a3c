"""Run one sympca benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One client runs ops back to back (a closed loop) for S seconds; an op is
started only if the median op so far would end inside the window, and at
least one op always runs. Every op's output is checked (see ``workloads``).
End-to-end times are scaled to a reference host speed (see ``hostspeed``);
the raw wall times are printed beside them and kept in the run record.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` each untraced op is followed by the same op replayed through
public calls with a span around each, and the last line holds the
per-layer metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# setup_s is the median of this many fresh interpreters. Each times its
# set-up, then the host-speed kernel (which is left out of the set-up time).
SETUP_PROBES = 9
SETUP_PROBE = f"""\
import sys, time
t0 = time.perf_counter()
import sympca
sympca.pca_auto(sympca.load_oils_table())
wall = time.perf_counter() - t0
sys.path.insert(0, {str(HERE)!r})
import hostspeed
print(wall, hostspeed.kernel_time(7))
"""

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def import_program():
    if not (SRC / "sympca" / "__init__.py").is_file():
        sys.exit(f"error: sympca sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import sympca

    if Path(sympca.__file__).resolve().parent != SRC / "sympca":
        sys.exit(f"error: imported sympca from {sympca.__file__}, not from {SRC}")


def measure_setup() -> tuple[float, float]:
    """Medians of (scaled, raw) set-up times over SETUP_PROBES interpreters.

    Each time is scaled by the kernel time its interpreter measured next.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall, kernel = map(float, done.stdout.split()[-2:])
        raw.append(wall)
        scaled.append(scale(wall, kernel))
    return statistics.median(scaled), statistics.median(raw)


def closed_loop(seconds: float, step) -> None:
    """Call step() back to back while the median step still fits the window.

    The first step also compares its output with the reference, so it is
    left out of the median once there are others.
    """
    deadline = time.perf_counter() + seconds
    costs: list[float] = []
    while not costs or time.perf_counter() + statistics.median(costs[1:] or costs) <= deadline:
        t0 = time.perf_counter()
        step()
        costs.append(time.perf_counter() - t0)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it).

    The highest percentile with TAIL_BEYOND samples beyond it. With no more
    than 2 * TAIL_BEYOND samples that percentile is at or below the median,
    so the tail is the maximum instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


class Run:
    """Counts and latencies of the ops of one invocation."""

    def __init__(self, workload, corrupt: bool) -> None:
        self.workload = workload
        self.corrupt = corrupt
        self.walls: list[float] = []  # raw wall times of the measured ops
        self.scaled: list[float] = []  # the same at the reference host speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def settle(self, produce, scaled: bool = False) -> tuple[float, float]:
        """Run one op via produce() and check its output.

        Returns its wall time, and the same scaled to the reference host
        speed when ``scaled`` (else the wall time again).
        """
        self.workload.prepare()
        self.attempted += 1
        output, problems = None, []
        sampler = SpeedSampler(self.workload.host_sensitivity) if scaled else None
        with sampler or contextlib.nullcontext() as speed:
            t0 = time.perf_counter()
            try:
                output = produce()
            except Exception:  # an op that raises is a failed op; keep measuring
                problems = [traceback.format_exc(limit=3)]
            wall = time.perf_counter() - t0
        if not problems:
            try:
                if self.corrupt and self.attempted == 1:
                    self.workload.corrupt(output)
                problems = self.workload.check(output)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems += problems
        return wall, speed.scale(wall) if scaled else wall


def end_to_end(workload, run: Run, seconds: float) -> dict:
    def step():
        wall, scaled = run.settle(workload.op, scaled=True)
        run.walls.append(wall)
        run.scaled.append(scaled)

    closed_loop(seconds, step)
    t_value, t_pct, t_beyond = tail(run.scaled)
    n = len(run.scaled)
    ok = run.attempted - run.failed
    setup, setup_raw = measure_setup()
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(run.scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1000.0 * t_value, "unit": "ms"},
        "cells_per_s": {"value": workload.cells * ok / sum(run.scaled), "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    raw_tail, _, _ = tail(run.walls)
    notes = {
        "op_p50_ms": f"median of {n} ops (raw wall {1000.0 * statistics.median(run.walls):.6g} ms)",
        "op_tail_ms": f"p{t_pct:.1f} of {n} ops, {t_beyond} beyond"
        + ("" if t_beyond else f" (the maximum: a percentile needs over {2 * TAIL_BEYOND} ops)")
        + f" (raw wall {1000.0 * raw_tail:.6g} ms)",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters: import sympca + pca_auto(oils)"
                   f" (raw wall {setup_raw:.6g} s)",
        "cells_per_s": f"{workload.cells} input cells per op"
                       f" (raw wall {workload.cells * ok / sum(run.walls):.6g} 1/s)",
    }
    return {"metrics": metrics, "notes": notes, "walls": run.walls, "scaled": run.scaled,
            "raw": {"setup_s": setup_raw}}


def traced(workload, run: Run, seconds: float) -> dict:
    from tracing import Tracer, layer_report
    from workloads import replay_pca

    tracer = Tracer()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []

    def traced_op():
        tracer.op_id = len(untraced_walls)
        with tracer.span("op") as root:
            output, tables = workload.traced_op(tracer)
        traced_walls.append(root["end"] - root["start"])
        for table in tables:
            replay_pca(tracer, table)
        tracer.op_id = None
        return output

    def step():
        untraced_walls.append(run.settle(workload.op)[0])
        run.settle(traced_op)

    closed_loop(seconds, step)
    metrics = layer_report(tracer, traced_walls, untraced_walls)
    return {
        "metrics": metrics,
        "notes": {"trace.overhead_frac": f"{len(traced_walls)} traced vs "
                                         f"{len(untraced_walls)} untraced ops"},
        "spans": tracer.spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first op's output, to show the check catches it")
    args = parser.parse_args(argv)

    import_program()
    from machine import machine_info
    from workloads import WARM_SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    factory = WORKLOADS[args.workload]
    workdir = HERE / "_work" / str(os.getpid())
    try:
        factory(args.seed, workdir / "warm", **WARM_SIZES[args.workload]).op()
        workload = factory(args.seed, workdir)
        run = Run(workload, args.corrupt)
        measure = traced if args.trace else end_to_end
        record = measure(workload, run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_info(ROOT)
    correct = run.failed == 0
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine, attempted=run.attempted, failed=run.failed, problems=run.problems,
    )
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: record in {out_file.relative_to(ROOT)}")
    print(f"  fail_frac        {run.failed / run.attempted:.6g}  "
          f"({run.failed} of {run.attempted} ops failed)")
    for name, metric in record["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}  {note}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
