"""Self-test of the benchmark's checks: damaged results must be caught.

    python3 perfbench/selftest.py

1. On small seeded tables, the reference accepts the program's results and
   the same results with one component's sign flipped, and rejects them
   after a lower and upper bound swap in one column or a 1e-6 change of a
   single endpoint.
2. For every workload, ``run.py --corrupt`` damages the first op's output;
   the op must be counted as failed and the run must exit non-zero.
3. In a directory holding only BENCHMARK.json and this directory (no
   program sources), ``run.py`` must exit non-zero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sympca  # noqa: E402
from workloads import WORKLOADS, BatchGrid  # noqa: E402


def _damaged(result, mutate) -> sympca.PcaResult:
    scores = sympca.IntervalMatrix(result.scores.rows, result.scores.cols,
                                   result.scores.lo.copy(), result.scores.hi.copy())
    mutate(scores.lo, scores.hi)
    return sympca.PcaResult(**{**vars(result), "scores": scores})


def check_reference() -> list[str]:
    errors = []
    grid = BatchGrid(7, HERE / "_work", shapes=((30, 12), (12, 30), (200, 10)))
    results = grid.op()

    def swap(lo, hi):
        lo[:, 1], hi[:, 1] = hi[:, 1].copy(), lo[:, 1].copy()

    def nudge(lo, hi):
        lo[2, 0] -= 1e-6

    cases = [
        ("unchanged", results, True),
        ("PC1 sign flipped", [sympca.flip_component(r, 0) for r in results], True),
        ("lo/hi swapped in one column", [_damaged(results[0], swap), *results[1:]], False),
        ("one endpoint moved by 1e-6", [*results[:2], _damaged(results[2], nudge), *results[3:]], False),
    ]
    for label, output, should_pass in cases:
        problems = grid.verify(output)
        if (not problems) != should_pass:
            errors.append(f"reference check, {label}: expected "
                          f"{'pass' if should_pass else 'failure'}, got {problems or 'pass'}")
        else:
            print(f"ok   reference check, {label}: "
                  f"{'passes' if should_pass else problems[0]}")
    return errors


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_corrupt_runs() -> list[str]:
    errors = []
    for name in WORKLOADS:
        done = _run(["--workload", name, "--seed", "1", "--seconds", "1", "--corrupt"], ROOT)
        result = json.loads(done.stdout.splitlines()[-1])
        if done.returncode == 0 or result["failed"] < 1 or result["correct"]:
            errors.append(f"{name} --corrupt: exit {done.returncode}, result {result}")
        else:
            print(f"ok   {name} --corrupt: exit {done.returncode}, "
                  f"{result['failed']} of {result['attempted']} ops failed")
    return errors


def check_without_sources() -> list[str]:
    bare = HERE / "_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run(["--workload", "batch-grid", "--seed", "1", "--seconds", "1"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout!r}"]
    print(f"ok   without sources: exit {done.returncode}, {done.stderr.strip()}")
    return []


def main() -> int:
    errors = check_reference() + check_corrupt_runs() + check_without_sources()
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
