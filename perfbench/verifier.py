"""Check one op's output in a process of its own.

Reads a pickled ``(workload, output)`` pair on stdin, written by
``workloads.Workload.check``, and writes the pickled list of problems found
by ``workload.verify(output)`` to stdout.
"""

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    workload, output = pickle.load(sys.stdin.buffer)
    pickle.dump(workload.verify(output), sys.stdout.buffer)


if __name__ == "__main__":
    main()
