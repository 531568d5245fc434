"""Set-up probe: start from a fresh interpreter, import headwaylab, build one
workload's program objects from its inputs, and print the wall-clock time
(time.time()) at which they are ready.

    python3 perfbench/setup_probe.py WORKLOAD SIZE SEED < inputs.csv

Map-generation workloads read their CSV on standard input; the others read
nothing.  run.py starts this three times per run and reports the median.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402 - imports headwaylab from the paths above


def main() -> None:
    name, size, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    wl = WORKLOADS[name]
    wl.program(sys.stdin if wl.reads_stdin else seed, size)
    print(repr(time.time()))


if __name__ == "__main__":
    main()
