"""Set-up probe: one fresh process that gets a workload ready for its first op.

    python3 perfbench/probe.py <workload> <seed> <work dir>

Imports qsl_lab from the checkout's ``src``, builds the workload's inputs
and prints ``time.monotonic()`` at the moment the first op could start.
``run.py`` subtracts the monotonic time at which it started this process.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].setup(seed, work)
    print(repr(time.monotonic()))
