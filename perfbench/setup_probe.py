"""Fixed set-up-like work that is independent of riskenv, timed by run.py.

    python3 perfbench/setup_probe.py

Starts the interpreter, imports numpy and runs a fixed mix of interpreter
and small-array work: the kinds of work a workload's set-up does, without
the program.  run.py runs one before each set-up process and scales the
median set-up time by the median probe time.
"""

from __future__ import annotations

import sys

import numpy as np

PROBE_LOOPS = 150


def main() -> int:
    x = np.linspace(0.0, 1.0, 64)
    s = 0.0
    for _ in range(PROBE_LOOPS):
        for i in range(600):
            s += i * 0.5
        y = x
        for _ in range(80):
            y = np.where(y > 0.5, np.sqrt(y + 1.0), y * 1.01)
    return 0 if s > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
