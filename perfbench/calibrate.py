"""Fixed reference work that uses nothing from the package.

    python3 perfbench/calibrate.py

The benchmark times this script in a fresh interpreter after every set-up
probe and every step.  Its work mixes what the CLI does: interpreter start,
numpy import, Python bytecode loops, string formatting, vectorised array
arithmetic and random-stream construction.  The script never changes, so
its time tracks only how fast the machine runs at that moment; a step's
time divided by it cancels the drift of a shared host's speed.
"""

import sys

import numpy as np


def work() -> float:
    acc = 0.0
    # Python bytecode: float arithmetic and list building in a loop
    for i in range(75_000):
        acc += (i % 7) * 0.5 - (i % 3) * 0.25
    rows = [f"{i},{i * 0.001:.6f}" for i in range(10_000)]
    # vectorised arithmetic on arrays larger than the last-level cache
    x = np.linspace(-3.0, 3.0, 1_000_000)
    for _ in range(6):
        y = np.exp(-np.abs(x)) + np.sqrt(np.abs(x)) * 0.5
        acc += float(np.maximum.accumulate(y)[-1])
    # small arrays: per-call overhead of many numpy operations
    z = np.arange(64, dtype=float)
    for i in range(10_000):
        acc += float((z * 1.0001).max())
    # random-stream construction and short draws
    for i in range(1_500):
        acc += float(np.random.default_rng(i).standard_normal(4)[0])
    acc += len("\n".join(rows))
    return acc


if __name__ == "__main__":
    value = work()
    sys.exit(0 if value == value else 1)
