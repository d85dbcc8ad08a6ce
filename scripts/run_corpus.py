#!/usr/bin/env python3
"""Run the analyzer over the bundled corpus and print a result table."""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from picount.analysis import AnalysisConfig, run

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

JOBS = [
    ("memory.pi", "chan", ("mutex unit cell over {2,6,10}",)),
    (
        "semaphore2.pi",
        "chan",
        (
            "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2",
            "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 1",
        ),
    ),
    ("synccomm.pi", "chan", ()),
    ("objects.pi", "marker", ("unit m: 1*x@16 <= 1",)),
    ("dlist.pi", "chan", ("mutex unit c0 over {4,15}", "mutex unit c1 over {4,15}")),
]


def main():
    print(f"{'system':<15} {'partition':<9} {'iters':>5} {'time':>7}  queries")
    for name, partition, queries in JOBS:
        t0 = time.time()
        result = run(
            AnalysisConfig(
                path=os.path.join(CORPUS, name), partition=partition, queries=queries
            )
        )
        took = f"{time.time() - t0:5.1f}s"
        outcomes = (
            "; ".join(f"{q['query']} -> {q['result']}" for q in result.report.queries)
            or "(none)"
        )
        print(
            f"{name:<15} {partition:<9} {result.fix.iterations:>5} {took:>7}  {outcomes}"
        )
        if name == "synccomm.pi":
            u = result.fix.env.get(4).labels["u"]
            v = result.fix.env.get(7).labels["v"]
            print(f"{'':<15} {'':<9} {'':>5} {'':>7}  u -> {set(u)}, v -> {set(v)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
