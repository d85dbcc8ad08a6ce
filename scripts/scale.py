#!/usr/bin/env python3
"""Scaling family: the shared memory system with n write capabilities.

    python scripts/scale.py [--max-n 6]

For each n from 1 to `--max-n`, writes the system to a temporary directory
and analyzes it (coalesced product, chan partition) with the query
`mutex unit cell over {c0, cw0, ..., cw(n-1)}`.  Prints one line per n:
n, K (counters), feasible step pairs, iterations, the query's verdict, CPU
seconds of the analysis and the sha256 of the JSON report.  Every column
but CPU is deterministic.  Exits 1 when a verdict is not `proved`.

The cell declares `w0..w(n-1)` and sends them all on `address`; each `wi`
serves writes with its own `cell!cwi` put-back.  The client receives
`k0..k(n-1)` and runs one write loop per capability.  n = 1 is
`perfbench/inputs/memory_write.pi` up to labels.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from picount.analysis import AnalysisConfig, run

HEADER = ("n", "K", "pairs", "iterations", "verdict", "cpu_s", "sha256")


def memory_system(n: int) -> str:
    caps = range(n)
    ws = ", ".join(f"w{i}" for i in caps)
    ks = ", ".join(f"k{i}" for i in caps)
    servers = "".join(
        f"\n    | *w{i}?[valp{i}, ack{i}]. cell?[v{i}]. (cell!cw{i}[valp{i}] | ack{i}![])"
        for i in caps
    )
    clients = "\n    | ".join(
        f"!new data{i}, ackb{i} in k{i}![data{i}, ackb{i}]. ackb{i}?[]" for i in caps
    )
    return (
        "new alloc, null in\n"
        f"( *alloc?[address]. new cell, {ws} in\n"
        "    ( cell!c0[null]\n"
        f"    | address![{ws}]{servers} )\n"
        f"| !new add in alloc![add]. add?[{ks}].\n"
        f"    ( {clients} ) )\n"
    )


def mutex_query(n: int) -> str:
    return "mutex unit cell over {" + ", ".join(["c0"] + [f"cw{i}" for i in range(n)]) + "}"


def measure(n: int, directory: str):
    """Analyze the system of size n, written to `directory`.  Returns the
    printed columns and the run's result."""
    name = f"memory-{n}.pi"
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(memory_system(n))
    cwd = os.getcwd()
    os.chdir(directory)  # the report names the file by this relative path
    try:
        t0 = time.process_time()
        result = run(AnalysisConfig(path=name, queries=(mutex_query(n),)))
        cpu = time.process_time() - t0
    finally:
        os.chdir(cwd)
    layout = result.analysis.layout
    row = (
        n,
        layout.size,
        len(layout.pairs),
        result.fix.iterations,
        result.report.queries[0]["result"],
        f"{cpu:.2f}",
        hashlib.sha256(result.report.to_json().encode()).hexdigest(),
    )
    return row, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args(argv)
    if args.max_n < 1:
        ap.error("--max-n must be at least 1")
    print(" ".join(HEADER))
    proved = True
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(1, args.max_n + 1):
            row, _ = measure(n, tmp)
            print(" ".join(map(str, row)), flush=True)
            proved = proved and row[4] == "proved"
    return 0 if proved else 1


if __name__ == "__main__":
    sys.exit(main())
