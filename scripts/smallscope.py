#!/usr/bin/env python3
"""Exhaustive small-scope soundness search.

    python scripts/smallscope.py [--threads 2] [--depth 2]

Enumerates every system `new a in (T1 | ... | Tn)` whose threads are chains
of at most `--depth` prefixes on names in scope.  A prefix is a send with 0
or 1 arguments, a receive, a replicated receive, or a receive that binds one
variable, and any prefix may be followed by `new n in`.  The threads of a
system are an unordered multiset, and bound names are named by their
position, so each system is enumerated once.  Each system is analyzed (the
coalesced product) under the chan and marker partitions, and its fixpoint is
checked against bounded concrete exploration of 200 configurations.  Prints
the number of systems and violations per partition, every violating system
and the smallest one; exits 1 when there is a violation or a run that does
not stabilize.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations_with_replacement

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from picount.analysis import verify_configs
from picount.engine import Analysis
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import load_system

PARTITIONS = {"chan": getvar_channel, "marker": getvar_marker}
MAX_ITER = 300
MAX_CONFIGS = 200


def prefixes(scope, bound):
    """Each prefix on `scope`, with the variables it binds; a receive binds
    the name `bound`."""
    for c in scope:
        yield f"{c}![]", ()
        for x in scope:
            yield f"{c}![{x}]", ()
        yield f"{c}?[]", ()
        yield f"*{c}?[]", ()
        yield f"{c}?[{bound}]", (bound,)


def chains(scope, depth, thread, level=1):
    """Every chain of 1..`depth` prefixes on `scope`, as text.  Names bound at
    `level` of thread number `thread` are y<thread>_<level> and n<thread>_<level>."""
    y, n = f"y{thread}_{level}", f"n{thread}_{level}"
    for prefix, binds in prefixes(scope, y):
        yield prefix
        if depth == 1:
            continue
        inner = scope + binds
        for rest in chains(inner, depth - 1, thread, level + 1):
            yield f"{prefix}. {rest}"
        for rest in chains(inner + (n,), depth - 1, thread, level + 1):
            yield f"{prefix}. new {n} in {rest}"


def systems(threads: int, depth: int):
    """Each system of `threads` threads once, in a fixed order."""
    shapes = [list(chains(("a",), depth, t)) for t in range(threads)]
    for picks in combinations_with_replacement(range(len(shapes[0])), threads):
        body = " | ".join(shapes[t][i] for t, i in enumerate(picks))
        yield f"new a in ({body})"


def judge(text: str, partition: str) -> list[str] | None:
    """The oracle's violations of the system's product fixpoint, or None
    when the run does not stabilize."""
    index = load_system(text)
    analysis = Analysis.build(index, PARTITIONS[partition](index))
    fix = analysis.run("product", max_iter=MAX_ITER)
    if not fix.stabilized:
        return None
    report = verify_configs(analysis, fix.env, fix.con, max_configs=MAX_CONFIGS, max_depth=1 << 30)
    return report.violations


def search(threads: int, depth: int) -> dict:
    """Per partition: the systems whose fixpoint the oracle refutes, and
    those whose run did not stabilize."""
    found = {p: {"violating": [], "unstabilized": []} for p in PARTITIONS}
    count = 0
    for text in systems(threads, depth):
        count += 1
        for p in PARTITIONS:
            violations = judge(text, p)
            if violations is None:
                found[p]["unstabilized"].append(text)
            elif violations:
                found[p]["violating"].append(text)
    found["systems"] = count
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--depth", type=int, default=2)
    args = ap.parse_args(argv)
    if args.threads < 1 or args.depth < 1:
        ap.error("--threads and --depth must be at least 1")
    found = search(args.threads, args.depth)
    print(f"systems {found['systems']}")
    bad = []
    for p in PARTITIONS:
        violating, unstabilized = found[p]["violating"], found[p]["unstabilized"]
        print(f"{p}: {len(violating)} violating, {len(unstabilized)} not stabilized")
        for text in violating:
            print(f"  violates: {text}")
        for text in unstabilized:
            print(f"  not stabilized: {text}")
        bad += violating + unstabilized
    if bad:
        print(f"smallest: {min(bad, key=lambda t: (len(t), t))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
