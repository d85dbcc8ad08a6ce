"""Golden fixpoints of the engine.

`golden/engine.jsonl` holds one line per run: a system under one partition,
iterated as `product`, `env` or `contents` with `max_iter` 300.  A line
records whether the run stabilized, its iteration count, its trace (product
runs keep one) and its element in an encoding that does not depend on string
hashing: sets become sorted lists, and every map keeps the order the domain
keeps it in.  The test runs the engine again and compares each field.

A change to the file is a change of analysis results: name it, and show that
the new results are still sound.  To rewrite the file from the engine, run
this module as a script:

    python tests/test_engine_golden.py
"""

import json
import os
import random
from functools import lru_cache

# first: conftest puts src/ on the path when this module runs as a script
from conftest import MEMORY_WRITE, corpus_text

import pytest

from picount import numdom as nd
from picount.engine import Analysis
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import fmt_label, load_system

from test_fuzz_soundness import random_system

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "engine.jsonl")
KINDS = ("product", "env", "contents")
MAX_ITER = 300

INPUTS = (
    ["semaphore2/chan", "synccomm/chan", "memory_write/chan"]
    + [f"fuzz{seed}/{partition}" for seed in range(8) for partition in ("chan", "marker")]
)
# runs that see env facts the inputs above do not: dlist's fixpoint holds
# disequalities between fresh names, and objects exercises marker-only cases
RUNS = [f"{name}/{kind}" for name in INPUTS for kind in KINDS] + [
    "dlist/chan/product",
    "dlist/chan/env",
    "objects/marker/product",
]


@lru_cache(maxsize=None)
def system_text(system: str) -> str:
    if system.startswith("fuzz"):
        return random_system(random.Random(20260 + int(system[len("fuzz"):])))
    if system == "memory_write":
        with open(MEMORY_WRITE, "r", encoding="utf-8") as fh:
            return fh.read()
    return corpus_text(f"{system}.pi")


def encode_atom(a) -> dict:
    if a.is_bottom:
        return {"vars": list(a.vars), "bottom": True}
    return {
        "vars": list(a.vars),
        "labels": [sorted(a.labels[v]) for v in a.vars],
        "eqs": sorted(a.eqs),
        "neqs": sorted(a.neqs),
    }


def encode_num(e):
    return None if e.is_bottom else {"ivs": e.ivs, "rows": e.rows}


def encode_element(env, con, layout) -> dict:
    return {
        "env": None if env is None else [[fmt_label(l), encode_atom(a)] for l, a in env.table],
        "con": None
        if con is None
        else {
            # the zero vector of an untouched unit, which a CUMap does not store
            "default": encode_num(nd.chi(layout, ())),
            "units": [[unit, encode_num(e)] for unit, e in con.entries],
        },
    }


def golden_line(run: str) -> dict:
    """What the engine computes for `run` today, as JSON values."""
    system, partition, kind = run.split("/")
    index = load_system(system_text(system))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    analysis = Analysis.build(index, gv)
    fix = analysis.run(kind, max_iter=MAX_ITER, keep_trace=kind == "product")
    line = {
        "run": run,
        "stabilized": fix.stabilized,
        "iterations": fix.iterations,
        "trace": fix.trace,
        "element": encode_element(fix.env, fix.con, analysis.layout),
    }
    return json.loads(json.dumps(line))  # tuples become lists, as in the file


@lru_cache(maxsize=None)
def golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        lines = [json.loads(text) for text in fh]
    return {line["run"]: line for line in lines}


def test_golden_file_holds_every_run_once():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        assert [json.loads(text)["run"] for text in fh] == RUNS


@pytest.mark.parametrize("run", RUNS)
def test_engine_matches_golden(run):
    want, got = golden()[run], golden_line(run)
    for field in ("stabilized", "iterations", "trace"):
        assert got[field] == want[field], f"{run}: {field}"
    for part in ("env", "con"):
        assert got["element"][part] == want["element"][part], f"{run}: element {part}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for run in RUNS:
            fh.write(json.dumps(golden_line(run), sort_keys=True, separators=(",", ":")) + "\n")
