"""Golden analysis reports.

`golden/reports.jsonl` holds one line per case: a system analyzed by
`picount analyze ... --report json --trace`, with the input given as a path
relative to the repository root (the report prints it).  A line records the
exit code and the sha256 of stdout.  The test runs the command again, from
the repository root, and compares both fields.

The cases are the reports whose bytes matter most: the corpus runs with
their queries, the benchmark's writer half under env and contents, and
contents-only runs, which exercise the untouched unit (a query with a
negative bound, units no step touches).

A change to the file is a change of what the analyzer reports: name it, and
show why the new report is right.  To rewrite the file from the program, run
this module as a script:

    python tests/test_report_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

# first: conftest puts src/ on the path when this module runs as a script
import conftest  # noqa: F401

import pytest

from picount.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "reports.jsonl")
WRITE = "perfbench/inputs/memory_write.pi"
SEM_FORM = "unit a: 1*x@2 + 1*x@3 + 1*x@5"

CASES = {
    "memory": ["corpus/memory.pi", "--prove", "mutex unit cell over {2,6,10}"],
    "semaphore2": [
        "corpus/semaphore2.pi", "--prove", f"{SEM_FORM} <= 2", "--prove", f"{SEM_FORM} <= 1",
    ],
    "synccomm": ["corpus/synccomm.pi"],
    "objects": ["corpus/objects.pi", "--partition", "marker", "--prove", "unit m: 1*x@16 <= 1"],
    "dlist": [
        "corpus/dlist.pi",
        "--prove", "mutex unit c0 over {4,15}",
        "--prove", "mutex unit c1 over {4,15}",
    ],
    "write-env": [WRITE, "--abstraction", "env"],
    "write-contents": [WRITE, "--abstraction", "contents"],
    "semaphore2-contents": [
        "corpus/semaphore2.pi", "--abstraction", "contents",
        "--prove", f"{SEM_FORM} <= 2", "--prove", "unit a: 1*x@2 <= -1",
    ],
    "synccomm-contents": ["corpus/synccomm.pi", "--abstraction", "contents"],
    "write-marker-contents": [WRITE, "--partition", "marker", "--abstraction", "contents"],
    "memory-contents": ["corpus/memory.pi", "--abstraction", "contents"],
}


def golden_line(case: str) -> dict:
    """What `analyze` prints and returns for `case` today."""
    out = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
        code = main(["analyze", *CASES[case], "--report", "json", "--trace"])
    return {
        "case": case,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }


def golden() -> list[dict]:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return [json.loads(text) for text in fh]


def test_golden_file_holds_every_case_once():
    assert [line["case"] for line in golden()] == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(case):
    want = next(line for line in golden() if line["case"] == case)
    assert golden_line(case) == want


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case in CASES:
            fh.write(json.dumps(golden_line(case), sort_keys=True, separators=(",", ":")) + "\n")
