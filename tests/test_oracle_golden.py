"""Golden outputs of the concrete oracle.

`golden/oracle.jsonl` holds one line per case: a system under one partition,
checked by `picount oracle-check --max-configs 1000 --dump-oracle`.  A line
records the exit code and the sha256 of the text report and of the dump.
The test runs the command again and compares the three fields.

A change to the file is a change of what the oracle reports or checks: name
it, and show why the new output is right.  To rewrite the file from the
program, run this module as a script:

    python tests/test_oracle_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

# first: conftest puts src/ on the path when this module runs as a script
from conftest import MEMORY_WRITE, corpus_path

import pytest

from picount.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "oracle.jsonl")
MAX_CONFIGS = 1000
SYSTEMS = ("dlist", "memory", "objects", "semaphore2", "synccomm", "memory_write")
CASES = [f"{system}/{partition}" for system in SYSTEMS for partition in ("chan", "marker")]


def system_path(system: str) -> str:
    return MEMORY_WRITE if system == "memory_write" else corpus_path(f"{system}.pi")


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def golden_line(case: str) -> dict:
    """What `oracle-check` prints, writes and returns for `case` today."""
    system, partition = case.split("/")
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "oracle.jsonl")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "oracle-check", system_path(system), "--partition", partition,
                "--max-configs", str(MAX_CONFIGS), "--dump-oracle", dump,
            ])
        with open(dump, "r", encoding="utf-8") as fh:
            dumped = fh.read()
    return {
        "case": case,
        "exit": code,
        "stdout_sha256": sha256(out.getvalue()),
        "dump_sha256": sha256(dumped),
    }


def golden() -> list[dict]:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return [json.loads(text) for text in fh]


def test_golden_file_holds_every_case_once():
    assert [line["case"] for line in golden()] == CASES


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_golden(case):
    want = next(line for line in golden() if line["case"] == case)
    assert golden_line(case) == want


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case in CASES:
            fh.write(json.dumps(golden_line(case), sort_keys=True, separators=(",", ":")) + "\n")
