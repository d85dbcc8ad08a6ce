"""Golden static index of every system the repository ships.

`golden/index.txt` holds one line per `.pi` file of `corpus/`,
`perfbench/inputs/` and `tests/data/`, the sha256 of a canonical JSON of its
`SystemIndex`: every field, in slot order, with each set sorted by
`label_key` and each map in its own order.  Two more lines cover many small
inputs at once: one digest over every `smallscope.systems(2, 2)` system and
one over every token-deletion mutant of the files above, where a mutant
counts as its index or, when it is rejected, its `SourceError` text.  A line
also records how many inputs it covers.

A change to the file is a change of what the analysis reads off a system:
name it, and show why the new index is right.  To rewrite the file from the
program, run this module as a script:

    python tests/test_index_golden.py
"""

import hashlib
import json
import os
import sys

# first: conftest puts src/ on the path when this module runs as a script
from conftest import CORPUS

from picount.syntax import SourceError, SystemIndex, label_key, load_system

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import smallscope
from judges import token_deletions

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "index.txt")
DIRS = ("corpus", os.path.join("perfbench", "inputs"), os.path.join("tests", "data"))


def system_files() -> list[str]:
    """The `.pi` files, as paths relative to the repository root, sorted."""
    return sorted(
        os.path.join(d, name).replace(os.sep, "/")
        for d in DIRS
        for name in os.listdir(os.path.join(ROOT, d))
        if name.endswith(".pi")
    )


def read(rel: str) -> str:
    with open(os.path.join(ROOT, rel), "r", encoding="utf-8") as fh:
        return fh.read()


def _plain(value):
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return [_plain(v) for v in sorted(value, key=label_key)]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def canonical(index: SystemIndex) -> str:
    fields = {f: _plain(getattr(index, f)) for f in SystemIndex.__slots__}
    return json.dumps(fields, separators=(",", ":"))


def outcome(text: str) -> str:
    try:
        return canonical(load_system(text))
    except SourceError as exc:
        return f"error: {exc}"


def digest(items) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for item in items:
        h.update(item.encode("utf-8") + b"\n")
        n += 1
    return n, h.hexdigest()


def golden_lines() -> list[str]:
    files = system_files()
    lines = []
    for rel in files:
        data = canonical(load_system(read(rel))).encode("utf-8")
        lines.append(f"{rel} {hashlib.sha256(data).hexdigest()}")
    n, h = digest(canonical(load_system(t)) for t in smallscope.systems(2, 2))
    lines.append(f"smallscope.systems(2,2) {n} {h}")
    n, h = digest(outcome(m) for rel in files for m in token_deletions(read(rel)))
    lines.append(f"token-deletion-mutants {n} {h}")
    return lines


def test_index_matches_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    assert len(system_files()) == 7 and os.path.isdir(CORPUS)
    assert golden_lines() == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(golden_lines()) + "\n")
