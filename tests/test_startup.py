"""Start-up guard: a run imports none of the standard library's heavy
modules, neither to read its system nor to read its query.  `dataclasses`
pulls in `inspect`, `ast`, `dis` and `tokenize`, and `fractions` pulls in
`decimal` and `numbers`; together with building the classes, they cost about
a third of a short run's CPU.  Nor does a run load `json` unless it reads or
writes JSON, or `argparse` (with `gettext`) at all: on a short run each cost
about as much as the fixpoint.

The children run with `-S`, so no site `.pth` file can add or hide imports,
and print the modules they loaded one per line."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
INPUT = os.path.join(ROOT, "perfbench", "inputs", "memory_write.pi")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers", "json")

SETUP_CHILD = """
import sys
import picount.cli
from picount import Analysis, getvar_channel, load_system
from picount.analysis import parse_query
with open(sys.argv[1], encoding="utf-8") as fh:
    index = load_system(fh.read())
# the benchmark's query
parse_query("mutex unit cell over {2,10}", Analysis.build(index, getvar_channel(index)))
print("\\n".join(sorted(sys.modules)))
"""

CLI_CHILD = """
import contextlib, io, sys
import picount.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = picount.cli.main(["analyze", sys.argv[1], "--report", "text"])
assert code == 0, code
print("\\n".join(sorted(sys.modules)))
"""


def loaded_by(child: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", child, INPUT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return set(out.split())


def test_a_run_imports_no_heavy_module():
    loaded = loaded_by(SETUP_CHILD)
    assert "picount.cli" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_a_text_report_loads_neither_argparse_nor_json():
    loaded = loaded_by(CLI_CHILD)
    assert "picount.engine" in loaded
    assert sorted(loaded.intersection(HEAVY + ("argparse", "gettext"))) == []
