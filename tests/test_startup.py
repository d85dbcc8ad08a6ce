"""Start-up guard: a run imports none of the standard library's heavy
modules.  `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
`fractions` pulls in `decimal` and `numbers`; together with building the
classes, they cost about a third of a short run's CPU.

The child runs with `-S`, so no site `.pth` file can add or hide imports."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers")

CHILD = """
import json, sys
import picount.cli
from picount import Analysis, getvar_channel, load_system
with open(sys.argv[1], encoding="utf-8") as fh:
    index = load_system(fh.read())
Analysis.build(index, getvar_channel(index))
print(json.dumps(sorted(sys.modules)))
"""


def test_a_run_imports_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, os.path.join(ROOT, "perfbench", "inputs", "memory_write.pi")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    loaded = set(json.loads(out))
    assert "picount.cli" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []
