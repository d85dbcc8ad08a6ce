"""The memory scaling family (`scripts/scale.py`): at n = 1..3 the mutex
query is proved, the bounded oracle finds no violation, and every column but
CPU equals its line in `golden/scale.txt`.

`golden/scale.txt` is `scale.py --max-n 4` without its `cpu_s` column (the
lines CI compares under two hash seeds).  A change to it is a change of
analysis results: name it, and show that the new results are still sound.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import scale

from picount.analysis import verify_configs


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scale.txt")


def test_memory_family_is_proved_and_sound(tmp_path):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    assert golden[0].split() == [c for c in scale.HEADER if c != "cpu_s"]
    for n in (1, 2, 3):
        row, result = scale.measure(n, str(tmp_path))
        assert row[4] == "proved", row
        assert " ".join(map(str, row[:5] + row[6:])) == golden[n], n
        oracle = verify_configs(
            result.analysis, result.fix.env, result.fix.con, max_configs=1000, max_depth=1 << 30
        )
        assert oracle.configs_visited == 1000, n
        assert oracle.violations == [], (n, oracle.violations[:3])
