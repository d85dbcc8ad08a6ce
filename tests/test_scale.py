"""The memory scaling family (`scripts/scale.py`): at n = 1..3 the mutex
query is proved, and the bounded oracle finds no violation."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import scale

from picount.analysis import verify_configs


def test_memory_family_is_proved_and_sound(tmp_path):
    for n in (1, 2, 3):
        row, result = scale.measure(n, str(tmp_path))
        assert row[4] == "proved", row
        oracle = verify_configs(
            result.analysis, result.env_fix, result.con_fix, max_configs=1000, max_depth=1 << 30
        )
        assert oracle.configs_visited == 1000, n
        assert oracle.violations == [], (n, oracle.violations[:3])
