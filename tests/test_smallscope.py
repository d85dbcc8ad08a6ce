"""Small-scope judge: every two-thread system of chains of at most two
prefixes (`scripts/smallscope.py`), under both built-in partitions, has a
product fixpoint that the bounded oracle cannot refute."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import smallscope


def test_two_threads_depth_two_have_no_violation():
    found = smallscope.search(2, 2)
    # 106 thread shapes: 5 single prefixes and 101 two-prefix chains
    assert found["systems"] == 106 * 107 // 2
    for p in ("chan", "marker"):
        bad = found[p]["violating"] + found[p]["unstabilized"]
        assert not bad, (p, min(bad, key=lambda t: (len(t), t)), len(bad))
