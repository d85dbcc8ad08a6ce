"""Token-deletion judge of the query reader.

The queries are those the project poses: the corpus jobs of
`scripts/run_corpus.py`, the golden reports of `test_report_golden.py`, the
README examples and the CI two-key step.  Each query, and each of its
one-token deletions, either reads to the hand-checked `Query` listed for its
text below or is rejected with a `SourceError` that names the text and its
line and column.  No deletion of these queries reads today."""

import os

import pytest

from picount.analysis import _resolve_partition, parse_query
from picount.engine import Analysis
from picount.syntax import SourceError, load_system, read_text

from judges import token_deletions

ROOT = os.path.join(os.path.dirname(__file__), "..")
SEM_TERMS = {("x", 2): 1, ("x", 3): 1, ("x", 5): 1}

# system, partition, query text -> (unit, {(kind, ref): coefficient}, bound)
READS = {
    ("corpus/memory.pi", "chan"): {
        "mutex unit cell over {2,6,10}": (("cell",), {("x", 2): 1, ("x", 6): 1, ("x", 10): 1}, 1),
        "unit cell: 2*x@5 + x@9 + y@(1,13) <= 3": (
            ("cell",), {("x", 5): 2, ("x", 9): 1, ("y", (1, 13)): 1}, 3,
        ),
    },
    ("corpus/semaphore2.pi", "chan"): {
        "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2": (("a",), SEM_TERMS, 2),
        "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 1": (("a",), SEM_TERMS, 1),
        "unit a: 1*x@2 <= -1": (("a",), {("x", 2): 1}, -1),
        "unit a: 1*x@2 + -1*x@3 <= 1": (("a",), {("x", 2): 1, ("x", 3): -1}, 1),
        # the replication's trigger unit, over its generated labels
        "unit rec@1: 1*x@1 + x@1'' <= 1": (("rec@1",), {("x", 1): 1, ("x", "1''"): 1}, 1),
        "unit rec@1: 1*y@(1',1'') + x@1' <= 1": (
            ("rec@1",), {("y", ("1'", "1''")): 1, ("x", "1'"): 1}, 1,
        ),
    },
    ("corpus/objects.pi", "marker"): {
        # a marker unit is the one abstract unit `*`, whatever the variable
        "unit m: 1*x@16 <= 1": (("*",), {("x", 16): 1}, 1),
    },
    ("corpus/dlist.pi", "chan"): {
        "mutex unit c0 over {4,15}": (("c0",), {("x", 4): 1, ("x", 15): 1}, 1),
        "mutex unit c1 over {4,15}": (("c1",), {("x", 4): 1, ("x", 15): 1}, 1),
    },
    ("tests/data/twokey.pi", "tests/data/twokey-marker.json"): {
        "unit a: 1*x@2 <= 0": (("*",), {("x", 2): 1}, 0),
    },
}


@pytest.mark.parametrize("system, partition", list(READS))
def test_query_deletions_read_as_checked_or_are_located(system, partition):
    index = load_system(read_text(os.path.join(ROOT, system)))
    spec = partition if partition in ("chan", "marker") else os.path.join(ROOT, partition)
    analysis = Analysis.build(index, _resolve_partition(spec, index))
    key = {i: k for k, i in analysis.layout.index.items()}
    checked = READS[(system, partition)]
    for query in checked:
        for text in [query, *token_deletions(query)]:
            try:
                q = parse_query(text, analysis)
            except SourceError as exc:
                assert text != query, str(exc)
                assert repr(text) in exc.msg and exc.line == 1 and exc.col is not None, str(exc)
                continue
            got = (q.unit, {key[i]: c for i, c in q.expr.items()}, q.bound)
            assert got == checked.get(text), text
