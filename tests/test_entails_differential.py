"""Differential test of `numdom.entails`, exact in integers, against the
earlier `Fraction` version.

`numdom_reference.entails` (with its `_eliminate_var`, `_objective` and
`_upper_value`) is that version, unchanged; it reads only an element's
`is_bottom`, `ivs`, `rows` and `layout`, so both run on the same sparse
`numdom` element.  The integer version makes the same exact rational
comparisons, so the verdicts must be equal: on random elements, and on
every query the corpus jobs of `scripts/run_corpus.py` ask.
"""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import numdom_reference as ref
from picount import numdom as nd
from picount.analysis import AnalysisConfig, run
from test_numdom_differential import NEW, PAIR, SIZE, expressions, members, raw_elements, requirements

from conftest import corpus_path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from run_corpus import JOBS  # noqa: E402


def same_verdicts(elem, queries):
    for expr, bound in queries:
        assert nd.entails(elem, expr, bound) == ref.entails(elem, expr, bound), (elem, expr, bound)


BOXES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, nd.INF), (0, nd.INF)]
forms = st.dictionaries(st.integers(0, SIZE - 1), st.integers(-2, 2), min_size=1, max_size=3)


@st.composite
def wide_elements(draw):
    """Rows with coefficients up to 3 put denominators other than 1 into the
    climb, and unbounded boxes give it infinite terms to cancel."""
    boxes = draw(st.lists(st.sampled_from(BOXES), min_size=SIZE, max_size=SIZE))
    # every row holds at one point of the boxes, so the element is not bottom
    point = [draw(st.integers(lo, 4 if hi is nd.INF else hi)) for lo, hi in boxes]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        idx = sorted(draw(st.sets(st.integers(0, SIZE - 1), min_size=2, max_size=SIZE)))
        terms = tuple((i, draw(st.integers(-3, 3))) for i in idx)
        rows.append((terms, sum(c * point[i] for i, c in terms)))
    return nd.make(NEW, boxes, rows)


@settings(max_examples=300, deadline=None)
@given(raw_elements(), raw_elements(), members, requirements, expressions)
def test_integer_entails_matches_fraction_entails(raw_a, raw_b, plus, reqs, queries):
    a = nd.make(NEW, *raw_a)
    b = nd.make(NEW, *raw_b)
    join = nd.join(NEW, [a, b])
    step = nd.update_trans(NEW, PAIR, nd.add_chi(NEW, nd.sync_atleast(NEW, reqs, join), plus))
    for elem in (a, b, join, step):
        same_verdicts(elem, queries)


@settings(max_examples=500, deadline=None)
@given(wide_elements(), st.lists(forms, min_size=1, max_size=4))
def test_integer_entails_matches_fraction_entails_over_denominators(elem, exprs):
    # the verdicts at consecutive bounds find the least bound each side proves
    same_verdicts(elem, [(expr, bound) for expr in exprs for bound in range(-1, 7)])


@pytest.mark.parametrize(
    "boxes,rows,expr,bound",
    [
        # proved only by a climb that weighs each form's value by its denominator
        (
            [(0, 4), (0, 3), (1, nd.INF), (0, 3), (0, 3)],
            [(((0, -1), (2, -1), (4, 3)), 0), (((0, 1), (3, 3), (4, -3)), 0)],
            {3: 2},
            5,
        ),
        (
            [(0, 2), (0, 2), (0, 4), (0, 3), (0, nd.INF)],
            [(((1, -2), (2, -1), (3, 1)), 0), (((1, 2), (2, -1), (3, 2), (4, 2)), 4)],
            {2: 1},
            3,
        ),
    ],
)
def test_climb_compares_values_over_their_denominators(boxes, rows, expr, bound):
    elem = nd.make(NEW, boxes, rows)
    assert not elem.is_bottom
    assert ref.entails(elem, expr, bound)
    assert nd.entails(elem, expr, bound)


@pytest.mark.parametrize("name,partition,queries", JOBS, ids=[job[0] for job in JOBS])
def test_integer_entails_matches_on_corpus_queries(name, partition, queries, monkeypatch):
    asked = []
    nd_entails = nd.entails

    def recording(elem, expr, bound):
        verdict = nd_entails(elem, expr, bound)
        asked.append((elem, dict(expr), bound, verdict))
        return verdict

    monkeypatch.setattr(nd, "entails", recording)
    result = run(AnalysisConfig(path=corpus_path(name), partition=partition, queries=queries))
    assert len(result.report.queries) == len(queries)
    assert bool(asked) == bool(queries)
    for elem, expr, bound, verdict in asked:
        assert verdict == ref.entails(elem, expr, bound), (name, expr, bound)
