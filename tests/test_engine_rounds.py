"""Change-driven rounds: `iterate` re-posts a step pair only when what it
reads has changed, and must reach what posting every pair in every round
reaches, round by round."""

import random

import pytest

from picount import partition
from picount.engine import Analysis
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import load_system

from judges import posted_every_round
from test_fuzz_soundness import random_system


@pytest.mark.parametrize("seed", range(8, 24))
def test_reused_pairs_match_posting_every_pair(seed):
    index = load_system(random_system(random.Random(20260 + seed)))
    for gv in (getvar_channel(index), getvar_marker(index)):
        for kind in ("product", "env", "contents"):
            fix = Analysis.build(index, gv).run(kind, max_iter=300, keep_trace=True)
            ref = posted_every_round(Analysis.build(index, gv), kind, max_iter=300)
            assert (fix.env, fix.con) == (ref.env, ref.con), (seed, gv.mode, kind)
            assert (fix.iterations, fix.stabilized) == (ref.iterations, ref.stabilized)
            assert fix.trace == ref.trace, (seed, gv.mode, kind)


def test_a_round_posts_only_pairs_whose_reads_changed(memory_write_index, monkeypatch):
    # the env-only run tallies 38 sub-cases over its 8 rounds; once a pair's
    # env at lq and le stops moving its sub-cases are replayed, not posted
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    real = analysis.env_dom.post_delta
    calls = []
    monkeypatch.setattr(
        analysis.env_dom, "post_delta", lambda *case: calls.append(case) or real(*case)
    )
    fix = analysis.run("env", keep_trace=True)
    assert fix.stabilized and fix.iterations == 8
    assert sum(t["posts"] for t in fix.trace) == 38
    assert len(calls) == 10


def _count_plan_work(monkeypatch) -> dict:
    """Count the calls that build a pair's roster and forced groups."""
    calls = {"step_roster": 0, "_forced_groups": 0}
    for name in calls:
        real = getattr(partition, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(partition, name, counted)
    return calls


def test_a_run_builds_one_plan_per_pair(memory_write_index, monkeypatch):
    calls = _count_plan_work(monkeypatch)
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    fix = analysis.run("product")
    assert fix.stabilized and fix.iterations > 1
    n = len(analysis.pairs)
    assert n > 0 and calls == {"step_roster": n, "_forced_groups": n}


def test_build_builds_no_plan(memory_index, monkeypatch):
    calls = _count_plan_work(monkeypatch)
    Analysis.build(memory_index, getvar_channel(memory_index))
    assert calls == {"step_roster": 0, "_forced_groups": 0}
