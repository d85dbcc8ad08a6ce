"""Change-driven rounds: `iterate` re-runs each half of a step pair only
when what that half reads has changed, and must reach what posting every
pair in every round reaches, round by round."""

import random

import pytest

from picount import engine, numdom, partition
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


def _counted(monkeypatch, owner, name: str, calls: list):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))


def test_each_half_of_a_pair_reruns_only_when_its_reads_move(memory_write_index, monkeypatch):
    # product: a pair whose contents reads moved but whose env reads did not
    # re-runs only its contents transfers (42 env transfers before the split)
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    env_calls, con_calls = [], []
    _counted(monkeypatch, analysis.env_dom, "post_delta", env_calls)
    _counted(monkeypatch, analysis.con_dom, "post_delta", con_calls)
    fix = analysis.run("product", keep_trace=True)
    assert fix.stabilized
    assert sum(t["posts"] for t in fix.trace) == 58
    assert (len(env_calls), len(con_calls)) == (10, 42)

    # contents-only: every pair is enumerated once per run under `TopHint`
    # (38,360 sub-cases before the split), and at the end the records hold
    # each distinct contents delta of a slot once (6,161 before)
    monkeypatch.undo()
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    cases, records = [], []
    real_enum, real_step = engine.enumerate_contexts, engine.step

    def enum(plan, hint):
        for case in real_enum(plan, hint):
            cases.append(case)
            yield case

    monkeypatch.setattr(engine, "enumerate_contexts", enum)
    monkeypatch.setattr(engine, "step", lambda *args: records.append(args[3]) or real_step(*args))
    fix = analysis.run("contents", keep_trace=True)
    assert fix.stabilized and fix.iterations == 10
    assert sum(t["posts"] for t in fix.trace) == 38_360  # tallied per round, as before
    assert len(cases) == 3_836
    (record,) = {id(r): r for r in records}.values()  # one record, kept across rounds
    slots = [list(elems) for rec in record.values() for elems in rec.con_out.values()]
    assert all(len(set(elems)) == len(elems) for elems in slots)
    assert sum(map(len, slots)) == 496


def test_contents_join_rejoins_only_units_whose_inputs_moved(memory_write_index, monkeypatch):
    # memory_write.pi product: 19 of the 56 unit joins of its rounds have
    # the last round's inputs and reuse its result
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    units, joined, inside = [], [], []
    real_join, real_num_join = analysis.con_dom.join, numdom.join

    def join(maps, deltas=None, memo=None):
        maps = list(maps)
        units.extend({u for m in maps for u in m.units()} | set(deltas or {}))
        inside.append(True)
        try:
            return real_join(maps, deltas, memo)
        finally:
            inside.pop()

    def num_join(layout, elems):
        if inside:
            joined.append(elems)
        return real_num_join(layout, elems)

    monkeypatch.setattr(analysis.con_dom, "join", join)
    monkeypatch.setattr(numdom, "join", num_join)
    assert analysis.run("product").stabilized
    assert (len(units), len(joined)) == (56, 37)


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
