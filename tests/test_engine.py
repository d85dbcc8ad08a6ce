from collections.abc import Sized

import pytest

from picount import numdom as nd
from picount.engine import Analysis, abstract_step_labels, iterate, step
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import load_system

from conftest import corpus_text
from judges import cumap_leq, envmap_leq, posted_every_round


def test_abstract_step_labels_memory(memory_index):
    pairs = set(abstract_step_labels(memory_index))
    expected_subset = {
        (1, 13),
        (5, 2),
        (5, 6),
        (5, 10),
        (9, 2),
        (9, 6),
        (9, 10),
        ("12'", 12),
        ("12'", "12''"),
        (14, 3),
    }
    assert expected_subset <= pairs
    for lq, le in pairs:
        assert memory_index.type[lq] in ("input", "fetch")
        assert memory_index.type[le] == "output"
        assert len(memory_index.arg[lq]) == len(memory_index.arg[le])


def test_abstract_step_labels_arity_mismatch():
    index = load_system("new c, d in (c?1[x, y].0 | c!2[d])")
    assert abstract_step_labels(index) == []


def test_abstract_step_labels_semaphore(semaphore_index):
    pairs = set(abstract_step_labels(semaphore_index))
    assert {(4, 2), (4, 3), (4, 5), ("1'", 1), ("1'", "1''")} <= pairs


def test_iterate_empty_system():
    index = load_system("0")
    analysis = Analysis.build(index, getvar_channel(index))
    fix = analysis.run("product")
    assert fix.stabilized and fix.iterations == 1
    assert (fix.env, fix.con) == (analysis.env_dom.init(), analysis.con_dom.init())


def _semaphore(semaphore_index):
    return Analysis.build(semaphore_index, getvar_channel(semaphore_index))


def _init(analysis):
    return (analysis.env_dom.init(), analysis.con_dom.init())


def test_iterate_identity_post(semaphore_index, monkeypatch):
    # sub-cases that launch nothing leave every kind of run at init
    analysis = _semaphore(semaphore_index)
    monkeypatch.setattr(analysis.env_dom, "post_delta", lambda *case: {})
    monkeypatch.setattr(analysis.con_dom, "post_delta", lambda *case: {})
    env_init, con_init = _init(analysis)
    for kind, expected in (
        ("product", (env_init, con_init)),
        ("env", (env_init, None)),
        ("contents", (None, con_init)),
    ):
        fix = analysis.run(kind, max_iter=10, keep_trace=True)
        assert fix.stabilized
        assert (fix.env, fix.con) == expected
        assert fix.trace[-1]["posts"] > 0  # sub-cases were posted, and added nothing


def test_iterate_respects_max_iter(semaphore_index, monkeypatch):
    # every round's join adds a unit of its own, so no round repeats the last
    analysis = _semaphore(semaphore_index)
    counter = [0]
    zero = nd.chi(analysis.layout, ())
    real_join = analysis.con_dom.join

    def growing(maps, deltas=None):
        counter[0] += 1
        return real_join(maps, {**(deltas or {}), (f"u{counter[0]}",): [zero]})

    monkeypatch.setattr(analysis.con_dom, "join", growing)
    fix = analysis.run("contents", max_iter=3)
    assert not fix.stabilized and fix.iterations == 3
    with pytest.raises(ValueError):
        analysis.run("contents", max_iter=0)
    with pytest.raises(ValueError):
        iterate(analysis, analysis.start("contents"), max_iter=0)
    with pytest.raises(ValueError):
        analysis.start("both")


def test_product_annihilates_on_either_bottom(semaphore_index, monkeypatch):
    analysis = _semaphore(semaphore_index)
    start = _init(analysis)
    # unpatched, one round from init posts sub-cases that move both components
    tallies = {}
    moved = step(analysis, start, tallies)
    assert moved[0] != start[0] and moved[1] != start[1]
    assert sum(t["cases"] for t in tallies.values()) > 0

    # env refutes everything: contents is never consulted, nothing is joined
    hits = []
    real_con = analysis.con_dom.post_delta
    monkeypatch.setattr(analysis.env_dom, "post_delta", lambda *case: None)
    monkeypatch.setattr(
        analysis.con_dom, "post_delta", lambda *case: hits.append(case) or real_con(*case)
    )
    tallies = {}
    assert step(analysis, start, tallies) == start
    assert hits == []  # short-circuited before the second analysis ran
    assert all(t["bottom"] == t["cases"] > 0 for t in tallies.values())

    # contents refutes everything: env's deltas are dropped as well
    monkeypatch.undo()
    monkeypatch.setattr(analysis.con_dom, "post_delta", lambda *case: None)
    assert step(analysis, start) == start


def test_env_refuted_cases_never_reach_contents(synccomm_index, monkeypatch):
    # chan: contents refutes sub-cases env admits; marker: env refutes
    # sub-cases its hint cannot prune, and contents must not see them
    for gv in (getvar_channel(synccomm_index), getvar_marker(synccomm_index)):
        analysis = Analysis.build(synccomm_index, gv)
        real_env, real_con = analysis.env_dom.post_delta, analysis.con_dom.post_delta
        admitted = [None]
        refuted = {"env": 0, "contents": 0}

        def env_post(input0, output0, lq, le, case):
            delta = real_env(input0, output0, lq, le, case)
            admitted[0] = None if delta is None else (lq, le, case)
            refuted["env"] += delta is None
            return delta

        def con_post(cu, lq, le, case):
            assert admitted[0] == (lq, le, case)
            delta = real_con(cu, lq, le, case)
            refuted["contents"] += delta is None
            return delta

        monkeypatch.setattr(analysis.env_dom, "post_delta", env_post)
        monkeypatch.setattr(analysis.con_dom, "post_delta", con_post)
        # every round posts every pair, so each tallied sub-case is a transfer
        fix = posted_every_round(analysis, "product")
        assert fix.stabilized
        assert sum(t["bottom_posts"] for t in fix.trace) == refuted["env"] + refuted["contents"]
        assert refuted["env" if gv.mode == "marker-only" else "contents"] > 0


def test_env_run_posts_no_refuted_case(memory_write_index, monkeypatch):
    # steered by its own env component, the env-only run enumerates only
    # sub-cases that its transfer admits
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    real_env = analysis.env_dom.post_delta
    calls = []
    monkeypatch.setattr(
        analysis.env_dom, "post_delta", lambda *case: calls.append(real_env(*case)) or calls[-1]
    )
    # every round posts every pair, so each tallied sub-case is a transfer
    fix = posted_every_round(analysis, "env")
    assert fix.stabilized and fix.iterations == 8
    assert calls and None not in calls
    assert sum(t["posts"] for t in fix.trace) == len(calls) == 38
    assert all(t["bottom_posts"] == 0 for t in fix.trace)


def test_product_of_identical_abstractions(semaphore_index, synccomm_index, monkeypatch):
    # a partner that refutes nothing and adds nothing leaves the other
    # component exactly as it is alone: same element, rounds and tallies
    for index in (semaphore_index, synccomm_index):
        analysis = Analysis.build(index, getvar_channel(index))
        alone = analysis.run("env", keep_trace=True)
        monkeypatch.setattr(analysis.con_dom, "post_delta", lambda *case: {})
        paired = analysis.run("product", keep_trace=True)
        monkeypatch.undo()
        assert paired.stabilized and alone.stabilized
        assert paired.env == alone.env
        assert paired.con == analysis.con_dom.init()
        assert (paired.iterations, paired.trace) == (alone.iterations, alone.trace)


def test_memory_fixpoint_entails_cell_invariants(memory_product):
    analysis, fix = memory_product
    lay = analysis.layout
    cu = fix.con
    eq = {lay.x(2): 1, lay.x(6): 1, lay.x(10): 1, lay.y((1, 13)): -1}
    assert analysis.con_dom.query(cu, ("cell",), eq, 0)
    assert analysis.con_dom.query(cu, ("cell",), {i: -c for i, c in eq.items()}, 0)
    assert analysis.con_dom.query(cu, ("cell",), {lay.y((1, 13)): 1}, 1)


def test_fixpoints_are_stationary(semaphore_index, synccomm_index):
    for index in (semaphore_index, synccomm_index):
        gv = getvar_channel(index)
        analysis = Analysis.build(index, gv)
        for kind in ("product", "env", "contents"):
            fix = analysis.run(kind, max_iter=200)
            assert fix.stabilized
            assert step(analysis, (fix.env, fix.con)) == (fix.env, fix.con)


def test_product_components_refine_standalone(semaphore_index, synccomm_index):
    # the coalesced product never loses precision against either single run
    for index in (semaphore_index, synccomm_index):
        gv = getvar_channel(index)
        analysis = Analysis.build(index, gv)
        product = analysis.run("product")
        env_alone = analysis.run("env").env
        con_alone = analysis.run("contents").con
        assert envmap_leq(analysis.env_dom, product.env, env_alone)
        assert cumap_leq(analysis.con_dom, product.con, con_alone)


def test_trace_records_bottom_tallies(semaphore_index):
    analysis = Analysis.build(semaphore_index, getvar_channel(semaphore_index))
    fix = analysis.run("product", keep_trace=True)
    assert fix.trace
    assert all(
        {"iteration", "posts", "bottom_posts", "pairs"} <= set(entry)
        for entry in fix.trace
    )
    assert fix.trace[-1]["posts"] >= fix.trace[-1]["bottom_posts"]


def _state(dom):
    return {k: len(v) if isinstance(v, Sized) else None for k, v in vars(dom).items()}


@pytest.mark.parametrize("kind", ["product", "env", "contents"])
def test_domains_keep_no_state_that_grows_with_a_run(memory_write_index, kind):
    analysis = Analysis.build(memory_write_index, getvar_channel(memory_write_index))
    before = (_state(analysis.env_dom), _state(analysis.con_dom))
    assert analysis.run(kind).stabilized
    assert (_state(analysis.env_dom), _state(analysis.con_dom)) == before
