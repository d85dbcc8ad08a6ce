"""The walk's step table against table-free step construction.

A `Walk` builds each distinct (receiver, sender) step shape once and keeps one
object per distinct thread.  Its edges must be exactly what a direct
`enabled_steps` call, with a throwaway table, gives for each state it
expands, in order, up to the walk's first refused target, where it stops (an
exhaustive walk expands every state).  The configurations it reaches must
dump as the record-by-record encoding does (checked on the systems whose
dumps are small enough to encode twice).  `enabled_steps` matches senders by
(channel, arity) bucket; its steps must be those of an all-pairs match, in
the same order.  What a shape says its step changes (the launched and
consumed threads, and the per-unit label and step counts) must equal what
the configurations' differences give, edge by edge.
"""

import io
import json
import random
from itertools import islice

import pytest

from picount import concrete
from picount.concrete import (
    InternalError,
    StepTable,
    Thread,
    Walk,
    dump_configs,
    enabled_steps,
    initial_config,
    make_config,
    thread_to_json,
)
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import FETCH, INPUT, OUTPUT, load_system

from conftest import corpus_text
from test_concrete import CORPUS
from test_fuzz_soundness import random_system

SYSTEMS = [*CORPUS, *(f"fuzz-{seed}" for seed in range(8))]
DUMPED = ("synccomm.pi", "objects.pi")
# a walk stops at its first refused target; at these bounds each system yields
# at least as many edges as expanding every state of a 300-state walk does
MAX_CONFIGS = {
    "memory.pi": 850,
    "semaphore2.pi": 800,
    "synccomm.pi": 600,
    "objects.pi": 750,
    "dlist.pi": 1300,
    "fuzz-0": 300,
    "fuzz-1": 350,
    "fuzz-2": 350,
    "fuzz-3": 400,
    "fuzz-4": 350,
    "fuzz-5": 300,
    "fuzz-6": 350,
    "fuzz-7": 450,
}
# at this bound a synccomm walk yields at least the 6,194 edges of expanding
# every state of a 1,000-state walk
SYNCCOMM_CONFIGS = 1850


def system_text(name: str) -> str:
    if name.startswith("fuzz-"):
        return random_system(random.Random(20260 + int(name[5:])))
    return corpus_text(name)


def edge_record(step):
    return (
        step.pair,
        step.receiver,
        step.sender,
        step.target,
        step.launched_recv,
        step.launched_send,
    )


def record_encoding(configs) -> list[str]:
    """One line per configuration, each thread keyed and encoded on its own."""
    ordered = sorted(configs, key=lambda c: sorted(map(Thread.sort_key, c)))
    return [
        json.dumps([thread_to_json(t) for t in sorted(c, key=Thread.sort_key)], sort_keys=True)
        for c in ordered
    ]


def walk_edges(name: str, partition: str):
    """The system's index, a walk of it with its edges, and the states that
    walk admitted, in the order it expands them.  Checks that the walk ends
    at its first refused target, or is exhaustive."""
    index = load_system(system_text(name))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    walk = Walk(index, max_configs=MAX_CONFIGS[name], max_depth=1 << 30, gv=gv)
    edges = list(walk)
    refused = [
        i
        for i, (_, _, target, admitted) in enumerate(edges)
        if not admitted and target not in walk.visited
    ]
    assert refused == ([len(edges) - 1] if walk.truncated else [])
    assert not walk.truncated or len(walk.visited) == MAX_CONFIGS[name]
    # breadth first: states are expanded in the order they were admitted
    expanded = [walk.initial] + [target for _, _, target, admitted in edges if admitted]
    return index, walk, edges, expanded


def cut(walk, edges, reference) -> list:
    """`reference`, up to where `walk` stopped: as many edges as it yielded
    if it was truncated, else all of them."""
    return list(islice(reference, len(edges) if walk.truncated else None))


@pytest.mark.parametrize("partition", ["chan", "marker"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_walk_edges_equal_table_free_steps(name, partition):
    index, walk, edges, expanded = walk_edges(name, partition)
    reference = (
        (source, edge_record(step))
        for source in expanded
        for step in enabled_steps(index, source[0])
    )
    assert [(source, edge_record(step)) for source, step, _, _ in edges] == cut(
        walk, edges, reference
    )
    if name not in DUMPED:
        return
    configs = {config for config, _ in walk.visited}
    out = io.StringIO()
    dump_configs(configs, out)
    assert out.getvalue().splitlines() == record_encoding(configs)


def all_pairs_steps(index, config) -> list[tuple]:
    """(pair, receiver, sender, target) of every enabled step, found by
    testing every receiver against every sender, in order key order."""
    table = StepTable(index)
    receivers = [t for t in config if index.type[t.label] in (INPUT, FETCH)]
    senders = [t for t in config if index.type[t.label] == OUTPUT]
    matches = []
    for r in receivers:
        for s in senders:
            if len(index.arg[s.label]) != len(index.arg[r.label]):
                continue
            if s.env[index.chan[s.label]] != r.env[index.chan[r.label]]:
                continue
            matches.append((table.shape(r, s), r, s))
    matches.sort(key=lambda m: m[0].key)
    return [
        (shape.pair, r, s, make_config((config - shape.consumed) | shape.launched))
        for shape, r, s in matches
    ]


@pytest.mark.parametrize("partition", ["chan", "marker"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_bucketed_matching_equals_all_pairs(name, partition):
    index, walk, edges, expanded = walk_edges(name, partition)
    reference = (
        (source, step) for source in expanded for step in all_pairs_steps(index, source[0])
    )
    assert [
        (source, (step.pair, step.receiver, step.sender, step.target))
        for source, step, _, _ in edges
    ] == cut(walk, edges, reference)


def test_walk_checks_every_target(monkeypatch, synccomm_index):
    built, checked = [], []
    make, target = concrete.make_config, concrete.step_target

    def counted_make(threads):
        built.append(threads)
        return make(threads)

    def counted_target(*args):
        checked.append(args)
        return target(*args)

    monkeypatch.setattr(concrete, "make_config", counted_make)
    monkeypatch.setattr(concrete, "step_target", counted_target)
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    edges = list(walk)
    assert len(walk.visited) == SYNCCOMM_CONFIGS
    # one site check per edge; no launched site hash meets a present one, so
    # only the initial configuration goes through make_config
    assert len(checked) == len(edges)
    assert len(built) == 1


def test_walk_launches_once_per_distinct_pair(monkeypatch, synccomm_index):
    calls = []
    original = concrete.launch

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(concrete, "launch", counted)
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    steps = [step for _, step, _, _ in walk]
    pairs = {(step.receiver, step.sender) for step in steps}
    assert len(walk.visited) == SYNCCOMM_CONFIGS and len(steps) > 10 * len(pairs)
    # one launch for the initial configuration, two for each pair's shape
    assert len(calls) <= 2 * len(pairs) + 1


def test_launching_two_threads_of_one_site_is_internal_error(monkeypatch, synccomm_index):
    # a continuation that launched a thread twice, with two environments,
    # must be refused although no present thread has the site
    calls = []
    original = concrete.launch

    def doubled(*args):
        calls.append(args)
        out = original(*args)
        if len(calls) > 1 and out:
            t = min(out, key=Thread.sort_key)
            out = out | {Thread(t.label, t.marker, {**t.env, "twin": ("twin", ())})}
        return out

    monkeypatch.setattr(concrete, "launch", doubled)
    targets = []
    with pytest.raises(InternalError, match="two threads share"):
        for _, _, target, _ in Walk(synccomm_index, 1000, 1 << 30):
            targets.append(target[0])
    assert len(calls) > 1
    # refused at the first step that launches them, so no target holds both
    assert all(len({t.site for t in config}) == len(config) for config in targets)


def test_walk_builds_one_record_per_distinct_pair(monkeypatch, synccomm_index):
    calls = []
    original = StepTable._changes

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(StepTable, "_changes", counted)
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    steps = [step for _, step, _, _ in walk]
    records = {}
    for step in steps:
        record = step.shape.changes
        assert records.setdefault((step.receiver, step.sender), record) is record
    assert len(walk.visited) == SYNCCOMM_CONFIGS and len(steps) > 10 * len(records)
    assert len(calls) == len(records)


def test_walk_keeps_one_object_per_distinct_thread(synccomm_index):
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    steps = [step for _, step, _, _ in walk]
    threads = [t for config, _ in walk.visited for t in config]
    assert len({id(t) for t in threads}) == len(set(threads))
    for step in steps:
        in_target = {id(t) for t in step.target}
        assert {id(t) for t in step.launched_recv + step.launched_send} <= in_target


def test_relaunching_a_present_thread_site_is_internal_error(monkeypatch, synccomm_index):
    # the replicated server stays in every configuration; a launched thread
    # with its label and marker but another environment must be refused
    server = next(
        t for t in initial_config(synccomm_index) if synccomm_index.type[t.label] == FETCH
    )
    twin = Thread(server.label, server.marker, {**server.env, "twin": ("twin", ())})
    calls = []
    original = concrete.launch

    def relaunch(*args):
        calls.append(args)
        out = original(*args)
        return out | {twin} if len(calls) == 5 else out

    monkeypatch.setattr(concrete, "launch", relaunch)
    with pytest.raises(InternalError):
        list(Walk(synccomm_index, 1000, 1 << 30))
    assert len(calls) >= 5


def old_way_delta(step, gv, added, removed) -> dict:
    """Per-unit (label count changes, step count changes) of one edge, built
    from the configurations' differences, with no 0 kept."""
    delta: dict[tuple, tuple[dict, dict]] = {}
    for threads, d in ((removed, -1), (added, 1)):
        for t in threads:
            c = delta.setdefault(gv.concrete_unit(t.label, t.env), ({}, {}))[0]
            c[t.label] = c.get(t.label, 0) + d
    takers = (step.receiver, step.sender, *step.launched_recv, *step.launched_send)
    for u in {gv.concrete_unit(t.label, t.env) for t in takers}:
        c = delta.setdefault(u, ({}, {}))[1]
        c[step.pair] = c.get(step.pair, 0) + 1
    return {
        u: ({l: d for l, d in counts.items() if d}, steps)
        for u, (counts, steps) in delta.items()
    }


CHANGED = [
    ("synccomm.pi", "chan"),
    ("objects.pi", "marker"),
    *((f"fuzz-{seed}", p) for seed in range(8) for p in ("chan", "marker")),
]


@pytest.mark.parametrize("name, partition", CHANGED)
def test_step_changes_equal_configuration_differences(name, partition):
    index = load_system(system_text(name))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    walk = Walk(index, max_configs=300, max_depth=1 << 30, gv=gv)
    admitted = 0
    for source, step, target, ok in walk:
        if not ok:
            continue
        admitted += 1
        shape = step.shape
        added, removed = target[0] - source[0], source[0] - target[0]
        assert added == shape.launched
        assert removed == shape.consumed
        keys, counts = shape.changes
        assert all(pair == step.pair for _, pair in keys)
        assert len({u for u, _ in keys}) == len(keys)
        assert {u: (dict(c), {pair: 1}) for (u, pair), c in zip(keys, counts)} == old_way_delta(
            step, gv, added, removed
        )
    assert admitted == 299
