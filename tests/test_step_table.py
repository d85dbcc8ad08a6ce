"""The walk's step table against table-free step construction.

A `Walk` builds each distinct (receiver, sender) step shape once and keeps one
id per distinct thread.  Its edges, decoded into thread sets, must be
exactly what the table-free reference `judges.enabled_steps`, with a
throwaway table, gives for each state it expands, in order, up to the walk's
first refused target, where it stops (an exhaustive walk expands every
state).  The configurations it reaches must dump as the record-by-record
encoding does (checked on the systems whose dumps are small enough to encode
twice).  The walk matches senders by (channel, arity) bucket; its steps must
be those of an all-pairs match, in the same order.  What a shape says its
step changes (the launched and consumed threads) must equal what the
configurations' differences give, edge by edge; its units must be those of
the threads it takes part with or launches, and each unit's packed key of
each target must decode to the count vector of a regroup of the decoded
state.
"""

import hashlib
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
    initial_config,
    thread_to_json,
)
from picount.engine import abstract_step_labels
from picount.numdom import CountLayout
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import FETCH, INPUT, OUTPUT, fmt_label, load_system

from conftest import corpus_text
from judges import (
    consumed,
    enabled_steps,
    launched,
    step_target,
    step_units,
    tally_of,
    threads_of,
    unit_vector,
)
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


def edge_record(shape, target):
    return (
        shape.pair,
        shape.receiver,
        shape.sender,
        target,
        shape.launched_recv,
        shape.launched_send,
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
    at its first refused target, or is exhaustive.  Sources and targets are
    walk states."""
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
        (source, edge_record(shape, step_target(index, threads_of(walk, source), shape)))
        for source in expanded
        for shape in enabled_steps(index, threads_of(walk, source))
    )
    assert [
        (source, edge_record(shape, threads_of(walk, target))) for source, shape, target, _ in edges
    ] == cut(walk, edges, reference)
    if name not in DUMPED:
        return
    out = io.StringIO()
    dump_configs(walk.table.threads, {config for config, _ in walk.visited}, out)
    assert out.getvalue().splitlines() == record_encoding({threads_of(walk, s) for s in walk.visited})


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
            matches.append((table.shape(table.intern(r), table.intern(s)), r, s))
    matches.sort(key=lambda m: m[0].key)
    return [(shape.pair, r, s, step_target(index, config, shape)) for shape, r, s in matches]


@pytest.mark.parametrize("partition", ["chan", "marker"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_bucketed_matching_equals_all_pairs(name, partition):
    index, walk, edges, expanded = walk_edges(name, partition)
    reference = (
        (source, step)
        for source in expanded
        for step in all_pairs_steps(index, threads_of(walk, source))
    )
    assert [
        (source, (shape.pair, shape.receiver, shape.sender, threads_of(walk, target)))
        for source, shape, target, _ in edges
    ] == cut(walk, edges, reference)


def test_walk_checks_every_target(monkeypatch, synccomm_index):
    built, checked = [], []
    make, target = concrete.make_config, StepTable.target

    def counted_make(threads):
        built.append(threads)
        return make(threads)

    def counted_target(self, *args):
        checked.append(args)
        return target(self, *args)

    monkeypatch.setattr(concrete, "make_config", counted_make)
    monkeypatch.setattr(StepTable, "target", counted_target)
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    edges = list(walk)
    assert len(walk.visited) == SYNCCOMM_CONFIGS
    # one site check per edge; only the initial configuration goes through
    # make_config
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
    walk, targets = Walk(synccomm_index, 1000, 1 << 30), []
    with pytest.raises(InternalError, match="two threads share"):
        for _, _, target, _ in walk:
            targets.append(threads_of(walk, target))
    assert len(calls) > 1
    # refused at the first step that launches them, so no target holds both
    assert all(len({t.site for t in config}) == len(config) for config in targets)


def test_walk_builds_one_record_per_distinct_pair(monkeypatch, synccomm_index):
    calls = []
    original = StepTable._build

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(StepTable, "_build", counted)
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    steps = [step for _, step, _, _ in walk]  # kept alive, so no id is reused
    # a step is its pair's shape: one object per distinct pair, not per edge
    assert len({id(step) for step in steps}) == len(walk.table._shapes)
    records = {}
    for step in steps:
        assert records.setdefault((step.receiver, step.sender), step) is step
    assert len(walk.visited) == SYNCCOMM_CONFIGS and len(steps) > 10 * len(records)
    assert len(calls) == len(records) == len(walk.table._shapes)


def test_walk_keeps_one_object_per_distinct_thread(synccomm_index):
    walk = Walk(synccomm_index, SYNCCOMM_CONFIGS, 1 << 30, getvar_channel(synccomm_index))
    edges = [(step, target) for _, step, target, _ in walk]
    threads = [t for state in walk.visited for t in threads_of(walk, state)]
    assert len({id(t) for t in threads}) == len(set(threads))
    assert len(set(walk.table.threads)) == len(walk.table.threads)
    for step, target in edges:
        in_target = {id(t) for t in threads_of(walk, target)}
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


def regroup(walk, state, gv) -> dict:
    """Per-unit (label counts, step counts) of `state`, from its decoded
    threads and tally."""
    units: dict[tuple, tuple[dict, dict]] = {}
    for t in threads_of(walk, state):
        c = units.setdefault(gv.concrete_unit(t.label, t.env), ({}, {}))[0]
        c[t.label] = c.get(t.label, 0) + 1
    for (u, pair), n in tally_of(walk, state).items():
        units.setdefault(u, ({}, {}))[1][pair] = n
    return units


CHANGED = [
    ("synccomm.pi", "chan"),
    ("objects.pi", "marker"),
    *((f"fuzz-{seed}", p) for seed in range(8) for p in ("chan", "marker")),
]


@pytest.mark.parametrize("name, partition", CHANGED)
def test_step_changes_equal_configuration_differences(name, partition):
    index = load_system(system_text(name))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    layout = CountLayout(index.labels, abstract_step_labels(index))
    walk = Walk(index, max_configs=300, max_depth=1 << 30, gv=gv, layout=layout)
    table = walk.table
    admitted = 0
    for source, shape, target_state, ok in walk:
        if not ok:
            continue
        admitted += 1
        source, target = threads_of(walk, source), threads_of(walk, target_state)
        added, removed = target - source, source - target
        assert added == launched(shape)
        assert removed == consumed(index, shape)
        assert shape.units == tuple(dict.fromkeys(step_units(shape, gv).values()))
        expected = regroup(walk, target_state, gv)
        assert set(shape.units) <= set(expected)
        for u, (counts, steps) in expected.items():
            vec = table.vector(table.unit_key(target_state, u))
            assert vec == unit_vector(layout, counts, steps)
    assert admitted == 299


# sha256 of a 1,000-state walk's edges, one line per edge: the JSON list of
# its pair, receiver, sender and whether it admitted its target
EDGE_DIGESTS = {
    ("synccomm.pi", "chan"): (
        3089, "26999a0a0417314c2d17bee1ee4f201a9df4e0abeb82b8c3c258b7eecf207cfb"
    ),
    ("objects.pi", "marker"): (
        2470, "30d634b1963ee74970b6231a00bdd704d6234286f5fd403951aef3ba2eacfb68"
    ),
}


@pytest.mark.parametrize("name, partition", EDGE_DIGESTS)
def test_walk_edge_order_is_pinned(name, partition):
    index = load_system(system_text(name))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    digest, edges = hashlib.sha256(), 0
    for _, shape, _, admitted in Walk(index, 1000, 1 << 30, gv):
        line = json.dumps(
            [
                [fmt_label(l) for l in shape.pair],
                thread_to_json(shape.receiver),
                thread_to_json(shape.sender),
                admitted,
            ]
        )
        digest.update(line.encode() + b"\n")
        edges += 1
    assert (edges, digest.hexdigest()) == EDGE_DIGESTS[name, partition]
