import io
import json
import sys

import pytest

from picount import concrete
from picount.cli import main
from picount.concrete import (
    EPSILON,
    InternalError,
    Thread,
    Walk,
    dump_configs,
    enabled_steps,
    initial_config,
    launch,
    make_config,
    thread_to_json,
)
from picount.partition import getvar_channel
from picount.syntax import Nil, load_system

from conftest import corpus_text
from judges import alpha_step, reached, step_units, walk_steps, walked


def drive(index, config, pairs):
    """Follow a scripted sequence of (receiver, sender) label pairs."""
    steps = []
    for pair in pairs:
        matching = [s for s in enabled_steps(index, config) if s.pair == pair]
        assert matching, f"no enabled step {pair}"
        steps.append(matching[0])
        config = matching[0].target
    return config, steps


def test_launch_nil(memory_index):
    assert launch(memory_index, Nil(), EPSILON, {}) == set()


def test_initial_config_memory(memory_index):
    config = initial_config(memory_index)
    expected = {
        Thread(1, (), {"alloc": ("alloc", ()), "null": ("null", ())}),
        Thread(12, (), {"rec@12": ("rec@12", ())}),
        Thread("12'", (), {"alloc": ("alloc", ()), "rec@12": ("rec@12", ())}),
    }
    assert config == frozenset(expected)


def test_initial_config_empty():
    assert initial_config(load_system("0")) == frozenset()


def test_initial_config_semaphore(semaphore_index):
    config = initial_config(semaphore_index)
    assert {(t.label, t.marker) for t in config} == {(1, ()), ("1'", ())}


def test_first_client_launch(memory_index):
    config, steps = drive(memory_index, initial_config(memory_index), [("12'", 12)])
    new = config - steps[0].source | set()  # nothing removed but the sender
    t5 = next(t for t in config if t.label == 13)
    assert t5.marker == (12,)
    assert t5.env == {"alloc": ("alloc", ()), "add": ("add", (12,))}
    t4 = next(t for t in config if t.label == "12''")
    assert t4.marker == (12,) and t4.env == {"rec@12": ("rec@12", ())}


def test_enabled_steps_initial(memory_index):
    steps = enabled_steps(memory_index, initial_config(memory_index))
    assert [s.pair for s in steps] == [("12'", 12)]
    assert enabled_steps(memory_index, frozenset()) == []


def test_fetch_rule_keeps_resource(memory_index):
    config, _ = drive(memory_index, initial_config(memory_index), [("12'", 12)])
    steps = enabled_steps(memory_index, config)
    assert {s.pair for s in steps} == {(1, 13), ("12'", "12''")}
    alloc_step = next(s for s in steps if s.pair == (1, 13))
    target = alloc_step.target
    # the resource thread survives, the client request is consumed
    assert alloc_step.receiver in target
    assert alloc_step.sender not in target
    spawned = {t.label: t for t in target - config}
    assert set(spawned) == {2, 3, 4, 8, 14}
    for label in (2, 3, 4, 8):
        assert spawned[label].marker == (13, 12)
    assert spawned[14].marker == (12,)  # sender continuation keeps its marker
    assert spawned[2].env["cell"] == ("cell", (13, 12))
    assert spawned[4].env["read"] == ("read", (13, 12))
    assert spawned[8].env["write"] == ("write", (13, 12))
    assert len(target) == len(config) - 1 + 4 + 1


def test_rule_cardinalities_on_corpus(semaphore_index, synccomm_index):
    for index in (semaphore_index, synccomm_index):
        steps = walk_steps(index, 300)
        assert steps
        for step in steps:
            n_recv = len(index.beta_cont(step.pair[0]))
            n_send = len(index.beta_cont(step.pair[1]))
            if index.type[step.pair[0]] == "input":
                assert len(step.target) == len(step.source) - 2 + n_recv + n_send
            else:
                assert len(step.target) == len(step.source) - 1 + n_recv + n_send


def test_marker_collision_is_internal_error():
    t1 = Thread(1, (), {"a": ("a", ())})
    t2 = Thread(1, (), {"a": ("a", (1,))})
    with pytest.raises(InternalError):
        make_config({t1, t2})


def test_site_hash_collision_is_no_error():
    # CPython hashes -1 and -2 alike, so these distinct sites' hashes agree
    t1, t2 = Thread(-1, (), {}), Thread(-2, (), {})
    assert t1.site != t2.site and t1.site_hash == t2.site_hash
    assert make_config([t1, t2]) == {t1, t2}
    with pytest.raises(InternalError, match=r"\(-1, \(\)\)"):
        make_config([t1, t2, Thread(-1, (), {"a": ("a", ())})])


def test_walk_admits_a_launched_site_hash_collision(monkeypatch):
    # ints hash modulo the hash modulus, so the launched b!m[] thread's site
    # hash equals the present b!1[] thread's, though their sites differ
    m = sys.hash_info.modulus + 1
    index = load_system(f"new a, b in (b!1[] | a!3[] | a?4[].b!{m}[])")
    calls = []
    original = concrete.make_config

    def counted(threads):
        calls.append(threads)
        return original(threads)

    monkeypatch.setattr(concrete, "make_config", counted)
    walk = Walk(index, max_configs=10, max_depth=1 << 30)
    ((source, _, target, admitted),) = list(walk)
    (present,) = [t for t in source[0] if t.label == 1]
    (launched,) = target[0] - source[0]
    assert launched.label == m and launched.site != present.site
    assert launched.site_hash == present.site_hash
    assert admitted and present in target[0]
    # the initial configuration, then the exact check of the colliding target
    assert len(calls) == 2


def test_name_provenance(semaphore_index):
    # every name's marker belongs to a thread that launch actually created
    walk = Walk(semaphore_index, max_configs=400, max_depth=1 << 30)
    markers = {()}
    for _, step, _, _ in walk:
        for t in step.launched_recv + step.launched_send:
            markers.add(t.marker)
    for config, _ in walk.visited:
        for t in config:
            for name in t.env.values():
                assert name[1] in markers


def test_explore_empty_system():
    walk = walked(load_system("0"), max_configs=10, max_depth=10)
    assert walk.visited == {(frozenset(), frozenset())}
    assert walk.truncated is False


ONE_STEP = "new a in (a![] | a?[].0)"
TWO_STEPS = "new a in (a![] | a?[].new b in (b![] | b?[].0))"


def test_depth_limit_truncates_only_with_a_step_left():
    # the one step reaches a state with nothing left to fire
    one = walked(load_system(ONE_STEP), 10000, max_depth=1)
    assert len(one.visited) == 2 and one.truncated is False
    two = walked(load_system(TWO_STEPS), 10000, max_depth=1)
    assert len(two.visited) == 2 and two.truncated is True
    assert walked(load_system(TWO_STEPS), 10000, max_depth=2).truncated is False


# two senders race for a replicated receiver, whose every step launches a
# private exchange: 9 reachable states, 12 edges, 4 of them to visited states
FORKS = "new a in (a![] | a![] | *a?[].new b in (b![] | b?[].0))"


def edge_key(edge):
    source, step, target, admitted = edge
    return source, step.receiver, step.sender, target, admitted


@pytest.mark.parametrize("gv", [None, getvar_channel])
def test_budget_of_all_reachable_states_is_exhaustive_and_one_less_truncates(gv):
    index = load_system(FORKS)
    gv = gv and gv(index)
    full = Walk(index, max_configs=9, max_depth=1 << 30, gv=gv)
    edges = list(full)
    assert len(full.visited) == 9 and len(edges) == 12 and full.truncated is False
    assert [admitted for *_, admitted in edges].count(True) == 8
    short = Walk(index, max_configs=8, max_depth=1 << 30, gv=gv)
    cut = list(short)
    assert len(short.visited) == 8 and short.truncated is True
    # the walk ends at the edge that admits the ninth state with room for it
    last = len(cut) - 1
    assert list(map(edge_key, cut[:last])) == list(map(edge_key, edges[:last]))
    assert edge_key(cut[last])[:-1] == edge_key(edges[last])[:-1] and edges[last][3]
    (*_, target, admitted) = cut[last]
    assert not admitted and target not in short.visited


def test_oracle_check_reports_the_budget_boundary(tmp_path, capsys):
    path = tmp_path / "forks.pi"
    path.write_text(FORKS)
    for budget, verdict in ((9, "exhaustive"), (8, "truncated")):
        assert main(["oracle-check", str(path), "--max-configs", str(budget)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"configurations {budget} ({verdict})\ninstrumented states {budget}\n")


def test_enabled_steps_runs_only_for_sources_of_yielded_edges(monkeypatch, synccomm_index):
    calls = []
    original = concrete.enabled_steps

    def counted(index, config, table=None):
        calls.append(config)
        return original(index, config, table)

    monkeypatch.setattr(concrete, "enabled_steps", counted)
    walk = Walk(synccomm_index, 1000, 1 << 30, getvar_channel(synccomm_index))
    sources = list(dict.fromkeys(source for source, _, _, _ in walk))
    assert calls == [config for config, _ in sources]
    # states admitted after the last expanded source are never expanded
    assert len(calls) < len(walk.visited) == 1000


def test_explore_rejects_bad_limits(memory_index):
    with pytest.raises(ValueError):
        Walk(memory_index, max_configs=0, max_depth=1)
    with pytest.raises(ValueError):
        Walk(memory_index, max_configs=1, max_depth=0)


def test_semaphore_outputs_bounded_by_two(semaphore_index):
    index = semaphore_index
    for config in reached(index, max_configs=100000, max_depth=6):
        per_channel = {}
        for t in config:
            if t.label in (2, 3, 5):
                name = t.env[index.chan[t.label]]
                per_channel[name] = per_channel.get(name, 0) + 1
        assert all(n <= 2 for n in per_channel.values())


def test_memory_cell_occupancy(memory_index):
    index = memory_index
    for config in reached(index, max_configs=5000):
        per_cell = {}
        for t in config:
            if t.label in (2, 6, 10):
                name = t.env[index.chan[t.label]]
                per_cell[name] = per_cell.get(name, 0) + 1
        assert all(n == 1 for n in per_cell.values())


def test_explore_deterministic(synccomm_index):
    assert reached(synccomm_index, 500) == reached(synccomm_index, 500)
    a, b = walk_steps(synccomm_index, 500), walk_steps(synccomm_index, 500)
    assert [(s.pair, s.receiver, s.sender) for s in a] == [
        (s.pair, s.receiver, s.sender) for s in b
    ]


def test_dump_configs_json_lines(semaphore_index, tmp_path):
    configs = reached(semaphore_index, max_configs=50)
    out = tmp_path / "oracle.jsonl"
    with open(out, "w") as fh:
        dump_configs(configs, fh)
    lines = out.read_text().splitlines()
    assert len(lines) == len(configs)
    for line in lines:
        for label, marker, env in json.loads(line):
            assert isinstance(label, str) and isinstance(marker, list)
            for var, (name_var, name_marker) in env.items():
                assert isinstance(var, str) and isinstance(name_marker, list)


def test_dump_configs_orders_env_markers_of_mixed_type():
    # two threads share label and marker and differ only in an env name whose
    # marker holds an int label in one and a primed str label in the other
    plain = make_config([Thread(1, (), {"x": ("x", (12,))})])
    primed = make_config([Thread(1, (), {"x": ("x", ("12'",))})])
    lines = []
    for configs in ([plain, primed], [primed, plain]):
        out = io.StringIO()
        dump_configs(configs, out)
        lines.append(out.getvalue().splitlines())
    assert lines[0] == lines[1]
    assert [json.loads(l)[0][2]["x"][1] for l in lines[0]] == [["12"], ["12'"]]


CORPUS = ("memory.pi", "semaphore2.pi", "synccomm.pi", "objects.pi", "dlist.pi")


@pytest.mark.parametrize("name", CORPUS)
def test_launched_threads_are_in_sort_key_order(name):
    # the step table orders a step's launched threads by label alone
    index = load_system(corpus_text(name))
    steps = walk_steps(index, 1000)
    assert any(len(s.launched_recv) > 1 or len(s.launched_send) > 1 for s in steps)
    for step in steps:
        assert step.launched_recv == tuple(sorted(step.launched_recv, key=Thread.sort_key))
        assert step.launched_send == tuple(sorted(step.launched_send, key=Thread.sort_key))


@pytest.mark.parametrize("name", ["synccomm.pi", "objects.pi"])
def test_dump_configs_lines_equal_whole_record_encoding(name):
    configs = reached(load_system(corpus_text(name)), max_configs=300)
    out = io.StringIO()
    dump_configs(configs, out)
    ordered = sorted(configs, key=lambda c: sorted(map(Thread.sort_key, c)))
    expected = [
        json.dumps([thread_to_json(t) for t in sorted(c, key=Thread.sort_key)], sort_keys=True)
        for c in ordered
    ]
    assert out.getvalue().splitlines() == expected


def test_walk_counters_stay_empty_without_getvar(synccomm_index):
    # 400 states yield 1,053 edges, at least the 960 of expanding all of 200
    walk = Walk(synccomm_index, max_configs=400, max_depth=1 << 30)
    edges = list(walk)
    assert all(not source[1] and not target[1] for source, _, target, _ in edges)
    admitted = [target for _, _, target, ok in edges if ok]
    assert len(admitted) == len(set(admitted)) == len(walk.visited) - 1
    assert set(admitted) | {walk.initial} == walk.visited


def test_walk_counts_steps_per_unit(synccomm_index):
    gv = getvar_channel(synccomm_index)
    # 600 states yield 1,754 edges, at least the 1,558 of expanding all of 300
    walk = Walk(synccomm_index, max_configs=600, max_depth=1 << 30, gv=gv)
    for source, step, target, _ in walk:
        before, after = dict(source[1]), dict(target[1])
        bumped = {(u, step.pair) for u in step_units(step, gv).values()}
        assert set(after) == set(before) | bumped
        for key, n in after.items():
            assert n == before.get(key, 0) + (key in bumped)
    # the instrumented walk reaches the same configurations as the plain one
    configs = {config for config, _ in walk.visited}
    assert configs == reached(synccomm_index, max_configs=600)


def test_alpha_step_memory_walkthrough(memory_index):
    index = memory_index
    gv = getvar_channel(index)
    # drive one cell through alloc, a write request and a read request so that
    # both a cell?5 thread and a cell!10 output coexist
    config, steps = drive(
        index,
        initial_config(index),
        [("12'", 12), (1, 13), (14, 3), ("18'", 18), (8, 19), (9, 2), ("15'", 15), (4, 16)],
    )
    step = next(s for s in enabled_steps(index, config) if s.pair == (5, 10))
    case = alpha_step(step, gv)
    classes = {frozenset(c) for c in case.classes}
    assert frozenset({(5, "?"), (6, "?"), (10, "!")}) in classes
    assert frozenset({(7, "?")}) in classes
    assert case.unit_of((5, "?")) == ("cell",)
    assert case.unit_of((7, "?")) == ("ret",)


def test_alpha_step_single_class(semaphore_index):
    index = semaphore_index
    gv = getvar_channel(index)
    config, _ = drive(index, initial_config(index), [("1'", 1)])
    step = next(s for s in enabled_steps(index, config) if s.pair == (4, 2))
    case = alpha_step(step, gv)
    # receiver, sender and the relaunched output all share the channel
    assert case.class_of((4, "?")) == case.class_of((2, "!")) == case.class_of((5, "?"))


def test_alpha_step_alloc(memory_index):
    index = memory_index
    gv = getvar_channel(index)
    config, _ = drive(index, initial_config(index), [("12'", 12)])
    step = next(s for s in enabled_steps(index, config) if s.pair == (1, 13))
    case = alpha_step(step, gv)
    assert case.class_of((1, "?")) == case.class_of((13, "!"))
    assert case.class_of((3, "?")) == case.class_of((14, "!"))
    singles = {frozenset({(2, "?")}), frozenset({(4, "?")}), frozenset({(8, "?")})}
    assert singles <= {frozenset(c) for c in case.classes}
    assert case.unit_of((2, "?")) == ("cell",)
    assert case.unit_of((1, "?")) == ("alloc",)
    assert case.unit_of((3, "?")) == ("add",)
