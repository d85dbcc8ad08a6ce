import gc
import json
from itertools import product

import pytest

from picount.engine import Analysis, abstract_step_labels
from picount.partition import (
    GetVar,
    PartitionCase,
    TopHint,
    TRIVIAL_UNIT,
    enumerate_contexts,
    getvar_channel,
    getvar_marker,
    load_partition_spec,
    pair_plan,
    step_roster,
)
from picount.syntax import SourceError, load_system

from conftest import corpus_text
from judges import alpha_step, class_of, step_units, unit_of, walk_steps


def set_partitions(items):
    """All partitions of a list (independent reference enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_getvar_channel_memory(memory_index):
    gv = getvar_channel(memory_index)
    assert gv.keyvar(5, "b") == "cell"
    assert gv.keyvar(7, "b") == "fwd"
    assert gv.keyvar(10, "b") == "cell"
    for l in memory_index.labels:
        assert gv.keyvar(l, "b") == memory_index.chan[l]
        assert gv.keyvar(l, "b") in memory_index.iface[l]


def test_getvar_channel_semaphore(semaphore_index):
    gv = getvar_channel(semaphore_index)
    assert all(gv.keyvar(l, "b") == "a" for l in (2, 3, 4, 5))


def test_alpha_unit_erases_markers(memory_index):
    gv = getvar_channel(memory_index)
    assert gv.alpha_unit((("cell", (13, 12)),)) == ("cell",)
    assert gv.alpha_unit((("x", ()),)) == ("x",)
    assert gv.alpha_unit((("cell", (13, 12)),)) == gv.alpha_unit((("cell", ()),))


def test_marker_mode_trivial_abstract_unit(memory_index):
    gv = getvar_marker(memory_index)
    assert gv.alpha_unit(((13, 12),)) == TRIVIAL_UNIT
    assert gv.alpha_unit(((),)) == TRIVIAL_UNIT


def test_step_roster(memory_index):
    roster = step_roster(memory_index, 5, 10)
    assert set(roster) == {(5, "?"), (6, "?"), (7, "?"), (10, "!")}
    n_recv = len(memory_index.launched[5])
    n_send = len(memory_index.launched[10])
    assert len(roster) == 2 + n_recv + n_send


def test_partition_spec_roundtrip(tmp_path, semaphore_index):
    spec = {
        "keys": ["b"],
        "mode": "full-name",
        "map": {str(l): {"b": semaphore_index.chan[l]} for l in semaphore_index.labels},
    }
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(spec))
    gv = load_partition_spec(str(path), semaphore_index)
    assert gv.table == getvar_channel(semaphore_index).table


def test_partition_spec_rejects_non_free_var(tmp_path, semaphore_index):
    spec = {
        "keys": ["b"],
        "map": {str(l): {"b": "nosuch"} for l in semaphore_index.labels},
    }
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SourceError, match="not free"):
        load_partition_spec(str(path), semaphore_index)


def test_enumerate_contexts_memory_pinpointed(memory_index):
    # with the per-point bindings of the stabilized analysis, exactly one
    # sub-case of the cell read/write interaction survives
    analysis = Analysis.build(memory_index, getvar_channel(memory_index))
    fix = analysis.run("product")
    env = fix.env
    cases = list(enumerate_contexts(pair_plan(memory_index, analysis.gv, 5, 10), env))
    assert len(cases) == 1
    case = cases[0]
    assert class_of(case, (5, "?")) == class_of(case, (6, "?")) == class_of(case, (10, "!"))
    assert class_of(case, (7, "?")) == frozenset({(7, "?")})
    assert unit_of(case, (5, "?")) == ("cell",)
    assert unit_of(case, (7, "?")) == ("ret",)


def test_disjoint_hints_force_separation():
    index = load_system("new c, d, p, q in ( c?1[].p!2[] | c!3[].q!4[] )")
    gv = getvar_channel(index)

    class Hint:
        def labels_of(self, label, var):
            return frozenset({var})  # names can only carry their own label

    cases = list(enumerate_contexts(pair_plan(index, gv, 1, 3), Hint()))
    for case in cases:
        assert class_of(case, (2, "?")) != class_of(case, (4, "!"))  # {p} vs {q}


def test_enumeration_matches_brute_force_bell4():
    # two keys whose variables are never identified by the synchronization,
    # so all 15 partitions of the 4 roster members appear, each with every
    # admissible per-class unit choice
    index = load_system("new c, g1, g2 in ( c?1[].g1!2[] | c!3[].g2!4[] )")
    table = {
        1: {"b1": "c", "b2": "g1"},
        2: {"b1": "g1", "b2": "g1"},
        3: {"b1": "c", "b2": "g2"},
        4: {"b1": "g2", "b2": "g2"},
    }
    gv = GetVar(("b1", "b2"), table)

    class Hint:
        def labels_of(self, label, var):
            return frozenset({"L1", "L2"})

    roster = step_roster(index, 1, 3)
    assert len(roster) == 4
    got = {
        (case.classes, case.assign)
        for case in enumerate_contexts(pair_plan(index, gv, 1, 3), Hint())
    }

    expected = set()
    partitions = list(set_partitions(list(roster)))
    assert len(partitions) == 15  # Bell(4)
    for part in partitions:
        classes = [frozenset(block) for block in part]
        for units in product(*[
            [(u1, u2) for u1 in ("L1", "L2") for u2 in ("L1", "L2")]
            for _ in classes
        ]):
            case = PartitionCase.make(tuple(classes), tuple(units))
            expected.add((case.classes, case.assign))
    assert got == expected


def test_forced_merge_prunes_com_linked_members(semaphore_index):
    gv = getvar_channel(semaphore_index)
    hint = TopHint(semaphore_index.name_universe)
    for case in enumerate_contexts(pair_plan(semaphore_index, gv, 4, 2), hint):
        # receiver, sender and every thread keyed by the same channel variable
        assert class_of(case, (4, "?")) == class_of(case, (2, "!"))
        assert class_of(case, (4, "?")) == class_of(case, (5, "?"))


@pytest.mark.parametrize("name,mode", [("semaphore2", "chan"), ("synccomm", "chan"), ("semaphore2", "marker")])
def test_alpha_step_is_enumerated(name, mode, request):
    index = load_system(
        open(request.config.rootpath / "corpus" / f"{name}.pi").read()
    )
    gv = getvar_channel(index) if mode == "chan" else getvar_marker(index)
    hint = TopHint(index.name_universe)
    seen = 0
    for _, step, _ in walk_steps(index, 120):
        case = alpha_step(step, gv)
        lq, le = step.pair
        assert case in set(enumerate_contexts(pair_plan(index, gv, lq, le), hint))
        seen += 1
    assert seen > 10


FRESH_NAME_SYSTEMS = {
    "kept-by-receiver": "new a in (a?[]. new b in (b![] | a![]) | a![])",
    "kept-by-sender": "new a in (a![]. new b in (b![] | a![]) | a?[])",
    "minted": "new a in (*a?[]. new b in (b![] | a![]) | a![] | a![])",
}


@pytest.mark.parametrize(
    "name,mode,creates",
    [
        ("kept-by-receiver", "chan", True),
        ("kept-by-sender", "chan", True),
        ("minted", "chan", True),
        # a non-replicated continuation keeps its parent's marker
        ("kept-by-receiver", "marker", False),
        ("kept-by-sender", "marker", False),
        ("minted", "marker", True),
        ("memory.pi", "chan", True),
        ("memory.pi", "marker", True),
        ("objects.pi", "marker", True),
    ],
)
def test_new_units_hold_no_thread_before_the_step(name, mode, creates):
    # a class the enumeration marks as a new unit restarts from all-zero
    # contents, so no thread of the step's source may already sit in its unit
    index = load_system(FRESH_NAME_SYSTEMS.get(name) or corpus_text(name))
    gv = getvar_channel(index) if mode == "chan" else getvar_marker(index)
    hint = TopHint(index.name_universe)
    enumerated = {}
    new_classes = 0
    for source, step, _ in walk_steps(index, 150):
        if step.pair not in enumerated:
            cases = enumerate_contexts(pair_plan(index, gv, *step.pair), hint)
            enumerated[step.pair] = {c: c for c in cases}
        case = enumerated[step.pair][alpha_step(step, gv)]
        units = step_units(step, gv)
        before = {gv.concrete_unit(t.label, t.env) for t in source}
        for cls, new in zip(case.classes, case.new_unit):
            if new:
                new_classes += 1
                assert units[next(iter(cls))] not in before, (step.pair, case)
    assert (new_classes > 0) == creates


def test_alpha_step_survives_fixpoint_hint(memory_product):
    # the stabilized control-flow hint prunes sub-cases, but never one that a
    # real computation step realizes
    analysis, fix = memory_product
    index, gv = analysis.index, analysis.gv
    env = fix.env
    cache = {}
    checked = 0
    for _, step, _ in walk_steps(index, 350)[:400]:
        case = alpha_step(step, gv)
        lq, le = step.pair
        if (lq, le) not in cache:
            cache[(lq, le)] = set(enumerate_contexts(pair_plan(index, gv, lq, le), env))
        assert case in cache[(lq, le)], (step.pair, case)
        checked += 1
    assert checked > 100


def test_pruning_only_removes_empty_candidate_classes(synccomm_index):
    # against the top hint nothing is pruned except via forced merges, so the
    # case count is an upper bound for any other hint
    gv = getvar_channel(synccomm_index)
    top = TopHint(synccomm_index.name_universe)
    analysis = Analysis.build(synccomm_index, gv)
    env = analysis.run("product").env
    for lq, le in abstract_step_labels(synccomm_index):
        plan = pair_plan(synccomm_index, gv, lq, le)
        top_cases = set(enumerate_contexts(plan, top))
        hint_cases = set(enumerate_contexts(plan, env))
        assert hint_cases <= top_cases


@pytest.mark.parametrize("make_gv", [getvar_channel, getvar_marker])
def test_enumeration_leaves_no_reference_cycles(make_gv, memory_index):
    # the enumeration runs on every sub-case of every round; what it leaves
    # behind must go with reference counting, not wait for the cycle collector
    gv = make_gv(memory_index)
    hint = TopHint(memory_index.name_universe)
    pairs = abstract_step_labels(memory_index)
    gc.collect()
    gc.disable()
    try:
        cases = sum(
            1
            for lq, le in pairs
            for _ in enumerate_contexts(pair_plan(memory_index, gv, lq, le), hint)
        )
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert cases > len(pairs)
