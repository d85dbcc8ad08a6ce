import pytest

from picount import numdom as nd
from picount.concrete import initial_config
from picount.contents import ContentsDomain, CUMap
from picount.engine import Analysis, abstract_step_labels
from picount.numdom import INF
from picount.partition import (
    PartitionCase,
    enumerate_contexts,
    getvar_channel,
    getvar_marker,
    pair_plan,
)
from picount.syntax import load_system

from conftest import corpus_text
from judges import (
    affine_entailed,
    alpha_step,
    cumap_leq,
    num_make,
    step_units,
    unit_vector,
    walk_steps,
)


def domain_for(index, gv=None):
    gv = gv or getvar_channel(index)
    layout = nd.CountLayout(index.labels, abstract_step_labels(index))
    return ContentsDomain(index, gv, layout), layout


def test_init_memory(memory_index):
    dom, lay = domain_for(memory_index)
    init = dom.init()
    alloc = init.accum(("alloc",), lay)
    assert alloc.ivs[lay.x(1)] == (0, 1)
    assert all(
        alloc.ivs[i] == (0, 0) for i in range(lay.size) if i != lay.x(1)
    )
    rec = init.accum(("rec@12",), lay)
    assert rec.ivs[lay.x(12)] == (0, 1)
    assert affine_entailed(rec.rows, ((lay.x(12), 1), (lay.x("12'"), -1)), 0)
    # an untouched unit holds no accumulation: it is the zero vector
    assert init.accum(("cell",), lay).is_bottom
    assert dom.admits_vector(init, ("cell",), {})


def test_init_trivial_system():
    index = load_system("0")
    dom, lay = domain_for(index)
    init = dom.init()
    assert init.units() == ()
    assert lay.size == 0


def test_init_semaphore_correlated(semaphore_index):
    dom, lay = domain_for(semaphore_index)
    init = dom.init()
    rec = init.accum(("rec@1",), lay)
    assert rec.ivs[lay.x(1)] == (0, 1)
    assert affine_entailed(rec.rows, ((lay.x(1), 1), (lay.x("1'"), -1)), 0)


def walkthrough_cu(memory_index):
    dom, lay = domain_for(memory_index)
    ivs = [(0, INF)] * lay.size
    ivs[lay.y((1, 13))] = (0, 1)
    rows = [(((lay.x(2), 1), (lay.x(6), 1), (lay.x(10), 1), (lay.y((1, 13)), -1)), 0)]
    cell = num_make(lay, ivs, rows)
    cu = CUMap.of({("cell",): cell})
    return dom, lay, cu


def case_5_10():
    classes = (
        frozenset({(5, "?"), (6, "?"), (10, "!")}),
        frozenset({(7, "?")}),
    )
    return PartitionCase.make(classes, (("cell",), ("ret",)))


def test_post_walkthrough_cell_read_write(memory_index):
    dom, lay, cu = walkthrough_cu(memory_index)
    delta = dom.post_delta(cu, 5, 10, case_5_10())
    assert delta is not None
    (contribution,) = delta[("cell",)]
    assert contribution.ivs[lay.x(6)] == (1, 1)
    assert contribution.ivs[lay.x(2)] == (0, 0)
    assert contribution.ivs[lay.x(10)] == (0, 0)
    assert contribution.ivs[lay.y((1, 13))] == (1, 1)
    assert contribution.ivs[lay.y((5, 10))][0] >= 1
    assert contribution.ivs[lay.z((5, 10))] == (1, 1)
    # the launched forwarder lands in the return-channel unit
    assert ("ret",) in delta


def test_launched_only_class_in_an_untouched_unit_starts_from_zero(memory_index):
    # ("ret",) holds nothing and the step does not create it; its class has
    # no interacting member, so its contents start from the all-zero vector
    dom, lay, cu = walkthrough_cu(memory_index)
    assert ("ret",) not in cu.units()
    delta = dom.post_delta(cu, 5, 10, case_5_10())
    (ret,) = delta[("ret",)]
    assert ret == nd.chi(lay, (lay.x(7), lay.y((5, 10)), lay.z((5, 10))))


def test_post_infeasible_when_occupancy_refutes(memory_index):
    dom, lay, cu = walkthrough_cu(memory_index)
    # require a reader and a writer contents thread at once: x5 is pinned 0
    zero_x5 = CUMap.of(
        {("cell",): num_make(
            lay,
            [(0, 0) if i == lay.x(5) else iv for i, iv in enumerate(cu.accum(("cell",), lay).ivs)],
            cu.accum(("cell",), lay).rows,
        )},
    )
    assert dom.post_delta(zero_x5, 5, 10, case_5_10()) is None


def test_sub_case_refuted_by_a_later_class_makes_no_transfer(memory_index, monkeypatch):
    # the cell class is feasible, but the later class needs a cell!10 output
    # in the untouched ret unit, which holds none: no class is transferred
    dom, lay, cu = walkthrough_cu(memory_index)
    case = PartitionCase.make(
        (frozenset({(5, "?"), (6, "?")}), frozenset({(7, "?"), (10, "!")})),
        (("cell",), ("ret",)),
    )
    assert case.assign == (("cell",), ("ret",))
    assert not nd.sync_atleast(lay, {lay.x(5): 1}, cu.accum(("cell",), lay)).is_bottom
    calls = []
    original = nd.transfer

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(nd, "transfer", counted)
    assert dom.post_delta(cu, 5, 10, case) is None
    assert calls == []
    # with both interacting threads in the cell unit, the step transfers the
    # cell class once and the ret class from its accumulation and from zero
    assert dom.post_delta(cu, 5, 10, case_5_10()) is not None
    assert len(calls) == 3


def test_post_freshness_restarts_unit(memory_product):
    # the launched cell output is keyed by a just-restricted name, so its unit
    # restarts from the exact empty contents no matter what accumulated before
    analysis, fix = memory_product
    dom, lay = analysis.con_dom, analysis.layout
    cu = fix.con
    classes = (
        frozenset({(1, "?"), (13, "!")}),
        frozenset({(3, "?"), (14, "!")}),
        frozenset({(2, "?")}),
        frozenset({(4, "?")}),
        frozenset({(8, "?")}),
    )
    wanted = PartitionCase.make(
        classes, (("alloc",), ("add",), ("cell",), ("read",), ("write",))
    )
    # the enumeration decides which units the step creates
    (case,) = [
        c
        for c in enumerate_contexts(pair_plan(analysis.index, analysis.gv, 1, 13), fix.env)
        if c == wanted
    ]
    assert case.new_unit == (False, True, False, True, True)
    delta = dom.post_delta(cu, 1, 13, case)
    assert delta is not None
    (cell,) = delta[("cell",)]
    assert cell.ivs[lay.x(2)] == (1, 1)
    assert cell.ivs[lay.y((1, 13))] == (1, 1)
    assert all(
        cell.ivs[lay.x(l)] == (0, 0) for l in analysis.index.labels if l != 2
    )


def test_post_bottom_propagates(memory_index):
    dom, lay = domain_for(memory_index)
    assert dom.post_delta(dom.bottom(), 5, 10, case_5_10()) is None
    assert dom.join([dom.bottom()], dom.post_delta(dom.bottom(), 5, 10, case_5_10())) == dom.bottom()


def test_post_monotone_per_unit(memory_index):
    dom, lay, cu = walkthrough_cu(memory_index)
    out = dom.join([cu], dom.post_delta(cu, 5, 10, case_5_10()))
    assert cumap_leq(dom, cu, out)


def test_join_memo_rejoins_only_units_whose_inputs_moved(memory_index, monkeypatch):
    dom, lay, cu = walkthrough_cu(memory_index)
    init, deltas = dom.init(), dom.post_delta(cu, 5, 10, case_5_10())
    joined, memo = [], {}
    real = nd.join
    monkeypatch.setattr(nd, "join", lambda layout, elems: joined.append(elems) or real(layout, elems))
    first = dom.join([init, cu], deltas, memo)
    assert len(joined) == len(memo) > 1  # each unit joined once
    joined.clear()
    assert dom.join([init, cu], deltas, memo) == first and joined == []
    # only the cell's accumulation moves, so only the cell is joined again
    moved = CUMap.of({("cell",): deltas[("cell",)][0]})
    assert moved != cu
    again = dom.join([init, moved], deltas, memo)
    assert len(joined) == 1
    monkeypatch.undo()
    assert (first, again) == (dom.join([init, cu], deltas), dom.join([init, moved], deltas))


def test_decomposition_identity(semaphore_index, synccomm_index):
    # per class: |created| - |consumed| equals the unit's concrete thread delta
    for index in (semaphore_index, synccomm_index):
        gv = getvar_channel(index)
        for source, step, target in walk_steps(index, 150):
            lq, le = step.pair
            case = alpha_step(step, gv)
            units = step_units(step, gv)

            def count(config, unit):
                return sum(
                    1
                    for t in config
                    if gv.concrete_unit(t.label, t.env) == unit
                )

            for cls, _a in case.items():
                unit = units[next(iter(cls))]
                consumed = 0
                if index.type[lq] == "input" and (lq, "?") in cls:
                    consumed += 1
                if (le, "!") in cls:
                    consumed += 1
                created = sum(
                    1 for (l, role) in cls if l != (lq if role == "?" else le)
                )
                delta = count(target, unit) - count(source, unit)
                assert delta == created - consumed


def test_query_examples(memory_product):
    analysis, fix = memory_product
    cu = fix.con
    lay = analysis.layout
    q = {lay.x(2): 1, lay.x(6): 1, lay.x(10): 1}
    assert analysis.con_dom.query(cu, ("cell",), q, 1)
    # an all-zero unit proves any nonnegative bound
    assert analysis.con_dom.query(cu, ("nosuchvar",), q, 0)
    assert not analysis.con_dom.query(cu, ("cell",), {lay.x(5): 1}, 0)


def test_negative_bound_is_unknown_for_touched_and_absent_units(memory_product):
    analysis, fix = memory_product
    cu = fix.con
    q = {analysis.layout.x(2): 1}
    assert not analysis.con_dom.query(cu, ("cell",), q, -1)
    assert not analysis.con_dom.query(cu, ("nosuchvar",), q, -1)


def test_absent_unit_admits_only_the_zero_vector(memory_product):
    analysis, fix = memory_product
    cu = fix.con
    assert analysis.con_dom.admits_vector(cu, ("nosuchvar",), {})
    assert not analysis.con_dom.admits_vector(cu, ("nosuchvar",), {analysis.layout.x(2): 1})


def test_oracle_vectors_admitted(semaphore_index):
    # instrumented concrete vectors stay inside the fixpoint's coverage
    index = semaphore_index
    gv = getvar_channel(index)
    analysis = Analysis.build(index, gv)
    fix = analysis.run("product")
    cu = fix.con
    lay = analysis.layout
    explored = walk_steps(index, 60)
    counters = {}
    # follow one linear trace of the BFS to accumulate true step counts
    config = initial_config(index)
    for _ in range(8):
        steps = [(s, target) for source, s, target in explored if source == config]
        if not steps:
            break
        step, target = steps[0]
        for u in set(step_units(step, gv).values()):
            counters.setdefault(u, {}).setdefault(step.pair, 0)
            counters[u][step.pair] += 1
        config = target
        per_unit = {}
        for t in config:
            u = gv.concrete_unit(t.label, t.env)
            per_unit.setdefault(u, {}).setdefault(t.label, 0)
            per_unit[u][t.label] += 1
        for u in set(per_unit) | set(counters):
            vec = unit_vector(lay, per_unit.get(u, {}), counters.get(u, {}))
            assert analysis.con_dom.admits_vector(cu, gv.alpha_unit(u), vec)


def test_marker_mode_single_unit(semaphore_index):
    gv = getvar_marker(semaphore_index)
    analysis = Analysis.build(semaphore_index, gv)
    fix = analysis.run("product")
    cu = fix.con
    assert set(cu.units()) <= {("*",)}
    lay = analysis.layout
    q = {lay.x(2): 1, lay.x(3): 1, lay.x(5): 1}
    assert analysis.con_dom.query(cu, ("*",), q, 2)
