from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from picount.engine import Analysis
from picount.envdom import (
    EQ,
    LBL,
    NEQ,
    AtomEnv,
    EnvDomain,
    atom_admits,
    declare,
    extend,
    gc,
    normalize,
    pair,
    split,
    sync,
)
from picount.partition import PartitionCase, getvar_channel
from picount.syntax import load_system

from conftest import corpus_text

LABELS = ("a", "b")
MARKERS = ((), ("m",))
NAMES = tuple((l, m) for l in LABELS for m in MARKERS)


def gamma(e: AtomEnv):
    """Reference concretization over the toy universe, by brute enumeration."""
    if e.is_bottom:
        return frozenset()
    out = []
    for values in product(NAMES, repeat=len(e.vars)):
        env = dict(zip(e.vars, values))
        if atom_admits(e, env):
            out.append(tuple(values))
    return frozenset(out)


def raw(vars, labels, eqs=(), neqs=()):
    return AtomEnv(
        tuple(vars),
        False,
        {v: frozenset(ls) for v, ls in labels.items()},
        frozenset(tuple(sorted(p, key=repr)) for p in eqs),
        frozenset(tuple(sorted(p, key=repr)) for p in neqs),
    )


def all_raw_elements(vars):
    label_choices = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    pairs = list(combinations(vars, 2))
    cons_space = []
    for eq_mask in range(1 << len(pairs)):
        for neq_mask in range(1 << len(pairs)):
            eqs = [pairs[i] for i in range(len(pairs)) if eq_mask >> i & 1]
            neqs = [pairs[i] for i in range(len(pairs)) if neq_mask >> i & 1]
            cons_space.append((eqs, neqs))
    for labels in product(label_choices, repeat=len(vars)):
        lab = dict(zip(vars, labels))
        for eqs, neqs in cons_space:
            yield raw(vars, lab, eqs, neqs)


@pytest.mark.parametrize("vars", [(), ("x",), ("x", "y")])
def test_normalize_exhaustive_small(vars):
    for e in all_raw_elements(vars):
        n = normalize(e)
        assert gamma(n) == gamma(e)
        assert normalize(n) == n
        if not n.is_bottom:
            # least form: labels shrink, constraints grow
            assert all(n.labels[v] <= e.labels[v] for v in vars)
            assert e.eqs <= n.eqs and e.neqs <= n.neqs


def test_normalize_contradiction_collapses():
    e = raw(("x", "y"), {"x": {"a"}, "y": {"b"}}, eqs=[("x", "y")])
    assert normalize(e).is_bottom


def test_normalize_intersects_labels_across_classes():
    e = raw(("x", "y"), {"x": {"a", "b"}, "y": {"a"}}, eqs=[("x", "y")])
    n = normalize(e)
    assert n.labels["x"] == n.labels["y"] == frozenset({"a"})
    assert gamma(n) == gamma(e)


def test_normalize_adds_implied_disequalities():
    e = raw(("x", "y"), {"x": {"a"}, "y": {"b"}})
    n = normalize(e)
    assert ("x", "y") in n.neqs


def descriptions(vars=("x", "y", "z")):
    """Random raw descriptions over `vars`: label sets and =/!= pairs."""
    pairs = list(combinations(vars, 2))
    return st.builds(
        raw,
        st.just(vars),
        st.fixed_dictionaries({v: st.sets(st.sampled_from(LABELS)) for v in vars}),
        st.sets(st.sampled_from(pairs)),
        st.sets(st.sampled_from(pairs)),
    )


@settings(max_examples=200, deadline=None)
@given(descriptions())
def test_normalize_random(e):
    n = normalize(e)
    assert gamma(n) == gamma(e)
    assert normalize(n) == n


def assert_normal(r: AtomEnv):
    assert normalize(r) == r
    assert hash(r) == hash(normalize(r))


@settings(max_examples=300, deadline=None)
@given(
    descriptions().map(normalize),
    descriptions(("x", "y")).map(normalize),
    st.sets(st.sampled_from(("x", "y", "z"))),
)
def test_primitives_return_normal_forms(a, b, keep):
    # inputs are normal forms, bottom included (an empty label set closes to it)
    assert_normal(declare("w", a))
    assert_normal(extend("w", a, LABELS))
    assert_normal(gc(keep, a))
    mol = pair(a, b)
    assert_normal(mol)
    for m in (mol, sync([(EQ, ("x", "?"), ("y", "!"))], mol)):
        recv, send = split(m)
        assert_normal(recv)
        assert_normal(send)


def test_declare_restriction_pair():
    a = declare("null", declare("alloc", AtomEnv.empty()))
    assert a.labels == {"alloc": frozenset({"alloc"}), "null": frozenset({"null"})}
    assert ("alloc", "null") in a.neqs


def test_declare_on_bottom():
    b = declare("x", AtomEnv.bottom(("y",)))
    assert b.is_bottom and set(b.vars) == {"x", "y"}


def test_declare_same_label_distinct_names():
    base = raw(("y",), {"y": {"x"}})
    a = declare("x", base)
    assert a.labels["x"] == a.labels["y"] == frozenset({"x"})
    assert ("x", "y") in a.neqs and not a.is_bottom


def test_extend_gives_full_universe():
    universe = {"alloc", "cell", "ret"}
    a = extend("val", declare("cell", AtomEnv.empty()), universe)
    assert a.labels["val"] == frozenset(universe)
    assert extend("v", AtomEnv.bottom(()), universe).is_bottom


def test_extend_then_project_away_is_identity():
    universe = {"u", "w"}
    for e in list(all_raw_elements(("x", "y")))[::97]:
        n = normalize(e)
        if n.is_bottom:
            continue
        assert gc(("x", "y"), extend("t", n, universe)) == n


def _walkthrough_parts():
    recv = raw(
        ("cell", "fwd"), {"cell": {"cell"}, "fwd": {"ret"}}
    )
    send = raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}})
    universe = {"alloc", "null", "cell", "read", "write", "ret", "data", "add"}
    recv3 = extend("val", normalize(recv), universe)
    return recv3, normalize(send), universe


def test_pair_merges_tagged_sides():
    recv3, send, universe = _walkthrough_parts()
    mol = pair(recv3, send)
    assert mol.labels[("cell", "?")] == frozenset({"cell"})
    assert mol.labels[("fwd", "?")] == frozenset({"ret"})
    assert mol.labels[("val", "?")] == frozenset(universe)
    assert mol.labels[("cell", "!")] == frozenset({"cell"})
    assert mol.labels[("valp", "!")] == frozenset({"data"})
    assert pair(AtomEnv.bottom(()), send).is_bottom


def test_split_is_sound_projection():
    recv3, send, _ = _walkthrough_parts()
    mol = pair(recv3, send)
    back_recv, back_send = split(mol)
    assert recv3.leq(back_recv)
    assert send.leq(back_send)


def test_sync_walkthrough_binds_message():
    recv3, send, _ = _walkthrough_parts()
    mol = pair(recv3, send)
    cons = [
        (EQ, ("cell", "?"), ("cell", "!")),
        (EQ, ("val", "?"), ("valp", "!")),
        (NEQ, ("cell", "?"), ("fwd", "?")),
        (LBL, ("cell", "?"), "cell"),
        (LBL, ("cell", "!"), "cell"),
        (LBL, ("fwd", "?"), "ret"),
    ]
    out = sync(cons, mol)
    assert not out.is_bottom
    assert out.labels[("val", "?")] == frozenset({"data"})


def test_sync_wrong_unit_label_collapses():
    recv3, send, _ = _walkthrough_parts()
    mol = pair(recv3, send)
    out = sync([(LBL, ("cell", "?"), "alloc")], mol)
    assert out.is_bottom


def test_sync_no_constraints_is_normalize():
    recv3, send, _ = _walkthrough_parts()
    mol = pair(recv3, send)
    assert sync([], mol) == normalize(mol)


def test_sync_soundness_toy_universe():
    # concrete pairs satisfying the constraints never escape the result
    e = raw(("x", "y"), {"x": {"a", "b"}, "y": {"a", "b"}})
    cons = [(EQ, "x", "y")]
    out = sync(cons, normalize(e))
    for values in gamma(normalize(e)):
        env = dict(zip(e.vars, values))
        if env["x"] == env["y"]:
            assert atom_admits(out, env)


def test_gc_examples():
    recv3, send, _ = _walkthrough_parts()
    mol = sync(
        [(EQ, ("cell", "?"), ("cell", "!")), (EQ, ("val", "?"), ("valp", "!"))],
        pair(recv3, send),
    )
    cell_val = gc({("cell", "?"), ("val", "?")}, mol)
    assert cell_val.labels[("cell", "?")] == frozenset({"cell"})
    assert cell_val.labels[("val", "?")] == frozenset({"data"})
    assert gc(mol.vars, mol) == mol
    top0 = gc((), mol)
    assert not top0.is_bottom and top0.vars == ()


def test_init_env_memory(memory_index):
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    init = dom.init()
    a1 = init.get(1)
    assert a1.labels == {"alloc": frozenset({"alloc"}), "null": frozenset({"null"})}
    assert ("alloc", "null") in a1.neqs
    assert init.get(12).labels == {"rec@12": frozenset({"rec@12"})}
    assert not init.get("12'").is_bottom
    for l in memory_index.labels:
        if l not in (1, 12, "12'"):
            assert init.get(l).is_bottom


def test_init_env_trivial_system():
    # no program points: the map is vacuous, and vacuous means every
    # configuration (here: only the empty one) is admitted
    index = load_system("0")
    dom = EnvDomain(index, getvar_channel(index))
    init = dom.init()
    assert init.table == ()
    assert not init.is_bottom()


def test_init_env_semaphore(semaphore_index):
    dom = EnvDomain(semaphore_index, getvar_channel(semaphore_index))
    init = dom.init()
    live = {l for l in semaphore_index.labels if not init.get(l).is_bottom}
    assert live == {1, "1'"}


def _memory_case_5_10(index):
    classes = (
        frozenset({(5, "?"), (6, "?"), (10, "!")}),
        frozenset({(7, "?")}),
    )
    return PartitionCase.make(classes, (("cell",), ("ret",)))


def test_post_env_walkthrough(memory_index):
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    a5 = raw(("cell", "fwd"), {"cell": {"cell"}, "fwd": {"ret"}})
    a10 = raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}})
    delta = dom.post_delta(normalize(a5), normalize(a10), 5, 10, _memory_case_5_10(memory_index))
    assert delta is not None
    assert delta[6].labels == {"cell": frozenset({"cell"}), "val": frozenset({"data"})}
    assert delta[7].labels == {"fwd": frozenset({"ret"}), "val": frozenset({"data"})}


def test_post_env_incompatible_case_is_bottom(memory_index):
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    a5 = normalize(raw(("cell", "fwd"), {"cell": {"cell"}, "fwd": {"ret"}}))
    a10 = normalize(raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}}))
    # sender kept apart from the receiver contradicts the shared channel
    classes = (
        frozenset({(5, "?"), (6, "?")}),
        frozenset({(7, "?")}),
        frozenset({(10, "!")}),
    )
    case = PartitionCase.make(classes, (("cell",), ("ret",), ("cell",)))
    assert dom.post_delta(a5, a10, 5, 10, case) is None


def test_post_env_bottom_inputs(memory_index):
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    bot = AtomEnv.bottom(("cell", "fwd"))
    a10 = normalize(raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}}))
    assert dom.post_delta(bot, a10, 5, 10, _memory_case_5_10(memory_index)) is None


def test_join_is_least_upper_bound():
    elems = [normalize(e) for e in list(all_raw_elements(("x", "y")))[::41]]
    elems = [e for e in elems if not e.is_bottom][:12]
    for a in elems:
        for b in elems:
            j = a.join(b)
            assert a.leq(j) and b.leq(j)
            for c in elems:
                if a.leq(c) and b.leq(c):
                    assert j.leq(c)


def test_widen_is_join_and_chains_stabilize(semaphore_index):
    dom = EnvDomain(semaphore_index, getvar_channel(semaphore_index))
    chain = dom.bottom()
    seen = set()
    bound = sum(
        len(semaphore_index.iface[l]) * len(semaphore_index.name_universe)
        + len(semaphore_index.iface[l]) ** 2
        for l in semaphore_index.labels
    ) + 2
    for i in range(bound):
        nxt = dom.widen(chain, dom.init())
        if nxt == chain:
            break
        chain = nxt
    else:
        pytest.fail("widening chain exceeded the lattice height bound")
