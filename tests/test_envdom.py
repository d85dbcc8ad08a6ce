from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from picount.envdom import AtomEnv, EnvDomain, atom_admits
from picount.partition import (
    PartitionCase,
    TopHint,
    enumerate_contexts,
    getvar_channel,
    getvar_marker,
    pair_plan,
)
from picount.syntax import load_system

from judges import atom_leq, envmap_is_bottom, normalize


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


# A step (1?, 4!) with a received variable and a name restricted on each side:
# 1 launches 2 {x, n} and 3 {a, n}; 4 launches 5 {m} and 6 {b, m}.
TOY = "new a, b in (*a?1[x]. new n in (x!2[n] | n!3[a]) | a!4[b]. new m in (m!5[] | b!6[m]))"
TOY_UNIVERSE = frozenset("abmn")


@lru_cache(maxsize=None)
def toy_index():
    return load_system(TOY)


def toy_domain(getvar=getvar_channel) -> EnvDomain:
    index = toy_index()
    return EnvDomain(index, getvar(index))


def toy_cases(dom: EnvDomain):
    return list(enumerate_contexts(pair_plan(dom.index, dom.gv, 1, 4), TopHint(TOY_UNIVERSE)))


def toy_case(*classes) -> PartitionCase:
    """A chan case of the toy step; each class is (unit label, members)."""
    return PartitionCase.make(tuple(frozenset(ms) for _, ms in classes), tuple((u,) for u, _ in classes))


def toy_atom(labels: dict, neqs=()) -> AtomEnv:
    return normalize(raw(sorted(labels), labels, neqs=neqs))


def toy_atoms(vars):
    """Random normal forms over `vars` with labels from the toy universe."""
    pairs = list(combinations(vars, 2))
    return st.builds(
        raw,
        st.just(vars),
        st.fixed_dictionaries({v: st.sets(st.sampled_from(sorted(TOY_UNIVERSE)), min_size=1) for v in vars}),
        st.sets(st.sampled_from(pairs)) if pairs else st.just(()),
        st.sets(st.sampled_from(pairs)) if pairs else st.just(()),
    ).map(normalize)


def assert_toy_transfer_sound(dom: EnvDomain, in0: AtomEnv, out0: AtomEnv):
    """Every concrete (1?, 4!) synchronization the inputs admit, over names
    with markers 0 and 1, is admitted by the delta of its own case; the
    restricted names get marker 2, so they are new."""
    cases = set(toy_cases(dom))
    names = [(l, mark) for l in sorted(TOY_UNIVERSE) for mark in (0, 1)]
    n, m = ("n", 2), ("m", 2)
    # both threads hold the channel a; the sender's b is the message
    for a, b in product(names, repeat=2):
        if not (atom_admits(in0, {"a": a}) and atom_admits(out0, {"a": a, "b": b})):
            continue
        units = {(1, "?"): a, (2, "?"): b, (3, "?"): n, (4, "!"): a, (5, "!"): m, (6, "!"): b}
        # a concrete unit is a full name; its abstract unit is the name's label
        by_name = {}
        for member, name in units.items():
            by_name.setdefault(name, []).append(member)
        case = toy_case(*((name[0], ms) for name, ms in by_name.items()))
        assert case in cases, units
        delta = dom.post_delta(in0, out0, 1, 4, case)
        assert delta is not None, units
        launched = {2: {"x": b, "n": n}, 3: {"a": a, "n": n}, 5: {"m": m}, 6: {"b": b, "m": m}}
        for l, env in launched.items():
            assert atom_admits(delta[l], env), (l, env, delta[l])


@settings(max_examples=150, deadline=None)
@given(toy_atoms(("a",)), toy_atoms(("a", "b")))
def test_primitives_return_normal_forms(in0, out0):
    # every launched atom of every case is a normal form, bottom inputs included
    dom = toy_domain()
    for case in toy_cases(dom):
        delta = dom.post_delta(in0, out0, 1, 4, case)
        if delta is None:
            continue
        assert set(delta) == {2, 3, 5, 6}
        for a in delta.values():
            assert_normal(a)


def test_declare_restriction_pair():
    # a name restricted on either side is its own label, distinct from the
    # variables of its side
    dom = toy_domain()
    in0 = toy_atom({"a": {"a"}})
    out0 = toy_atom({"a": {"a"}, "b": {"b"}})
    case = toy_case(
        ("a", [(1, "?"), (4, "!")]), ("b", [(2, "?"), (6, "!")]), ("n", [(3, "?")]), ("m", [(5, "!")])
    )
    delta = dom.post_delta(in0, out0, 1, 4, case)
    assert delta[3].labels == {"a": frozenset("a"), "n": frozenset("n")}
    assert ("a", "n") in delta[3].neqs
    assert delta[6].labels == {"b": frozenset("b"), "m": frozenset("m")}
    assert ("b", "m") in delta[6].neqs


def test_declare_on_bottom():
    # a bottom input refutes the step, though it restricts names on both sides
    dom = toy_domain()
    in0 = toy_atom({"a": {"a"}})
    out0 = toy_atom({"a": {"a"}, "b": {"b"}})
    for case in toy_cases(dom):
        assert dom.post_delta(AtomEnv.bottom(("a",)), out0, 1, 4, case) is None
        assert dom.post_delta(in0, AtomEnv.bottom(("a", "b")), 1, 4, case) is None


def test_declare_same_label_distinct_names():
    # x receives a name an earlier instance of `new n` created: same label as
    # the fresh n, yet a different name
    dom = toy_domain()
    in0 = toy_atom({"a": {"a"}})
    out0 = toy_atom({"a": {"a"}, "b": {"n"}})
    case = toy_case(
        ("a", [(1, "?"), (4, "!")]), ("n", [(2, "?"), (6, "!")]), ("n", [(3, "?")]), ("m", [(5, "!")])
    )
    delta = dom.post_delta(in0, out0, 1, 4, case)
    assert delta[2].labels == {"n": frozenset("n"), "x": frozenset("n")}
    assert ("n", "x") in delta[2].neqs and not delta[2].is_bottom
    # the same name for both is a contradiction
    same = toy_case(("a", [(1, "?"), (4, "!")]), ("n", [(2, "?"), (6, "!"), (3, "?")]), ("m", [(5, "!")]))
    assert dom.post_delta(in0, out0, 1, 4, same) is None


def test_extend_gives_full_universe():
    # receiving narrows nothing: x may hold any name the sender's b may hold
    dom = toy_domain(getvar_marker)
    in0 = toy_atom({"a": {"a"}})
    out0 = toy_atom({"a": {"a"}, "b": TOY_UNIVERSE})
    for case in toy_cases(dom):
        assert dom.post_delta(in0, out0, 1, 4, case)[2].labels["x"] == TOY_UNIVERSE


def test_extend_then_project_away_is_identity():
    # a launched thread sees its parent's untouched variables as the parent did
    dom = toy_domain(getvar_marker)
    in0 = toy_atom({"a": {"a", "b"}})
    out0 = toy_atom({"a": {"a", "b"}, "b": {"a", "b", "n"}}, neqs=[("a", "b")])
    for case in toy_cases(dom):
        delta = dom.post_delta(in0, out0, 1, 4, case)
        assert delta[6].labels["b"] == out0.labels["b"]
        assert delta[3].labels["a"] == in0.labels["a"]


def test_gc_examples():
    # each launched thread gets an atom over exactly its own interface
    dom = toy_domain()
    index = dom.index
    in0 = toy_atom({"a": {"a"}})
    out0 = toy_atom({"a": {"a"}, "b": {"b"}})
    for case in toy_cases(dom):
        delta = dom.post_delta(in0, out0, 1, 4, case)
        if delta is None:
            continue
        assert set(delta) == set(index.launched[1] + index.launched[4])
        for l, a in delta.items():
            assert a.vars == tuple(sorted(index.iface[l])) and set(a.labels) == index.iface[l]


def test_pair_merges_tagged_sides():
    # the two sides meet in one molecule: the sender's knowledge of the
    # channel narrows what the receiver's continuation knows of it
    dom = toy_domain(getvar_marker)
    in0 = toy_atom({"a": {"a", "b"}})
    out0 = toy_atom({"a": {"a"}, "b": {"b"}})
    for case in toy_cases(dom):
        assert dom.post_delta(in0, out0, 1, 4, case)[3].labels["a"] == frozenset("a")


def test_split_is_sound_projection():
    # with inputs that admit every name, every concrete step lands in its delta
    top = toy_atom({"a": TOY_UNIVERSE})
    assert_toy_transfer_sound(toy_domain(), top, toy_atom({"a": TOY_UNIVERSE, "b": TOY_UNIVERSE}))


def test_sync_walkthrough_binds_message(memory_index):
    # cell?5[val] receives the data that cell!10[valp] sends
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    a5 = normalize(raw(("cell", "fwd"), {"cell": {"cell"}, "fwd": {"ret"}}))
    a10 = normalize(raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}}))
    delta = dom.post_delta(a5, a10, 5, 10, _memory_case_5_10(memory_index))
    assert delta[6].labels["val"] == delta[7].labels["val"] == frozenset({"data"})


def test_sync_wrong_unit_label_collapses(memory_index):
    dom = EnvDomain(memory_index, getvar_channel(memory_index))
    a5 = normalize(raw(("cell", "fwd"), {"cell": {"cell"}, "fwd": {"ret"}}))
    a10 = normalize(raw(("cell", "valp"), {"cell": {"cell"}, "valp": {"data"}}))
    case = _memory_case_5_10(memory_index)
    wrong = PartitionCase.make(case.classes, (("alloc",), ("ret",)))
    assert dom.post_delta(a5, a10, 5, 10, case) is not None
    assert dom.post_delta(a5, a10, 5, 10, wrong) is None


def test_sync_no_constraints_is_normalize():
    # marker-only units carry no names, so no case of a step constrains it
    dom = toy_domain(getvar_marker)
    in0 = toy_atom({"a": {"a", "b"}})
    out0 = toy_atom({"a": {"a", "b"}, "b": TOY_UNIVERSE})
    deltas = [dom.post_delta(in0, out0, 1, 4, case) for case in toy_cases(dom)]
    assert len(deltas) > 1 and all(d == deltas[0] for d in deltas)


@settings(max_examples=60, deadline=None)
@given(toy_atoms(("a",)), toy_atoms(("a", "b")))
def test_sync_soundness_toy_universe(in0, out0):
    # concrete steps the inputs admit never escape the result
    assert_toy_transfer_sound(toy_domain(), in0, out0)


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
    assert not envmap_is_bottom(init)


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
            assert atom_leq(a, j) and atom_leq(b, j)
            for c in elems:
                if atom_leq(a, c) and atom_leq(b, c):
                    assert atom_leq(j, c)


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
