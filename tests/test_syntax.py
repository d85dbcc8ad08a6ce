import gc

import pytest
from hypothesis import given, strategies as st

from picount.syntax import (
    Bang,
    New,
    Nil,
    Par,
    Prefix,
    SourceError,
    beta,
    check_wellformed,
    desugar_bang,
    free_vars,
    label_key,
    load_system,
    parse_system,
    pretty,
)

from conftest import MEMORY_WRITE, corpus_text


def test_parse_nil():
    assert parse_system("0") == Nil()


def test_parse_memory_allocator_labels(memory_index):
    assert set(range(1, 12)) <= set(memory_index.labels)


def test_duplicate_label_rejected():
    with pytest.raises(SourceError, match="duplicate label 1"):
        parse_system("a!1[].0 | a?1[].0")


def test_nondistinct_input_args_rejected():
    with pytest.raises(SourceError, match="distinct"):
        parse_system("c?1[x, x].0")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unexpected end of input at 1:1"),
        ("new a in (a![] | ", "unexpected end of input at 1:18"),
        ("new a in (a![]", "expected ')', found end of input at 1:15"),
    ],
)
def test_truncated_input_names_end_of_input(text, message):
    with pytest.raises(SourceError) as exc:
        load_system(text)
    assert str(exc.value) == message


def test_trailing_stop_optional():
    assert parse_system("new c in c!1[]") == parse_system("new c in c!1[].0")


def test_auto_labels_are_preorder_positions():
    p = parse_system("new a, b in (a![] | b![].a?[])")
    labels = sorted(l for l in _prefix_labels(p))
    assert labels == [1, 2, 3]


def _prefix_labels(p):
    if isinstance(p, Prefix):
        return [p.label] + _prefix_labels(p.cont)
    if isinstance(p, Par):
        return _prefix_labels(p.left) + _prefix_labels(p.right)
    if isinstance(p, New):
        return _prefix_labels(p.body)
    if isinstance(p, Bang):
        return [p.label] + _prefix_labels(p.body)
    return []


def test_desugar_identity_without_bang():
    p = parse_system("new a in (a!1[] | a?2[])")
    assert desugar_bang(p) == p


def test_desugar_bang_structure():
    p = parse_system("!12 new add in alloc!13[add]")
    d = desugar_bang(p)
    assert isinstance(d, New) and d.var == "rec@12"
    body = d.body
    assert isinstance(body, Par)
    trigger, repl = body.left, body.right
    assert trigger == Prefix("output", "rec@12", 12, (), Nil())
    assert isinstance(repl, Prefix) and repl.kind == "fetch" and repl.label == "12'"
    inner = repl.cont
    assert isinstance(inner, Par)
    assert inner.left == Prefix("output", "rec@12", "12''", (), Nil())


def test_nested_bang_two_rec_vars_six_labels():
    # expanding the rewrite by hand: each replication adds one restriction and
    # three prefixes; the inner body contributes nothing else here
    d = desugar_bang(parse_system("!1 (!2 0)"))
    names = set()
    labels = []

    def walk(p):
        if isinstance(p, New):
            names.add(p.var)
            walk(p.body)
        elif isinstance(p, Par):
            walk(p.left)
            walk(p.right)
        elif isinstance(p, Prefix):
            labels.append(p.label)
            walk(p.cont)

    walk(d)
    assert names == {"rec@1", "rec@2"}
    assert sorted(labels, key=label_key) == [1, 2, "1'", "1''", "2'", "2''"]


def test_wellformed_memory_static_maps(memory_index):
    idx = memory_index
    assert idx.type[1] == "fetch"
    assert idx.chan[1] == "alloc"
    assert idx.arg[1] == ("address",)
    assert beta(idx.cont[5]) == {6, 7}
    assert idx.root_labels == {1, 12, "12'"}


def test_open_system_rejected():
    with pytest.raises(SourceError, match="free variable c"):
        check_wellformed(parse_system("c!1[].0"))


def test_rebinding_rejected():
    with pytest.raises(SourceError, match="bound more than once"):
        check_wellformed(parse_system("new x in (x?1[y].0 | new y in y!2[].0)"))


def test_interface_examples(memory_index):
    assert memory_index.interface(1) == {"alloc", "null"}
    assert memory_index.interface(5) == {"cell", "fwd"}
    # a prefix whose subprocess has no free variables cannot exist in a closed
    # system (its channel is free), so the minimum is the channel itself
    assert memory_index.interface(11) == {"ack"}
    with pytest.raises(SourceError, match="unknown label"):
        memory_index.interface(99)


def test_interface_empty_on_synthetic_prefix():
    assert free_vars(Prefix("output", "c", 1, (), Nil())) == {"c"}
    assert free_vars(Nil()) == frozenset()


def test_arity_lint_warning():
    idx = load_system("new c, d in (c!1[d] | c?2[].0)")
    assert any("arities" in w for w in idx.warnings)
    assert not load_system("new c in (c!1[] | c?2[])").warnings


# -- structural properties ----------------------------------------------------

_var_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def _closed_process(draw, depth=3):
    # generator for desugared, label-free shapes; labels added post hoc
    kind = draw(st.integers(0, 3 if depth else 0))
    if kind == 0:
        return Nil()
    if kind == 1:
        return Par(draw(_closed_process(depth - 1)), draw(_closed_process(depth - 1)))
    if kind == 2:
        return New(draw(_var_names), draw(_closed_process(depth - 1)))
    chan = draw(_var_names)
    op = draw(st.sampled_from(["input", "output", "fetch"]))
    return Prefix(op, chan, None, (), draw(_closed_process(depth - 1)))


@given(_closed_process())
def test_beta_equations(p):
    if isinstance(p, Par):
        assert beta(p) == beta(p.left) | beta(p.right)
    elif isinstance(p, New):
        assert beta(p) == beta(p.body)
    elif isinstance(p, Nil):
        assert beta(p) == frozenset()
    elif isinstance(p, Prefix):
        assert beta(p) == {p.label}


@pytest.mark.parametrize(
    "name", ["memory.pi", "semaphore2.pi", "synccomm.pi", "objects.pi", "dlist.pi"]
)
def test_parse_pretty_roundtrip(name):
    ast = parse_system(corpus_text(name))
    assert parse_system(pretty(ast)) == ast


def test_desugar_preserves_user_labels(memory_index):
    surface = parse_system(corpus_text("memory.pi"))
    user = set(_prefix_labels(surface))
    desugared = set(_prefix_labels(desugar_bang(surface)))
    assert user <= desugared
    assert len(desugared) == len(user) + 2 * sum(
        1 for l in user if isinstance(l, int) and l in (12, 15, 18)
    )


def test_load_system_leaves_no_reference_cycle():
    with open(MEMORY_WRITE, encoding="utf-8") as fh:
        text = fh.read()
    gc.collect()
    gc.disable()
    try:
        load_system(text)
        assert gc.collect() == 0
    finally:
        gc.enable()
