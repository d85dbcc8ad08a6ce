import gc
import os

import pytest
from hypothesis import given, strategies as st

from picount.syntax import (
    New,
    Nil,
    Par,
    Prefix,
    SourceError,
    _tokenize,
    beta,
    free_vars,
    label_key,
    load_system,
    parse_system,
)

from conftest import CORPUS, MEMORY_WRITE, corpus_text


def test_parse_nil():
    assert parse_system("0") == Nil()


def test_parse_memory_allocator_labels(memory_index):
    assert set(range(1, 12)) <= set(memory_index.labels)


def test_duplicate_label_rejected():
    with pytest.raises(SourceError, match="duplicate label 1"):
        parse_system("new a in (a!1[].0 | a?1[].0)")


def test_nondistinct_input_args_rejected():
    with pytest.raises(SourceError, match="distinct"):
        parse_system("new c in c?1[x, x].0")


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("new a in (a!1[].0 | a?1[].0)", "duplicate label 1 at 1:21"),
        # a replication's generated label l' collides with a written one,
        # reported at the later site whichever is written first
        ("new c in (!a 0 | c!a'[])", "duplicate label a' at 1:18"),
        ("new c in (c!a'[] | !a 0)", "duplicate label a' at 1:20"),
        ("new c in (c![d] | c?[])", "open system, free variable d at 1:14"),
        (
            "new x in (x?1[y].0 | new y in y!2[].0)",
            "variable y bound more than once (input at 1 and restriction) at 1:26",
        ),
    ],
)
def test_system_error_names_its_token(text, message):
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
    return []


def test_desugar_bang_structure():
    alloc = parse_system("new alloc in !12 new add in alloc!13[add]")
    assert isinstance(alloc, New) and alloc.var == "alloc"
    d = alloc.body
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
    d = parse_system("!1 (!2 0)")
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
    assert idx.launched[5] == (6, 7)
    assert idx.root_labels == {1, 12, "12'"}


def test_open_system_rejected():
    with pytest.raises(SourceError, match="free variable c at 1:1"):
        parse_system("c!1[].0")


def test_rebinding_rejected():
    with pytest.raises(SourceError, match="bound more than once"):
        parse_system("new x in (x?1[y].0 | new y in y!2[].0)")


def test_interface_examples(memory_index):
    assert memory_index.iface[1] == {"alloc", "null"}
    assert memory_index.iface[5] == {"cell", "fwd"}
    # a prefix whose subprocess has no free variables cannot exist in a closed
    # system (its channel is free), so the minimum is the channel itself
    assert memory_index.iface[11] == {"ack"}
    assert 99 not in memory_index.iface


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


def test_desugar_preserves_user_labels(memory_index):
    # memory.pi labels its sites 1..20; 12, 15 and 18 are replications
    user = set(range(1, 21))
    desugared = set(_prefix_labels(parse_system(corpus_text("memory.pi"))))
    assert desugared == user | {f"{l}{p}" for l in (12, 15, 18) for p in ("'", "''")}
    assert set(memory_index.labels) == desugared


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


_MUTANT_SOURCES = [
    os.path.join(CORPUS, name) for name in sorted(os.listdir(CORPUS)) if name.endswith(".pi")
] + [MEMORY_WRITE]


def test_every_error_in_a_system_names_its_location():
    # each system with one token deleted either loads or is rejected with a
    # located error
    mutants = rejected = 0
    for path in _MUTANT_SOURCES:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line) + 1)
        for tok in _tokenize(text)[:-1]:
            at = starts[tok.line - 1] + tok.col - 1
            mutant = text[:at] + text[at + len(tok.text):]
            mutants += 1
            try:
                load_system(mutant)
            except SourceError as exc:
                rejected += 1
                assert exc.line is not None, (path, tok.line, tok.col, str(exc))
    assert mutants == 638 and rejected == 537
