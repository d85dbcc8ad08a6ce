import gc
import os
import subprocess
import sys

import pytest

from picount.syntax import SourceError, SystemIndex, load_system

from conftest import CORPUS, MEMORY_WRITE
from judges import token_deletions


def test_parse_nil():
    idx = load_system("0")
    assert idx.labels == () and idx.root_labels == frozenset()


def test_parse_memory_allocator_labels(memory_index):
    assert set(range(1, 12)) <= set(memory_index.labels)


def test_duplicate_label_rejected():
    with pytest.raises(SourceError, match="duplicate label 1"):
        load_system("new a in (a!1[].0 | a?1[].0)")


def test_nondistinct_input_args_rejected():
    with pytest.raises(SourceError, match="distinct"):
        load_system("new c in c?1[x, x].0")


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
    a, b = load_system("new c in c!1[]"), load_system("new c in c!1[].0")
    assert [getattr(a, f) for f in SystemIndex.__slots__] == [
        getattr(b, f) for f in SystemIndex.__slots__
    ]


def test_auto_labels_are_preorder_positions():
    idx = load_system("new a, b in (a![] | b![].a?[])")
    assert idx.labels == (1, 2, 3)
    assert [(idx.type[l], idx.chan[l]) for l in idx.labels] == [
        ("output", "a"),
        ("output", "b"),
        ("input", "a"),
    ]


def test_desugar_bang_structure():
    # new alloc in new rec@12 in (rec@12!12[] | *rec@12?12'[].(rec@12!12''[] | ...))
    idx = load_system("new alloc in !12 new add in alloc!13[add]")
    sites = {l: (idx.type[l], idx.chan[l], idx.arg[l], idx.launched[l]) for l in (12, "12'", "12''")}
    assert sites == {
        12: ("output", "rec@12", (), ()),
        "12'": ("fetch", "rec@12", (), (13, "12''")),
        "12''": ("output", "rec@12", (), ()),
    }
    assert idx.root_labels == {12, "12'"}


def test_nested_bang_two_rec_vars_six_labels():
    # expanding the rewrite by hand: each replication adds one restriction and
    # three prefixes; the inner body contributes nothing else here
    idx = load_system("!1 (!2 0)")
    assert idx.name_universe == {"rec@1", "rec@2"}
    assert idx.labels == (1, 2, "1'", "1''", "2'", "2''")


def test_wellformed_memory_static_maps(memory_index):
    idx = memory_index
    assert idx.type[1] == "fetch"
    assert idx.chan[1] == "alloc"
    assert idx.arg[1] == ("address",)
    assert idx.launched[5] == (6, 7)
    assert idx.root_labels == {1, 12, "12'"}


def test_open_system_rejected():
    with pytest.raises(SourceError, match="free variable c at 1:1"):
        load_system("c!1[].0")


def test_rebinding_rejected():
    with pytest.raises(SourceError, match="bound more than once"):
        load_system("new x in (x?1[y].0 | new y in y!2[].0)")


def test_interface_examples(memory_index):
    assert memory_index.iface[1] == {"alloc", "null"}
    assert memory_index.iface[5] == {"cell", "fwd"}
    # a prefix whose subprocess has no free variables cannot exist in a closed
    # system (its channel is free), so the minimum is the channel itself
    assert memory_index.iface[11] == {"ack"}
    assert 99 not in memory_index.iface


def test_interface_empty_on_synthetic_prefix():
    # a prefix with nothing after it has only its channel free
    assert load_system("new c in c!1[]").iface == {1: {"c"}}
    assert load_system("0").iface == {}


def test_arity_lint_warning():
    idx = load_system("new c, d in (c!1[d] | c?2[].0)")
    assert any("arities" in w for w in idx.warnings)
    assert not load_system("new c in (c!1[] | c?2[])").warnings


def test_desugar_preserves_user_labels(memory_index):
    # memory.pi labels its sites 1..20; 12, 15 and 18 are replications
    user = set(range(1, 21))
    generated = {f"{l}{p}" for l in (12, 15, 18) for p in ("'", "''")}
    assert set(memory_index.labels) == user | generated


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


DEEP = """
import sys
sys.setrecursionlimit(100)
from picount.syntax import load_system
deep = [
    "new a in " + "(" * 20000 + "a![]" + ")" * 20000,
    " ".join(f"new a{i} in" for i in range(5000)) + " a0![]",
    "new a in " + ".".join(["a![]"] * 5000),
]
print([len(load_system(text).labels) for text in deep])
"""


def test_nesting_costs_no_interpreter_stack():
    # a fresh interpreter, whose recursion limit is far below the depths read
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run(
        [sys.executable, "-c", DEEP], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "[1, 1, 5000]\n"


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
        for mutant in token_deletions(text):
            mutants += 1
            try:
                load_system(mutant)
            except SourceError as exc:
                rejected += 1
                assert exc.line is not None, (path, mutant, str(exc))
    assert mutants == 638 and rejected == 537
