"""The CLI exit contract: 0 everything proved, 1 unknown or violations,
2 bad input, 3 internal error.  A budget can only turn an answer into
`unknown`, and bad input is a located error, never a traceback."""

import json
import os
import random

import pytest

from picount import cli
from picount.analysis import AnalysisConfig, parse_query, run, verify_configs
from picount.cli import main
from picount.engine import Analysis
from picount.partition import getvar_channel
from picount.syntax import fmt_label, load_system

from conftest import corpus_path
from judges import query_holds, reached
from test_fuzz_soundness import random_system

DATA = os.path.join(os.path.dirname(__file__), "data")
SEMAPHORE_TIGHT = "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 1"


def test_unstabilized_run_proves_nothing(capsys):
    # one iteration does not reach the fixpoint; the tight bound is 2
    code = main(
        ["analyze", corpus_path("semaphore2.pi"), "--max-iter", "1", "--prove", SEMAPHORE_TIGHT]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT stabilized" in out
    assert f"[unknown] {SEMAPHORE_TIGHT}  (not stabilized after 1 iterations)" in out


def test_unstabilized_run_without_queries_exits_one(capsys):
    # the unit constraints of an iterate that is not a fixpoint are not invariants
    code = main(["analyze", corpus_path("semaphore2.pi"), "--max-iter", "1"])
    assert code == 1
    assert "NOT stabilized" in capsys.readouterr().out
    assert main(["analyze", corpus_path("semaphore2.pi")]) == 0


@pytest.mark.parametrize("labels", ["{2}", "{2,2}"])
def test_mutex_label_set_ignores_repeats(labels, capsys):
    code = main(["analyze", corpus_path("memory.pi"), "--prove", f"mutex unit cell over {labels}"])
    assert code == 0
    assert f"[ proved] mutex unit cell over {labels}" in capsys.readouterr().out


# A non-replicated receiver's continuation keeps the receiver's marker, and a
# sender's keeps the sender's: under marker partitioning the threads they
# launch join a unit that already counts others.  After the one step of the
# first system, `b!2` and `a!3` share the marker of `a?1` and `a!4`, and the
# form below equals 1 there.
MARKER_KEPT = (
    "new a in (a?1[]. new b in (b!2[] | a!3[]) | a!4[])",
    "new a in (a!1[]. new b in (b!2[] | a!3[]) | a?4[])",
)
MARKER_KEPT_FORM = "unit a: 1*x@2 + 1*x@3 + 1*x@4 + -1*x@1 + -1*y@(1,3) + -1*y@(1,4) <= 0"


def test_marker_unit_kept_by_a_continuation_is_not_proved(tmp_path, capsys):
    path = tmp_path / "kept.pi"
    path.write_text(MARKER_KEPT[0])
    code = main(["analyze", str(path), "--partition", "marker", "--prove", MARKER_KEPT_FORM])
    assert code == 1
    assert f"[unknown] {MARKER_KEPT_FORM}" in capsys.readouterr().out


@pytest.mark.parametrize("text", MARKER_KEPT, ids=("receiver", "sender"))
def test_marker_unit_kept_by_a_continuation_passes_the_oracle(text, tmp_path, capsys):
    path = tmp_path / "kept.pi"
    path.write_text(text)
    assert main(["oracle-check", str(path), "--partition", "marker"]) == 0
    assert "violations 0" in capsys.readouterr().out


# A two-key marker-only spec: the sends at 2 share the receiver's key b1 (the
# channel a) but their key b2 is the name n, whose marker is new.  Sharing a
# key variable therefore does not put two threads in one unit.
TWOKEY = (os.path.join(DATA, "twokey.pi"), "--partition", os.path.join(DATA, "twokey-marker.json"))
TWOKEY_QUERY = "unit a: 1*x@2 <= 0"


def test_two_key_marker_unit_is_not_proved(capsys):
    code = main(["analyze", *TWOKEY, "--prove", TWOKEY_QUERY])
    assert code == 1
    assert f"[unknown] {TWOKEY_QUERY}" in capsys.readouterr().out


def test_two_key_marker_spec_passes_the_oracle(capsys):
    assert main(["oracle-check", *TWOKEY, "--max-configs", "300"]) == 0
    assert "violations 0" in capsys.readouterr().out


def _warned_input(case, tmp_path) -> tuple[list[str], str]:
    """CLI arguments naming an input that draws one warning, and its text."""
    if case == "arity":
        return list(TWOKEY), (
            "channel variable a used with arities [0, 1]; mismatched prefixes never synchronize"
        )
    index = load_system(ONE_STEP)
    system, spec = tmp_path / "one.pi", tmp_path / "spec.json"
    system.write_text(ONE_STEP)
    table = {fmt_label(l): {"k": index.chan[l]} for l in index.labels}
    spec.write_text(json.dumps({"keys": ["k"], "stable": ["k"], "map": table}))
    args = [str(system), "--partition", str(spec)]
    return args, f"partition spec {spec}: unknown key 'stable' is ignored"


ONE_STEP = "new a in (a![] | a?[].0)"


@pytest.mark.parametrize("case", ["arity", "stable-key"])
def test_oracle_check_prints_the_input_warnings(case, tmp_path, capsys):
    args, warning = _warned_input(case, tmp_path)
    main(["analyze", *args])
    assert f"warning: {warning}" in capsys.readouterr().out.splitlines()
    assert main(["oracle-check", *args, "--max-configs", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the warning, then the counts; the exit code is the oracle's
    assert lines[0] == f"warning: {warning}"
    assert lines[1].startswith("configurations ") and lines[-1] == "violations 0"


def test_unstabilized_json_report_says_why(capsys):
    code = main(
        [
            "analyze", corpus_path("semaphore2.pi"), "--max-iter", "1",
            "--prove", SEMAPHORE_TIGHT, "--report", "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["stabilized"] is False
    assert payload["queries"] == [
        {
            "query": SEMAPHORE_TIGHT,
            "result": "unknown",
            "reason": "not stabilized after 1 iterations",
        }
    ]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("partition", ["chan", "marker"])
def test_budgeted_proofs_hold_in_explored_configs(seed, partition, tmp_path):
    rng = random.Random(20260 + seed)
    text = random_system(rng)
    index = load_system(text)
    path = tmp_path / "fuzz.pi"
    path.write_text(text)
    queries = tuple(
        f"unit {var}: 1*x@{fmt_label(l)} <= {bound}"
        for var in sorted(index.name_universe)
        for l in index.labels
        for bound in (0, 1)
    )
    configs = reached(index, max_configs=300, max_depth=30)
    for max_iter in range(1, 6):
        result = run(
            AnalysisConfig(path=str(path), partition=partition, max_iter=max_iter, queries=queries)
        )
        for entry in result.report.queries:
            if entry["result"] != "proved":
                continue
            q = parse_query(entry["query"], result.analysis)
            for config in configs:
                assert query_holds(result.analysis, q, config), (
                    text, partition, max_iter, entry["query"], config,
                )


@pytest.mark.parametrize(
    "query,message",
    [
        ("unit a: a*x@2 <= 1", "coefficient 'a' is not an integer"),
        ("unit a: 1*x@2 <= one", "bound 'one' is not an integer"),
    ],
)
def test_cli_bad_query_number_exits_two(query, message, capsys):
    assert main(["analyze", corpus_path("semaphore2.pi"), "--prove", query]) == 2
    err = capsys.readouterr().err
    assert message in err and query in err


@pytest.mark.parametrize(
    "query, message, col",
    [
        # an empty set, a blank member and a missing token boundary
        ("mutex unit cell over {}", "expected a label, found '}'", 23),
        ("mutex unit cell over {,}", "expected a label, found ','", 23),
        ("mutexunit cell over {2,6,10}", "expected 'unit', found 'mutexunit'", 1),
        # `int()` would read `1_0` as 10
        ("unit cell: 1*x@2 <= 1_0", "trailing input '_0'", 22),
        ("unit a: 1*x@2 <=", "bound '' is not an integer", 17),
        ("unit a: 1*x@99 <= 1", "unknown label '99'", 13),
        ("unit a: 1*x@2 $ <= 1", "unexpected character '$'", 15),
    ],
)
def test_cli_malformed_query_is_a_located_error(query, message, col, capsys):
    assert main(["analyze", corpus_path("semaphore2.pi"), "--prove", query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} in query {query!r} at 1:{col}\n"


@pytest.mark.parametrize("partition", ["chan", "marker"])
def test_cli_query_unit_is_a_restriction_under_every_partition(partition, capsys):
    query = "unit zzz: 1*x@2 <= 0"
    argv = ["analyze", corpus_path("semaphore2.pi"), "--partition", partition, "--prove", query]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: unit zzz is not a restriction variable in query {query!r} at 1:6\n"
    )


@pytest.mark.parametrize(
    "query, term, pair",
    [
        ("unit a: 1*y@(2,3) <= 0", "y@(2,3)", "(2,3)"),
        ("unit a: 1*z@(4,4) <= 0", "z@(4,4)", "(4,4)"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--abstraction", "env"], ["--max-iter", "1"]])
def test_cli_query_over_a_pair_that_never_steps_exits_two(query, term, pair, flags, capsys):
    assert main(["analyze", corpus_path("semaphore2.pi"), "--prove", query, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: query term {term} in {query!r}: {pair} is not a step pair of the system at 1:11\n"
    )


def test_cli_truncated_system_exits_two(tmp_path, capsys):
    system = tmp_path / "truncated.pi"
    system.write_text("new a in (a![] | ")
    assert main(["analyze", str(system)]) == 2
    assert capsys.readouterr().err == "error: unexpected end of input at 1:18\n"


def test_cli_missing_partition_spec_exits_two(tmp_path, capsys):
    missing = tmp_path / "nosuch.json"
    assert main(["analyze", corpus_path("semaphore2.pi"), "--partition", str(missing)]) == 2
    assert f"cannot read partition spec {missing}" in capsys.readouterr().err


def test_cli_partition_spec_not_json_exits_two(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"keys": ["b"],\n "map": {')
    assert main(["analyze", corpus_path("semaphore2.pi"), "--partition", str(spec)]) == 2
    err = capsys.readouterr().err
    assert f"partition spec {spec} is not JSON at 2:" in err


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
def test_cli_partition_spec_not_utf8_is_located(command, tmp_path, capsys):
    # the first bad byte is located as in a system file, after a multi-byte
    # character and a CRLF line end
    spec = tmp_path / "spec.json"
    spec.write_bytes('{"keys": ["\u00e9"],\r\n "map": {}'.encode("utf-8") + b"\xff}")
    assert main([command, corpus_path("synccomm.pi"), "--partition", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid UTF-8 byte 0xff in partition spec {spec} at 2:11\n"


def test_cli_partition_spec_without_map_exits_two(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"keys": ["b"]}))
    assert main(["analyze", corpus_path("semaphore2.pi"), "--partition", str(spec)]) == 2
    assert f"partition spec {spec} needs a 'map' object" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-configs", "--max-depth"])
def test_cli_oracle_check_rejects_empty_limits(flag, capsys):
    assert main(["oracle-check", corpus_path("synccomm.pi"), flag, "0"]) == 2
    captured = capsys.readouterr()
    assert "exploration limits must be at least 1" in captured.err
    assert "violations" not in captured.out


def test_verify_configs_rejects_empty_limits(semaphore_index):
    analysis = Analysis.build(semaphore_index, getvar_channel(semaphore_index))
    with pytest.raises(ValueError):
        verify_configs(analysis, None, None, max_configs=0, max_depth=5)


def test_cli_unwritable_dump_exits_two(tmp_path, capsys):
    dump = tmp_path / "missing" / "oracle.jsonl"
    argv = ["oracle-check", corpus_path("synccomm.pi"), "--max-configs", "20"]
    assert main(argv + ["--dump-oracle", str(dump)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {dump}: No such file or directory\n"


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
def test_cli_unreadable_system_names_its_path_once(command, tmp_path, capsys):
    missing = tmp_path / "nosuch.pi"
    assert main([command, str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
def test_cli_system_not_utf8_is_located_like_a_bad_character(command, tmp_path, capsys):
    # the first bad byte is located as the tokenizer locates a character it
    # rejects, after a multi-byte character and a CRLF line end
    head = "# caf\u00e9\r\nnew c in\r\n  c!1[] ".encode("utf-8")
    system = tmp_path / "bad.pi"
    system.write_bytes(head + b"\xff\n")
    assert main([command, str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid UTF-8 byte 0xff at 3:9\n"
    system.write_bytes(head + b"$\n")
    assert main([command, str(system)]) == 2
    assert capsys.readouterr().err == "error: unexpected character '$' at 3:9\n"


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
def test_cli_reads_a_long_prefix_chain(command, tmp_path, capsys):
    # a chain of prefixes is read in a loop, however long
    system = tmp_path / "chain.pi"
    system.write_text("new a in " + ".".join(["a![]"] * 600) + ".0")
    assert main([command, str(system)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
@pytest.mark.parametrize(
    "text",
    [
        "new a in " + "(" * 2000 + "a![]" + ")" * 2000,
        " ".join(f"new a{i} in" for i in range(2000)) + " a0![]",
    ],
    ids=("parentheses", "restrictions"),
)
def test_cli_reads_deep_nesting(command, text, tmp_path, capsys):
    # the parser keeps its own stack, so nesting is bounded only by memory
    system = tmp_path / "deep.pi"
    system.write_text(text)
    assert main([command, str(system)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["analyze", "oracle-check"])
@pytest.mark.parametrize(
    "text, message",
    [
        # query tokens: a trigger variable and a generated label
        ("new c in rec@1![]", "expected '!' or '?' after channel at 1:13"),
        ("new c in c!3'[]", "unexpected token \"3'\" at 1:12"),
        ("new c in !1' 0", "unexpected token \"1'\" at 1:11"),
        ("new c in c!1[] <= 0", "trailing input '<=' at 1:16"),
    ],
)
def test_cli_query_syntax_in_a_system_is_a_located_error(command, text, message, tmp_path, capsys):
    system = tmp_path / "bad.pi"
    system.write_text(text)
    assert main([command, str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "target, argv",
    [
        ("run", ["analyze", corpus_path("synccomm.pi")]),
        ("check_soundness", ["oracle-check", corpus_path("synccomm.pi")]),
    ],
)
def test_internal_error_exits_three(target, argv, monkeypatch, capsys):
    def broken(config):
        raise KeyError("broken invariant")

    monkeypatch.setattr(cli, target, broken)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:\n")
    assert "Traceback" in captured.err and "KeyError: 'broken invariant'" in captured.err
