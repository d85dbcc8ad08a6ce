"""Differential judge of the command-line reader: `cli.parse_args` against
the argparse parser it replaced (`judges.build_arg_parser`).

A valid line must give the same command, file and option values under both.
A malformed one must exit 2 under both, and `cli.main` must print exactly one
`picount: error:` line and no traceback.  A request for help exits 0 under
both and prints the usage.

Three kinds of line are read differently, and are left out of the random
lines below:
- After `-h`/`--help`, argparse still rejects an ambiguous option, where
  `parse_args` prints the usage.
- Before `-h`/`--help`, argparse lets an unknown option or a second file
  pass, where `parse_args` stops with an error.
- argparse rejects a `--` that follows the file only after an option in
  between (`analyze f.pi --trace --`); `parse_args` accepts it.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from picount import cli
from judges import build_arg_parser

VALID = [
    ["analyze", "f.pi"],
    ["analyze", "--trace", "f.pi"],
    ["analyze", "--report", "json", "--max-iter", "7", "f.pi"],
    ["analyze", "f.pi", "--max-iter=7", "--report=json"],
    ["analyze", "f.pi", "--max-i", "7", "--abstr", "env"],
    ["analyze", "--max-i=7", "--abstr=contents", "--rep=text", "f.pi"],
    ["analyze", "f.pi", "--prove", "mutex unit cell over {2,10}", "--prove=unit a: 1*x@2 <= 1", "--pr", "q"],
    ["analyze", "f.pi", "--abstraction", "product"],
    ["analyze", "f.pi", "--partition", "marker", "--part=spec.json"],
    ["analyze", "f.pi", "--trace", "--tr"],
    ["analyze", "f.pi", "--max-iter", "3", "--max-iter", "4"],
    ["analyze", "f.pi", "--max-iter", "-5"],
    ["analyze", "f.pi", "--max-iter", " 12 ", "--prove", "-1 x"],
    ["analyze", "f.pi", "--max-iter", "1_000", "--prove="],
    ["analyze", "--", "-f.pi"],
    ["analyze", "f.pi", "--"],
    ["analyze", "--trace", "--", "f.pi"],
    ["analyze", "-"],
    ["analyze", "-5"],
    ["oracle-check", "f.pi"],
    ["oracle-check", "f.pi", "--max-c", "10", "--max-d=3", "--dump", "o.jsonl", "--partition", "marker"],
    ["oracle-check", "--dump-oracle=", "--max-configs=2", "f.pi"],
]

INVALID = [
    # unknown option, or one of the other command
    ["analyze", "f.pi", "--bogus"],
    ["analyze", "f.pi", "-x"],
    ["analyze", "f.pi", "--max-configs", "3"],
    ["oracle-check", "f.pi", "--trace"],
    ["--trace", "analyze", "f.pi"],
    # ambiguous prefix
    ["analyze", "f.pi", "--p", "x"],
    ["oracle-check", "f.pi", "--max-", "3"],
    ["analyze", "f.pi", "--=x"],
    # missing value
    ["analyze", "f.pi", "--max-iter"],
    ["analyze", "f.pi", "--prove", "--trace"],
    ["analyze", "f.pi", "--partition", "--"],
    ["oracle-check", "--dump-oracle"],
    # a value where none is taken
    ["analyze", "f.pi", "--trace=1"],
    ["analyze", "f.pi", "--trace", "--tr="],
    # not an int
    ["analyze", "f.pi", "--max-iter", "x"],
    ["analyze", "f.pi", "--max-iter=1.5"],
    ["oracle-check", "f.pi", "--max-depth", ""],
    # not a choice
    ["analyze", "f.pi", "--report", "xml"],
    ["analyze", "f.pi", "--abstraction=both"],
    ["analyze", "f.pi", "--report="],
    # no file, two files
    ["analyze"],
    ["oracle-check", "--max-configs", "3"],
    ["analyze", "a.pi", "b.pi"],
    ["analyze", "a.pi", "--", "b.pi"],
    ["analyze", "--", "--", "a.pi"],
    # unknown or missing command
    ["analyse", "f.pi"],
    ["--", "analyze", "f.pi"],
    [],
    ["-x"],
]

HELP = [
    ["-h"],
    ["--help"],
    ["--he", "analyze"],
    ["analyze", "--help"],
    ["analyze", "f.pi", "-hh"],
    ["oracle-check", "f.pi", "--max-configs", "3", "--he"],
]


def reference(argv):
    """What argparse read, with the repeated option as a tuple."""
    args = vars(build_arg_parser().parse_args(argv))
    if "prove" in args:
        args["prove"] = tuple(args["prove"])
    return args


def outcome(read, argv):
    """`read(argv)`, or the exit code it raised; its printing discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return read(list(argv))
        except SystemExit as exc:
            return ("exit", exc.code)


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_line_reads_as_argparse_read_it(argv):
    assert cli.parse_args(argv) == reference(argv)


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_a_malformed_line_exits_two_with_one_error_line(argv, capsys):
    assert outcome(reference, argv) == ("exit", 2)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("picount: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_prints_the_usage_and_exits_zero(argv, capsys):
    assert outcome(reference, argv) == ("exit", 0)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out == cli.__doc__ and "picount analyze <file>" in out
    assert err == ""


TOKENS = [
    "analyze", "oracle-check", "f.pi", "g.pi", "", "-", "-5", "-1.5", "-5.", "5", " 7 ", "x",
    "--prove", "--pr", "--p", "--p=x", "mutex q", "-x y", "--prove=a b", "--partition=marker",
    "--max-iter", "--max-i", "--max-", "--max-iter=3", "--max-c=4", "--max-d", "--max-depth",
    "--trace", "--tr=1", "--report", "--rep=json", "json", "xml", "--abstraction", "--abstr=env",
    "env", "--dump-oracle", "--dump=o.jsonl", "--bogus", "-x", "---x", "--=x",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["analyze", "oracle-check", "--max-iter"]),
    st.lists(st.sampled_from(TOKENS), max_size=6),
    st.booleans(),
)
def test_random_lines_read_as_argparse_read_them(command, tokens, with_file):
    argv = [command, *(["f.pi"] if with_file else []), *tokens]
    assert outcome(cli.parse_args, argv) == outcome(reference, argv), argv
