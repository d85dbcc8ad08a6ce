"""Command line front end.

    picount analyze <file> [--partition chan|marker|SPEC.json] [--prove Q]...
                    [--report text|json] [--max-iter N] [--trace]
                    [--abstraction product|env|contents]
    picount oracle-check <file> [--max-configs N] [--max-depth D]
                    [--partition ...] [--dump-oracle PATH]

Exit codes: 0 everything proved / no violations, 1 unknown queries or
violations, 2 bad input, 3 internal error (traceback on stderr).  A run that
stops at --max-iter before it stabilizes answers every query unknown and
exits 1, with or without queries.
"""

from __future__ import annotations

import re
import sys

from .analysis import AnalysisConfig, check_soundness, run
from .concrete import dump_configs
from .syntax import SourceError

# Each command's options and defaults: False marks a flag, () a repeatable option.
OPTIONS = {
    "analyze": {"--partition": "chan", "--prove": (), "--report": "text", "--max-iter": 1000,
                "--trace": False, "--abstraction": "product"},
    "oracle-check": {"--partition": "chan", "--max-configs": 5000, "--max-depth": 1 << 30,
                     "--dump-oracle": None},
}
CHOICES = {"--report": ("text", "json"), "--abstraction": ("product", "env", "contents")}
NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as values


def _fail(message: str):
    sys.stderr.write(f"picount: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, names: list[str]) -> str | None:
    """The name in `names` that `token` (before any "=") abbreviates, or None for a value."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    hits = [n for n in names if n.startswith(token.partition("=")[0] if token[1] == "-" else token[:2])]
    if len(hits) != 1 and (hits or not (NUMBER.match(token) or " " in token)):
        _fail(f"{'ambiguous' if hits else 'unrecognized'} option: {token}")
    return hits[0] if hits else None


def parse_args(argv: list[str]) -> dict:
    """The command, file and option values of `argv`, keyed as argparse
    named them.  -h/--help prints the usage and exits 0; a malformed line
    prints one `picount: error:` line and exits 2."""
    words, names, values, literal = [], ["-h", "--help"], {}, False
    tokens = iter(argv)
    for token in tokens:
        name = None if literal else _option(token, names)
        if name is None and token == "--" and words and not literal:
            literal = True
        elif name is None:
            if not words:  # the command
                if token not in OPTIONS:
                    _fail(f"invalid command: {token!r} (choose from {', '.join(OPTIONS)})")
                values = dict(OPTIONS[token])
                names += values
            words.append(token)
        elif name in ("-h", "--help") or OPTIONS[words[0]][name] is False:
            if "=" in token if token[1] == "-" else token[1:].strip("h"):  # "-hh" is -h twice
                _fail(f"argument {name}: ignored explicit argument in {token}")
            if name in ("-h", "--help"):
                sys.stdout.write(__doc__)
                raise SystemExit(0)
            values[name] = True
        else:
            value = token.partition("=")[2] if "=" in token else next(tokens, "--")  # "--": none left
            if "=" not in token and (value == "--" or _option(value, names)):
                _fail(f"argument {name}: expected one argument")
            try:
                value = int(value) if type(values[name]) is int else value
            except ValueError:
                _fail(f"argument {name}: invalid int value: {value!r}")
            if value not in CHOICES.get(name, (value,)):
                _fail(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(CHOICES[name])})")
            values[name] = values[name] + (value,) if type(values[name]) is tuple else value
    if len(words) != 2:
        _fail(f"{words[0]} takes one file, not {len(words) - 1}" if words else "a command is required")
    return {"command": words[0], "file": words[1], **{n[2:].replace("-", "_"): v for n, v in values.items()}}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    command, report, dump = args.pop("command"), args.pop("report", "text"), args.pop("dump_oracle", None)
    try:
        config = AnalysisConfig(args.pop("file"), queries=args.pop("prove", ()), **args)
        if command == "analyze":
            result = run(config)
            if report == "json":
                sys.stdout.write(result.report.to_json() + "\n")
            else:
                sys.stdout.write(result.report.to_text())
            return result.exit_code

        oracle, result = check_soundness(config)
        if dump:
            try:
                with open(dump, "w", encoding="utf-8") as out:
                    dump_configs(oracle.threads, oracle.configs, out)
            except OSError as exc:
                raise SourceError(f"cannot write {dump}: {exc.strerror}") from exc
        for w in result.report.warnings:
            sys.stdout.write(f"warning: {w}\n")
        sys.stdout.write(oracle.to_text())
        return 0 if not oracle.violations else 1
    except SourceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        import traceback  # only a crash needs it; every run would pay for its import
        sys.stderr.write("internal error:\n" + traceback.format_exc())
        return 3


if __name__ == "__main__":
    sys.exit(main())
