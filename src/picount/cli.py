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

import argparse
import sys

from .analysis import AnalysisConfig, check_soundness, run
from .concrete import dump_configs
from .syntax import SourceError


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="picount", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the abstract analysis and prove queries")
    an.add_argument("file")
    an.add_argument("--partition", default="chan", help="chan, marker, or a JSON spec path")
    an.add_argument(
        "--prove", action="append", default=[], metavar="QUERY",
        help='e.g. "mutex unit cell over {2,6,10}" or "unit a: 1*x@2 + 1*x@3 <= 2"',
    )
    an.add_argument("--report", choices=("text", "json"), default="text")
    an.add_argument("--max-iter", type=int, default=1000)
    an.add_argument("--trace", action="store_true", help="include per-iteration tallies")
    an.add_argument(
        "--abstraction", choices=("product", "env", "contents"), default="product",
        help="which abstraction to iterate (default: coalesced product)",
    )

    oc = sub.add_parser("oracle-check", help="cross-check the fixpoint against exploration")
    oc.add_argument("file")
    oc.add_argument("--partition", default="chan")
    oc.add_argument("--max-configs", type=int, default=5000)
    oc.add_argument("--max-depth", type=int, default=1 << 30)
    oc.add_argument("--dump-oracle", metavar="PATH", help="also write the checked configurations (JSON lines)")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = AnalysisConfig(
                path=args.file,
                partition=args.partition,
                abstraction=args.abstraction,
                max_iter=args.max_iter,
                queries=tuple(args.prove),
                trace=args.trace,
            )
            result = run(config)
            if args.report == "json":
                sys.stdout.write(result.report.to_json() + "\n")
            else:
                sys.stdout.write(result.report.to_text())
            return result.exit_code

        config = AnalysisConfig(
            path=args.file,
            partition=args.partition,
            max_configs=args.max_configs,
            max_depth=args.max_depth,
        )
        oracle, result = check_soundness(config)
        if args.dump_oracle:
            try:
                with open(args.dump_oracle, "w", encoding="utf-8") as out:
                    dump_configs(oracle.threads, oracle.configs, out)
            except OSError as exc:
                raise SourceError(f"cannot write {args.dump_oracle}: {exc.strerror}") from exc
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
