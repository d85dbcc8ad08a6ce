"""The `picount` command line as the benchmark runs it.

    python3 perfbench/cli_child.py PEAK_PATH -- analyze corpus/memory.pi ...
    python3 perfbench/cli_child.py PEAK_PATH --spans SPANS_PATH -- analyze ...

Runs `picount.cli.main` on the arguments after `--`.  When it returns, writes
the peak resident set size of this process, in kB, to PEAK_PATH: `VmHWM`
from /proc/self/status, the high-water mark of the address space this
program was started in, so it counts neither the process that spawned it
nor that process's own peak (which the rusage of a spawned child includes).
With `--spans`, every layer's public functions are timed first (see
`tracer.py`) and the spans are written to SPANS_PATH.
"""

import sys


def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    peak_path, *rest = argv
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: cli_child.py PEAK_PATH [--spans SPANS_PATH] -- CLI_ARGS...")
    import picount.cli

    rec = None
    if spans_path:
        import tracer

        rec = tracer.Recorder()
        tracer.instrument(rec)
    try:
        return picount.cli.main(rest[1:])
    finally:
        if rec is not None:
            rec.write(spans_path)
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_kb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
