"""Set-up probe: start the interpreter, import picount, parse one system,
partition its threads by channel (the command line's default) and build the
analysis, then exit.  Its wall time, taken by the caller from spawn to exit,
is the benchmark's `setup_s`.

    python3 perfbench/setup_probe.py corpus/memory.pi
"""

import sys

from picount import Analysis, getvar_channel, load_system


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        index = load_system(fh.read())
    Analysis.build(index, getvar_channel(index))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
