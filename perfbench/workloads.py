"""The benchmark's workloads: one `picount` command line each, with the
outcome it must have.

Expectations are written by hand from what the system documents, not
captured from the analyzer under test:

* `memory.pi` is the shared-memory system on which the analyzer proves at
  most one simultaneous output per cell channel.  `inputs/memory_write.pi`
  keeps its cells and writer clients and drops the readers; a write still
  takes the cell's one output before it puts one back, so the mutex query
  is `proved` and `analyze` exits 0 (every query proved);
* the widened iteration terminates, so every `analyze` run stabilizes;
* the analysis is sound, so bounded exploration finds 0 violations and
  `oracle-check` exits 0;
* a Python traceback is never an acceptable outcome.

`reference` holds what the analyzer printed when the benchmark was added: the
iteration count and the sha256 of the JSON report with its `input` field
normalized (or of the oracle dump).  A mismatch is reported as a flag, not a
failure: a later change may move a fixpoint or a dump on purpose, but it has
to say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MEMORY_INPUT = "perfbench/inputs/memory_write.pi"
MEMORY_MUTEX = "mutex unit cell over {2,10}"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # after `picount`; "{dump}" is replaced by a scratch path
    input: str  # the system file, relative to the checkout root
    exit_code: int
    verdicts: dict = field(default_factory=dict)  # query text -> "proved"/"unknown"
    stabilized: bool | None = None  # analyze runs only
    violations: int | None = None  # oracle-check runs only
    reference: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="memory-write-product",
            argv=("analyze", MEMORY_INPUT, "--prove", MEMORY_MUTEX, "--report", "json"),
            input=MEMORY_INPUT,
            exit_code=0,
            verdicts={MEMORY_MUTEX: "proved"},
            stabilized=True,
            reference={
                "iterations": 10,
                "sha256": "1397058d4080d91afc2bd1b51af801fea9d412285dd80a002396d98cee45259e",
            },
        ),
        Workload(
            name="memory-write-env",
            argv=("analyze", MEMORY_INPUT, "--abstraction", "env", "--report", "json"),
            input=MEMORY_INPUT,
            exit_code=0,
            stabilized=True,
            reference={
                "iterations": 8,
                "sha256": "186545681d93a2964df79147af27394f0bfc5953f72442e2ac57bf216dd22815",
            },
        ),
        Workload(
            name="synccomm-oracle",
            argv=(
                "oracle-check", "corpus/synccomm.pi", "--max-configs", "1000",
                "--dump-oracle", "{dump}",
            ),
            input="corpus/synccomm.pi",
            exit_code=0,
            violations=0,
            reference={
                "sha256": "cb4c4714a4393035218595e3aff00158e426185e7d663c4447e2753c4f5a5ea5",
            },
        ),
    )
}
