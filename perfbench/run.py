#!/usr/bin/env python3
"""picount benchmark: run one workload through the `picount` command line.

    python3 perfbench/run.py --workload memory-write-product --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the analyzer is imported from
`src/`.  One client, closed loop: each invocation is a fresh child process,
started only after the previous one has exited, and only while it can be
expected to end within `--seconds` (the first always runs).  Every output
is checked against the workload's expectations (see `workloads.py`).  The
benchmark and its children are pinned to one CPU.

`--trace 0` prints the end-to-end metrics, each a median over the run: the
CPU time of one invocation and of a set-up probe (run between the
invocations), both calibrated to a nominal CPU speed by `speed.py`, and the
peak RSS of the analyzer child.  `--trace 1` pairs each untraced invocation
with a traced one (see `tracer.py`) and prints per-layer call counts and
self times, plus the tracing overhead.  The inputs are fixed; the seed is
recorded but selects nothing.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import speed
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES_PER_INVOCATION = 3
MIN_PROBES = 30
RUN_DEADLINE_S = 170.0  # children still running then are killed and count as failed
TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Child:
    """One finished child process and what checking its output found."""

    start: float  # perf_counter at spawn
    wall_s: float
    cpu_s: float  # user + system time of the child
    exit_code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0  # peak RSS the child reported (invocations only)
    problems: list[str] = field(default_factory=list)  # each fails the invocation
    flags: list[str] = field(default_factory=list)  # digest differences, printed only


def spawn(cmd: list[str], root: str, work: str, deadline: float) -> Child:
    """Run `cmd` in `root` with the checkout's `src/` importable; output goes
    to files.  Bytecode caching stays on, as for an installed package,
    whatever the caller's environment."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    lock = threading.Lock()
    reaped = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
        timer.start()
        try:
            # wait without reaping, so the watchdog can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: take the child down too
            kill()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    child = Child(t0, wall, usage.ru_utime + usage.ru_stime, proc.returncode, stdout, stderr)
    if TRACEBACK in stderr:
        child.problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return child


def check_analyze(w, child: Child) -> None:
    try:
        report = json.loads(child.stdout)
    except ValueError:
        child.problems.append("stdout is not a JSON report")
        return
    verdicts = {q["query"]: q["result"] for q in report.get("queries", [])}
    if verdicts != w.verdicts:
        child.problems.append(f"verdicts {verdicts} != expected {w.verdicts}")
    if report.get("stabilized") != w.stabilized:
        child.problems.append(f"stabilized {report.get('stabilized')} != expected {w.stabilized}")
    report["input"] = w.input
    digest = hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode("utf-8")).hexdigest()
    ref = w.reference
    if report.get("iterations") != ref.get("iterations") or digest != ref.get("sha256"):
        child.flags.append(
            f"report differs from the recorded reference: iterations {report.get('iterations')} "
            f"(recorded {ref.get('iterations')}), sha256 {digest}"
        )


ORACLE_LINES = re.compile(
    r"configurations (\d+) \((truncated|exhaustive)\)\ninstrumented states (\d+)\nviolations (\d+)"
)


def check_oracle(w, child: Child, dump_path: str, max_configs: int) -> None:
    m = ORACLE_LINES.search(child.stdout)
    if not m:
        child.problems.append("no oracle summary on stdout")
        return
    violations = int(m.group(4))
    if violations != w.violations:
        child.problems.append(f"{violations} oracle violations, expected {w.violations}")
    # streamed one record at a time: a dump is never held whole
    digest = hashlib.sha256()
    records = 0
    malformed = False
    try:
        with open(dump_path, "rb") as fh:
            for line in fh:
                digest.update(line)
                records += 1
                try:
                    config = json.loads(line)
                except ValueError:
                    config = None
                if not (isinstance(config, list) and all(isinstance(t, list) and len(t) == 3 for t in config)):
                    malformed = True
    except OSError:
        child.problems.append("no oracle dump written")
        return
    if malformed:
        child.problems.append("oracle dump record is not a list of thread triples")
    if not 1 <= records <= max_configs:
        child.problems.append(f"oracle dump has {records} configurations")
    digest = digest.hexdigest()
    if digest != w.reference.get("sha256"):
        child.flags.append(f"oracle dump differs from the recorded reference: sha256 {digest}")


def invoke(w, root: str, work: str, deadline: float, traced: bool) -> tuple[Child, str]:
    """One checked CLI invocation; returns it and its spans path (when traced)."""
    dump_path = os.path.join(work, "oracle.jsonl")
    spans_path = os.path.join(work, "spans.bin")
    peak_path = os.path.join(work, "peak_kb")
    argv = [a.replace("{dump}", dump_path) for a in w.argv]
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), peak_path]
    if traced:
        cmd += ["--spans", spans_path]
    child = spawn([*cmd, "--", *argv], root, work, deadline)
    try:
        with open(peak_path, encoding="ascii") as fh:
            child.rss_mb = int(fh.read()) / 1024.0
        os.remove(peak_path)
    except (OSError, ValueError):
        child.problems.append("no peak RSS reported")
    if child.exit_code != w.exit_code:
        child.problems.append(f"exit code {child.exit_code}, expected {w.exit_code}")
    if argv[0] == "analyze":
        check_analyze(w, child)
    else:
        check_oracle(w, child, dump_path, int(argv[argv.index("--max-configs") + 1]))
    if os.path.exists(dump_path):
        os.remove(dump_path)
    return child, spans_path


def setup_probe(w, root: str, work: str, deadline: float) -> Child:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), w.input]
    child = spawn(cmd, root, work, deadline)
    if child.exit_code != 0:
        child.problems.append(f"set-up probe exited {child.exit_code}")
    return child


def layer_metrics(meta, arrays) -> dict[str, tuple[float, str]]:
    """Calls and self time per traced function, named `<module>.<function>`,
    plus the counts the tracer takes from results."""
    selfs = tracer.self_times(meta, arrays)
    counters = meta["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for module, path, kind in tracer.TARGETS:
        name = f"{module}.{path.rpartition('.')[2]}"
        calls, self_s = selfs.get(f"{module}.{path}", (0, 0.0))
        if kind == "call":
            metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for key in (
        "partition.enumerate_contexts.cases",
        "envdom.post.refuted",
        "contents.post.refuted",
        "engine.iterate.rounds",
        "analysis.verify_configs.states",
    ):
        metrics[key] = (counters.get(key, 0), "count")
    # a sub-case is useful when neither side of the product refutes it;
    # contents is only consulted on sub-cases the environment side admits
    cases = counters.get("partition.enumerate_contexts.cases", 0)
    useful = cases - counters.get("envdom.post.refuted", 0) - counters.get("contents.post.refuted", 0)
    metrics["engine.posts_useful"] = (useful, "count")
    metrics["engine.useful_ratio"] = (useful / cases if cases else 0.0, "ratio")
    return metrics


def describe(child: Child, label: str, extra: str = "") -> None:
    status = "ok" if not child.problems else "FAILED: " + "; ".join(child.problems)
    print(
        f"  {label}: {child.wall_s:.3f} s wall, {child.cpu_s:.3f} s CPU, {extra + ', ' if extra else ''}"
        f"{child.rss_mb:.1f} MB, exit {child.exit_code}, {status}"
    )
    for flag in child.flags:
        print(f"    flag: {flag}")


def closed_loop(seconds: float, deadline: float, step) -> None:
    """Call `step` once, then again while a call as long as the last one would
    still end within `seconds`; stop early when `step` returns False."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        go_on = step()
        now = time.perf_counter()
        if go_on is False or now - start + (now - t0) > seconds or now >= deadline:
            return


def run_plain(w, root, work, seconds, deadline, children):
    """Set-up probes interleaved with untraced invocations, so both medians
    span the whole run; every child's CPU time calibrated by `speed`."""
    probes, runs = [], []
    sampler = speed.Sampler()

    def calibrated(c: Child) -> float:
        return sampler.calibrate(c.cpu_s, c.start, c.start + c.wall_s)

    def step():
        probes.extend(setup_probe(w, root, work, deadline) for _ in range(PROBES_PER_INVOCATION))
        child, _ = invoke(w, root, work, deadline, traced=False)
        describe(child, f"invocation {len(runs) + 1}", f"{calibrated(child):.3f} s calibrated")
        runs.append(child)

    sampler.start()
    try:
        closed_loop(seconds, deadline, step)
        probes.extend(setup_probe(w, root, work, deadline) for _ in range(MIN_PROBES - len(probes)))
    finally:
        sampler.stop()
    print(f"set-up probes ({len(probes)}, calibrated s): " + ", ".join(f"{calibrated(p):.4f}" for p in probes))
    costs = [c for _, c in sampler.samples]
    print(
        f"speed samples {len(costs)}: chunk cost median {statistics.median(costs) * 1e3:.3f} ms "
        f"(nominal {speed.NOMINAL_CHUNK_S * 1e3:.3f} ms); "
        f"invocation wall median {statistics.median(c.wall_s for c in runs):.3f} s"
    )
    children.extend(probes + runs)
    return {
        "cpu_s": (statistics.median(calibrated(c) for c in runs), "s", len(runs)),
        "setup_s": (statistics.median(calibrated(p) for p in probes), "s", len(probes)),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in runs), "MB", len(runs)),
    }


def run_traced(w, root, work, seconds, deadline, children):
    """Pairs of one untraced and one traced invocation; per-layer metrics
    are medians over the traced ones."""
    samples = []

    def step():
        plain, _ = invoke(w, root, work, deadline, traced=False)
        describe(plain, f"untraced {len(samples) + 1}")
        traced, spans_path = invoke(w, root, work, deadline, traced=True)
        describe(traced, f"traced {len(samples) + 1}")
        children.extend((plain, traced))
        if not os.path.exists(spans_path):
            traced.problems.append("traced run wrote no spans")
            return False
        meta, arrays = tracer.load(spans_path)
        os.remove(spans_path)
        os.remove(spans_path + ".json")
        if meta["missing"]:
            print("  not found, reported as 0: " + ", ".join(meta["missing"]))
        metrics = layer_metrics(meta, arrays)
        metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        print(f"  {meta['spans']} spans; overhead {traced.wall_s - plain.wall_s:.3f} s")
        samples.append(metrics)
        return True

    closed_loop(seconds, deadline, step)
    if not samples:
        return {}
    return {
        name: (statistics.median(s[name][0] for s in samples), unit, len(samples))
        for name, (_, unit) in samples[0].items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like an interrupted one: children killed, scratch removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    # children inherit this: they and the speed sampler share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = os.getcwd()
    w = WORKLOADS[args.workload]
    for need in ("src/picount/cli.py", w.input):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a picount checkout", file=sys.stderr)
            return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    children: list[Child] = []
    print(f"workload {w.name}: picount {' '.join(w.argv)}")
    print(f"seed {args.seed} (the inputs are fixed), {args.seconds:g} s, trace {args.trace}")
    try:
        measure = run_traced if args.trace else run_plain
        summary = measure(w, root, work, args.seconds, deadline, children)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass

    failed = sum(1 for c in children if c.problems)
    attempted = len(children)
    print(f"fail_rate {failed / attempted:.4f} ({failed} of {attempted} child processes failed)")
    for name, (value, unit, n) in summary.items():
        print(f"{name:42} {value:>14.6f} {unit:6} n={n}")
    result = {
        "correct": failed == 0 and bool(summary),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in summary.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
