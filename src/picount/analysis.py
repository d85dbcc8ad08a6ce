"""Batch analysis front end: run the product analysis, evaluate queries,
cross-check against bounded concrete exploration, render reports.
"""

from __future__ import annotations

import gc

from . import numdom
from .concrete import Walk
from .contents import CUMap, describe_unit
from .engine import Analysis, FixpointResult
from .envdom import EnvMap, atom_admits
from .partition import GetVar, getvar_channel, getvar_marker, load_partition_spec
from .syntax import Label, SourceError, SystemIndex, _found, _Parser, fmt_label, load_system, read_text


class Query:
    """Bounded linear form over one abstract unit's counters: the query holds
    when, in every concrete unit that `unit` abstracts, the sum of
    `expr[i]` times counter i is at most `bound`."""

    __slots__ = ("text", "unit", "expr", "bound")

    def __init__(self, text: str, unit: tuple, expr: dict[int, int], bound: int):
        self.text = text
        self.unit = unit
        self.expr = expr  # counter index -> coefficient
        self.bound = bound


def parse_query(text: str, analysis: Analysis) -> Query:
    """`mutex unit <var> over {l, ...}` or
    `unit <var>: <k>*x@<label> (+ <k>*x@<label>)* <= <bound>`, read by the
    system tokenizer.  A term may also be `y@(lq,le)` or `z@(lq,le)`, the
    coefficient (1 if left out) and the bound may be negative, and <var> may
    be a trigger variable `rec@l`.  The unit binds every key of the
    partition to <var>; a label repeated in a mutex counts once, and
    repeated terms add up.  Checked in this order: the grammar and labels,
    then that <var> is a restriction variable, then that each pair is a step
    pair of the system.  Every error names the query and its column."""
    index, gv, layout = analysis.index, analysis.gv, analysis.layout
    try:
        p = _Parser(text)

        def word(w: str):
            t = p.next()
            if t.text != w or t.kind != "ident":
                raise SourceError(f"expected {w!r}, found {_found(t)}", t.line, t.col)

        def label() -> Label:
            t = p.next()
            lab = int(t.text) if t.text.isdigit() else t.text
            if lab not in index.type:
                msg = "unknown label" if t.kind in ("int", "ident") else "expected a label, found"
                raise SourceError(f"{msg} {_found(t)}", t.line, t.col)
            return lab

        def integer(what: str) -> int:
            t = p.next()
            if t.kind != "int" or "'" in t.text:
                raise SourceError(f"{what} {t.text!r} is not an integer", t.line, t.col)
            return int(t.text)

        def term() -> tuple:
            coeff = 1
            if p.peek().kind != "ident" or p.toks[p.i + 1].kind == "*":
                coeff = integer("coefficient")
                p.expect("*")
            t = p.next()
            if t.text not in ("x", "y", "z"):
                raise SourceError(f"unknown query variable {t.text!r}", t.line, t.col)
            p.expect("@")
            if t.text == "x":
                return coeff, "x", label(), t
            p.expect("(")
            lq = label()
            p.expect(",")
            pair = lq, label()
            p.expect(")")
            return coeff, t.text, pair, t

        mutex = p.peek().text == "mutex" and p.accept("ident")
        word("unit")
        unit = p.expect("ident")
        var = unit.text
        if p.accept("@"):  # a replication's trigger variable rec@l
            var += f"@{label()}"
        if mutex:
            word("over")
            p.expect("{")
            # a set: a repeated label counts once
            terms = [(1, "x", l, unit) for l in dict.fromkeys(p.listed(label))]
            p.expect("}")
            bound = 1
        else:
            p.expect(":")
            terms = p.listed(term, "+")
            p.expect("<=")
            bound = integer("bound")
        p.end()
    except SourceError as exc:
        raise SourceError(f"{exc.msg} in query {text!r}", exc.line, exc.col) from None

    if var not in index.name_universe:
        msg = f"unit {var} is not a restriction variable in query {text!r}"
        raise SourceError(msg, unit.line, unit.col)
    expr: dict[int, int] = {}
    for coeff, kind, ref, t in terms:
        i = layout.index.get((kind, ref))
        if i is None:
            pair = f"({fmt_label(ref[0])},{fmt_label(ref[1])})"
            msg = f"query term {kind}@{pair} in {text!r}: {pair} is not a step pair of the system"
            raise SourceError(msg, t.line, t.col)
        expr[i] = expr.get(i, 0) + coeff
    return Query(text, gv.abstract_unit_of_vars(dict.fromkeys(gv.keys, var)), expr, bound)


# --- Configuration and reports ------------------------------------------------


class AnalysisConfig:
    __slots__ = (
        "path",
        "partition",
        "abstraction",
        "max_iter",
        "queries",
        "max_configs",
        "max_depth",
        "trace",
    )

    def __init__(
        self,
        path: str,
        partition: str = "chan",  # 'chan' | 'marker' | path to a JSON spec
        abstraction: str = "product",  # 'product' | 'env' | 'contents'
        max_iter: int = 1000,
        queries: tuple[str, ...] = (),
        max_configs: int = 5000,
        max_depth: int = 1 << 30,
        trace: bool = False,
    ):
        if max_iter < 1:
            raise SourceError("max iterations must be at least 1")
        if max_configs < 1 or max_depth < 1:
            raise SourceError("exploration limits must be at least 1")
        self.path = path
        self.partition = partition
        self.abstraction = abstraction
        self.max_iter = max_iter
        self.queries = queries
        self.max_configs = max_configs
        self.max_depth = max_depth
        self.trace = trace


def _resolve_partition(spec: str, index: SystemIndex) -> GetVar:
    if spec == "chan":
        return getvar_channel(index)
    if spec == "marker":
        return getvar_marker(index)
    return load_partition_spec(spec, index)


class Report:
    __slots__ = (
        "path",
        "partition",
        "abstraction",
        "iterations",
        "stabilized",
        "warnings",
        "units",
        "env",
        "queries",
        "trace",
    )

    def __init__(
        self,
        path: str,
        partition: str,
        abstraction: str,
        iterations: int,
        stabilized: bool,
        warnings: list[str],
        units: list[dict],
        env: list[dict],
        queries: list[dict],
        trace: list[dict] | None = None,
    ):
        self.path = path
        self.partition = partition
        self.abstraction = abstraction
        self.iterations = iterations
        self.stabilized = stabilized
        self.warnings = warnings
        self.units = units
        self.env = env
        self.queries = queries
        self.trace = [] if trace is None else trace

    @property
    def all_proved(self) -> bool:
        return all(q["result"] == "proved" for q in self.queries)

    def to_json(self) -> str:
        import json  # only a JSON report needs it
        payload = {
            "input": self.path,
            "partition": self.partition,
            "abstraction": self.abstraction,
            "iterations": self.iterations,
            "stabilized": self.stabilized,
            "warnings": self.warnings,
            "units": self.units,
            "env": self.env,
            "queries": self.queries,
        }
        if self.trace:
            payload["trace"] = self.trace
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"system      {self.path}",
            f"partition   {self.partition}",
            f"abstraction {self.abstraction}",
            f"iterations  {self.iterations} ({'stabilized' if self.stabilized else 'NOT stabilized'})",
        ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        if self.units:
            lines.append("")
            lines.append("computation units:")
            for u in self.units:
                lines.append(f"  {u['unit']}:")
                for c in u["constraints"]:
                    lines.append(f"    {c}")
        if self.env:
            lines.append("")
            lines.append("environments:")
            for e in self.env:
                lines.append(f"  {e['label']}: {e['summary']}")
        if self.queries:
            lines.append("")
            lines.append("queries:")
            for q in self.queries:
                why = f"  ({q['reason']})" if "reason" in q else ""
                lines.append(f"  [{q['result']:>7}] {q['query']}{why}")
        return "\n".join(lines) + "\n"


class RunResult:
    __slots__ = ("report", "analysis", "fix", "exit_code")

    def __init__(self, report: Report, analysis: Analysis, fix: FixpointResult, exit_code: int):
        self.report = report
        self.analysis = analysis
        self.fix = fix
        self.exit_code = exit_code


def _env_entry(label, a) -> dict:
    if a.is_bottom:
        return {"label": fmt_label(label), "reachable": False, "summary": "unreachable"}
    bindings = {v: sorted(map(str, a.labels[v])) for v in a.vars}
    constraints = [f"{x} = {y}" for x, y in sorted(a.eqs)] + [
        f"{x} != {y}" for x, y in sorted(a.neqs)
    ]
    parts = [f"{v}:{{{','.join(bindings[v])}}}" for v in a.vars]
    cons = [c.replace(" ", "") for c in constraints]
    return {
        "label": fmt_label(label),
        "reachable": True,
        "bindings": bindings,
        "constraints": constraints,
        "summary": " ".join(parts + cons) if (parts or cons) else "{}",
    }


def run(config: AnalysisConfig) -> RunResult:
    """Parse, analyze, prove: exit code 0 stabilized and all proved, 1 some
    query unknown or not stabilized, 2 bad input."""
    index = load_system(read_text(config.path))
    analysis = Analysis.build(index, _resolve_partition(config.partition, index))
    queries = [parse_query(q, analysis) for q in config.queries]
    fix = analysis.run(config.abstraction, config.max_iter, keep_trace=config.trace)
    env_fix, con_fix = fix.env, fix.con

    units_report = []
    if con_fix is not None:
        shown = set(con_fix.units()) | {q.unit for q in queries}
        for unit in sorted(shown, key=repr):
            units_report.append(
                {
                    "unit": describe_unit(analysis.gv, unit),
                    "constraints": numdom.pretty_constraints(
                        con_fix.accum(unit, analysis.layout)
                    )
                    or ["all counters = 0"],
                }
            )
        units_report.append({"unit": "(untouched)", "constraints": ["all counters = 0"]})
    env_report = []
    if env_fix is not None:
        for l in index.labels:
            env_report.append(_env_entry(l, env_fix.get(l)))

    query_report = []
    for q in queries:
        if not fix.stabilized:
            # a bound on an iterate that is not a fixpoint says nothing about
            # the configurations later iterations would add
            query_report.append(
                {
                    "query": q.text,
                    "result": "unknown",
                    "reason": f"not stabilized after {fix.iterations} iterations",
                }
            )
            continue
        if con_fix is None:
            result = "unknown"
        else:
            proved = analysis.con_dom.query(con_fix, q.unit, q.expr, q.bound)
            result = "proved" if proved else "unknown"
        query_report.append({"query": q.text, "result": result})

    report = Report(
        path=config.path,
        partition=config.partition,
        abstraction=config.abstraction,
        iterations=fix.iterations,
        stabilized=fix.stabilized,
        warnings=list(index.warnings),
        units=units_report,
        env=env_report,
        queries=query_report,
        trace=fix.trace,
    )
    # constraints of a run that has not stabilized are not invariants
    exit_code = 0 if report.stabilized and report.all_proved else 1
    return RunResult(report, analysis, fix, exit_code)


# --- Soundness harness ---------------------------------------------------------


class OracleReport:
    __slots__ = ("threads", "configs", "states_visited", "truncated", "violations")

    def __init__(
        self, threads: list, configs: set, states_visited: int, truncated: bool, violations: list
    ):
        self.threads = threads  # by id
        self.configs = configs  # the configurations checked, as bitsets over `threads`
        self.states_visited = states_visited
        self.truncated = truncated
        self.violations = violations

    @property
    def configs_visited(self) -> int:
        return len(self.configs)

    def to_text(self) -> str:
        lines = [
            f"configurations {self.configs_visited} "
            f"({'truncated' if self.truncated else 'exhaustive'})",
            f"instrumented states {self.states_visited}",
            f"violations {len(self.violations)}",
        ]
        lines.extend(f"  {v}" for v in self.violations[:50])
        return "\n".join(lines) + "\n"


def verify_configs(
    analysis: Analysis,
    env_fix: EnvMap | None,
    con_fix: CUMap | None,
    max_configs: int,
    max_depth: int,
    max_violations: int = 100,
) -> OracleReport:
    """Walk the concrete state space; flag any thread environment or per-unit
    count vector outside the corresponding fixpoint component.

    Contents checking is trace-sensitive (step counters accumulate along
    paths), so the walk is over (configuration, per-unit counters) states and
    `max_configs` bounds those states: the walk stops, truncated, at the
    first state it refuses, or once `max_violations` violations are found.

    A state is checked only where it can hold something not yet checked: its
    threads not in any state checked before (a mask over thread ids), and
    the units its step touched (`StepShape.units`; every unit of the initial
    state).  A unit's check key is its abstract unit and its count vector
    packed into an int (`StepTable.unit_key`); only a key not checked
    before is decoded into a vector (`StepTable.vector`) and checked.  That
    skips nothing because a source is always checked before its edges are
    yielded: the initial state first, and every admitted target when it is
    yielded, one layer before it is expanded.  A step changes no other
    unit's threads or step counts, so every other unit's key was already
    checked.  A violation's trace is the path of step pairs from the
    initial state, read back through the walk's search tree, `walk.visited`.

    The walk's states, shapes and records hold no reference cycles, so the
    cyclic collector is paused for the walk, and the caller's setting is
    restored when it ends.
    """
    index, gv, layout = analysis.index, analysis.gv, analysis.layout
    walk = Walk(index, max_configs, max_depth, gv, layout)
    table = walk.table
    violations: list[str] = []
    checked_env = 0  # the ids of the threads of every checked state
    checked: dict[tuple, set] = {}  # abstract unit -> the unit keys checked for it
    abstract: dict[tuple, tuple] = {}  # concrete unit -> (its abstract unit, that set)

    def trace_of(state) -> str:
        pairs = []
        while (edge := walk.visited[state]) is not None:
            state, pair = edge
            pairs.append(f"({fmt_label(pair[0])},{fmt_label(pair[1])})")
        return " -> ".join(reversed(pairs)) if pairs else "(initial configuration)"

    def check(state, units) -> bool:
        """Check the threads of `state` not checked before and its `units`;
        False once enough violations are found."""
        nonlocal checked_env
        new = len(violations)
        if env_fix is not None:
            for t in table.members(state[0] & ~checked_env):
                if not atom_admits(env_fix.get(t.label), t.env):
                    violations.append(
                        f"env: thread {t!r} outside abstraction of point "
                        f"{fmt_label(t.label)}; trace {trace_of(state)}"
                    )
            checked_env |= state[0]
        if con_fix is not None:
            for u in units:
                unit = abstract.get(u)
                if unit is None:
                    a = gv.alpha_unit(u)
                    unit = abstract[u] = (a, checked.setdefault(a, set()))
                abs_unit, seen = unit
                key = table.unit_key(state, u)
                if key in seen:
                    continue
                seen.add(key)
                vec = table.vector(key)
                if not analysis.con_dom.admits_vector(con_fix, abs_unit, vec):
                    violations.append(
                        f"contents: unit {abs_unit} vector "
                        f"{ {layout.pretty(i): v for i, v in sorted(vec.items())} } rejected; "
                        f"trace {trace_of(state)}"
                    )
        if len(violations) - new > 1:
            # within one state, violations are listed in the order of their text
            violations[new:] = sorted(violations[new:])
        return len(violations) < max_violations

    collecting = gc.isenabled()
    gc.disable()
    try:
        initial_units = dict.fromkeys(map(table.unit_of, table.members(walk.initial[0])))
        stopped = not check(walk.initial, initial_units)
        if not stopped:
            for _, shape, target, admitted in walk:
                if admitted and not check(target, shape.units):
                    stopped = True
                    break
    finally:
        if collecting:
            gc.enable()
    return OracleReport(
        threads=table.threads,
        configs={config for config, _ in walk.visited},
        states_visited=len(walk.visited),
        truncated=walk.truncated or stopped,
        violations=violations,
    )


def check_soundness(config: AnalysisConfig) -> tuple[OracleReport, RunResult]:
    result = run(config)
    report = verify_configs(
        result.analysis,
        result.fix.env,
        result.fix.con,
        max_configs=config.max_configs,
        max_depth=config.max_depth,
    )
    return report, result
