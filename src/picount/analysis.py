"""Batch analysis front end: run the product analysis, evaluate queries,
cross-check against bounded concrete exploration, render reports.
"""

from __future__ import annotations

import json

from . import numdom
from .concrete import Walk
from .contents import CUMap, describe_unit, unit_vector
from .engine import Analysis, FixpointResult
from .envdom import EnvMap, atom_admits
from .partition import FULL_NAME, GetVar, getvar_channel, getvar_marker, load_partition_spec
from .syntax import Label, SourceError, SystemIndex, fmt_label, load_system


class Query:
    """Bounded linear form over one abstract unit's counters."""

    __slots__ = ("unit_var", "terms", "bound", "text", "mutex")

    def __init__(
        self,
        unit_var: str,
        terms: tuple[tuple[int, str, object], ...],  # (coeff, kind 'x'|'y'|'z', ref)
        bound: int,
        text: str,
        mutex: bool = False,
    ):
        self.unit_var = unit_var
        self.terms = terms
        self.bound = bound
        self.text = text
        self.mutex = mutex


def parse_query(text: str, index: SystemIndex) -> Query:
    """`mutex unit <var> over {l,...}` or
    `unit <var>: <k>*x@<label> (+ <k>*x@<label>)* <= <bound>`."""

    def integer(tok: str, what: str) -> int:
        try:
            return int(tok.strip())
        except ValueError:
            raise SourceError(f"{what} {tok.strip()!r} is not an integer in query {text!r}") from None

    def resolve_label(tok: str) -> Label:
        lab: Label = int(tok) if tok.isdigit() else tok
        if lab not in set(index.labels):
            raise SourceError(f"query names unknown label {tok}")
        return lab

    s = text.strip()
    if s.startswith("mutex"):
        rest = s[len("mutex"):].strip()
        if not rest.startswith("unit "):
            raise SourceError(f"malformed query {text!r}")
        rest = rest[len("unit "):]
        var, _, labels_part = rest.partition(" over ")
        var = var.strip()
        labels_part = labels_part.strip()
        if not (labels_part.startswith("{") and labels_part.endswith("}")):
            raise SourceError(f"malformed mutex query {text!r}")
        # a set: a repeated label counts once
        labels = dict.fromkeys(
            resolve_label(t.strip()) for t in labels_part[1:-1].split(",") if t.strip()
        )
        terms = tuple((1, "x", l) for l in labels)
        return Query(var, terms, 1, text, mutex=True)
    if not s.startswith("unit "):
        raise SourceError(f"malformed query {text!r}")
    rest = s[len("unit "):]
    var, colon, expr = rest.partition(":")
    if not colon:
        raise SourceError(f"malformed query {text!r}")
    lhs, le, bound_part = expr.partition("<=")
    if not le:
        raise SourceError(f"query must bound the form with <= : {text!r}")
    terms = []
    for piece in lhs.split("+"):
        piece = piece.strip()
        if not piece:
            raise SourceError(f"empty term in query {text!r}")
        coeff_part, star, var_part = piece.partition("*")
        if star:
            coeff = integer(coeff_part, "coefficient")
        else:
            coeff, var_part = 1, piece
        var_part = var_part.strip()
        if var_part.startswith("x@"):
            terms.append((coeff, "x", resolve_label(var_part[2:])))
        elif var_part.startswith(("y@(", "z@(")) and var_part.endswith(")"):
            kind = var_part[0]
            inner = var_part[3:-1]
            lq, comma, le_ = inner.partition(",")
            if not comma:
                raise SourceError(f"malformed pair in query {text!r}")
            terms.append((coeff, kind, (resolve_label(lq.strip()), resolve_label(le_.strip()))))
        else:
            raise SourceError(f"unknown query variable {var_part!r}")
    return Query(var.strip(), tuple(terms), integer(bound_part, "bound"), text)


def query_unit(gv: GetVar, query: Query) -> tuple:
    """Abstract unit a query addresses: every key bound to the named variable."""
    return gv.abstract_unit_of_vars(dict.fromkeys(gv.keys, query.unit_var))


def query_expr(layout, query: Query) -> dict[int, int]:
    expr: dict[int, int] = {}
    for coeff, kind, ref in query.terms:
        i = layout.index[kind, ref]
        expr[i] = expr.get(i, 0) + coeff
    return expr


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
    __slots__ = ("report", "analysis", "fix", "env_fix", "con_fix", "exit_code")

    def __init__(
        self,
        report: Report,
        analysis: Analysis,
        fix: FixpointResult,
        env_fix: EnvMap | None,
        con_fix: CUMap | None,
        exit_code: int,
    ):
        self.report = report
        self.analysis = analysis
        self.fix = fix
        self.env_fix = env_fix
        self.con_fix = con_fix
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
    try:
        with open(config.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SourceError(f"cannot read {config.path}: {exc.strerror}") from exc
    index = load_system(text)
    gv = _resolve_partition(config.partition, index)
    queries = [parse_query(q, index) for q in config.queries]
    for q in queries:
        if gv.mode == FULL_NAME and q.unit_var not in index.name_universe:
            raise SourceError(f"query unit {q.unit_var} is not a restriction variable")

    analysis = Analysis.build(index, gv)
    for q in queries:
        for _, kind, ref in q.terms:
            if kind != "x" and (kind, ref) not in analysis.layout.index:
                pair = f"({fmt_label(ref[0])},{fmt_label(ref[1])})"
                raise SourceError(
                    f"query term {kind}@{pair} in {q.text!r}: "
                    f"{pair} is not a step pair of the system"
                )
    fix = analysis.run(config.abstraction, config.max_iter, keep_trace=config.trace)
    env_fix, con_fix = fix.env, fix.con

    units_report = []
    if con_fix is not None:
        shown = set(con_fix.units()) | {query_unit(gv, q) for q in queries}
        for unit in sorted(shown, key=repr):
            units_report.append(
                {
                    "unit": describe_unit(gv, unit),
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
            unit = query_unit(gv, q)
            proved = analysis.con_dom.query(
                con_fix, unit, query_expr(analysis.layout, q), q.bound
            )
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
    return RunResult(report, analysis, fix, env_fix, con_fix, exit_code)


# --- Soundness harness ---------------------------------------------------------


class OracleReport:
    __slots__ = ("configs", "states_visited", "truncated", "violations")

    def __init__(self, configs: set, states_visited: int, truncated: bool, violations: list[str]):
        self.configs = configs  # the configurations checked
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


def _plus(base: dict, changes) -> dict:
    """`base` with `changes`, ((key, change), ...), added, keeping no 0."""
    out = dict(base)
    for k, d in changes:
        n = out.get(k, 0) + d
        if n:
            out[k] = n
        else:
            del out[k]
    return out


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

    A state is checked as what its step's shape says it changed in its
    source: the launched threads (all the target adds, as no launched thread
    shares a site with a present one), and the units of the shape's
    `changes`, each as the source's counts plus those changes (the initial
    state is the difference from the empty state).  That skips nothing
    because a source is always checked before its edges are yielded: the
    initial state first, and every admitted target when it is yielded, one
    layer before it is expanded.  So every other thread of the state, and
    every other unit's (abstract unit, label counts, step counts) key, was
    already checked.
    """
    index, gv, layout = analysis.index, analysis.gv, analysis.layout
    walk = Walk(index, max_configs, max_depth, gv)
    violations: list[str] = []
    checked_env: set = set()
    checked_vec: set = set()
    parents: dict = {}  # state -> (parent state, step pair), for counterexamples
    empty = (frozenset(), frozenset())
    grouped = (empty, ({}, {}))  # the source being expanded, with by_unit of it

    def trace_of(state) -> str:
        pairs = []
        while state in parents:
            state, pair = parents[state]
            pairs.append(f"({fmt_label(pair[0])},{fmt_label(pair[1])})")
        return " -> ".join(reversed(pairs)) if pairs else "(initial configuration)"

    def by_unit(state) -> tuple[dict, dict]:
        """Label counts and step counts of each unit of `state`."""
        config, tally = state
        counts: dict[tuple, dict] = {}
        for t in config:
            c = counts.setdefault(walk.unit_of(t), {})
            c[t.label] = c.get(t.label, 0) + 1
        steps: dict[tuple, dict] = {}
        for (u, pair), n in tally:
            steps.setdefault(u, {})[pair] = n
        return counts, steps

    def check_env(state, added):
        if env_fix is None:
            return
        for t in added:
            if t in checked_env:
                continue
            checked_env.add(t)
            if not atom_admits(env_fix.get(t.label), t.env):
                violations.append(
                    f"env: thread {t!r} outside abstraction of point "
                    f"{fmt_label(t.label)}; trace {trace_of(state)}"
                )

    def check_units(state, source, keys, changes):
        nonlocal grouped
        if con_fix is None:
            return
        if grouped[0] is not source:
            grouped = (source, by_unit(source))
        source_counts, source_steps = grouped[1]
        for (u, pair), count_changes in zip(keys, changes):
            counts = _plus(source_counts.get(u, {}), count_changes)
            steps = dict(source_steps.get(u, {}))
            if pair is not None:
                steps[pair] = steps.get(pair, 0) + 1
            abs_unit = gv.alpha_unit(u)
            # neither counts nor step tallies hold a 0, so this names the vector
            key = (abs_unit, frozenset(counts.items()), frozenset(steps.items()))
            if key in checked_vec:
                continue
            checked_vec.add(key)
            vec = unit_vector(layout, counts, steps)
            if not analysis.con_dom.admits_vector(con_fix, abs_unit, vec):
                violations.append(
                    f"contents: unit {abs_unit} vector "
                    f"{ {layout.pretty(i): v for i, v in sorted(vec.items())} } rejected; "
                    f"trace {trace_of(state)}"
                )

    def check(state, source, added, keys, changes) -> bool:
        """Check what `state` changed from `source`, which is checked; False
        once enough violations are found."""
        new = len(violations)
        check_env(state, added)
        check_units(state, source, keys, changes)
        if len(violations) - new > 1:
            # sets iterate in string-hash order; fix the order here
            violations[new:] = sorted(violations[new:])
        return len(violations) < max_violations

    # no step reached the initial state: its units' keys carry no pair
    counts = by_unit(walk.initial)[0]
    stopped = not check(
        walk.initial, empty, walk.initial[0], dict.fromkeys(counts).items(),
        map(dict.items, counts.values()),
    )
    if not stopped:
        for source, step, target, admitted in walk:
            if admitted:
                shape = step.shape
                parents[target] = (source, shape.pair)
                if not check(target, source, shape.launched, *shape.changes):
                    stopped = True
                    break
    return OracleReport(
        configs={config for config, _ in walk.visited},
        states_visited=len(walk.visited),
        truncated=walk.truncated or stopped,
        violations=violations,
    )


def check_soundness(config: AnalysisConfig) -> tuple[OracleReport, RunResult]:
    result = run(config)
    report = verify_configs(
        result.analysis,
        result.env_fix,
        result.con_fix,
        max_configs=config.max_configs,
        max_depth=config.max_depth,
    )
    return report, result
