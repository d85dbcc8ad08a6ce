"""Widened fixpoint iteration of the coalesced product.

A run iterates a pair (env, con): the control-flow component (an `EnvMap`,
None in a contents-only run) and the counting component (a `CUMap`, None in
an env-only run).  One round, `step`, computes

    elem  widen  join({ init } + { post(elem, lq, le, case) })

over the extended labels: every receiver/sender pair of matching arity,
split into partition sub-cases.  Whenever there is an env component it
steers the enumeration, which then skips only sub-cases its transfer would
refute anyway; a contents-only run enumerates under `TopHint`.

A sub-case refuted by either component is discarded for both (the coalesced
product): env judges first, and contents only sees what env admits.  The
round collects the surviving sub-cases' per-label and per-unit deltas and
joins each slot once: init (computed once per `Analysis`), the current value
if anything was posted, and the slot's deltas.

Rounds are change-driven, and each pair is posted in two halves.  The env
half enumerates the pair's sub-cases and runs their env transfers; it reads
only the env at `lq` and `le` (the hint reads nothing else, and `TopHint`
is constant, so a contents-only run enumerates each pair once).  The
contents half runs the contents transfers of the sub-cases env admitted, in
order, and keeps the env deltas of those contents admits too; it reads the
accumulation of each unit those sub-cases assign (an untouched unit is the
zero vector, which never changes).  `iterate` keeps a record per pair and
re-runs a half only when its reads changed (a new env half brings a new
contents half); each slot of a record holds each distinct delta once.  The
contents join re-joins a unit only when its inputs differ from the last
round's.  So every round, widening point and fixpoint is the one posting
every pair gives.  Trace tallies count a round's sub-cases, posted or
reused.  Each pair's roster and forced groups come from its `PairPlan`,
built once per `Analysis`.
"""

from __future__ import annotations

from functools import cached_property

from .contents import ContentsDomain, CUMap
from .envdom import EnvDomain, EnvMap
from .numdom import CountLayout
from .partition import GetVar, PairPlan, TopHint, enumerate_contexts, pair_plan
from .syntax import FETCH, INPUT, OUTPUT, Label, SystemIndex, fmt_label, label_key


def abstract_step_labels(index: SystemIndex) -> list[tuple[Label, Label]]:
    """Receiver/sender label pairs with matching arities, in canonical order."""
    recv = [l for l in index.labels if index.type[l] in (INPUT, FETCH)]
    send = [l for l in index.labels if index.type[l] == OUTPUT]
    pairs = [
        (lq, le)
        for lq in recv
        for le in send
        if len(index.arg[lq]) == len(index.arg[le])
    ]
    pairs.sort(key=lambda p: (label_key(p[0]), label_key(p[1])))
    return pairs


class FixpointResult:
    __slots__ = ("env", "con", "iterations", "stabilized", "trace")

    def __init__(
        self,
        env: EnvMap | None,
        con: CUMap | None,
        iterations: int,
        stabilized: bool,
        trace: list[dict] | None = None,
    ):
        self.env = env
        self.con = con
        self.iterations = iterations
        self.stabilized = stabilized
        self.trace = [] if trace is None else trace


class Analysis:
    """All domain objects for one system under one partitioning.  No
    `__slots__`: the `cached_property`s keep their values in `__dict__`."""

    def __init__(
        self,
        index: SystemIndex,
        gv: GetVar,
        layout: CountLayout,
        env_dom: EnvDomain,
        con_dom: ContentsDomain,
        pairs: list[tuple[Label, Label]],
    ):
        self.index = index
        self.gv = gv
        self.layout = layout
        self.env_dom = env_dom
        self.con_dom = con_dom
        self.pairs = pairs

    @staticmethod
    def build(index: SystemIndex, gv: GetVar) -> "Analysis":
        pairs = abstract_step_labels(index)
        layout = CountLayout(index.labels, pairs)
        return Analysis(
            index=index,
            gv=gv,
            layout=layout,
            env_dom=EnvDomain(index, gv),
            con_dom=ContentsDomain(index, gv, layout),
            pairs=pairs,
        )

    @cached_property
    def env_init(self) -> EnvMap:
        return self.env_dom.init()

    @cached_property
    def con_init(self) -> CUMap:
        return self.con_dom.init()

    @cached_property
    def plans(self) -> list[PairPlan]:
        """One plan per step pair, in `pairs` order.  Built by the first
        round, not by `build`: a caller that never iterates pays nothing."""
        return [pair_plan(self.index, self.gv, lq, le) for lq, le in self.pairs]

    def start(self, kind: str = "product") -> tuple[EnvMap | None, CUMap | None]:
        """The bottom pair of a `product`, `env` or `contents` run."""
        if kind not in ("product", "env", "contents"):
            raise ValueError(f"unknown abstraction kind {kind!r}")
        return (
            None if kind == "contents" else self.env_dom.bottom(),
            None if kind == "env" else self.con_dom.bottom(),
        )

    def run(self, kind: str = "product", max_iter: int = 1000, keep_trace: bool = False):
        return iterate(self, self.start(kind), max_iter, keep_trace)


class _PairRecord:
    """One pair's posting, in two halves.  The env half is built from the
    env at `lq` and `le` (`env_reads`): the count of sub-cases enumerated
    (`cases`), and those env admits (`admitted`), each with its env delta's
    items, in enumeration order, and the units they assign (`units`).  The
    contents half, rebuilt by `contents` when the accumulation of a unit in
    `units` moves (`con_reads`), runs the contents transfer of each admitted
    sub-case in order: the count refuted by either side (`refuted`), and
    per slot the distinct env and contents deltas of the sub-cases both
    admit, in first-seen order (`env_out`, `con_out`)."""

    __slots__ = ("env_reads", "cases", "admitted", "units", "con_reads", "refuted", "env_out", "con_out")

    def __init__(self, analysis: Analysis, env: EnvMap | None, plan: PairPlan, hint, env_reads: tuple):
        self.env_reads = env_reads
        self.cases = 0
        self.admitted = []
        for case in enumerate_contexts(plan, hint):
            self.cases += 1
            if env is None:
                self.admitted.append((case, ()))
            elif (delta := analysis.env_dom.post_delta(*env_reads, plan.lq, plan.le, case)) is not None:
                self.admitted.append((case, tuple(delta.items())))
        self.units = tuple(dict.fromkeys(u for case, _ in self.admitted for u in case.assign))
        self.con_reads = self.env_out = self.con_out = None

    def contents(self, analysis: Analysis, con: CUMap | None, plan: PairPlan, con_reads: tuple):
        self.con_reads = con_reads
        self.env_out = self.con_out = None  # free the old deltas before building new ones
        refuted = self.cases - len(self.admitted)
        env_out: dict = {}
        con_out: dict = {}
        for case, env_delta in self.admitted:
            if con is not None:
                con_delta = analysis.con_dom.post_delta(con, plan.lq, plan.le, case)
                if con_delta is None:
                    refuted += 1
                    continue
                for u, elems in con_delta.items():
                    con_out.setdefault(u, {}).update(dict.fromkeys(elems))
            for l, a in env_delta:
                env_out.setdefault(l, {})[a] = None
        self.refuted, self.env_out, self.con_out = refuted, env_out, con_out


def step(
    analysis: Analysis,
    elem: tuple,
    tallies: dict | None = None,
    record: dict | None = None,
    joins: dict | None = None,
) -> tuple:
    """One widened round from `elem`; `tallies`, when given, receives the
    cases and refuted cases of every pair that had any.  `record` maps each
    plan to its `_PairRecord`: a pair rebuilds its env half only when its
    env reads moved, and its contents half only then or when its contents
    reads moved; any other pair replays its deltas.  `joins` is the
    contents join's memo (see `ContentsDomain.join`).  Without a record
    every pair is posted."""
    env, con = elem
    env_dom, con_dom, layout = analysis.env_dom, analysis.con_dom, analysis.layout
    hint = TopHint(analysis.index.name_universe) if env is None else env
    record = {} if record is None else record
    env_deltas: dict = {}
    con_deltas: dict = {}
    posted = False
    for plan in analysis.plans:
        env_reads = () if env is None else (env.get(plan.lq), env.get(plan.le))
        last = record.get(plan)
        if last is None or last.env_reads != env_reads:
            record[plan] = None  # free the old deltas before building new ones
            last = record[plan] = _PairRecord(analysis, env, plan, hint, env_reads)
        con_reads = () if con is None else tuple(con.accum(u, layout) for u in last.units)
        if last.con_reads != con_reads:
            last.contents(analysis, con, plan, con_reads)
        for l, atoms in last.env_out.items():
            env_deltas.setdefault(l, []).extend(atoms)
        for u, elems in last.con_out.items():
            con_deltas.setdefault(u, []).extend(elems)
        posted = posted or last.cases > last.refuted
        if tallies is not None and last.cases:
            tallies[f"{fmt_label(plan.lq)},{fmt_label(plan.le)}"] = {
                "cases": last.cases,
                "bottom": last.refuted,
            }
    if env is not None:
        bases = [analysis.env_init, env] if posted else [analysis.env_init]
        env = env_dom.widen(env, env_dom.join(bases, env_deltas))
    if con is not None:
        bases = [analysis.con_init, con] if posted else [analysis.con_init]
        con = con_dom.widen(con, con_dom.join(bases, con_deltas, joins))
    return env, con


def iterate(
    analysis: Analysis, elem: tuple, max_iter: int = 1000, keep_trace: bool = False
) -> FixpointResult:
    """Widened ascending iteration from `elem` until it stops moving."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    trace: list[dict] = []
    record: dict = {}
    joins: dict = {}
    for n in range(1, max_iter + 1):
        tallies: dict | None = {} if keep_trace else None
        nxt = step(analysis, elem, tallies, record, joins)
        if keep_trace:
            trace.append(
                {
                    "iteration": n,
                    "posts": sum(t["cases"] for t in tallies.values()),
                    "bottom_posts": sum(t["bottom"] for t in tallies.values()),
                    "pairs": tallies,
                }
            )
        if nxt == elem:
            return FixpointResult(*elem, n, True, trace)
        elem = nxt
    return FixpointResult(*elem, max_iter, False, trace)
