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

Rounds are change-driven.  Posting a pair reads only a few slots: the env
at `lq` and `le` (the hint reads nothing else, and `TopHint` is constant),
and the accumulation of each unit that a sub-case reaching the contents
transfer assigns (an untouched unit is the zero vector, which never
changes).  `iterate` records per pair what it read and what it produced; a
round re-posts only the pairs whose reads changed and replays the others'
deltas in posting order, so every round, widening point and fixpoint is the
one posting every pair gives.  Trace tallies count a round's sub-cases,
posted or reused.  Each pair's roster and forced groups come from its
`PairPlan`, built once per `Analysis`.
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
    """What posting one pair read, in the order `_reads` lists it, and what
    it produced: its tallies, and its env and contents deltas per slot in
    posting order."""

    __slots__ = ("reads", "units", "cases", "refuted", "env_out", "con_out")

    def __init__(self, reads, units, cases, refuted, env_out, con_out):
        self.reads = reads
        self.units = units
        self.cases = cases
        self.refuted = refuted
        self.env_out = env_out
        self.con_out = con_out


def _reads(analysis: Analysis, elem: tuple, plan: PairPlan, units: tuple) -> tuple:
    """The slots of `elem` that posting the plan's pair reads, given the
    units its sub-cases handed to the contents transfer."""
    env, con = elem
    layout = analysis.layout
    return (
        () if env is None else (env.get(plan.lq), env.get(plan.le)),
        () if con is None else tuple(con.accum(u, layout) for u in units),
    )


def _post(analysis: Analysis, elem: tuple, plan: PairPlan, hint) -> _PairRecord:
    """Post every sub-case of one pair through the transfers of `elem`'s
    components; a sub-case refuted by either is dropped for both."""
    env, con = elem
    lq, le = plan.lq, plan.le
    env_dom, con_dom = analysis.env_dom, analysis.con_dom
    cases = refuted = 0
    units: dict = {}
    env_out: dict = {}
    con_out: dict = {}
    for case in enumerate_contexts(plan, hint):
        cases += 1
        if env is not None:
            env_delta = env_dom.post_delta(env.get(lq), env.get(le), lq, le, case)
            if env_delta is None:
                refuted += 1
                continue
        if con is not None:
            units.update(dict.fromkeys(case.assign))
            con_delta = con_dom.post_delta(con, lq, le, case)
            if con_delta is None:
                refuted += 1
                continue
            for u, elems in con_delta.items():
                con_out.setdefault(u, []).extend(elems)
        if env is not None:
            for l, a in env_delta.items():
                env_out.setdefault(l, []).append(a)
    units = tuple(units)
    return _PairRecord(_reads(analysis, elem, plan, units), units, cases, refuted, env_out, con_out)


def step(
    analysis: Analysis, elem: tuple, tallies: dict | None = None, record: dict | None = None
) -> tuple:
    """One widened round from `elem`; `tallies`, when given, receives the
    cases and refuted cases of every pair that had any.  `record` maps each
    plan to what posting its pair last read and produced: a pair whose reads
    are unchanged reuses that, any other is posted and its entry replaced.
    Without a record every pair is posted."""
    env, con = elem
    env_dom, con_dom = analysis.env_dom, analysis.con_dom
    hint = TopHint(analysis.index.name_universe) if env is None else env
    record = {} if record is None else record
    env_deltas: dict = {}
    con_deltas: dict = {}
    posted = False
    for plan in analysis.plans:
        last = record.pop(plan, None)
        if last is not None and last.reads != _reads(analysis, elem, plan, last.units):
            last = None  # free its deltas before posting makes new ones
        if last is None:
            last = _post(analysis, elem, plan, hint)
        record[plan] = last
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
        con = con_dom.widen(con, con_dom.join(bases, con_deltas))
    return env, con


def iterate(
    analysis: Analysis, elem: tuple, max_iter: int = 1000, keep_trace: bool = False
) -> FixpointResult:
    """Widened ascending iteration from `elem` until it stops moving."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    trace: list[dict] = []
    record: dict = {}
    for n in range(1, max_iter + 1):
        tallies: dict | None = {} if keep_trace else None
        nxt = step(analysis, elem, tallies, record)
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
