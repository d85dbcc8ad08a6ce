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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .contents import ContentsDomain, CUMap
from .envdom import EnvDomain, EnvMap
from .numdom import CountLayout
from .partition import GetVar, TopHint, enumerate_contexts
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


@dataclass
class FixpointResult:
    env: EnvMap | None
    con: CUMap | None
    iterations: int
    stabilized: bool
    trace: list[dict] = field(default_factory=list)

    @property
    def element(self):
        """(env, con) for a product run, else the one component it iterated."""
        if self.env is None:
            return self.con
        if self.con is None:
            return self.env
        return (self.env, self.con)


@dataclass
class Analysis:
    """All domain objects for one system under one partitioning."""

    index: SystemIndex
    gv: GetVar
    layout: CountLayout
    env_dom: EnvDomain
    con_dom: ContentsDomain
    pairs: list[tuple[Label, Label]]

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


def step(analysis: Analysis, elem: tuple, tallies: dict | None = None) -> tuple:
    """One widened round from `elem`; `tallies`, when given, receives the
    cases and refuted cases of every pair that had any."""
    env, con = elem
    index, gv = analysis.index, analysis.gv
    env_dom, con_dom = analysis.env_dom, analysis.con_dom
    hint = TopHint(index.name_universe) if env is None else env
    env_deltas: dict = {}
    con_deltas: dict = {}
    posted = False
    for lq, le in analysis.pairs:
        cases = refuted = 0
        for case in enumerate_contexts(index, gv, lq, le, hint):
            cases += 1
            if env is not None:
                env_delta = env_dom.post_delta(env.get(lq), env.get(le), lq, le, case)
                if env_delta is None:
                    refuted += 1
                    continue
            if con is not None:
                con_delta = con_dom.post_delta(con, lq, le, case)
                if con_delta is None:
                    refuted += 1
                    continue
                for u, elems in con_delta.items():
                    con_deltas.setdefault(u, []).extend(elems)
            if env is not None:
                for l, a in env_delta.items():
                    env_deltas.setdefault(l, []).append(a)
            posted = True
        if tallies is not None and cases:
            tallies[f"{fmt_label(lq)},{fmt_label(le)}"] = {"cases": cases, "bottom": refuted}
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
    for n in range(1, max_iter + 1):
        tallies: dict | None = {} if keep_trace else None
        nxt = step(analysis, elem, tallies)
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
