# Earlier iteration engine, kept unchanged for tests/test_engine_differential.py:
# generic AbstractionSpec lambdas, whole-element posts per sub-case, and
# env-only runs enumerated under TopHint.  Not used by the package; the test
# loads it as a submodule of picount so that its relative imports resolve.
"""Generic abstract iteration over the extended (trace-partitioned) transitions.

An abstraction packages bottom/init/join/post/widen over some element type.
`iterate` computes the widened ascending sequence of

    F(c) = join({ post(c, extended_label) } + { init })

where the extended labels of one round are generated lazily: every receiver/
sender pair of matching arity, split into partition cases pruned by the best
available control-flow hint (the environment component of the current
iterate in a product run, no information otherwise).

The coalesced product runs two abstractions in lockstep; a sub-case one side
refutes is discarded for both, which is strictly stronger than running the
analyses separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .contents import ContentsDomain, CUMap, count_layout
from .envdom import EnvDomain, EnvMap
from .numdom import CountLayout
from .partition import GetVar, enumerate_contexts
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
class AbstractionSpec:
    """The capabilities the iterator needs from one abstraction."""

    bottom: Callable[[], Any]
    init: Callable[[], Any]
    join: Callable[[list], Any]
    post: Callable[[Any, tuple], Any]  # (element, (lq, le, case)) -> element
    widen: Callable[[Any, Any], Any]
    is_bottom: Callable[[Any], bool]
    env_hint: Callable[[Any], EnvMap | None] = lambda _elem: None
    name: str = "abstraction"


def env_abstraction(dom: EnvDomain) -> AbstractionSpec:
    return AbstractionSpec(
        bottom=dom.bottom,
        init=dom.init,
        join=dom.join,
        post=lambda env, lab: dom.post(env, *lab),
        widen=dom.widen,
        is_bottom=lambda env: env.is_bottom(),
        name="env",
    )


def contents_abstraction(dom: ContentsDomain) -> AbstractionSpec:
    return AbstractionSpec(
        bottom=dom.bottom,
        init=dom.init,
        join=dom.join,
        post=lambda cu, lab: dom.post(cu, *lab),
        widen=dom.widen,
        is_bottom=lambda cu: cu.is_bottom(),
        name="contents",
    )


def coalesced_product(a1: AbstractionSpec, a2: AbstractionSpec) -> AbstractionSpec:
    """Pairwise product whose post annihilates when either side does."""

    def post(elem, lab):
        r1 = a1.post(elem[0], lab)
        if a1.is_bottom(r1):
            return (a1.bottom(), a2.bottom())
        r2 = a2.post(elem[1], lab)
        if a2.is_bottom(r2):
            return (a1.bottom(), a2.bottom())
        return (r1, r2)

    def join(elems):
        elems = [e for e in elems if not (a1.is_bottom(e[0]) or a2.is_bottom(e[1]))]
        return (
            a1.join([e[0] for e in elems]) if elems else a1.bottom(),
            a2.join([e[1] for e in elems]) if elems else a2.bottom(),
        )

    def env_hint(elem):
        h = a1.env_hint(elem[0])
        if h is not None:
            return h
        return a2.env_hint(elem[1])

    return AbstractionSpec(
        bottom=lambda: (a1.bottom(), a2.bottom()),
        init=lambda: (a1.init(), a2.init()),
        join=join,
        post=post,
        widen=lambda x, y: (a1.widen(x[0], y[0]), a2.widen(x[1], y[1])),
        is_bottom=lambda e: a1.is_bottom(e[0]) or a2.is_bottom(e[1]),
        env_hint=env_hint,
        name=f"{a1.name}*{a2.name}",
    )


def product_with_hint(env_spec: AbstractionSpec, other: AbstractionSpec) -> AbstractionSpec:
    """Coalesced product steered by its environment component."""
    spec = coalesced_product(env_spec, other)
    spec.env_hint = lambda elem: elem[0]
    return spec


@dataclass
class FixpointResult:
    element: Any
    iterations: int
    stabilized: bool
    trace: list[dict] = field(default_factory=list)


def iterate(
    spec: AbstractionSpec,
    index: SystemIndex,
    gv: GetVar,
    max_iter: int = 1000,
    keep_trace: bool = False,
) -> FixpointResult:
    """Widened ascending iteration until the element stops moving."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    from .partition import TopHint

    pairs = abstract_step_labels(index)
    top_hint = TopHint(index.name_universe)
    current = spec.bottom()
    trace: list[dict] = []
    for n in range(1, max_iter + 1):
        hint = spec.env_hint(current)
        if hint is None:
            hint = top_hint
        posts = [spec.init()]
        tallies: dict[str, dict[str, int]] = {}
        for lq, le in pairs:
            cases = 0
            bottoms = 0
            for case in enumerate_contexts(index, gv, lq, le, hint):
                result = spec.post(current, (lq, le, case))
                cases += 1
                if spec.is_bottom(result):
                    bottoms += 1
                else:
                    posts.append(result)
            if keep_trace and cases:
                tallies[f"{fmt_label(lq)},{fmt_label(le)}"] = {
                    "cases": cases,
                    "bottom": bottoms,
                }
        stepped = spec.join(posts)
        widened = spec.widen(current, stepped)
        if keep_trace:
            trace.append(
                {
                    "iteration": n,
                    "posts": sum(t["cases"] for t in tallies.values()),
                    "bottom_posts": sum(t["bottom"] for t in tallies.values()),
                    "pairs": tallies,
                }
            )
        if widened == current:
            return FixpointResult(current, n, True, trace)
        current = widened
    return FixpointResult(current, max_iter, False, trace)


def step_once(spec: AbstractionSpec, index: SystemIndex, gv: GetVar, elem):
    """One widened application of the abstract transfer (stationarity probe)."""
    from .partition import TopHint

    hint = spec.env_hint(elem)
    if hint is None:
        hint = TopHint(index.name_universe)
    posts = [spec.init()]
    for lq, le in abstract_step_labels(index):
        for case in enumerate_contexts(index, gv, lq, le, hint):
            result = spec.post(elem, (lq, le, case))
            if not spec.is_bottom(result):
                posts.append(result)
    return spec.widen(elem, spec.join(posts))


# --- Convenient bundles -------------------------------------------------------


@dataclass
class Analysis:
    """All domain objects for one system under one partitioning."""

    index: SystemIndex
    gv: GetVar
    layout: CountLayout
    env_dom: EnvDomain
    con_dom: ContentsDomain

    @staticmethod
    def build(index: SystemIndex, gv: GetVar) -> "Analysis":
        layout = count_layout(index, abstract_step_labels(index))
        return Analysis(
            index=index,
            gv=gv,
            layout=layout,
            env_dom=EnvDomain(index, gv),
            con_dom=ContentsDomain(index, gv, layout),
        )

    def spec(self, kind: str = "product") -> AbstractionSpec:
        env = env_abstraction(self.env_dom)
        con = contents_abstraction(self.con_dom)
        if kind == "product":
            return product_with_hint(env, con)
        if kind == "env":
            return env
        if kind == "contents":
            return con
        raise ValueError(f"unknown abstraction kind {kind!r}")

    def run(self, kind: str = "product", max_iter: int = 1000, keep_trace: bool = False):
        return iterate(self.spec(kind), self.index, self.gv, max_iter, keep_trace)


def fix_components(kind: str, element) -> tuple[EnvMap | None, CUMap | None]:
    if kind == "product":
        return element[0], element[1]
    if kind == "env":
        return element, None
    if kind == "contents":
        return None, element
    raise ValueError(kind)
