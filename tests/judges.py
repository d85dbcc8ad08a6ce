"""Test judges over the concrete semantics: what an uninstrumented `Walk`
reaches, and the partition case a concrete step realizes (which the
partition-completeness tests and the oracle reference check compare with the
abstract enumeration), and whether a configuration keeps a query's bound.
Also the iteration that posts every pair in every round, which the
change-driven rounds of `engine.iterate` must match."""

import sys

from picount.analysis import Query
from picount.concrete import Configuration, StepShape, Walk, step_target
from picount.engine import Analysis, FixpointResult, step
from picount.partition import PartitionCase, member_key
from picount.syntax import Label, SystemIndex


def walked(index: SystemIndex, max_configs: int, max_depth: int = 1 << 30) -> Walk:
    """An uninstrumented walk, run to its end."""
    walk = Walk(index, max_configs, max_depth)
    for _ in walk:
        pass
    return walk


def reached(index: SystemIndex, max_configs: int, max_depth: int = 1 << 30) -> set:
    """Configurations an uninstrumented walk admits, bounded by both their
    number and the transition depth."""
    return {config for config, _ in walked(index, max_configs, max_depth).visited}


def walk_steps(index: SystemIndex, max_configs: int) -> list[tuple]:
    """(source, shape, target) of every edge leaving the first `max_configs`
    states an uninstrumented walk admits, in walk order.  A walk bounded by
    `max_configs` would stop at its first refused target and leave most of
    those states unexpanded, so the walk here is unbounded and cut at the
    first edge leaving a later state (sources come in admission order).
    Sources and targets are configurations."""
    walk = Walk(index, sys.maxsize, 1 << 30)
    rank = {walk.initial: 0}
    steps = []
    for source, shape, target, admitted in walk:
        if rank[source] >= max_configs:
            break
        if admitted:
            rank[target] = len(rank)
        steps.append((source[0], shape, target[0]))
    return steps


def query_holds(analysis: Analysis, q: Query, config: Configuration) -> bool:
    """Does every concrete unit of `config` that `q.unit` abstracts keep
    `q.expr` over its label counts within `q.bound`?  A configuration holds
    no step counts, so a query is judged on its label terms."""
    gv, layout = analysis.gv, analysis.layout
    totals: dict[tuple, int] = {}
    for t in config:
        u = gv.concrete_unit(t.label, t.env)
        if gv.alpha_unit(u) == q.unit:
            totals[u] = totals.get(u, 0) + q.expr.get(layout.x(t.label), 0)
    return all(total <= q.bound for total in totals.values())


def target_of(config: Configuration, shape: StepShape) -> Configuration:
    """`config` after a step of `shape`, with the walk's site check."""
    return step_target(config, {t.site_hash for t in config}, shape)


def step_units(shape: StepShape, gv) -> dict[tuple[Label, str], tuple]:
    """Concrete computation unit of every thread taking part in a step of
    `shape`."""
    units = {
        (shape.receiver.label, "?"): gv.concrete_unit(shape.receiver.label, shape.receiver.env),
        (shape.sender.label, "!"): gv.concrete_unit(shape.sender.label, shape.sender.env),
    }
    for t in shape.launched_recv:
        units[(t.label, "?")] = gv.concrete_unit(t.label, t.env)
    for t in shape.launched_send:
        units[(t.label, "!")] = gv.concrete_unit(t.label, t.env)
    return units


def alpha_step(shape: StepShape, gv) -> PartitionCase:
    """Partition case realized by a concrete step of `shape`: roster members
    grouped by equal concrete units, each class mapped to its abstract
    unit."""
    units = step_units(shape, gv)
    by_unit: dict[tuple, list] = {}
    for member in sorted(units, key=member_key):
        by_unit.setdefault(units[member], []).append(member)
    classes = []
    assign = []
    for unit, members in sorted(by_unit.items(), key=lambda kv: str(kv[0])):
        classes.append(frozenset(members))
        assign.append(gv.alpha_unit(unit))
    return PartitionCase.make(tuple(classes), tuple(assign))


def posted_every_round(analysis: Analysis, kind: str, max_iter: int = 1000) -> FixpointResult:
    """`analysis.run(kind, max_iter, keep_trace=True)` with every pair posted
    in every round: each round is a `step` without a record, and the loop
    stops as `iterate` does."""
    elem = analysis.start(kind)
    trace = []
    for n in range(1, max_iter + 1):
        tallies: dict = {}
        nxt = step(analysis, elem, tallies)
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
