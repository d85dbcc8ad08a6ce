"""Test judges over the concrete semantics: the table-free step reference
(`enabled_steps`, `step_target`) over configurations as thread sets, what
an uninstrumented `Walk` reaches, and the partition case a concrete step
realizes (which the partition-completeness tests and the oracle reference
check compare with the abstract enumeration), and whether a configuration
keeps a query's bound.
Also the iteration that posts every pair in every round, which the
change-driven rounds of `engine.iterate` must match, and the token-deletion
mutants that the system and query readers are judged on."""

import sys

from picount.analysis import Query
from picount.concrete import (
    Configuration,
    StepShape,
    StepTable,
    Walk,
    dump_configs,
    make_config,
)
from picount.engine import Analysis, FixpointResult, step
from picount.partition import PartitionCase, member_key
from picount.syntax import FETCH, INPUT, OUTPUT, Label, SystemIndex, _tokenize


def enabled_steps(index: SystemIndex, config: Configuration) -> list[StepShape]:
    """The shapes of all synchronizations enabled in `config`, a set of
    threads, in the walk's canonical order, built by a throwaway table.
    Senders are bucketed by (channel name, arity), so each receiver meets
    only its own bucket."""
    table = StepTable(index)
    kinds, chan, arg = index.type, index.chan, index.arg
    receivers = []
    senders: dict[tuple, list] = {}
    for t in config:
        l = t.label
        kind = kinds[l]
        if kind == OUTPUT:
            senders.setdefault((t.env[chan[l]], len(arg[l])), []).append(t)
        elif kind in (INPUT, FETCH):
            receivers.append(t)
    shapes = []
    for r in receivers:
        l = r.label
        for s in senders.get((r.env[chan[l]], len(arg[l])), ()):
            shapes.append(table.shape(table.intern(r), table.intern(s)))
    shapes.sort(key=lambda shape: shape.key)
    return shapes


def token_deletions(text: str):
    """`text` with one token deleted, for each token in order."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    for tok in _tokenize(text)[:-1]:
        at = starts[tok.line - 1] + tok.col - 1
        yield text[:at] + text[at + len(tok.text):]


def consumed(index: SystemIndex, shape: StepShape) -> frozenset:
    """The threads a step of `shape` consumes: a FETCH keeps its receiver."""
    if index.type[shape.pair[0]] == FETCH:
        return frozenset({shape.sender})
    return frozenset({shape.receiver, shape.sender})


def launched(shape: StepShape) -> frozenset:
    return frozenset(shape.launched_recv + shape.launched_send)


def dump_thread_sets(configs, stream):
    """`dump_configs` of configurations given as thread sets."""
    threads = list(set().union(*configs))
    ids = {t: i for i, t in enumerate(threads)}
    dump_configs(threads, [sum(1 << ids[t] for t in c) for c in configs], stream)


def step_target(index: SystemIndex, config: Configuration, shape: StepShape) -> Configuration:
    """`config` after a step of `shape`, with `make_config`'s exact site
    check."""
    return make_config((config - consumed(index, shape)) | launched(shape))


def walked(index: SystemIndex, max_configs: int, max_depth: int = 1 << 30) -> Walk:
    """An uninstrumented walk, run to its end."""
    walk = Walk(index, max_configs, max_depth)
    for _ in walk:
        pass
    return walk


def reached(index: SystemIndex, max_configs: int, max_depth: int = 1 << 30) -> set:
    """Configurations an uninstrumented walk admits, bounded by both their
    number and the transition depth."""
    walk = walked(index, max_configs, max_depth)
    return {walk.threads(state) for state in walk.visited}


def walk_steps(index: SystemIndex, max_configs: int) -> list[tuple]:
    """(source, shape, target) of every edge leaving the first `max_configs`
    states an uninstrumented walk admits, in walk order.  A walk bounded by
    `max_configs` would stop at its first refused target and leave most of
    those states unexpanded, so the walk here is unbounded and cut at the
    first edge leaving a later state (sources come in admission order).
    Sources and targets are configurations, as thread sets."""
    walk = Walk(index, sys.maxsize, 1 << 30)
    rank = {walk.initial: 0}
    steps = []
    for source, shape, target, admitted in walk:
        if rank[source] >= max_configs:
            break
        if admitted:
            rank[target] = len(rank)
        steps.append((walk.threads(source), shape, walk.threads(target)))
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


def unit_vector(layout, counts: dict[Label, int], steps: dict) -> dict[int, int]:
    """Sparse count vector of one concrete unit from its label counts and
    step counts: occupancies, step counts and step flags."""
    vec = {layout.x(l): n for l, n in counts.items() if n}
    for pair, n in steps.items():
        if n:
            vec[layout.y(pair)] = n
            vec[layout.z(pair)] = 1
    return vec


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
