"""Test judges over the concrete semantics: the table-free step reference
(`enabled_steps`, `step_target`) over configurations as thread sets, what
an uninstrumented `Walk` reaches and how a walk state decodes (`threads_of`,
`tally_of`), and the partition case a concrete step realizes (which the
partition-completeness tests and the oracle reference check compare with
the abstract enumeration), and whether a configuration keeps a query's
bound.
Also the iteration that posts every pair in every round, which the
change-driven rounds of `engine.iterate` must match, and the token-deletion
mutants that the system and query readers are judged on.
Over the abstract domains: a counting element from raw boxes and rows
(`num_make`), the inclusion tests of each domain (`num_leq`, `atom_leq`,
`envmap_leq`, `cumap_leq`) with `affine_entailed`, the re-closing of an
environment element (`normalize`), the bottom test of an env map
(`envmap_is_bottom`), and the class and unit of a member in a partition
case (`class_of`, `unit_of`).  The analyzer runs none of these."""

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
from picount.envdom import AtomEnv, EnvMap
from picount.numdom import (
    INF,
    Contradiction,
    NumElem,
    _cancel,
    _le,
    _reduce,
    affine_from_rows,
    bottom,
)
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


def threads_of(walk: Walk, state) -> frozenset:
    """The configuration of a walk state, as a thread set."""
    return frozenset(walk.table.members(state[0]))


def tally_of(walk: Walk, state) -> dict[tuple, int]:
    """The step counts of a walk state: ((unit, pair) -> n), with no 0."""
    packed, width = state[1], walk.table.width
    field = (1 << width) - 1
    return {c: n for k, c in enumerate(walk.table.counters) if (n := packed >> k * width & field)}


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
    return {threads_of(walk, state) for state in walk.visited}


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
        steps.append((threads_of(walk, source), shape, threads_of(walk, target)))
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


# --- Abstract domains -------------------------------------------------------


def num_make(layout, ivs, rows) -> NumElem:
    """The counting element of raw boxes and raw rows, reduced."""
    try:
        canon = affine_from_rows(rows)
    except Contradiction:
        return bottom(layout)
    for lo, hi in ivs:
        if lo < 0 or (hi is not INF and lo > hi):
            return bottom(layout)
    return _reduce(layout, tuple(ivs), canon)


def affine_entailed(rows, terms, const) -> bool:
    """Does the canonical system `rows` imply sum(terms) == const?"""
    acc = {i: c for i, c in terms if c}
    pivots = {t[0][0]: (t, c) for t, c in rows}
    for p in [i for i in acc if i in pivots]:
        q, qconst = pivots[p]
        const = _cancel(acc, const, acc[p], q, q[0][1], qconst)
    return not acc and const == 0


def num_leq(a: NumElem, b: NumElem) -> bool:
    """Structural inclusion test of counting elements (sound, not complete)."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    for (alo, ahi), (blo, bhi) in zip(a.ivs, b.ivs):
        if alo < blo or not _le(ahi, bhi):
            return False
    for terms, const in b.rows:
        # a's pinned variables enter b's row as constants
        rest = []
        for i, c in terms:
            lo, hi = a.ivs[i]
            if lo == hi:
                const -= c * lo
            else:
                rest.append((i, c))
        if not affine_entailed(a.rows, rest, const):
            return False
    return True


def cumap_leq(dom, a, b) -> bool:
    """Unit-wise inclusion of two `CUMap`s of the contents domain `dom`."""
    keys = set(a.units()) | set(b.units())
    return all(num_leq(a.accum(u, dom.layout), b.accum(u, dom.layout)) for u in keys)


def atom_leq(a: AtomEnv, b: AtomEnv) -> bool:
    """Inclusion of normal forms over one variable set."""
    if a.is_bottom:
        return True
    if b.is_bottom:
        return False
    return (
        all(a.labels[v] <= b.labels[v] for v in a.vars)
        and b.eqs <= a.eqs
        and b.neqs <= a.neqs
    )


def envmap_leq(dom, a: EnvMap, b: EnvMap) -> bool:
    """Pointwise inclusion of two env maps of the env domain `dom`."""
    return all(atom_leq(a.get(l), b.get(l)) for l in dom.index.labels)


def envmap_is_bottom(m: EnvMap) -> bool:
    # a map over no program points admits the empty configuration
    return bool(m.table) and all(a.is_bottom for _, a in m.table)


def normalize(a: AtomEnv) -> AtomEnv:
    """Re-close an element; idempotent on normal forms."""
    if a.is_bottom:
        return a
    return AtomEnv.make(a.vars, a.labels, a.eqs, a.neqs)


def class_of(case: PartitionCase, member) -> frozenset:
    """The class of `case` that holds `member`."""
    for c in case.classes:
        if member in c:
            return c
    raise KeyError(member)


def unit_of(case: PartitionCase, member) -> tuple:
    """The abstract unit `case` assigns to `member`'s class."""
    for c, a in case.items():
        if member in c:
            return a
    raise KeyError(member)
