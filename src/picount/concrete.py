"""Instrumented concrete semantics.

Threads carry a replication marker and an explicit environment, so recursive
instances stay distinguishable without alpha-conversion: a channel name is the
pair (restriction variable, marker of the declaring thread).  A synchronization
consumes the output thread, consumes the input thread unless it is replicated,
and launches one thread per parallel component of each continuation; threads
launched by a replicated input are tagged with the sender's label prepended to
the sender's marker.

`Walk` is the one deterministic bounded breadth-first walk over reachable
configurations, optionally carrying per-unit step counters; the soundness
oracle (`analysis.verify_configs`) is its only consumer in the package.
Each walk keeps one `StepTable`: equal threads are one object, and what a
step does apart from the rest of its configuration (consumed and launched
threads, canonical order key) is built once per distinct (receiver, sender)
pair.
`enabled_steps` buckets a configuration's senders by (channel, arity), so
each receiver meets only the senders it can synchronize with.  The walk
computes each distinct thread's concrete unit once and each pair's counter
increments once, and a target's counters replace only the step's own keys.
`dump_configs` ranks and encodes each distinct thread once and sorts each
configuration once, by rank.

The walk yields every state before the edges leaving it, and ends at its
first refused target (see `Walk`).  The oracle checks each state when it is
yielded, so only where it differs from its already checked source.
"""

from __future__ import annotations

import json
import operator

from .syntax import (
    FETCH,
    INPUT,
    OUTPUT,
    Label,
    Process,
    SystemIndex,
    Var,
    beta,
    fmt_label,
    label_key,
)

Marker = tuple[Label, ...]
Name = tuple[Var, Marker]  # (restriction variable, marker of declaring thread)

EPSILON: Marker = ()


class InternalError(AssertionError):
    """A semantic invariant (marker unambiguity, env totality) was violated."""


class Thread:
    """One running prefix: (label, marker, environment over its interface).
    `site` is (label, marker), which no two threads of one configuration
    share; `site_hash` is its hash, taken once."""

    __slots__ = ("label", "marker", "env", "site", "site_hash", "_key", "_hash")

    def __init__(self, label: Label, marker: Marker, env: dict[Var, Name]):
        self.label = label
        self.marker = marker
        self.env = env
        self.site = (label, marker)
        self.site_hash = hash(self.site)
        self._key = (label, marker, tuple(sorted(env.items())))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Thread) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        env = ", ".join(f"{v}->{n[0]}@{list(n[1])}" for v, n in sorted(self.env.items()))
        return f"Thread({fmt_label(self.label)}, {list(self.marker)}, [{env}])"

    def sort_key(self):
        env = tuple((v, (n[0], _marker_key(n[1]))) for v, n in self._key[2])
        return (label_key(self.label), _marker_key(self.marker), env)


def _marker_key(m: Marker):
    return tuple(label_key(l) for l in m)


Configuration = frozenset  # of Thread


_site_hash = operator.attrgetter("site_hash")


def make_config(threads) -> Configuration:
    threads = frozenset(threads)
    if len(set(map(_site_hash, threads))) != len(threads):
        # two site hashes agree: a site repeats or two hashes collide, so
        # compare the sites themselves and name the first repeat met
        seen = set()
        for t in threads:
            k = t.site
            if k in seen:
                raise InternalError(f"two threads share (label, marker) {k}")
            seen.add(k)
    return threads


def launch(index: SystemIndex, p: Process, marker: Marker, env: dict[Var, Name]) -> set[Thread]:
    """Threads spawned when `p` starts under `marker`: inherited bindings come
    from `env`, every other interface variable is a restriction bound here and
    gets the name (var, marker)."""
    out = set()
    for l in beta(p):
        e = {}
        for v in index.iface[l]:
            e[v] = env[v] if v in env else (v, marker)
        out.add(Thread(l, marker, e))
    return out


def initial_config(index: SystemIndex) -> Configuration:
    return make_config(launch(index, index.root, EPSILON, {}))


class ConcreteStep:
    """One synchronization of `receiver` with `sender`, from `source` to
    `target`; `pair` is their two labels, and `launched_recv` and
    `launched_send` the threads each side's continuation launches."""

    __slots__ = ("source", "receiver", "sender", "target", "pair", "launched_recv", "launched_send")

    def __init__(self, *, source, receiver, sender, target, pair, launched_recv, launched_send):
        self.source = source
        self.receiver = receiver
        self.sender = sender
        self.target = target
        self.pair = pair
        self.launched_recv = launched_recv
        self.launched_send = launched_send


class StepShape:
    """What a step does that depends only on its receiver and sender: the
    threads it consumes ({sender} for a FETCH, else {receiver, sender}), the
    threads each side launches and their union, and its canonical order key
    (both labels, then both markers)."""

    __slots__ = ("pair", "consumed", "launched_recv", "launched_send", "launched", "key")

    def __init__(self, pair, consumed, launched_recv, launched_send, key):
        self.pair = pair
        self.consumed = consumed
        self.launched_recv = launched_recv
        self.launched_send = launched_send
        self.launched = frozenset(launched_recv + launched_send)
        self.key = key


class StepTable:
    """One object per distinct thread, one `StepShape` per distinct
    (receiver, sender) pair and one order key per marker, built on first use.
    A table serves one walk, so the threads and pairs that walk meets bound
    its size."""

    def __init__(self, index: SystemIndex):
        self.index = index
        self._threads: dict[Thread, Thread] = {}
        self._shapes: dict[tuple[Thread, Thread], StepShape] = {}
        self._marker_keys: dict[Marker, tuple] = {EPSILON: ()}

    def intern(self, t: Thread) -> Thread:
        """The table's one object equal to `t`."""
        return self._threads.setdefault(t, t)

    def shape(self, recv: Thread, send: Thread) -> StepShape:
        shape = self._shapes.get((recv, send))
        if shape is None:
            shape = self._shapes[recv, send] = self._build(recv, send)
        return shape

    def _build(self, recv: Thread, send: Thread) -> StepShape:
        index = self.index
        lq, le = recv.label, send.label
        passed = {y: send.env[x] for y, x in zip(index.arg[lq], index.arg[le])}
        recv_env = dict(recv.env)
        recv_env.update(passed)
        send_key = self._marker_key_of(send.marker)
        if index.type[lq] == FETCH:
            new_marker: Marker = (le,) + send.marker
            self._marker_keys[new_marker] = (label_key(le),) + send_key
            consumed = frozenset({send})
        else:
            new_marker = recv.marker
            consumed = frozenset({recv, send})
        ct_recv = self._launched(launch(index, index.cont[lq], new_marker, recv_env))
        ct_send = self._launched(launch(index, index.cont[le], send.marker, dict(send.env)))
        key = (label_key(lq), label_key(le), self._marker_key_of(recv.marker), send_key)
        return StepShape((lq, le), consumed, ct_recv, ct_send, key)

    def _marker_key_of(self, m: Marker) -> tuple:
        """`_marker_key(m)`, kept per table.  A marker that a FETCH step
        launched got its key when the step was built, from the sender's."""
        key = self._marker_keys.get(m)
        if key is None:
            key = self._marker_keys[m] = _marker_key(m)
        return key

    def _launched(self, threads: set[Thread]) -> tuple[Thread, ...]:
        return tuple(sorted(map(self.intern, threads), key=_launch_order))


def _launch_order(t: Thread):
    # threads launched together share one marker and have distinct labels, so
    # this is their `Thread.sort_key` order without building marker keys
    return label_key(t.label)


def enabled_steps(
    index: SystemIndex, config: Configuration, table: StepTable | None = None
) -> list[ConcreteStep]:
    """All synchronizations enabled in `config`, in a canonical order.  Step
    shapes come from `table`, or from a throwaway one.

    Senders are bucketed by (channel name, arity), so each receiver meets only
    its own bucket.  No two threads of `config` share a (label, marker), so
    the order keys are distinct and the order does not depend on hashing."""
    if table is None:
        table = StepTable(index)
    kinds, chan, arg = index.type, index.chan, index.arg
    receivers = []
    senders: dict[tuple[Name, int], list[Thread]] = {}
    for t in config:
        l = t.label
        kind = kinds[l]
        if kind == OUTPUT:
            senders.setdefault((t.env[chan[l]], len(arg[l])), []).append(t)
        elif kind in (INPUT, FETCH):
            receivers.append(t)
    matches = []
    for r in receivers:
        l = r.label
        for s in senders.get((r.env[chan[l]], len(arg[l])), ()):
            matches.append((table.shape(r, s), r, s))
    matches.sort(key=lambda m: m[0].key)
    return [
        ConcreteStep(
            source=config,
            receiver=r,
            sender=s,
            target=make_config((config - shape.consumed) | shape.launched),
            pair=shape.pair,
            launched_recv=shape.launched_recv,
            launched_send=shape.launched_send,
        )
        for shape, r, s in matches
    ]


class Walk:
    """The one bounded breadth-first walk over concrete states, in canonical
    step order.  A state is a configuration with a frozenset of
    ((unit, pair), n): how often each step pair has involved each concrete
    unit of `gv` (empty without `gv`).  Iterating yields every explored edge
    as (source, step, target, admitted); a new target is admitted while fewer
    than `max_configs` states have been.  The first one refused sets
    `truncated` and is the last edge yielded; a state left at `max_depth`
    with a step to a state not visited sets it too.

    Edges are yielded layer by layer, so every source is yielded (as an
    admitted target, or as `initial` before the walk starts) before any of
    its own edges: a consumer that checks each state when it is yielded has
    checked the source of every edge it meets.

    The walk keeps one `StepTable`: every step of one (receiver, sender) pair
    shares its shape, and equal threads are one object, so set and dict
    lookups of threads compare identities.  `unit_of` computes each distinct
    thread's concrete unit once per walk, and `increments` builds each pair's
    counter keys, ((unit, pair), ...) for the distinct units taking part, once
    per walk.  A target's counters are its source's with just those keys
    replaced, read from one dict of the source's counters per expanded
    source."""

    def __init__(self, index: SystemIndex, max_configs: int, max_depth: int, gv=None):
        if max_configs <= 0 or max_depth <= 0:
            raise ValueError("exploration limits must be positive")
        self.index, self.gv = index, gv
        self.max_configs, self.max_depth = max_configs, max_depth
        self.table = StepTable(index)
        self.initial = (frozenset(map(self.table.intern, initial_config(index))), frozenset())
        self.visited = {self.initial}
        self.truncated = False
        self._units: dict[Thread, tuple] = {}
        self._increments: dict[tuple[Thread, Thread], tuple] = {}

    def __iter__(self):
        frontier = [self.initial]
        depth = 0
        while frontier and depth < self.max_depth:
            depth += 1
            nxt = []
            for source in frontier:
                for step, target in self._edges(source):
                    new = target not in self.visited
                    admitted = new and len(self.visited) < self.max_configs
                    self.truncated |= new and not admitted
                    if admitted:
                        self.visited.add(target)
                        nxt.append(target)
                    yield source, step, target, admitted
                    if self.truncated:  # nothing after can be admitted
                        return
            frontier = nxt
        if frontier:
            self.truncated = any(
                target not in self.visited
                for source in frontier
                for _, target in self._edges(source)
            )

    def _edges(self, source):
        """(step, target state) for every step enabled in `source`."""
        counters = source[1]
        tally = dict(counters)
        for step in enabled_steps(self.index, source[0], self.table):
            yield step, (step.target, self._count(counters, tally, step))

    def _count(self, counters: frozenset, tally: dict, step: ConcreteStep) -> frozenset:
        """`counters` after `step`; `tally` is `dict(counters)`.  Only the
        step's own keys are read and replaced."""
        if self.gv is None:
            return counters
        keys = self.increments(step)
        old = [(k, tally[k]) for k in keys if k in tally]
        return counters.difference(old).union([(k, tally.get(k, 0) + 1) for k in keys])

    def increments(self, step: ConcreteStep) -> tuple:
        """The counter keys ((unit, pair), ...) that `step` adds one to: one
        per distinct unit of the threads it takes part with or launches.
        Built once per (receiver, sender) pair; needs `gv`."""
        increments = self._increments.get((step.receiver, step.sender))
        if increments is None:
            takers = (step.receiver, step.sender, *step.launched_recv, *step.launched_send)
            increments = tuple((u, step.pair) for u in set(map(self.unit_of, takers)))
            self._increments[step.receiver, step.sender] = increments
        return increments

    def unit_of(self, t: Thread) -> tuple:
        """Concrete unit of `t` under `gv`, computed once per distinct thread."""
        u = self._units.get(t)
        if u is None:
            u = self._units[t] = self.gv.concrete_unit(t.label, t.env)
        return u


# --- Oracle dump (JSON lines, one record per configuration) ---------------


def thread_to_json(t: Thread) -> list:
    env = {v: [n[0], [fmt_label(l) for l in n[1]]] for v, n in sorted(t.env.items())}
    return [fmt_label(t.label), [fmt_label(l) for l in t.marker], env]


def dump_configs(configs, stream):
    # each distinct thread is keyed, ranked and encoded once.  A configuration
    # is then sorted once, as the list of its threads' ranks: ranks follow
    # `Thread.sort_key`, so rank lists order the configurations as their
    # sorted key lists do.  Joining the encodings with ", " is byte-identical
    # to `json.dumps` of the whole list.
    threads = sorted(set().union(*configs), key=Thread.sort_key)
    rank = {t: i for i, t in enumerate(threads)}
    text = [json.dumps(thread_to_json(t), sort_keys=True) for t in threads]
    for row in sorted(sorted(map(rank.__getitem__, c)) for c in configs):
        stream.write("[" + ", ".join(map(text.__getitem__, row)) + "]\n")
