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
Each walk keeps one `StepTable`, which gives each distinct thread and each
(unit, step pair) counter a dense id, so a walk state is two small values:
an `int` bitset over thread ids and a tuple of counts over counter ids.  A
step is its `StepShape`, built once per distinct (receiver, sender) pair:
everything it does apart from the rest of its configuration.  A state's
steps are read off its receiver bits and the sender mask of each one's
(channel, arity) bucket; a target is `(config & ~consumed) | launched`,
checked against the table's per-site masks, and its tally one tuple copy.
Under a unit map the table also keeps each concrete unit's thread mask and
counter ids, so a unit's counts are read straight off a state
(`StepTable.unit_counts`).  `dump_configs` ranks and encodes each distinct
thread once and sorts each configuration once, by rank.

The walk yields every state before the edges leaving it, ends at its first
refused target, and keeps each admitted state's edge in `visited` (see
`Walk`).  The oracle checks each state when it is yielded, so only its
threads not met before and the units its step touched, and reads a
counterexample trace off `visited`.
"""

from __future__ import annotations

import json
import operator

from .syntax import FETCH, OUTPUT, Label, SystemIndex, Var, fmt_label, label_key

Marker = tuple[Label, ...]
Name = tuple[Var, Marker]  # (restriction variable, marker of declaring thread)

EPSILON: Marker = ()


class InternalError(AssertionError):
    """A semantic invariant (marker unambiguity, env totality) was violated."""


class Thread:
    """One running prefix: (label, marker, environment over its interface).
    `site` is (label, marker), which no two threads of one configuration
    share."""

    __slots__ = ("label", "marker", "env", "site", "_key", "_hash")

    def __init__(self, label: Label, marker: Marker, env: dict[Var, Name]):
        self.label, self.marker, self.env = label, marker, env
        self.site = (label, marker)
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
_shape_key = operator.attrgetter("key")


def bit_ids(mask: int) -> list[int]:
    """The ids whose bits are set in `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_sites(threads):
    # names the first repeated site met
    seen = set()
    for t in threads:
        if t.site in seen:
            raise InternalError(f"two threads share (label, marker) {t.site}")
        seen.add(t.site)
    return threads


def make_config(threads) -> Configuration:
    return _check_sites(frozenset(threads))


def launch(index: SystemIndex, labels: frozenset[Label] | tuple[Label, ...], marker: Marker, env: dict[Var, Name]) -> set[Thread]:
    """Threads of `labels` spawned under `marker`: inherited bindings come
    from `env`, every other interface variable is a restriction bound here and
    gets the name (var, marker)."""
    iface = index.iface
    return {Thread(l, marker, {v: env.get(v, (v, marker)) for v in iface[l]}) for l in labels}


def initial_config(index: SystemIndex) -> Configuration:
    return make_config(launch(index, index.root_labels, EPSILON, {}))


class StepShape:
    """One synchronization of `receiver` with `sender`, as all it does apart
    from the rest of its configuration: its label `pair`, the masks of the
    threads it `consumed` ({sender} for a FETCH, else {receiver, sender})
    and `launched`, the threads each side launches, and its canonical order
    key (both labels, then both markers).

    Under a unit map, `units` are the concrete units of the threads the step
    takes part with or launches, each once, in the order of those threads
    (receiver, sender, then launched).  The step adds one to each one's
    (unit, pair) counter; `counters` are those counters' ids, `top` the
    largest plus 1."""

    __slots__ = (
        "receiver", "sender", "pair", "consumed", "launched", "launched_recv",
        "launched_send", "key", "units", "counters", "top",
    )


class StepTable:
    """One id per distinct thread, one `StepShape` per distinct (receiver,
    sender) pair and one order key per marker, built on first use.  With a
    unit map `gv`, one id per (unit, pair) counter, and shapes carry their
    `units`.  A table serves one walk, so the threads and pairs that walk
    meets bound its size.

    Interning a thread sets its bit in its site's mask, in its unit's mask
    (with `gv`) and, by its kind, in `receivers` or in its (channel, arity)
    bucket's sender mask.  `crowded` holds the threads of every site that
    holds more than one."""

    def __init__(self, index: SystemIndex, gv=None):
        self.index, self.gv = index, gv
        self.threads: list[Thread] = []  # by id
        self._ids: dict[Thread, int] = {}
        self._sites: dict[tuple, int] = {}  # site -> mask of its threads
        self.crowded = self.receivers = 0
        self._buckets: dict[tuple[Name, int], int] = {}  # (channel, arity) -> bucket id
        self._senders: list[int] = []  # by bucket id
        self._bucket_of: list[int] = []  # by thread id
        self._shapes: dict[tuple[int, int], StepShape] = {}
        self._marker_keys: dict[Marker, tuple] = {EPSILON: ()}
        self._units: dict[Thread, tuple] = {}  # thread -> its concrete unit
        self._unit_masks: dict[tuple, int] = {}  # unit -> mask of its threads
        self._unit_counters: dict[tuple, list] = {}  # unit -> [(counter id, pair), ...]
        self.counters: dict[tuple, int] = {}  # (unit, pair) -> id, in id order

    def intern(self, t: Thread) -> int:
        """The id of `t`."""
        i = self._ids.get(t)
        if i is None:
            i = self._ids[t] = len(self.threads)
            self.threads.append(t)
            bit, site = 1 << i, self._sites.get(t.site, 0)
            if site:
                self.crowded |= site | bit
            self._sites[t.site] = site | bit
            index, l = self.index, t.label
            bucket = (t.env[index.chan[l]], len(index.arg[l]))
            b = self._buckets.setdefault(bucket, len(self._senders))
            if b == len(self._senders):
                self._senders.append(0)
            self._bucket_of.append(b)
            if index.type[l] == OUTPUT:
                self._senders[b] |= bit
            else:
                self.receivers |= bit
            if self.gv is not None:
                u = self._units[t] = self.gv.concrete_unit(l, t.env)
                self._unit_masks[u] = self._unit_masks.get(u, 0) | bit
        return i

    def members(self, config: int) -> list[Thread]:
        """The threads of `config`, by id."""
        return [self.threads[i] for i in bit_ids(config)]

    def shape(self, recv: int, send: int) -> StepShape:
        shape = self._shapes.get((recv, send))
        if shape is None:
            shape = self._shapes[recv, send] = self._build(self.threads[recv], self.threads[send])
        return shape

    def enabled(self, config: int) -> list[StepShape]:
        """The shapes of all synchronizations enabled in `config`, in a
        canonical order.  Each receiver meets only the senders of its own
        (channel, arity) bucket.  No two threads of `config` share a (label,
        marker), so the order keys are distinct and the order depends on
        neither hashing nor ids."""
        shapes = []
        senders, bucket_of = self._senders, self._bucket_of
        for r in bit_ids(config & self.receivers):
            for s in bit_ids(config & senders[bucket_of[r]]):
                shapes.append(self.shape(r, s))
        shapes.sort(key=_shape_key)
        return shapes

    def target(self, config: int, shape: StepShape) -> int:
        """`config` after a step of `shape`.  Raises `InternalError` when a
        remaining thread shares a site with a launched one."""
        rest = config & ~shape.consumed
        if rest & self.crowded and shape.launched & self.crowded:
            for t in shape.launched_recv + shape.launched_send:
                if rest & self._sites[t.site] & ~shape.launched:
                    raise InternalError(f"two threads share (label, marker) {t.site}")
        return rest | shape.launched

    def _build(self, recv: Thread, send: Thread) -> StepShape:
        index = self.index
        lq, le = recv.label, send.label
        recv_env = {**recv.env, **{y: send.env[x] for y, x in zip(index.arg[lq], index.arg[le])}}
        send_key = self._marker_key_of(send.marker)
        if index.type[lq] == FETCH:
            new_marker: Marker = (le,) + send.marker
            self._marker_keys[new_marker] = (label_key(le),) + send_key
            consumed = (send,)
        else:
            new_marker = recv.marker
            consumed = (recv, send)
        s = StepShape()
        s.receiver, s.sender, s.pair = recv, send, (lq, le)
        s.launched_recv = self._launched(launch(index, index.launched[lq], new_marker, recv_env))
        s.launched_send = self._launched(launch(index, index.launched[le], send.marker, send.env))
        launched = s.launched_recv + s.launched_send
        _check_sites(launched)
        s.consumed, s.launched = self._mask(consumed), self._mask(launched)
        s.key = (label_key(lq), label_key(le), self._marker_key_of(recv.marker), send_key)
        s.units, s.counters, s.top = (), (), 0
        if self.gv is not None:
            s.units = tuple(dict.fromkeys(self._units[t] for t in (recv, send) + launched))
            s.counters = tuple(self._counter(u, s.pair) for u in s.units)
            s.top = max(s.counters) + 1
        return s

    def _counter(self, u: tuple, pair) -> int:
        # the id of counter (u, pair)
        k = self.counters.get((u, pair))
        if k is None:
            k = self.counters[u, pair] = len(self.counters)
            self._unit_counters.setdefault(u, []).append((k, pair))
        return k

    def unit_of(self, t: Thread) -> tuple:
        """Concrete unit of interned `t` under `gv`, computed when it was
        interned."""
        return self._units[t]

    def unit_counts(self, state, u: tuple) -> tuple[dict, dict]:
        """Label counts and step counts of unit `u` in `state`, with no 0."""
        config, tally = state
        counts: dict = {}
        for i in bit_ids(config & self._unit_masks[u]):
            l = self.threads[i].label
            counts[l] = counts.get(l, 0) + 1
        top = len(tally)  # a tally holds no trailing 0
        steps = {p: tally[k] for k, p in self._unit_counters.get(u, ()) if k < top and tally[k]}
        return counts, steps

    def _marker_key_of(self, m: Marker) -> tuple:
        """`_marker_key(m)`, kept per table.  A marker that a FETCH step
        launched got its key when the step was built, from the sender's."""
        return self._marker_keys.get(m) or self._marker_keys.setdefault(m, _marker_key(m))

    def _mask(self, threads) -> int:
        # of distinct interned threads
        return sum(1 << self._ids[t] for t in threads)

    def _launched(self, threads: set[Thread]) -> tuple[Thread, ...]:
        # interned in this order, so ids do not depend on set iteration
        return tuple(self.threads[self.intern(t)] for t in sorted(threads, key=_launch_order))


def _launch_order(t: Thread):
    # threads launched together share one marker and have distinct labels, so
    # this is their `Thread.sort_key` order without building marker keys
    return label_key(t.label)


class Walk:
    """The one bounded breadth-first walk over concrete states, in canonical
    step order.  A state is (configuration, tally): a bitset over the
    table's thread ids, and a tuple over its counter ids, with no trailing
    0, of how often each step pair has involved each concrete unit of `gv`
    (empty without `gv`).  Counts never fall, so equal states are equal
    values; `threads` and `tally` decode one.  Iterating yields every
    explored edge as (source, shape, target, admitted); a new target is
    admitted while fewer than `max_configs` states have been.  The first one
    refused sets `truncated` and is the last edge yielded; a state left at
    `max_depth` with a step to a state not visited sets it too.

    `visited` is the search tree: it maps each admitted state to its
    (source, pair) edge, and `initial` to None.

    Edges are yielded layer by layer, so every source is yielded (as an
    admitted target, or as `initial` before the walk starts) before any of
    its own edges: a consumer that checks each state when it is yielded has
    checked the source of every edge it meets.

    The walk keeps one `StepTable`: every step of one (receiver, sender)
    pair is one shape.  With `gv`, the table computes each distinct thread's
    concrete unit once per walk."""

    def __init__(self, index: SystemIndex, max_configs: int, max_depth: int, gv=None):
        if max_configs <= 0 or max_depth <= 0:
            raise ValueError("exploration limits must be positive")
        self.max_configs, self.max_depth = max_configs, max_depth
        self.table = StepTable(index, gv)
        self.initial = (self.table._mask(self.table._launched(initial_config(index))), ())
        self.visited: dict[tuple, tuple | None] = {self.initial: None}
        self.truncated = False

    def threads(self, state) -> frozenset[Thread]:
        return frozenset(self.table.members(state[0]))

    def tally(self, state) -> dict[tuple, int]:
        """((unit, pair) -> n), with no 0."""
        return {k: n for k, n in zip(self.table.counters, state[1]) if n}

    def __iter__(self):
        frontier = [self.initial]
        depth = 0
        while frontier and depth < self.max_depth:
            depth += 1
            nxt = []
            for source in frontier:
                for shape, target in self._edges(source):
                    new = target not in self.visited
                    admitted = new and len(self.visited) < self.max_configs
                    self.truncated |= new and not admitted
                    if admitted:
                        self.visited[target] = (source, shape.pair)
                        nxt.append(target)
                    yield source, shape, target, admitted
                    if self.truncated:  # nothing after can be admitted
                        return
            frontier = nxt
        if frontier:
            self.truncated = any(t not in self.visited for s in frontier for _, t in self._edges(s))

    def _edges(self, source):
        """(shape, target state) for every step enabled in `source`."""
        config, tally = source
        table = self.table
        for shape in table.enabled(config):
            counts = list(tally) + [0] * (shape.top - len(tally))
            for k in shape.counters:
                counts[k] += 1
            yield shape, (table.target(config, shape), tuple(counts))


# --- Oracle dump (JSON lines, one record per configuration) ---------------


def thread_to_json(t: Thread) -> list:
    env = {v: [n[0], [fmt_label(l) for l in n[1]]] for v, n in sorted(t.env.items())}
    return [fmt_label(t.label), [fmt_label(l) for l in t.marker], env]


def dump_configs(threads, configs, stream):
    # `configs` are bitsets over `threads`.  Each thread present is keyed,
    # ranked and encoded once.  A configuration is then sorted once, as the
    # list of its threads' ranks: ranks follow `Thread.sort_key`, so rank
    # lists order the configurations as their sorted key lists do.  Joining
    # the encodings with ", " is byte-identical to `json.dumps` of the list.
    present = 0
    for c in configs:
        present |= c
    present = sorted(bit_ids(present), key=lambda i: threads[i].sort_key())
    rank = {i: r for r, i in enumerate(present)}
    text = [json.dumps(thread_to_json(threads[i]), sort_keys=True) for i in present]
    for row in sorted(sorted(map(rank.__getitem__, bit_ids(c))) for c in configs):
        stream.write("[" + ", ".join(map(text.__getitem__, row)) + "]\n")
