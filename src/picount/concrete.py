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
(unit, step pair) counter a dense id, so a walk state is two ints: a bitset
over thread ids and a tally of fixed-width fields, one per counter id.  A
step is its `StepShape`, built once per distinct (receiver, sender) pair:
everything it does apart from the rest of its configuration.  A state's
steps are read off its receiver bits and the sender mask of each one's
(channel, arity) bucket; a target is `(config & ~consumed) | launched`,
checked against the table's per-site masks, and its tally one int addition
of the shape's increment.  Under a unit map and a counting layout the
table also keeps, per concrete unit, a thread mask per label and the unit's
counter fields, so a unit's count vector is read straight off a state as
one packed int (`StepTable.unit_key`), and decoded only when it is new
(`StepTable.vector`).  `dump_configs` ranks and encodes each distinct
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
    (unit, pair) counter; `inc` is that addition to a tally, one 1 in each
    of those counters' fields (0 without a unit map)."""

    __slots__ = (
        "receiver", "sender", "pair", "consumed", "launched", "launched_recv",
        "launched_send", "key", "units", "inc",
    )


class StepTable:
    """One id per distinct thread, one `StepShape` per distinct (receiver,
    sender) pair and one order key per marker, built on first use.  With a
    unit map `gv`, one id per (unit, pair) counter, and shapes carry their
    `units`.  Counter `k` is the tally field of `width` bits at bit
    `k * width`.  A table serves one walk, so the threads and pairs that
    walk meets bound its size.

    Interning a thread sets its bit in its site's mask and, by its kind, in
    `receivers` or in its (channel, arity) bucket's sender mask.  `crowded`
    holds the threads of every site that holds more than one.  With `gv`
    and a counting `layout` as well, it also sets the bit in its unit's
    mask for its label, and the table keeps each unit's counter fields:
    `unit_key` packs a unit's count vector into fields of `width` bits at
    its layout indices."""

    def __init__(self, index: SystemIndex, gv=None, layout=None, width: int = 1):
        self.index, self.gv, self.layout, self.width = index, gv, layout, width
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
        self.counters: dict[tuple, int] = {}  # (unit, pair) -> id, in id order
        # with `layout`: unit -> ({x field shift of a label: mask of the
        # unit's threads of it}, [(tally shift of one of its counters, y field shift)])
        self._unit_fields: dict[tuple, tuple[dict, list]] = {}

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
                if self.layout is not None:
                    masks = self._unit_fields.setdefault(u, ({}, []))[0]
                    at = self.layout.x(l) * self.width
                    masks[at] = masks.get(at, 0) | bit
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
        s.units, s.inc = (), 0
        if self.gv is not None:
            s.units = tuple(dict.fromkeys(self._units[t] for t in (recv, send) + launched))
            s.inc = sum(1 << self._counter(u, s.pair) * self.width for u in s.units)
        return s

    def _counter(self, u: tuple, pair) -> int:
        # the id of counter (u, pair)
        k = self.counters.get((u, pair))
        if k is None:
            k = self.counters[u, pair] = len(self.counters)
            if self.layout is not None:  # u's threads are interned, so it has its fields
                at = self.layout.y(pair) * self.width
                self._unit_fields[u][1].append((k * self.width, at))
        return k

    def unit_of(self, t: Thread) -> tuple:
        """Concrete unit of interned `t` under `gv`, computed when it was
        interned."""
        return self._units[t]

    def unit_key(self, state, u: tuple) -> int:
        """The count vector of interned unit `u` in `state`, packed: the
        number of its threads of label `l` in the field at `layout.x(l)`,
        its count of steps of `pair` in the field at `layout.y(pair)`.  The
        step flags follow from the step counts, so they are not packed."""
        config, tally = state
        masks, counters = self._unit_fields[u]
        key = 0
        for at, mask in masks.items():
            key |= (config & mask).bit_count() << at
        field = (1 << self.width) - 1
        for k, at in counters:
            key |= (tally >> k & field) << at
        return key

    def vector(self, key: int) -> dict[int, int]:
        """The sparse count vector, by layout index, that `key` packs, with
        the flag of each step count that is not 0."""
        layout, vec = self.layout, {}
        field, i = (1 << self.width) - 1, 0
        while key:
            n = key & field
            if n:
                vec[i] = n
                kind, ref = layout.vars[i]
                if kind == "y":
                    vec[layout.z(ref)] = 1
            key >>= self.width
            i += 1
        return vec

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
    table's thread ids, and an int whose field `k` counts how often the
    step pair of counter `k` has involved its concrete unit of `gv` (0
    without `gv`).  Equal states are equal values.

    Each field is `max_configs.bit_length() + 1` bits wide, which no count
    of an admitted state or of its targets reaches: a step adds at most 1
    to a counter and launches at most one thread of each label, the initial
    configuration holds at most one thread of each label, and no admitted
    state is more than `max_configs - 1` steps deep.  So an edge's tally is
    one int addition that never carries into the next field, and the same
    bound holds for the per-label thread counts that `StepTable.unit_key`
    packs with the same width.

    Iterating yields every
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
    concrete unit once per walk; with a counting `layout` as well, it packs
    unit keys."""

    def __init__(self, index: SystemIndex, max_configs: int, max_depth: int, gv=None, layout=None):
        if max_configs <= 0 or max_depth <= 0:
            raise ValueError("exploration limits must be positive")
        self.max_configs, self.max_depth = max_configs, max_depth
        self.table = StepTable(index, gv, layout, max_configs.bit_length() + 1)
        self.initial = (self.table._mask(self.table._launched(initial_config(index))), 0)
        self.visited: dict[tuple, tuple | None] = {self.initial: None}
        self.truncated = False

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
            yield shape, (table.target(config, shape), tally + shape.inc)


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
