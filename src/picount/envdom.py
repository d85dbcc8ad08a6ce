"""Control-flow (environment) analysis.

Each program point gets an abstraction of the environments its threads may
carry: per-variable sets of admissible name labels (a name's label is the
restriction variable that created it) plus equality and disequality
constraints between variables.  Elements are kept in normal form: equalities
are a closed relation, equal variables share the intersected label set,
disequalities are lifted across equality classes and include every pair with
disjoint label sets, and any contradiction collapses to bottom.  Normal form
makes the emptiness test a lookup, which is what lets unsatisfiable transition
sub-cases annihilate in the coalesced product.

The transfer function of a synchronization describes a two-sided "molecule"
over tagged variables (v,?)/(v,!): both threads' environments, the received
variables, the names each side restricts, the communication equalities and
the partition case's constraints.  `AtomEnv.make` closes that description
into normal form, once per transfer, and `_project` untags one side for each
launched thread.  Every other operation (join, projection) maps normal forms
to normal forms directly.
"""

from __future__ import annotations

from itertools import combinations

from .partition import FULL_NAME, GetVar, PartitionCase
from .syntax import Label, SystemIndex, Var, label_key

RECV = "?"
SEND = "!"


def _sorted(vars) -> tuple:
    """Variables in the canonical order: by repr.  A constraint pair lists its
    lower variable first."""
    return tuple(sorted(vars, key=repr))


class AtomEnv:
    """Label sets plus =/!= constraints over a fixed variable set, in normal form.

    Variables are plain strings at program points and (name, role) pairs
    inside molecules; both sort and compare uniformly via repr.  `vars` must
    come sorted that way (`_sorted`); `bottom` and `make` sort it themselves.
    """

    __slots__ = ("vars", "is_bottom", "labels", "eqs", "neqs", "_hash")

    def __init__(self, vars, is_bottom, labels, eqs, neqs):
        self.vars = vars
        self.is_bottom = is_bottom
        self.labels = labels  # var -> frozenset of name labels
        self.eqs = eqs  # frozenset of canonical pairs, transitively closed
        self.neqs = neqs  # frozenset of canonical pairs, class-lifted
        self._hash = None  # computed on first use: most elements are never hashed

    # -- construction -----------------------------------------------------

    @staticmethod
    def bottom(vars) -> "AtomEnv":
        return AtomEnv(_sorted(vars), True, {}, frozenset(), frozenset())

    @staticmethod
    def make(vars, labels, eqs, neqs) -> "AtomEnv":
        """Normalize an arbitrary description (the closure `rho`)."""
        vars = _sorted(vars)
        rank = {v: i for i, v in enumerate(vars)}
        parent = {v: v for v in vars}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in eqs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        rep = {v: find(v) for v in vars}

        classes: dict = {}
        for v in vars:
            classes.setdefault(rep[v], []).append(v)  # members in var order

        class_labels = {}
        for r, members in classes.items():
            s = frozenset(labels[members[0]])
            for m in members[1:]:
                s &= labels[m]
            if not s:
                return AtomEnv.bottom(vars)
            class_labels[r] = s

        class_neq = {(rep[a], rep[b]) for a, b in neqs}
        if any(ra == rb for ra, rb in class_neq):
            return AtomEnv.bottom(vars)
        for ra, rb in combinations(classes, 2):
            if class_labels[ra].isdisjoint(class_labels[rb]):
                class_neq.add((ra, rb))

        out_labels = {v: class_labels[rep[v]] for v in vars}
        out_eqs = frozenset(p for members in classes.values() for p in combinations(members, 2))
        out_neqs = frozenset(
            (a, b) if rank[a] < rank[b] else (b, a)
            for ra, rb in class_neq
            for a in classes[ra]
            for b in classes[rb]
        )
        return AtomEnv(vars, False, out_labels, out_eqs, out_neqs)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AtomEnv):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if self.is_bottom or other.is_bottom:
            return self.is_bottom == other.is_bottom
        return (
            self.labels == other.labels
            and self.eqs == other.eqs
            and self.neqs == other.neqs
        )

    def __hash__(self):
        if self._hash is None:
            labels = tuple(map(self.labels.get, self.vars))
            self._hash = hash((self.vars, self.is_bottom, labels, self.eqs, self.neqs))
        return self._hash

    def __repr__(self):
        if self.is_bottom:
            return f"AtomEnv.bottom({list(self.vars)})"
        ls = ", ".join(f"{v}:{{{','.join(sorted(map(str, self.labels[v])))}}}" for v in self.vars)
        cons = [f"{a}={b}" for a, b in sorted(self.eqs)] + [f"{a}!={b}" for a, b in sorted(self.neqs)]
        return f"AtomEnv([{ls}] {' '.join(cons)})"

    # -- lattice ------------------------------------------------------------

    def join(self, other: "AtomEnv") -> "AtomEnv":
        # the join of equal normal forms is that normal form; keeping the
        # object lets an unchanged slot pass the next round's identity check
        if other is self or other == self:
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.vars != other.vars:
            raise ValueError("join across different variable sets")
        # pointwise union / intersection of normal forms is normal
        labels = {v: self.labels[v] | other.labels[v] for v in self.vars}
        return AtomEnv(self.vars, False, labels, self.eqs & other.eqs, self.neqs & other.neqs)


def _project(m: AtomEnv, role: str, keep) -> AtomEnv:
    """One side of a molecule, restricted to the variables in `keep` and
    untagged.  Dropping a shared role keeps the repr order of variables and
    of constraint pairs, so the result is a normal form."""
    tagged = {(v, role) for v in keep}
    vars = tuple(v[0] for v in m.vars if v in tagged)
    assert len(vars) == len(tagged), (keep, m.vars)
    labels = {v: m.labels[(v, role)] for v in vars}
    eqs = frozenset((a[0], b[0]) for a, b in m.eqs if a in tagged and b in tagged)
    neqs = frozenset((a[0], b[0]) for a, b in m.neqs if a in tagged and b in tagged)
    return AtomEnv(vars, False, labels, eqs, neqs)


# --- Per-program-point map ---------------------------------------------------


class EnvMap:
    """One AtomEnv over I(l) per program point l; two maps are equal when
    their tables are."""

    __slots__ = ("table", "_map")

    def __init__(self, table: tuple[tuple[Label, AtomEnv], ...]):
        self.table = table
        self._map = dict(table)

    def __eq__(self, other):
        if type(other) is not EnvMap:
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    @staticmethod
    def of(entries: dict[Label, AtomEnv]) -> "EnvMap":
        return EnvMap(tuple(sorted(entries.items(), key=lambda kv: label_key(kv[0]))))

    def get(self, l: Label) -> AtomEnv:
        return self._map[l]

    def labels_of(self, l: Label, var: Var) -> frozenset:
        a = self.get(l)
        if a.is_bottom:
            return frozenset()
        return a.labels[var]


class EnvDomain:
    """Environment abstraction of one system under one partitioning."""

    def __init__(self, index: SystemIndex, gv: GetVar):
        self.index = index
        self.gv = gv
        self.universe = index.name_universe

    # -- lattice packaging -------------------------------------------------

    def bottom(self) -> EnvMap:
        return EnvMap.of({l: AtomEnv.bottom(sorted(self.index.iface[l])) for l in self.index.labels})

    def init(self) -> EnvMap:
        entries = {}
        for l in self.index.labels:
            if l in self.index.root_labels:
                # each root name is its own label; disjoint labels make them distinct
                iface = self.index.iface[l]
                entries[l] = AtomEnv.make(iface, {x: frozenset({x}) for x in iface}, (), ())
            else:
                entries[l] = AtomEnv.bottom(sorted(self.index.iface[l]))
        return EnvMap.of(entries)

    def join(self, maps, deltas=None) -> EnvMap:
        """Pointwise join of `maps` and of each label's list of `deltas`."""
        maps = list(maps)
        if not maps:
            return self.bottom()
        deltas = deltas or {}
        entries = {}
        for l in self.index.labels:
            a = maps[0].get(l)
            for b in [m.get(l) for m in maps[1:]] + deltas.get(l, []):
                a = a.join(b)
            entries[l] = a
        return EnvMap.of(entries)

    def widen(self, a: EnvMap, b: EnvMap) -> EnvMap:
        # each per-label lattice is finite, so join is a widening
        return self.join([a, b])

    # -- transfer -----------------------------------------------------------

    def post_delta(
        self, input0: AtomEnv, output0: AtomEnv, lq: Label, le: Label, case: PartitionCase
    ) -> dict[Label, AtomEnv] | None:
        """Environments of the launched threads, or None when the sub-case is
        unsatisfiable."""
        if input0.is_bottom or output0.is_bottom:
            return None
        index, gv = self.index, self.gv
        labels, eqs, neqs = {}, [], []
        for a, role, l in ((input0, RECV, lq), (output0, SEND, le)):
            side = [(v, role) for v in a.vars]
            labels.update((t, a.labels[t[0]]) for t in side)
            eqs += [((x, role), (y, role)) for x, y in a.eqs]
            neqs += [((x, role), (y, role)) for x, y in a.neqs]
            if role == RECV:
                # a received variable may hold any name
                for y in index.arg[lq]:
                    side.append((y, RECV))
                    labels[(y, RECV)] = self.universe
            # a restricted name is new: distinct from everything on its side
            for u in index.fresh[l]:
                neqs += [((u, role), t) for t in side]
                side.append((u, role))
                labels[(u, role)] = frozenset({u})

        # the communication: one channel, and each argument binds its formal
        eqs.append(((index.chan[lq], RECV), (index.chan[le], SEND)))
        eqs += [((y, RECV), (x, SEND)) for y, x in zip(index.arg[lq], index.arg[le])]

        if gv.mode == FULL_NAME:
            # a unit is the tuple of its members' key names, so a case fixes
            # the label of each key formal and equates them within a class
            def formal(member, key):
                return (gv.keyvar(member[0], key), member[1])

            for c, unit in case.items():
                first, *rest = c
                eqs += [(formal(first, k), formal(m, k)) for m in rest for k in gv.keys]
                for m in c:
                    for k, name in zip(gv.keys, unit):
                        f = formal(m, k)
                        labels[f] = labels[f] & {name}
            if len(gv.keys) == 1:
                # a unit is then its key's name, so distinct units differ on it
                (k,) = gv.keys
                for c1, c2 in combinations(case.classes, 2):
                    neqs += [(formal(m1, k), formal(m2, k)) for m1 in c1 for m2 in c2]

        mol = AtomEnv.make(labels.keys(), labels, eqs, neqs)
        if mol.is_bottom:
            return None
        delta = {}
        for role, l in ((RECV, lq), (SEND, le)):
            for launched in index.launched[l]:
                delta[launched] = _project(mol, role, index.iface[launched])
        return delta


def atom_admits(a: AtomEnv, env: dict) -> bool:
    """Does a concrete environment satisfy an atom's labels and constraints?"""
    if a.is_bottom:
        return False
    for v in a.vars:
        if env[v][0] not in a.labels[v]:
            return False
    for x, y in a.eqs:
        if env[x] != env[y]:
            return False
    for x, y in a.neqs:
        if env[x] == env[y]:
            return False
    return True
