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

The transfer function of a synchronization builds a two-sided "molecule" over
tagged variables (v,?)/(v,!), constrains it with the communication equalities
and the partition-case constraints, and projects the result onto each
launched thread's interface.

Only `AtomEnv.make` (and `normalize`, which calls it) and `sync` close a
description into normal form; a transfer closes once, in `sync`.  The other
primitives take normal forms and build normal forms directly: `gc` and
`split` restrict one, `declare` adds a variable distinct from every other,
`extend` adds one labelled with the whole name universe (which meets every
label set), and `pair` merges two sides over disjoint variables, adding the
cross disequalities their label sets imply.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @staticmethod
    def empty() -> "AtomEnv":
        return AtomEnv((), False, {}, frozenset(), frozenset())

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

    def leq(self, other: "AtomEnv") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return (
            all(self.labels[v] <= other.labels[v] for v in self.vars)
            and other.eqs <= self.eqs
            and other.neqs <= self.neqs
        )

    # -- lattice ------------------------------------------------------------

    @staticmethod
    def join_all(elems) -> "AtomEnv":
        elems = [e for e in elems if not e.is_bottom]
        if not elems:
            raise ValueError("join of bottoms needs an explicit variable set")
        first = elems[0]
        if any(e.vars != first.vars for e in elems):
            raise ValueError("join across different variable sets")
        if len(elems) == 1:
            return first
        labels = {
            v: frozenset().union(*(e.labels[v] for e in elems)) for v in first.vars
        }
        eqs = frozenset.intersection(*(e.eqs for e in elems))
        neqs = frozenset.intersection(*(e.neqs for e in elems))
        # pointwise union / intersection of normal forms is normal
        return AtomEnv(first.vars, False, labels, eqs, neqs)

    def join(self, other: "AtomEnv") -> "AtomEnv":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return AtomEnv.join_all([self, other])


def normalize(a: AtomEnv) -> AtomEnv:
    """Re-close an element; idempotent on normal forms."""
    if a.is_bottom:
        return a
    return AtomEnv.make(a.vars, a.labels, a.eqs, a.neqs)


# --- Primitives ------------------------------------------------------------


def declare(x, a: AtomEnv) -> AtomEnv:
    """Bind a new restriction variable: label set {x}, distinct from everything."""
    if a.is_bottom:
        return AtomEnv.bottom(a.vars + (x,))
    assert x not in a.labels
    vars = _sorted(a.vars + (x,))
    i = vars.index(x)
    labels = dict(a.labels)
    labels[x] = frozenset({x})
    neqs = a.neqs | {(v, x) for v in vars[:i]} | {(x, v) for v in vars[i + 1 :]}
    return AtomEnv(vars, False, labels, a.eqs, neqs)


def extend(x, a: AtomEnv, universe) -> AtomEnv:
    """Bind a communicated variable about which nothing is known yet.

    Normal only when `universe` holds every label of `a`, as the name
    universe of a system does."""
    if a.is_bottom or not universe:
        return AtomEnv.bottom(a.vars + (x,))
    assert x not in a.labels
    labels = dict(a.labels)
    labels[x] = frozenset(universe)
    return AtomEnv(_sorted(a.vars + (x,)), False, labels, a.eqs, a.neqs)


def gc(keep, a: AtomEnv) -> AtomEnv:
    """Project onto a variable subset."""
    keep = frozenset(keep)
    assert keep <= set(a.vars), (keep, a.vars)
    if a.is_bottom:
        return AtomEnv.bottom(keep)
    vars = tuple(v for v in a.vars if v in keep)
    labels = {v: a.labels[v] for v in vars}
    eqs = frozenset(p for p in a.eqs if p[0] in keep and p[1] in keep)
    neqs = frozenset(p for p in a.neqs if p[0] in keep and p[1] in keep)
    return AtomEnv(vars, False, labels, eqs, neqs)


def _tag(pairs, role) -> set:
    # one role on both sides keeps a pair's repr order, as does dropping it
    return {((a, role), (b, role)) for a, b in pairs}


def pair(a_recv: AtomEnv, a_send: AtomEnv) -> AtomEnv:
    """Tag both sides and merge into one element over (v,?) / (v,!) variables."""
    recv = tuple((v, RECV) for v in a_recv.vars)
    send = tuple((v, SEND) for v in a_send.vars)
    if a_recv.is_bottom or a_send.is_bottom:
        return AtomEnv.bottom(recv + send)
    vars = _sorted(recv + send)
    rank = {v: i for i, v in enumerate(vars)}
    labels = {(v, RECV): a_recv.labels[v] for v in a_recv.vars}
    labels.update({(v, SEND): a_send.labels[v] for v in a_send.vars})
    eqs = _tag(a_recv.eqs, RECV) | _tag(a_send.eqs, SEND)
    neqs = _tag(a_recv.neqs, RECV) | _tag(a_send.neqs, SEND)
    neqs.update(
        (r, t) if rank[r] < rank[t] else (t, r)
        for r in recv
        for t in send
        if labels[r].isdisjoint(labels[t])
    )
    return AtomEnv(vars, False, labels, frozenset(eqs), frozenset(neqs))


def _project_role(m: AtomEnv, role: str) -> AtomEnv:
    vars = tuple(v[0] for v in m.vars if v[1] == role)
    if m.is_bottom:
        return AtomEnv.bottom(vars)
    labels = {v: m.labels[(v, role)] for v in vars}
    eqs = frozenset((a[0], b[0]) for a, b in m.eqs if a[1] == role and b[1] == role)
    neqs = frozenset((a[0], b[0]) for a, b in m.neqs if a[1] == role and b[1] == role)
    return AtomEnv(vars, False, labels, eqs, neqs)


def split(m: AtomEnv) -> tuple[AtomEnv, AtomEnv]:
    return _project_role(m, RECV), _project_role(m, SEND)


EQ = "eq"
NEQ = "neq"
LBL = "lbl"


def sync(cons, m: AtomEnv) -> AtomEnv:
    """Enforce eq/neq/label constraints, then re-normalize."""
    if m.is_bottom:
        return m
    labels = dict(m.labels)
    eqs = set(m.eqs)
    neqs = set(m.neqs)
    for c in cons:
        tag = c[0]
        if tag == EQ:
            eqs.add((c[1], c[2]))
        elif tag == NEQ:
            if c[1] == c[2]:
                return AtomEnv.bottom(m.vars)
            neqs.add((c[1], c[2]))
        elif tag == LBL:
            labels[c[1]] = labels[c[1]] & {c[2]}
        else:
            raise ValueError(f"unknown constraint {c!r}")
    return AtomEnv.make(m.vars, labels, eqs, neqs)


# --- Per-program-point map ---------------------------------------------------


@dataclass(frozen=True)
class EnvMap:
    """One AtomEnv over I(l) per program point l."""

    table: tuple[tuple[Label, AtomEnv], ...]

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.table))

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

    def is_bottom(self) -> bool:
        # a map over no program points admits the empty configuration
        return bool(self.table) and all(a.is_bottom for _, a in self.table)


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
                a = AtomEnv.empty()
                for x in sorted(self.index.iface[l]):
                    a = declare(x, a)
                entries[l] = a
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

    def leq(self, a: EnvMap, b: EnvMap) -> bool:
        return all(a.get(l).leq(b.get(l)) for l in self.index.labels)

    # -- transfer -----------------------------------------------------------

    def constraints(self, lq: Label, le: Label, case: PartitionCase):
        index, gv = self.index, self.gv
        cons = [(EQ, (index.chan[lq], RECV), (index.chan[le], SEND))]
        for y, x in zip(index.arg[lq], index.arg[le]):
            cons.append((EQ, (y, RECV), (x, SEND)))

        def formal(member, key):
            return (gv.keyvar(member[0], key), member[1])

        if gv.mode == FULL_NAME:
            for c in case.classes:
                members = sorted(c, key=repr)
                for m1, m2 in zip(members, members[1:]):
                    for k in gv.keys:
                        cons.append((EQ, formal(m1, k), formal(m2, k)))
            if len(gv.stable) == 1:
                (k,) = tuple(gv.stable)
                for c1, c2 in combinations(case.classes, 2):
                    for m1 in c1:
                        for m2 in c2:
                            cons.append((NEQ, formal(m1, k), formal(m2, k)))
            for c, unit in case.items():
                for m in c:
                    for ki, k in enumerate(gv.keys):
                        cons.append((LBL, formal(m, k), unit[ki]))
        else:
            # units carry no label data; only identical key variables forced
            # into distinct classes are contradictory
            for c1, c2 in combinations(case.classes, 2):
                for m1 in c1:
                    for m2 in c2:
                        for k in gv.keys:
                            f1, f2 = formal(m1, k), formal(m2, k)
                            if f1 == f2:
                                cons.append((NEQ, f1, f2))
        return cons

    def post_delta(
        self, input0: AtomEnv, output0: AtomEnv, lq: Label, le: Label, case: PartitionCase
    ) -> dict[Label, AtomEnv] | None:
        """Environments of the launched threads, or None when the sub-case is
        unsatisfiable."""
        if input0.is_bottom or output0.is_bottom:
            return None
        index = self.index
        a_recv = input0
        for y in index.arg[lq]:
            a_recv = extend(y, a_recv, self.universe)
        for u in sorted(index.fresh[lq]):
            a_recv = declare(u, a_recv)
        a_send = output0
        for v in sorted(index.fresh[le]):
            a_send = declare(v, a_send)
        mol = pair(a_recv, a_send)
        mol = sync(self.constraints(lq, le, case), mol)
        if mol.is_bottom:
            return None
        mol_recv, mol_send = split(mol)
        delta = {}
        for l in index.beta_cont(lq):
            delta[l] = gc(index.iface[l], mol_recv)
        for l in index.beta_cont(le):
            delta[l] = gc(index.iface[l], mol_send)
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
