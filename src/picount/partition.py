"""Thread partitioning and local trace partitioning.

A partitioning strategy maps every program point to a tuple of key variables;
a thread's computation unit is the tuple of channel names (or, in marker-only
mode, just their markers) bound to those variables.  Abstract units erase
markers, giving finitely many classes.

Every synchronization involves the two interacting threads plus all threads
they launch; `enumerate_contexts` splits such a transition into sub-cases
(an equivalence relation over that roster plus an abstract unit per class).
The enumeration is pruned in two semantics-preserving ways:

* members whose key variables are identical once communication equalities are
  applied always share a unit, so they are never separated;
* a class whose members admit no common name label under the supplied
  control-flow hint can only produce a bottom transfer, so it is dropped.

The first pruning, with the roster, depends only on the pair: `pair_plan`
computes it once into a `PairPlan`.  Only the second reads the hint, and
only at the pair's two labels.
"""

from __future__ import annotations

import json
from itertools import product

from .syntax import (
    FETCH,
    INPUT,
    OUTPUT,
    Label,
    SourceError,
    SystemIndex,
    Var,
    fmt_label,
    label_key,
    read_text,
)

FULL_NAME = "full-name"
MARKER_ONLY = "marker-only"

Member = tuple[Label, str]  # (label, '?' or '!')

TRIVIAL_UNIT: tuple = ("*",)


def member_key(m: Member):
    return (0 if m[1] == "?" else 1, label_key(m[0]))


def fmt_member(m: Member) -> str:
    return f"({fmt_label(m[0])},{m[1]})"


class GetVar:
    """Partitioning strategy: per-label key variables and a mode."""

    __slots__ = ("keys", "table", "mode")

    def __init__(
        self, keys: tuple[str, ...], table: dict[Label, dict[str, Var]], mode: str = FULL_NAME
    ):
        if mode not in (FULL_NAME, MARKER_ONLY):
            raise ValueError(f"unknown partition mode {mode}")
        self.keys = keys
        self.table = table
        self.mode = mode

    def keyvar(self, label: Label, key: str) -> Var:
        return self.table[label][key]

    def concrete_unit(self, label: Label, env: dict) -> tuple:
        names = tuple(env[self.table[label][k]] for k in self.keys)
        if self.mode == MARKER_ONLY:
            return tuple(n[1] for n in names)
        return names

    def alpha_unit(self, unit: tuple) -> tuple:
        if self.mode == MARKER_ONLY:
            return TRIVIAL_UNIT
        return tuple(name[0] for name in unit)

    def abstract_unit_of_vars(self, by_key: dict[str, Var]) -> tuple:
        if self.mode == MARKER_ONLY:
            return TRIVIAL_UNIT
        return tuple(by_key[k] for k in self.keys)


def _validated(index: SystemIndex, gv: GetVar) -> GetVar:
    for l in index.labels:
        for k in gv.keys:
            v = gv.table.get(l, {}).get(k)
            if v is None:
                raise SourceError(f"partition map misses key {k} at label {fmt_label(l)}")
            if v not in index.iface[l]:
                raise SourceError(
                    f"partition key {k} at label {fmt_label(l)} names {v}, "
                    f"which is not free there"
                )
    return gv


def getvar_channel(index: SystemIndex) -> GetVar:
    """Single-key strategy grouping threads by the channel they operate on."""
    table = {l: {"b": index.chan[l]} for l in index.labels}
    return _validated(index, GetVar(("b",), table, FULL_NAME))


def getvar_marker(index: SystemIndex) -> GetVar:
    """Group threads by the marker of the declaring instance of their channel."""
    table = {l: {"b": index.chan[l]} for l in index.labels}
    return _validated(index, GetVar(("b",), table, MARKER_ONLY))


def _names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_partition_spec(path: str, index: SystemIndex) -> GetVar:
    """The strategy a JSON spec describes.  Any other top-level key is
    ignored, with a warning in `index.warnings`, so that a spec written for
    an older picount still runs."""
    text = read_text(path, "partition spec")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SourceError(f"partition spec {path} is not JSON", exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise SourceError(f"partition spec {path} must be a JSON object")
    if not _names(raw.get("keys")):
        raise SourceError(f"partition spec {path} needs 'keys' as a list of names")
    if not isinstance(raw.get("map"), dict):
        raise SourceError(f"partition spec {path} needs a 'map' object")
    keys = tuple(raw["keys"])
    mode = raw.get("mode", FULL_NAME)
    table: dict[Label, dict[str, Var]] = {}
    by_text = {fmt_label(l): l for l in index.labels}
    for text, assignment in raw["map"].items():
        if text not in by_text:
            raise SourceError(f"partition spec names unknown label {text}")
        if not (isinstance(assignment, dict) and _names(list(assignment.values()))):
            raise SourceError(f"partition spec {path} must map label {text} to key names")
        table[by_text[text]] = dict(assignment)
    try:
        gv = GetVar(keys, table, mode)
    except ValueError as exc:
        raise SourceError(f"partition spec {path}: {exc}") from exc
    gv = _validated(index, gv)
    for key in sorted(set(raw) - {"keys", "mode", "map"}):
        index.warnings.append(f"partition spec {path}: unknown key {key!r} is ignored")
    return gv


# --- Step rosters and partition cases -------------------------------------


def step_roster(index: SystemIndex, lq: Label, le: Label) -> tuple[Member, ...]:
    """The 2 + n? + n! threads taking part in a (lq, le) synchronization."""
    recv = [(lq, "?")] + [(l, "?") for l in index.launched[lq]]
    send = [(le, "!")] + [(l, "!") for l in index.launched[le]]
    return tuple(recv + send)


class PartitionCase:
    """Equivalence classes over a step roster, each tagged with its abstract
    unit and with whether the step creates that unit (`new_unit`).  The flag
    follows from the classes and the step pair, so equality ignores it."""

    __slots__ = ("classes", "assign", "new_unit")

    def __init__(
        self, classes: tuple[frozenset, ...], assign: tuple[tuple, ...], new_unit: tuple[bool, ...]
    ):
        self.classes = classes
        self.assign = assign
        self.new_unit = new_unit

    def __eq__(self, other):
        if type(other) is not PartitionCase:
            return NotImplemented
        return (self.classes, self.assign) == (other.classes, other.assign)

    def __hash__(self):
        return hash((self.classes, self.assign))

    @staticmethod
    def make(classes, assign, new_unit=None) -> "PartitionCase":
        new_unit = new_unit or (False,) * len(classes)
        order = sorted(range(len(classes)), key=lambda i: min(member_key(m) for m in classes[i]))
        return PartitionCase(
            tuple(classes[i] for i in order),
            tuple(assign[i] for i in order),
            tuple(new_unit[i] for i in order),
        )

    def items(self):
        return zip(self.classes, self.assign)


class TopHint:
    """No control-flow information: any restriction name fits anywhere."""

    def __init__(self, universe):
        self.universe = frozenset(universe)

    def labels_of(self, label: Label, var: Var):
        return self.universe


class _UF:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _com_classes(index: SystemIndex, lq: Label, le: Label) -> _UF:
    """Formal variables identified by the synchronization itself."""
    uf = _UF()
    uf.union((index.chan[lq], "?"), (index.chan[le], "!"))
    for y, x in zip(index.arg[lq], index.arg[le]):
        uf.union((y, "?"), (x, "!"))
    return uf


def _candidates(index, gv, hint, lq: Label, le: Label, member: Member, key: str):
    """Name labels the hint allows for this member's key variable.  Only
    full-name mode asks: marker-only units carry no labels."""
    l, role = member
    parent = lq if role == "?" else le
    v = gv.keyvar(l, key)
    if l == parent:
        return hint.labels_of(parent, v)
    if v in index.fresh[parent]:
        return frozenset({v})
    if role == "?" and v in index.arg[lq]:
        x = index.arg[le][index.arg[lq].index(v)]
        return hint.labels_of(le, x)
    if v in index.iface[parent]:
        return hint.labels_of(parent, v)
    raise AssertionError(f"key variable {v} of {fmt_member(member)} has no source")


def _fresh_kinds(index, gv, lq, le, members) -> set:
    """Per member and key: the member's role when the key variable is a name
    its parent's continuation restricts, else "old"."""
    kinds = set()
    for (l, role) in members:
        parent = lq if role == "?" else le
        for k in gv.keys:
            kinds.add(role if gv.keyvar(l, k) in index.fresh[parent] else "old")
    return kinds


def _new_unit_roles(index, gv, lq) -> frozenset:
    """Roles whose just-restricted names key a unit the step creates.  Under
    full-name mode a restricted name is a unit of its own.  Under marker-only
    mode its unit is its marker, and the only new marker is the one a
    replicated receiver mints for its continuation, longer than any live one;
    every other continuation keeps its parent's marker."""
    if gv.mode == FULL_NAME:
        return frozenset("?!")
    return frozenset("?") if index.type[lq] == FETCH else frozenset()


def _forced_groups(index, gv, lq, le, roster):
    """Pre-merge roster members that provably share a unit, record pairs of
    groups that provably differ (marker-only mode, replicated receivers), and
    flag the groups keyed by a name of a unit the step creates."""
    uf = _com_classes(index, lq, le)

    def signature(m: Member):
        l, role = m
        return tuple(uf.find((gv.keyvar(l, k), role)) for k in gv.keys)

    groups: dict[tuple, list[Member]] = {}
    for m in roster:
        groups.setdefault(signature(m), []).append(m)
    group_list = [tuple(ms) for _, ms in sorted(groups.items(), key=lambda kv: str(kv[0]))]
    fresh_kind = [_fresh_kinds(index, gv, lq, le, ms) for ms in group_list]
    new_roles = _new_unit_roles(index, gv, lq)

    forced_apart: set[tuple[int, int]] = set()
    if gv.mode == MARKER_ONLY:
        # Names restricted inside a continuation all carry that launch's marker,
        # so members keyed by them collapse; a group keyed only by names of a
        # new unit differs from every group keyed by pre-existing names.
        merged = _UF()
        for i, ki in enumerate(fresh_kind):
            for j in range(i + 1, len(group_list)):
                if ki == {"?"} and fresh_kind[j] == {"?"}:
                    merged.union(i, j)
                if ki == {"!"} and fresh_kind[j] == {"!"}:
                    merged.union(i, j)
        regroup: dict[int, list[Member]] = {}
        for i, ms in enumerate(group_list):
            regroup.setdefault(merged.find(i), []).extend(ms)
        group_list = [tuple(ms) for _, ms in sorted(regroup.items())]
        fresh_kind = [_fresh_kinds(index, gv, lq, le, ms) for ms in group_list]
        if "?" in new_roles:
            for i, ki in enumerate(fresh_kind):
                for j in range(i + 1, len(group_list)):
                    kj = fresh_kind[j]
                    if (ki == {"?"} and "?" not in kj) or (kj == {"?"} and "?" not in ki):
                        forced_apart.add((i, j))
    return group_list, forced_apart, [bool(new_roles & k) for k in fresh_kind]


def _merged_cand(cand, block):
    """Per key, the name labels every group of the block admits; None when a
    key is left with none."""
    per_key = []
    for ki in range(len(cand[block[0]])):
        cs = None
        for g in block:
            c = cand[g][ki]
            cs = c if cs is None else cs & c
        if not cs:
            return None
        per_key.append(cs)
    return per_key


def _partitions(i, blocks, n, forced_apart, cand):
    """Restricted-growth enumeration of the partitions of groups i..n-1 into
    `blocks` (extended in place).  A group never shares a block with a group
    it is forced apart from, nor, unless `cand` is None, with groups that
    leave a key without a common label."""
    if i == n:
        yield [list(b) for b in blocks]
        return
    for b in blocks:
        if any((g, i) in forced_apart for g in b):
            continue
        b.append(i)
        if cand is None or _merged_cand(cand, b) is not None:
            yield from _partitions(i + 1, blocks, n, forced_apart, cand)
        b.pop()
    blocks.append([i])
    yield from _partitions(i + 1, blocks, n, forced_apart, cand)
    blocks.pop()


class PairPlan:
    """What the enumeration of one receiver/sender pair's sub-cases needs
    that no hint changes: the step roster split into its forced groups
    (`groups`, each a tuple of members), the pairs of group indices
    `forced_apart`, and per group whether it is keyed by a name of a unit
    the step creates (`group_new`).  Built once per pair and analysis by
    `pair_plan`."""

    __slots__ = ("index", "gv", "lq", "le", "groups", "forced_apart", "group_new")

    def __init__(self, index, gv, lq, le, groups, forced_apart, group_new):
        self.index = index
        self.gv = gv
        self.lq = lq
        self.le = le
        self.groups = groups
        self.forced_apart = forced_apart
        self.group_new = group_new


def pair_plan(index: SystemIndex, gv: GetVar, lq: Label, le: Label) -> PairPlan:
    """The plan of the (lq, le) transition."""
    if index.type[lq] not in (INPUT, FETCH) or index.type[le] != OUTPUT:
        raise ValueError(f"({fmt_label(lq)},{fmt_label(le)}) is not a receiver/sender pair")
    if len(index.arg[lq]) != len(index.arg[le]):
        raise ValueError("arity mismatch")
    groups, forced_apart, group_new = _forced_groups(index, gv, lq, le, step_roster(index, lq, le))
    return PairPlan(index, gv, lq, le, groups, forced_apart, group_new)


def enumerate_contexts(plan: PairPlan, hint):
    """Yield the partition cases of the plan's transition that the hint does
    not trivially contradict, deterministically.  The hint is read only at
    the pair's two labels."""
    index, gv, lq, le = plan.index, plan.gv, plan.lq, plan.le
    groups, forced_apart, group_new = plan.groups, plan.forced_apart, plan.group_new

    cand = None  # marker-only units carry no labels
    if gv.mode == FULL_NAME:
        cand = []
        for ms in groups:
            per_key = []
            for k in gv.keys:
                cs = None
                for m in ms:
                    c = _candidates(index, gv, hint, lq, le, m, k)
                    cs = c if cs is None else cs & c
                per_key.append(cs)
            if any(not c for c in per_key):
                return  # a mandatory class has no admissible unit: every case is bottom
            cand.append(per_key)

    for blocks in _partitions(0, [], len(groups), forced_apart, cand):
        classes = tuple(
            frozenset(m for g in block for m in groups[g]) for block in blocks
        )
        new_unit = tuple(any(group_new[g] for g in block) for block in blocks)
        if cand is None:
            yield PartitionCase.make(classes, tuple(TRIVIAL_UNIT for _ in classes), new_unit)
            continue
        # every admissible label choice per class and key, in sorted order
        units = [product(*map(sorted, _merged_cand(cand, block))) for block in blocks]
        for assign in product(*units):
            yield PartitionCase.make(classes, assign, new_unit)
