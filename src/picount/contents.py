"""Occurrence counting per computation unit.

A CUMap covers every abstract computation unit with two pieces: an immutable
`default` element, which accounts for units the analysis never saw get
touched (in particular the all-zero contents of units whose key names were
never even allocated), and one accumulated element per touched unit.  A
concrete unit's instrumented count vector must lie in the accumulation OR in
the default; keeping the two apart instead of joining them is what preserves
creation facts such as "every touched unit was created by exactly one step",
which per-variable boxes plus an affine hull would otherwise dissolve.

The transfer function of a transition sub-case first checks, unit by unit,
that the interacting threads can be present at all; a failed check makes the
whole sub-case infeasible, which is the contents half of the mutual
refinement in the coalesced product.  For each roster class it then rebuilds
the unit's contents: a unit the step creates (the case's `new_unit` flag,
which `partition` decides) restarts from the exact all-zero vector, an
existing unit from the synchronized previous value, and the consumed/created
deltas plus the per-transition step counter apply on top.
"""

from __future__ import annotations

from . import numdom
from .numdom import CountLayout, NumElem
from .partition import GetVar, PartitionCase
from .syntax import INPUT, Label, SystemIndex


class CUMap:
    """Counting view of all abstract computation units.

    `entries` hold the accumulated contents of touched units (absent means
    nothing accumulated yet); `default` covers every unit in its untouched
    life.  Membership is disjunctive: accumulation or default.  Two maps are
    equal when their `default` and `entries` are.
    """

    __slots__ = ("default", "entries", "_map")

    def __init__(self, default: NumElem, entries: tuple[tuple[tuple, NumElem], ...]):
        self.default = default
        self.entries = entries  # sorted by repr(unit), no bottoms
        self._map = dict(entries)

    def __eq__(self, other):
        if type(other) is not CUMap:
            return NotImplemented
        return (self.default, self.entries) == (other.default, other.entries)

    def __hash__(self):
        return hash((self.default, self.entries))

    @staticmethod
    def of(default: NumElem, entries: dict) -> "CUMap":
        kept = tuple(
            (u, e)
            for u, e in sorted(entries.items(), key=lambda kv: repr(kv[0]))
            if not e.is_bottom
        )
        return CUMap(default, kept)

    def accum(self, unit: tuple, layout: CountLayout) -> NumElem:
        return self._map.get(unit, numdom.bottom(layout))

    def units(self) -> tuple:
        return tuple(u for u, _ in self.entries)

    def is_bottom(self) -> bool:
        return self.default.is_bottom and not self.entries


class ContentsDomain:
    """Counting abstraction of one system under one partitioning."""

    def __init__(self, index: SystemIndex, gv: GetVar, layout: CountLayout):
        self.index = index
        self.gv = gv
        self.layout = layout

    def bottom(self) -> CUMap:
        return CUMap(numdom.bottom(self.layout), ())

    def init(self) -> CUMap:
        """Initial threads populate the unit their channel keys name; every
        other unit starts in its untouched (all-zero) life."""
        index, gv, layout = self.index, self.gv, self.layout
        zero = numdom.chi(layout, ())
        by_unit: dict[tuple, list[int]] = {}
        for l in sorted(index.root_labels, key=repr):
            unit = gv.abstract_unit_of_vars({k: gv.keyvar(l, k) for k in gv.keys})
            by_unit.setdefault(unit, []).append(layout.x(l))
        entries = {
            u: numdom.join(layout, [numdom.chi(layout, xs), zero])
            for u, xs in by_unit.items()
        }
        return CUMap.of(zero, entries)

    def join(self, maps, deltas=None) -> CUMap:
        """Join of `maps`, each unit also joined with its list of `deltas`."""
        maps = list(maps)
        if not maps:
            return self.bottom()
        deltas = deltas or {}
        layout = self.layout
        default = numdom.join(layout, [m.default for m in maps])
        keys = {u for m in maps for u in m.units()} | set(deltas)
        entries = {
            u: numdom.join(layout, [m.accum(u, layout) for m in maps] + deltas.get(u, []))
            for u in keys
        }
        return CUMap.of(default, entries)

    def widen(self, a: CUMap, b: CUMap) -> CUMap:
        default = numdom.widen(self.layout, a.default, b.default)
        keys = sorted(set(a.units()) | set(b.units()), key=repr)
        entries = {
            u: numdom.widen(self.layout, a.accum(u, self.layout), b.accum(u, self.layout))
            for u in keys
        }
        return CUMap.of(default, entries)

    def leq(self, a: CUMap, b: CUMap) -> bool:
        if not numdom.leq(a.default, b.default):
            return False
        keys = set(a.units()) | set(b.units())
        return all(
            numdom.leq(a.accum(u, self.layout), b.accum(u, self.layout)) for u in keys
        )

    # -- transfer -----------------------------------------------------------

    def post_delta(
        self, cu: CUMap, lq: Label, le: Label, case: PartitionCase
    ) -> dict[tuple, list[NumElem]] | None:
        """Per-unit contributions of one sub-case, or None when infeasible."""
        index, layout = self.index, self.layout
        interacting = {(lq, "?"), (le, "!")}

        def presence(cls) -> dict[int, int]:
            need: dict[int, int] = {}
            for (l, _role) in cls & interacting:
                xi = layout.x(l)
                need[xi] = need.get(xi, 0) + 1
            return need

        def probes(cls, unit):
            reqs = presence(cls)
            return [
                numdom.sync_atleast(layout, reqs, cu.accum(unit, layout)),
                numdom.sync_atleast(layout, reqs, cu.default),
            ]

        for member in interacting:
            cls = case.class_of(member)
            if all(p.is_bottom for p in probes(cls, case.unit_of(member))):
                return None

        delta: dict[tuple, list[NumElem]] = {}
        for (cls, unit), new_unit in zip(case.items(), case.new_unit):
            if new_unit:
                olds = [numdom.chi(layout, ())]
            else:
                olds = probes(cls, unit)
            consumed = set()
            if index.type[lq] == INPUT and (lq, "?") in cls:
                consumed.add(layout.x(lq))
            if (le, "!") in cls:
                consumed.add(layout.x(le))
            created = {
                layout.x(l) for (l, role) in cls if l != (lq if role == "?" else le)
            }
            for old in olds:
                content = numdom.sub_chi(layout, old, consumed)
                content = numdom.add_chi(layout, content, created)
                content = numdom.update_trans(layout, (lq, le), content)
                if not content.is_bottom:
                    delta.setdefault(unit, []).append(content)
        return delta

    # -- queries --------------------------------------------------------------

    def query(self, cu: CUMap, unit: tuple, expr: dict[int, int], bound: int) -> bool:
        """Entailment over the disjunctive membership: both parts must comply."""
        return numdom.entails(cu.accum(unit, self.layout), expr, bound) and numdom.entails(
            cu.default, expr, bound
        )

    def admits_vector(self, cu: CUMap, unit: tuple, vec: dict[int, int]) -> bool:
        return numdom.contains_point(cu.accum(unit, self.layout), vec) or numdom.contains_point(
            cu.default, vec
        )


def unit_vector(layout: CountLayout, counts: dict[Label, int], steps: dict) -> dict[int, int]:
    """Sparse K-vector of one concrete unit: occupancies, step counts, flags."""
    vec = {layout.x(l): n for l, n in counts.items() if n}
    for pair, n in steps.items():
        if n:
            vec[layout.y(pair)] = n
            vec[layout.z(pair)] = 1
    return vec


def describe_unit(gv: GetVar, unit: tuple) -> str:
    if unit == ("*",):
        return "[*]"
    return "[" + ", ".join(f"{k}={v}" for k, v in zip(gv.keys, unit)) + "]"
