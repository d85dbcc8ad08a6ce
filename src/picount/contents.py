"""Occurrence counting per computation unit.

A CUMap holds one accumulated element per touched unit.  A unit no step has
touched holds no thread and has taken no step, so its contents are the
all-zero vector, which the map does not store: a concrete unit's
instrumented count vector must lie in its unit's accumulation OR be the
zero vector.  Keeping the two apart instead of joining them is what
preserves creation facts such as "every touched unit was created by exactly
one step", which per-variable boxes plus an affine hull would otherwise
dissolve.

The transfer function of a transition sub-case first visits each roster
class once.  A class with an interacting member syncs its unit's
accumulation with its presence requirements (at least one thread at each
interacting label of the class); when that is bottom, the interacting
threads cannot be present and the whole sub-case is infeasible, which is
the contents half of the mutual refinement in the coalesced product.  Only
once no class refutes the sub-case does each class's contents take one
`numdom.transfer`: a unit the step creates (the case's `new_unit`
flag, which `partition` decides) starts from the zero vector, an existing
unit from its synced accumulation and, for a class with no interacting
member, from the zero vector as well.  The presence requirements cover
every counter the class consumes, which is `transfer`'s precondition.
"""

from __future__ import annotations

from . import numdom
from .numdom import CountLayout, NumElem
from .partition import TRIVIAL_UNIT, GetVar, PartitionCase
from .syntax import INPUT, Label, SystemIndex


class CUMap:
    """Counting view of all abstract computation units.

    `entries` hold the accumulated contents of touched units (absent means
    nothing accumulated yet).  Membership is disjunctive: accumulation or
    the zero vector.  Two maps are equal when their `entries` are.
    """

    __slots__ = ("entries", "_map")

    def __init__(self, entries: tuple[tuple[tuple, NumElem], ...]):
        self.entries = entries  # sorted by repr(unit), no bottoms
        self._map = dict(entries)

    def __eq__(self, other):
        if type(other) is not CUMap:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @staticmethod
    def of(entries: dict) -> "CUMap":
        kept = tuple(
            (u, e)
            for u, e in sorted(entries.items(), key=lambda kv: repr(kv[0]))
            if not e.is_bottom
        )
        return CUMap(kept)

    def accum(self, unit: tuple, layout: CountLayout) -> NumElem:
        return self._map.get(unit, numdom.bottom(layout))

    def units(self) -> tuple:
        return tuple(u for u, _ in self.entries)


class ContentsDomain:
    """Counting abstraction of one system under one partitioning."""

    def __init__(self, index: SystemIndex, gv: GetVar, layout: CountLayout):
        self.index = index
        self.gv = gv
        self.layout = layout
        self.zero = numdom.chi(layout, ())  # every untouched unit's contents

    def bottom(self) -> CUMap:
        return CUMap(())

    def init(self) -> CUMap:
        """Initial threads populate the unit their channel keys name; every
        other unit starts untouched, at the zero vector."""
        index, gv, layout = self.index, self.gv, self.layout
        by_unit: dict[tuple, list[int]] = {}
        for l in sorted(index.root_labels, key=repr):
            unit = gv.abstract_unit_of_vars({k: gv.keyvar(l, k) for k in gv.keys})
            by_unit.setdefault(unit, []).append(layout.x(l))
        entries = {
            u: numdom.join(layout, [numdom.chi(layout, xs), self.zero])
            for u, xs in by_unit.items()
        }
        return CUMap.of(entries)

    def join(self, maps, deltas=None, memo=None) -> CUMap:
        """Join of `maps`, each unit also joined with its list of `deltas`.
        `memo`, when given, keeps each unit's last join inputs and result: a
        unit whose inputs equal its last ones reuses that result."""
        maps = list(maps)
        if not maps:
            return self.bottom()
        deltas = deltas or {}
        layout = self.layout
        entries = {}
        for u in {u for m in maps for u in m.units()} | set(deltas):
            inputs = [m.accum(u, layout) for m in maps] + deltas.get(u, [])
            if memo is None:
                entries[u] = numdom.join(layout, inputs)
                continue
            last = memo.get(u)
            if last is None or last[0] != inputs:
                last = memo[u] = (inputs, numdom.join(layout, inputs))
            entries[u] = last[1]
        return CUMap.of(entries)

    def widen(self, a: CUMap, b: CUMap) -> CUMap:
        keys = set(a.units()) | set(b.units())
        entries = {
            u: numdom.widen(self.layout, a.accum(u, self.layout), b.accum(u, self.layout))
            for u in keys
        }
        return CUMap.of(entries)

    # -- transfer -----------------------------------------------------------

    def post_delta(
        self, cu: CUMap, lq: Label, le: Label, case: PartitionCase
    ) -> dict[tuple, list[NumElem]] | None:
        """Per-unit contributions of one sub-case, or None when infeasible."""
        index, layout = self.index, self.layout
        interacting = {(lq, "?"), (le, "!")}

        synced = []  # (class, unit, the elements its contents start from)
        for (cls, unit), new_unit in zip(case.items(), case.new_unit):
            need: dict[int, int] = {}  # the class's interacting threads must be present
            for (l, _role) in cls & interacting:
                xi = layout.x(l)
                need[xi] = need.get(xi, 0) + 1
            old = numdom.sync_atleast(layout, need, cu.accum(unit, layout))
            if need and old.is_bottom:
                return None  # the zero vector holds no interacting thread either
            synced.append(
                (cls, unit, [self.zero] if new_unit else [old] if need else [old, self.zero])
            )
        delta: dict[tuple, list[NumElem]] = {}
        for cls, unit, olds in synced:
            consumed = set()
            if index.type[lq] == INPUT and (lq, "?") in cls:
                consumed.add(layout.x(lq))
            if (le, "!") in cls:
                consumed.add(layout.x(le))
            created = {
                layout.x(l) for (l, role) in cls if l != (lq if role == "?" else le)
            }
            for old in olds:
                content = numdom.transfer(layout, old, consumed, created, (lq, le))
                if not content.is_bottom:
                    delta.setdefault(unit, []).append(content)
        return delta

    # -- queries --------------------------------------------------------------

    def query(self, cu: CUMap, unit: tuple, expr: dict[int, int], bound: int) -> bool:
        """Entailment over the disjunctive membership: the zero vector
        complies iff `bound` >= 0, and the accumulation must comply too."""
        return bound >= 0 and numdom.entails(cu.accum(unit, self.layout), expr, bound)

    def admits_vector(self, cu: CUMap, unit: tuple, vec: dict[int, int]) -> bool:
        return not any(vec.values()) or numdom.contains_point(cu.accum(unit, self.layout), vec)


def describe_unit(gv: GetVar, unit: tuple) -> str:
    if unit == TRIVIAL_UNIT:
        return "[*]"
    return "[" + ", ".join(f"{k}={v}" for k, v in zip(gv.keys, unit)) + "]"
