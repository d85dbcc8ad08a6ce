"""Contracts of the package's plain value types: which ones compare and hash
by value, what their constructors check, and their defaults."""

import pytest

from picount import numdom as nd
from picount.analysis import AnalysisConfig, Report
from picount.contents import CUMap
from picount.engine import FixpointResult
from picount.envdom import AtomEnv, EnvMap
from picount.partition import FULL_NAME, MARKER_ONLY, GetVar, PartitionCase
from picount.syntax import SourceError, SystemIndex, load_system


def test_partition_case_equality_ignores_new_unit():
    classes = (frozenset({(1, "?")}), frozenset({(2, "!"), (3, "!")}))
    assign = (("a",), ("b",))
    fresh = PartitionCase(classes, assign, (True, False))
    old = PartitionCase(classes, assign, (False, False))
    assert fresh == old and hash(fresh) == hash(old)
    assert len({fresh, old}) == 1
    assert fresh.new_unit == (True, False)
    assert PartitionCase.make(classes, assign) == old
    assert PartitionCase(classes, (("a",), ("a",)), (False, False)) != old
    assert PartitionCase(classes[::-1], assign, (False, False)) != old


def test_cumap_equal_exactly_when_entries_equal():
    layout = nd.CountLayout((1, 2), ((1, 2),))
    zero, bottom = nd.chi(layout, ()), nd.bottom(layout)
    one = nd.chi(layout, (layout.x(1),))
    a = CUMap(((("u",), one),))
    b = CUMap(((("u",), nd.chi(layout, (layout.x(1),))),))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CUMap(((("v",), one),))
    assert a != CUMap(((("u",), zero),))
    assert a != CUMap(())
    assert CUMap.of({("u",): one, ("v",): bottom}) == a
    assert a.accum(("u",), layout) == one and a.accum(("v",), layout).is_bottom


def test_envmap_equal_exactly_when_entries_equal():
    top = AtomEnv.make(("x",), {"x": frozenset({"n"})}, (), ())
    other = AtomEnv.make(("x",), {"x": frozenset({"m"})}, (), ())
    a = EnvMap.of({2: top, 1: AtomEnv.bottom(["x"])})
    b = EnvMap(((1, AtomEnv.bottom(["x"])), (2, AtomEnv.make(("x",), {"x": frozenset({"n"})}, (), ()))))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != EnvMap.of({2: other, 1: AtomEnv.bottom(["x"])})
    assert a != EnvMap.of({2: top})
    assert a.get(2) == top and a.get(1).is_bottom


def test_count_vars_compare_by_kind_and_ref():
    layout = nd.CountLayout((1, "a"), ((1, "a"),))
    # a counter is its (kind, ref) key
    assert layout.vars == [("x", 1), ("x", "a"), ("y", (1, "a")), ("z", (1, "a"))]
    assert layout.index["y", (1, "a")] == layout.y((1, "a")) == 2
    assert layout.index["z", (1, "a")] == layout.z((1, "a")) == 3
    assert layout.pretty(layout.x("a")) == "xa" and layout.pretty(3) == "z(1,a)"


def test_getvar_checks_mode():
    table = {1: {"b": "a"}}
    assert GetVar(("b",), table).mode == FULL_NAME
    assert GetVar(("b",), table, MARKER_ONLY).mode == MARKER_ONLY
    with pytest.raises(ValueError, match="unknown partition mode"):
        GetVar(("b",), table, "by-colour")


def test_analysis_config_defaults_and_checks():
    config = AnalysisConfig("system.pi")
    assert (
        config.path,
        config.partition,
        config.abstraction,
        config.max_iter,
        config.queries,
        config.max_configs,
        config.max_depth,
        config.trace,
    ) == ("system.pi", "chan", "product", 1000, (), 5000, 1 << 30, False)
    config = AnalysisConfig(path="p.pi", partition="marker", max_iter=3, trace=True)
    assert (config.partition, config.max_iter, config.trace) == ("marker", 3, True)
    with pytest.raises(SourceError, match="max iterations"):
        AnalysisConfig("p.pi", max_iter=0)
    with pytest.raises(SourceError, match="exploration limits"):
        AnalysisConfig("p.pi", max_configs=0)
    with pytest.raises(SourceError, match="exploration limits"):
        AnalysisConfig("p.pi", max_depth=0)


def test_default_lists_are_not_shared():
    reports = [Report("p.pi", "chan", "product", 1, True, [], [], [], []) for _ in range(2)]
    assert reports[0].trace == [] and reports[0].trace is not reports[1].trace
    reports[0].trace.append({"iteration": 1})
    assert reports[1].trace == []
    fixes = [FixpointResult(None, None, 1, True) for _ in range(2)]
    assert fixes[0].trace == [] and fixes[0].trace is not fixes[1].trace
    indexes = [
        SystemIndex((), {}, {}, {}, {}, {}, frozenset(), frozenset(), {}) for _ in range(2)
    ]
    assert indexes[0].warnings == [] and indexes[0].warnings is not indexes[1].warnings
    indexes[0].warnings.append("w")
    assert indexes[1].warnings == []
    # the arity lint fills its own list
    assert load_system("new a, x in (a!1[x] | a?2[])").warnings

