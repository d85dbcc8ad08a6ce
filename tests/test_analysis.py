import gc
import io
import json
import os
import random
import sys

import pytest

from picount import analysis as analysis_module
from picount import cli, concrete, syntax
from picount import numdom as nd
from picount.analysis import (
    AnalysisConfig,
    check_soundness,
    parse_query,
    run,
    verify_configs,
)
from picount.cli import main
from picount.concrete import Thread, thread_to_json
from picount.contents import CUMap
from picount.engine import Analysis
from picount.envdom import AtomEnv, EnvMap
from picount.partition import GetVar, getvar_channel, getvar_marker
from picount.syntax import SourceError

from conftest import corpus_path
from judges import num_make, query_holds, reached, threads_of
from test_fuzz_soundness import random_system


@pytest.fixture(scope="module")
def memory_analysis(memory_index):
    return Analysis.build(memory_index, getvar_channel(memory_index))


def test_parse_mutex_query(memory_analysis):
    x = memory_analysis.layout.x
    # a set: the repeated label counts once
    q = parse_query("mutex unit cell over {2, 6, 10, 6}", memory_analysis)
    assert q.bound == 1 and q.unit == ("cell",)
    assert q.expr == {x(2): 1, x(6): 1, x(10): 1}


def test_parse_linear_query(memory_analysis):
    layout = memory_analysis.layout
    # repeated terms add up
    q = parse_query("unit cell: 2*x@5 + x@9 + 1*y@(1,13) + x@5 <= 3", memory_analysis)
    assert q.bound == 3
    assert q.expr == {layout.x(5): 3, layout.x(9): 1, layout.y((1, 13)): 1}


def test_parse_query_rejects_unknown_label(memory_analysis):
    with pytest.raises(SourceError, match="unknown label"):
        parse_query("mutex unit cell over {2, 99}", memory_analysis)
    with pytest.raises(SourceError):
        parse_query("unit cell 1*x@2 <= 1", memory_analysis)
    with pytest.raises(SourceError):
        parse_query("unit cell: 1*w@2 <= 1", memory_analysis)


def test_parse_query_checks_the_unit_before_the_pairs(memory_analysis):
    # `address` is an input variable, and (2,3) pairs two outputs
    with pytest.raises(SourceError) as info:
        parse_query("unit address: 1*y@(2,3) <= 0", memory_analysis)
    assert str(info.value) == (
        "unit address is not a restriction variable in query 'unit address: 1*y@(2,3) <= 0' at 1:6"
    )


def test_query_unit_and_expr(memory_index, memory_analysis):
    q = parse_query("mutex unit cell over {2,6,10}", memory_analysis)
    assert q.unit == ("cell",)
    marker = Analysis.build(memory_index, getvar_marker(memory_index))
    assert parse_query("mutex unit cell over {2,6,10}", marker).unit == ("*",)


TWOKEY = os.path.join(os.path.dirname(__file__), "data", "twokey.pi")
TWOKEY_FULL = os.path.join(os.path.dirname(__file__), "data", "twokey-full.json")


def test_query_unit_binds_every_key_of_a_full_name_spec():
    # under the two-key full-name spec the sends at 2 sit in unit (a, n) and
    # every other thread in (a, a); `unit a` is (a, a), where x@2 stays 0
    query = "unit a: 1*x@2 <= 0"
    result = run(AnalysisConfig(path=TWOKEY, partition=TWOKEY_FULL, queries=(query,)))
    q = parse_query(query, result.analysis)
    assert result.analysis.gv.keys == ("b1", "b2") and q.unit == ("a", "a")
    assert result.report.queries == [{"query": query, "result": "proved"}]
    assert "[b1=a, b2=a]" in [u["unit"] for u in result.report.units]
    configs = reached(result.analysis.index, max_configs=100)
    assert any(t.label == 2 for c in configs for t in c)
    assert all(query_holds(result.analysis, q, c) for c in configs)


def test_run_memory_proves_mutex():
    result = run(
        AnalysisConfig(
            path=corpus_path("memory.pi"),
            queries=("mutex unit cell over {2,6,10}",),
        )
    )
    assert result.exit_code == 0
    assert result.report.queries[0]["result"] == "proved"
    assert result.report.stabilized


def test_run_unknown_query_exits_one():
    result = run(
        AnalysisConfig(path=corpus_path("memory.pi"), queries=("unit cell: 1*x@5 <= 0",))
    )
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "abstraction, max_iter", [("product", 1000), ("env", 1000), ("product", 1)]
)
def test_run_rejects_a_query_over_a_pair_that_never_steps(abstraction, max_iter):
    # (2,3) pairs two outputs; the semaphore's step pairs are (4,2), (4,3), ...
    query = "unit a: 1*y@(2,3) <= 0"
    config = AnalysisConfig(
        path=corpus_path("semaphore2.pi"), abstraction=abstraction, max_iter=max_iter,
        queries=(query,),
    )
    with pytest.raises(SourceError) as info:
        run(config)
    assert str(info.value) == (
        f"query term y@(2,3) in {query!r}: (2,3) is not a step pair of the system at 1:11"
    )


def test_run_rejects_bad_query_unit():
    with pytest.raises(SourceError, match="restriction variable"):
        run(
            AnalysisConfig(
                path=corpus_path("memory.pi"), queries=("mutex unit address over {2}",)
            )
        )


def test_json_report_deterministic():
    cfg = AnalysisConfig(
        path=corpus_path("semaphore2.pi"),
        queries=("unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2",),
    )
    a = run(cfg).report.to_json()
    b = run(cfg).report.to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["queries"][0]["result"] == "proved"
    assert payload["stabilized"] is True


def test_text_report_mentions_units():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    text = result.report.to_text()
    assert "[b=a]" in text and "stabilized" in text


def test_cli_analyze_exit_codes(capsys):
    assert main(["analyze", corpus_path("semaphore2.pi"), "--prove", "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2"]) == 0
    assert main(["analyze", corpus_path("semaphore2.pi"), "--prove", "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 1"]) == 1
    assert main(["analyze", corpus_path("nosuchfile.pi")]) == 2
    capsys.readouterr()


def test_cli_syntax_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.pi"
    bad.write_text("new x in (x!1[] | x!1[])")
    assert main(["analyze", str(bad)]) == 2
    assert "duplicate label" in capsys.readouterr().err


def test_cli_trace_and_json(capsys):
    code = main(
        ["analyze", corpus_path("semaphore2.pi"), "--report", "json", "--trace"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]
    first = payload["trace"][0]
    assert {"iteration", "posts", "bottom_posts", "pairs"} <= set(first)


def test_cli_oracle_check_with_dump(tmp_path, capsys):
    dump = tmp_path / "oracle.jsonl"
    code = main(
        [
            "oracle-check",
            corpus_path("synccomm.pi"),
            "--max-configs",
            "200",
            "--dump-oracle",
            str(dump),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0 and "violations 0" in out
    lines = dump.read_text().splitlines()
    assert lines and all(json.loads(l) is not None for l in lines)


def _count_calls(monkeypatch, fn):
    """Count calls of `fn` through every `picount` module that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "picount" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_oracle_dump_parses_and_walks_once(tmp_path, capsys, monkeypatch):
    loads = _count_calls(monkeypatch, syntax.load_system)
    walks = _count_calls(monkeypatch, concrete.initial_config)
    expansions = []
    enabled = concrete.StepTable.enabled

    def counted(self, config):
        expansions.append(config)
        return enabled(self, config)

    monkeypatch.setattr(concrete.StepTable, "enabled", counted)
    dump = tmp_path / "oracle.jsonl"
    path = corpus_path("synccomm.pi")
    code = main(["oracle-check", path, "--max-configs", "300", "--dump-oracle", str(dump)])
    assert code == 0
    assert "instrumented states 300" in capsys.readouterr().out
    assert len(loads) == 1 and len(walks) == 1
    assert 0 < len(expansions) <= 300


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("new a in (a![] | a?[].0)", "exhaustive"),
        ("new a in (a![] | a?[].new b in (b![] | b?[].0))", "truncated"),
    ],
)
def test_oracle_depth_limit_truncates_only_with_a_step_left(tmp_path, capsys, text, verdict):
    path = tmp_path / "system.pi"
    path.write_text(text)
    assert main(["oracle-check", str(path), "--max-depth", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"configurations 2 ({verdict})\n")


def members(report, config: int) -> list:
    """The threads of one of `report`'s configurations."""
    return [report.threads[i] for i in concrete.bit_ids(config)]


def _synccomm_oracle_run():
    result = run(AnalysisConfig(path=corpus_path("synccomm.pi")))
    return result.analysis, result.fix.env, result.fix.con


def test_walk_computes_each_thread_unit_once(monkeypatch):
    analysis, env_fix, con_fix = _synccomm_oracle_run()
    # every thread the walk meets sits in the source or the target of an edge
    threads = set()
    walk = concrete.Walk(analysis.index, 300, 1 << 30, analysis.gv)
    for source, _, target, _ in walk:
        threads |= threads_of(walk, source) | threads_of(walk, target)
    calls = []
    original = GetVar.concrete_unit

    def counted(self, label, env):
        calls.append(label)
        return original(self, label, env)

    monkeypatch.setattr(GetVar, "concrete_unit", counted)
    report = verify_configs(analysis, env_fix, con_fix, max_configs=300, max_depth=1 << 30)
    assert report.states_visited == 300 and report.violations == []
    assert 0 < len(calls) <= len(threads)


def test_thread_sort_key_runs_only_in_the_dump_once_per_thread(monkeypatch):
    analysis, env_fix, con_fix = _synccomm_oracle_run()
    keyed = []
    original = Thread.sort_key

    def counted(self):
        keyed.append(self)
        return original(self)

    monkeypatch.setattr(Thread, "sort_key", counted)
    report = verify_configs(analysis, env_fix, con_fix, max_configs=300, max_depth=1 << 30)
    assert keyed == []
    concrete.dump_configs(report.threads, report.configs, io.StringIO())
    assert keyed and len(keyed) == len(set(keyed))
    assert set(keyed) == {t for c in report.configs for t in members(report, c)}


def test_oracle_dump_holds_the_checked_configs(tmp_path, capsys, monkeypatch):
    reports = []

    def keep(config):
        oracle, result = check_soundness(config)
        reports.append(oracle)
        return oracle, result

    monkeypatch.setattr(cli, "check_soundness", keep)
    dump = tmp_path / "oracle.jsonl"
    path = corpus_path("semaphore2.pi")
    assert main(["oracle-check", path, "--max-configs", "400", "--dump-oracle", str(dump)]) == 0
    (oracle,) = reports
    lines = dump.read_text().splitlines()
    checked = {
        json.dumps(
            [thread_to_json(t) for t in sorted(members(oracle, c), key=Thread.sort_key)],
            sort_keys=True,
        )
        for c in oracle.configs
    }
    assert len(lines) == oracle.configs_visited == len(checked)
    assert set(lines) == checked
    assert f"configurations {len(lines)} " in capsys.readouterr().out


def test_check_soundness_clean(semaphore_index):
    oracle, result = check_soundness(
        AnalysisConfig(path=corpus_path("semaphore2.pi"), max_configs=500)
    )
    assert oracle.violations == []
    assert oracle.configs_visited > 50


def test_corrupted_env_fixpoint_is_flagged():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    env = result.fix.env
    # claim the channel of the replicated receiver is a trigger name
    wrong = AtomEnv.make(
        ("a",), {"a": frozenset({"rec@1"})}, frozenset(), frozenset()
    )
    entries = dict(env.table)
    entries[4] = wrong
    corrupted = EnvMap.of(entries)
    report = verify_configs(
        result.analysis, corrupted, result.fix.con, max_configs=300, max_depth=20
    )
    assert any(v.startswith("env:") for v in report.violations)


def test_verify_configs_stops_at_max_violations():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    entries = dict(result.fix.env.table)
    entries[4] = AtomEnv.make(("a",), {"a": frozenset({"rec@1"})}, frozenset(), frozenset())
    corrupted = EnvMap.of(entries)
    full = verify_configs(
        result.analysis, corrupted, result.fix.con, max_configs=300, max_depth=20
    )
    assert len(full.violations) > 1 and full.states_visited == 300
    report = verify_configs(
        result.analysis, corrupted, result.fix.con, max_configs=300, max_depth=20,
        max_violations=1,
    )
    assert report.violations == full.violations[:1]
    assert report.truncated
    assert report.states_visited < full.states_visited


def _set_collector(on: bool):
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("max_violations", [1, 100])
def test_verify_configs_pauses_the_collector_and_restores_it(monkeypatch, collecting, max_violations):
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    entries = dict(result.fix.env.table)
    entries[4] = AtomEnv.make(("a",), {"a": frozenset({"rec@1"})}, frozenset(), frozenset())
    corrupted = EnvMap.of(entries)
    during = []
    original = analysis_module.atom_admits

    def watched(a, env):
        during.append(gc.isenabled())
        return original(a, env)

    monkeypatch.setattr(analysis_module, "atom_admits", watched)
    was = gc.isenabled()
    try:
        _set_collector(collecting)
        report = verify_configs(
            result.analysis, corrupted, result.fix.con, max_configs=300, max_depth=20,
            max_violations=max_violations,
        )
        after = gc.isenabled()
    finally:
        _set_collector(was)
    stopped = len(report.violations) == 1 and report.states_visited < 300
    assert stopped if max_violations == 1 else report.states_visited == 300
    assert during and not any(during)
    assert after == collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_verify_configs_restores_the_collector_when_the_walk_fails(monkeypatch, collecting):
    analysis, env_fix, con_fix = _synccomm_oracle_run()

    def broken(a, env):
        raise KeyError("broken invariant")

    monkeypatch.setattr(analysis_module, "atom_admits", broken)
    was = gc.isenabled()
    try:
        _set_collector(collecting)
        with pytest.raises(KeyError):
            verify_configs(analysis, env_fix, con_fix, max_configs=300, max_depth=20)
        after = gc.isenabled()
    finally:
        _set_collector(was)
    assert after == collecting


def test_corrupted_contents_fixpoint_is_flagged():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    lay = result.analysis.layout
    cu = result.fix.con
    # pretend the semaphore unit never holds more than one pending output
    capped = num_make(
        lay,
        [(0, 1) if i == lay.x(2) else (0, 0) for i in range(lay.size)],
        [],
    )
    corrupted = CUMap.of({("a",): capped})
    report = verify_configs(
        result.analysis, result.fix.env, corrupted, max_configs=300, max_depth=20
    )
    assert any(v.startswith("contents:") for v in report.violations)


def test_partition_spec_cli(tmp_path, semaphore_index):
    spec = {
        "keys": ["b"],
        "mode": "full-name",
        "map": {str(l): {"b": semaphore_index.chan[l]} for l in semaphore_index.labels},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = run(
        AnalysisConfig(
            path=corpus_path("semaphore2.pi"),
            partition=str(path),
            queries=("unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2",),
        )
    )
    assert result.exit_code == 0


def test_a_spec_naming_one_of_two_keys_stable_stays_sound(tmp_path, capsys):
    # fuzz seed 0 keyed by channel and last interface variable: when
    # `stable: ["b1"]` made every two units of a sub-case differ on b1, the
    # oracle found 100 violations at 300 configurations
    text = random_system(random.Random(20260))
    index = syntax.load_system(text)
    system = tmp_path / "seed0.pi"
    system.write_text(text)
    spec = tmp_path / "spec.json"
    table = {
        syntax.fmt_label(l): {"b1": index.chan[l], "b2": sorted(index.iface[l])[-1]}
        for l in index.labels
    }
    spec.write_text(json.dumps({"keys": ["b1", "b2"], "stable": ["b1"], "map": table}))
    argv = ["oracle-check", str(system), "--partition", str(spec), "--max-configs", "300"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "configurations 300 (truncated)" in out and "violations 0" in out
    # the old key still loads, with a warning in the report
    warnings = run(AnalysisConfig(path=str(system), partition=str(spec))).report.warnings
    assert f"partition spec {spec}: unknown key 'stable' is ignored" in warnings


def test_empty_system_report(tmp_path):
    empty = tmp_path / "empty.pi"
    empty.write_text("0\n")
    result = run(AnalysisConfig(path=str(empty)))
    assert result.exit_code == 0
    assert result.report.stabilized
    payload = json.loads(result.report.to_json())
    assert payload["env"] == []
    assert all(u["unit"] == "(untouched)" for u in payload["units"])


def test_env_report_structure():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    entry = next(e for e in result.report.env if e["label"] == "2")
    assert entry["reachable"] and entry["bindings"] == {"a": ["a"]}
    dead = [e for e in result.report.env if not e["reachable"]]
    assert dead == []  # every point of the semaphore is reachable


def test_part_disequalities_only_for_single_key_specs(semaphore_index):
    from picount.envdom import AtomEnv, EnvDomain
    from picount.partition import GetVar, PartitionCase

    # *a?4[].a!5[] meets a!2[]: the continuation 5 keeps the channel a, so a
    # case that gives 5 a unit of its own needs two units that agree on a
    a = AtomEnv.make(("a",), {"a": frozenset({"a"})}, (), ())
    apart = PartitionCase.make(
        (frozenset({(4, "?"), (2, "!")}), frozenset({(5, "?")})), (("a", "a"), ("a", "a"))
    )
    table = {l: {"b1": semaphore_index.chan[l], "b2": semaphore_index.chan[l]}
             for l in semaphore_index.labels}
    gv2 = GetVar(("b1", "b2"), table)
    # two keys: distinct units need only differ on one of them
    assert EnvDomain(semaphore_index, gv2).post_delta(a, a, 4, 2, apart) is not None
    gv1 = GetVar(("b1",), {l: {"b1": semaphore_index.chan[l]} for l in semaphore_index.labels})
    one_key = PartitionCase.make(apart.classes, (("a",), ("a",)))
    # one key: distinct units differ on it, which refutes the case
    assert EnvDomain(semaphore_index, gv1).post_delta(a, a, 4, 2, one_key) is None


def test_marker_mode_run_smoke():
    result = run(
        AnalysisConfig(
            path=corpus_path("semaphore2.pi"),
            partition="marker",
            queries=("unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2",),
        )
    )
    assert result.report.queries[0]["result"] == "proved"


@pytest.mark.parametrize(
    "name,partition,query",
    [
        ("memory.pi", "chan", "mutex unit cell over {2,6,10}"),
        ("semaphore2.pi", "chan", "unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 2"),
        ("dlist.pi", "chan", "mutex unit c0 over {4,15}"),
    ],
)
def test_proved_queries_hold_in_every_explored_config(name, partition, query):
    # meta-test: whatever the analyzer proves, brute-force exploration confirms
    result = run(
        AnalysisConfig(path=corpus_path(name), partition=partition, queries=(query,))
    )
    verdict = result.report.queries[0]["result"]
    if verdict != "proved":
        assert name == "dlist.pi"  # the stretch query may stay unknown
        return
    q = parse_query(query, result.analysis)
    for config in reached(result.analysis.index, max_configs=1500):
        assert query_holds(result.analysis, q, config)


def test_never_proves_what_the_oracle_refutes(semaphore_index):
    # meta-test: a bound the oracle can exceed is reported unknown
    result = run(
        AnalysisConfig(
            path=corpus_path("semaphore2.pi"),
            queries=("unit a: 1*x@2 + 1*x@3 + 1*x@5 <= 1",),
        )
    )
    best = 0
    for config in reached(semaphore_index, max_configs=2000, max_depth=6):
        per = {}
        for t in config:
            if t.label in (2, 3, 5):
                name = t.env[semaphore_index.chan[t.label]]
                per[name] = per.get(name, 0) + 1
        best = max(best, max(per.values(), default=0))
    assert best == 2
    assert result.report.queries[0]["result"] == "unknown"
