"""The oracle check against a full-regroup reference, and its work bound.

`verify_configs` checks each admitted state only where it differs from its
source.  The reference below checks every thread and regroups every unit of
every admitted state, deduplicating as `verify_configs` does; the two must
report the same violations in the same order.  The inputs are far from a
fixpoint (one-round product iterates of fuzz systems and of a system whose
steps can leave a unit's threads unchanged, and corrupted semaphore2
fixpoints), so states hold many violations at once.  Walks of 1 to 4 states
pack their counts into the narrowest fields, of 2 to 4 bits.
"""

import random
from functools import partial

import pytest

from picount import numdom as nd
from picount.analysis import AnalysisConfig, run, verify_configs
from picount.concrete import Walk
from picount.contents import CUMap
from picount.engine import Analysis
from picount.envdom import AtomEnv, EnvMap, atom_admits
from picount.partition import GetVar, getvar_channel
from picount.syntax import fmt_label, load_system

from conftest import corpus_path
from judges import num_make, step_units, tally_of, threads_of, unit_vector
from test_fuzz_soundness import random_system


def reference_violations(analysis, env_fix, con_fix, max_configs, max_depth, max_violations=100):
    """Every thread and every unit of every admitted state, checked in full."""
    index, gv, layout = analysis.index, analysis.gv, analysis.layout
    walk = Walk(index, max_configs, max_depth, gv)
    violations, checked_env, checked_vec, parents = [], set(), set(), {}

    def trace_of(state):
        pairs = []
        while state in parents:
            state, pair = parents[state]
            pairs.append(f"({fmt_label(pair[0])},{fmt_label(pair[1])})")
        return " -> ".join(reversed(pairs)) if pairs else "(initial configuration)"

    def check(state):
        new = len(violations)
        config, tally = threads_of(walk, state), tally_of(walk, state).items()
        if env_fix is not None:
            for t in config:
                if t in checked_env:
                    continue
                checked_env.add(t)
                if not atom_admits(env_fix.get(t.label), t.env):
                    violations.append(
                        f"env: thread {t!r} outside abstraction of point "
                        f"{fmt_label(t.label)}; trace {trace_of(state)}"
                    )
        if con_fix is not None:
            steps_of = {}
            for (u, pair), n in tally:
                steps_of.setdefault(u, {})[pair] = n
            counts_of = {}
            for t in config:
                counts = counts_of.setdefault(gv.concrete_unit(t.label, t.env), {})
                counts[t.label] = counts.get(t.label, 0) + 1
            for u in steps_of:
                counts_of.setdefault(u, {})
            for u, counts in counts_of.items():
                steps = steps_of.get(u, {})
                abs_unit = gv.alpha_unit(u)
                key = (abs_unit, frozenset(counts.items()), frozenset(steps.items()))
                if key in checked_vec:
                    continue
                checked_vec.add(key)
                vec = unit_vector(layout, counts, steps)
                if not analysis.con_dom.admits_vector(con_fix, abs_unit, vec):
                    violations.append(
                        f"contents: unit {abs_unit} vector "
                        f"{ {layout.pretty(i): v for i, v in sorted(vec.items())} } rejected; "
                        f"trace {trace_of(state)}"
                    )
        violations[new:] = sorted(violations[new:])
        return len(violations) < max_violations

    if check(walk.initial):
        for source, step, target, admitted in walk:
            if admitted:
                parents[target] = (source, step.pair)
                if not check(target):
                    break
    return violations


def _fuzz_iterate(seed):
    index = load_system(random_system(random.Random(seed)))
    analysis = Analysis.build(index, getvar_channel(index))
    fix = analysis.run("product", max_iter=1)
    return analysis, fix.env, fix.con


def _corrupted_env():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    entries = dict(result.fix.env.table)
    # claim the channel of the replicated receiver is a trigger name
    entries[4] = AtomEnv.make(("a",), {"a": frozenset({"rec@1"})}, frozenset(), frozenset())
    return result.analysis, EnvMap.of(entries), result.fix.con


def _corrupted_root_env():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    entries = dict(result.fix.env.table)
    # claim the root threads' trigger is a semaphore name: the initial state violates
    for l in (1, "1'"):
        entries[l] = AtomEnv.make(("rec@1",), {"rec@1": frozenset({"a"})}, frozenset(), frozenset())
    return result.analysis, EnvMap.of(entries), result.fix.con


def _corrupted_contents():
    result = run(AnalysisConfig(path=corpus_path("semaphore2.pi")))
    lay = result.analysis.layout
    # pretend the semaphore unit never holds more than one pending output
    capped = num_make(lay, [(0, 1) if i == lay.x(2) else (0, 0) for i in range(lay.size)], [])
    return result.analysis, result.fix.env, CUMap.of({("a",): capped})


@pytest.mark.parametrize("seed", range(20))
def test_delta_check_equals_full_regroup_on_fuzz_iterates(seed):
    analysis, env_fix, con_fix = _fuzz_iterate(seed)
    report = verify_configs(analysis, env_fix, con_fix, max_configs=300, max_depth=30)
    expected = reference_violations(analysis, env_fix, con_fix, 300, 30)
    assert expected and report.violations == expected


@pytest.mark.parametrize("make", [_corrupted_env, _corrupted_root_env, _corrupted_contents])
@pytest.mark.parametrize("max_violations", [1, 100])
def test_delta_check_equals_full_regroup_on_corrupted_fixpoints(make, max_violations):
    analysis, env_fix, con_fix = make()
    report = verify_configs(
        analysis, env_fix, con_fix, max_configs=300, max_depth=20, max_violations=max_violations
    )
    expected = reference_violations(analysis, env_fix, con_fix, 300, 20, max_violations)
    assert expected and report.violations == expected


@pytest.mark.parametrize(
    "make",
    [
        _corrupted_env,
        _corrupted_root_env,
        _corrupted_contents,
        *(partial(_fuzz_iterate, seed) for seed in range(8)),
    ],
    ids=["env", "root-env", "contents", *(f"fuzz-{seed}" for seed in range(8))],
)
@pytest.mark.parametrize("max_configs", [1, 2, 3, 4])
def test_delta_check_equals_full_regroup_on_narrow_tally_fields(make, max_configs):
    # a walk of at most 4 states packs its counts into fields of 2 to 4 bits
    analysis, env_fix, con_fix = make()
    report = verify_configs(analysis, env_fix, con_fix, max_configs=max_configs, max_depth=20)
    assert report.violations == reference_violations(analysis, env_fix, con_fix, max_configs, 20)


def test_delta_check_equals_full_regroup_when_a_step_changes_only_counters():
    # the replicated receiver is keyed by its channel and the senders by the
    # name they send, so a step leaves the receiver's unit's threads as they
    # were and changes only that unit's step counters
    index = load_system("new a, b in (*a?[x] | a![b] | a![b])")
    table = {l: {"k": max(index.iface[l])} for l in index.labels}
    analysis = Analysis.build(index, GetVar(("k",), table))
    fix = analysis.run("product", max_iter=1)
    report = verify_configs(analysis, fix.env, fix.con, 300, 30)
    expected = reference_violations(analysis, fix.env, fix.con, 300, 30)
    assert any(v.startswith("contents: unit ('a',)") for v in expected)
    assert report.violations == expected


def test_unit_checks_touch_only_the_units_a_step_touches(monkeypatch, synccomm_index):
    result = run(AnalysisConfig(path=corpus_path("synccomm.pi")))
    analysis, gv = result.analysis, result.analysis.gv
    walk = Walk(synccomm_index, 1000, 1 << 30, gv)
    initial = {gv.concrete_unit(t.label, t.env) for t in threads_of(walk, walk.initial)}
    bound = len(initial) + sum(
        len(set(step_units(step, gv).values())) for _, step, _, admitted in walk if admitted
    )
    calls = []
    original = GetVar.alpha_unit

    def counted(self, unit):
        calls.append(unit)
        return original(self, unit)

    monkeypatch.setattr(GetVar, "alpha_unit", counted)
    report = verify_configs(analysis, result.fix.env, result.fix.con, 1000, 1 << 30)
    assert report.states_visited == 1000 and report.violations == []
    assert 0 < len(calls) <= bound
