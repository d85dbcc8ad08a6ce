"""End-to-end soundness fuzzing: random small closed systems, analyzed and
cross-checked against bounded concrete exploration.  Any transfer-function
bug that loses a reachable environment or count vector shows up here as a
violation."""

import json
import os
import random
import subprocess
import sys

import pytest

from picount.analysis import verify_configs
from picount.engine import Analysis
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import load_system

from judges import reached


def candidate_system(rng: random.Random) -> str:
    fresh = iter(f"v{i}" for i in range(200))
    top = [next(fresh) for _ in range(rng.randrange(2, 4))]

    def chain(scope, length):
        if length == 0 or not scope:
            return "0"
        chan = rng.choice(scope)
        arity = rng.randrange(0, 3)
        kind = rng.random()
        if kind < 0.5:
            args = [rng.choice(scope) for _ in range(arity)]
            head = f"{chan}![{', '.join(args)}]"
            inner_scope = scope
        else:
            star = "*" if kind < 0.65 else ""
            args = [next(fresh) for _ in range(arity)]
            head = f"{star}{chan}?[{', '.join(args)}]"
            inner_scope = scope + args
        if rng.random() < 0.25:
            v = next(fresh)
            inner_scope = inner_scope + [v]
            rest = chain(inner_scope, length - 1)
            return f"{head}.new {v} in {rest}" if rest != "0" else head
        rest = chain(inner_scope, length - 1)
        return head if rest == "0" else f"{head}.{rest}"

    threads = []
    for _ in range(rng.randrange(3, 6)):
        t = chain(list(top), rng.randrange(1, 4))
        if t == "0":
            continue
        if rng.random() < 0.3:
            t = f"!({t})"
        threads.append(t)
    body = " | ".join(threads) if threads else "0"
    return f"new {', '.join(top)} in ({body})"


def random_system(rng: random.Random) -> str:
    """Rejection-sample until the system actually communicates."""
    for _ in range(40):
        text = candidate_system(rng)
        index = load_system(text)
        if len(reached(index, max_configs=12, max_depth=6)) >= 3:
            return text
    return text  # give up; still a valid system


# seeds 39, 115, 118 and 134 climb forever if widening re-narrows its bounds
WIDENING_SEEDS = (39, 115, 118, 134)


@pytest.mark.parametrize("seed", [*range(24), 42, *WIDENING_SEEDS])
def test_random_systems_are_sound(seed):
    rng = random.Random(20260 + seed)
    text = random_system(rng)
    index = load_system(text)
    for gv in (getvar_channel(index), getvar_marker(index)):
        analysis = Analysis.build(index, gv)
        fix = analysis.run("product", max_iter=300)
        assert fix.stabilized, f"did not stabilize: {text}"
        report = verify_configs(
            analysis,
            fix.env,
            fix.con,
            max_configs=300,
            max_depth=30,
        )
        assert report.violations == [], (text, gv.mode, report.violations[:3])


@pytest.mark.parametrize("seed", [*range(24, 30), *WIDENING_SEEDS])
def test_random_systems_standalone_sound(seed):
    # the single analyses must be sound on their own as well
    rng = random.Random(20260 + seed)
    text = random_system(rng)
    index = load_system(text)
    gv = getvar_channel(index)
    analysis = Analysis.build(index, gv)
    env_fix = analysis.run("env", max_iter=300)
    con_fix = analysis.run("contents", max_iter=300)
    assert env_fix.stabilized and con_fix.stabilized
    report = verify_configs(
        analysis, env_fix.env, con_fix.con, max_configs=200, max_depth=25
    )
    assert report.violations == [], (text, report.violations[:3])


def fuzz_violations(seeds) -> list[list[str]]:
    """Violations of each seed's system against its product iterate after one
    round: far from a fixpoint, so states hold several violations at once."""
    lists = []
    for seed in seeds:
        index = load_system(random_system(random.Random(seed)))
        analysis = Analysis.build(index, getvar_channel(index))
        fix = analysis.run("product", max_iter=1)
        report = verify_configs(
            analysis, fix.env, fix.con, max_configs=300, max_depth=30
        )
        lists.append(report.violations)
    return lists


def test_violation_order_ignores_string_hashing():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, "..", "src"), here])
    code = (
        "import json; from test_fuzz_soundness import fuzz_violations; "
        "print(json.dumps(fuzz_violations(range(20))))"
    )
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert sum(map(len, json.loads(outputs.pop()))) > 20
