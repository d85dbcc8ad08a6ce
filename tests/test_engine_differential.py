"""Differential test of the delta-based iterator against the earlier engine.

`engine_reference` is the earlier engine: generic abstraction specs that copy
a whole element per sub-case and join them all at the end of a round, with
env-only runs enumerated under `TopHint`.  On every system and every kind of
run both must reach the same element in the same number of iterations; a
product run must also tally the same cases, since its enumeration was
already steered by its env component.
"""

import importlib.util
import os
import random
import sys

import pytest

from picount.engine import Analysis
from picount.partition import getvar_channel, getvar_marker
from picount.syntax import load_system

from conftest import corpus_text
from test_fuzz_soundness import random_system

KINDS = ("product", "env", "contents")


def _load_reference():
    # a submodule of picount, so that the file's relative imports resolve
    name = "picount.engine_reference"
    path = os.path.join(os.path.dirname(__file__), "engine_reference.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def assert_same_runs(index, gv):
    new = Analysis.build(index, gv)
    # the same domain objects: both engines call the same transfer functions,
    # which keep no results between calls, so each run recomputes them
    old = ref.Analysis(index, gv, new.layout, new.env_dom, new.con_dom)
    for kind in KINDS:
        fix = new.run(kind, max_iter=300, keep_trace=kind == "product")
        expected = ref.iterate(old.spec(kind), index, gv, 300, keep_trace=kind == "product")
        assert fix.stabilized == expected.stabilized, kind
        assert fix.iterations == expected.iterations, kind
        assert fix.element == expected.element, kind
        assert fix.trace == expected.trace, kind


@pytest.mark.parametrize("name", ["semaphore2.pi", "synccomm.pi"])
def test_corpus_matches_reference(name):
    index = load_system(corpus_text(name))
    assert_same_runs(index, getvar_channel(index))


def test_memory_write_matches_reference(memory_write_index):
    assert_same_runs(memory_write_index, getvar_channel(memory_write_index))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("partition", ["chan", "marker"])
def test_fuzz_systems_match_reference(seed, partition):
    index = load_system(random_system(random.Random(20260 + seed)))
    gv = getvar_channel(index) if partition == "chan" else getvar_marker(index)
    assert_same_runs(index, gv)
