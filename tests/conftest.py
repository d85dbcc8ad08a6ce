import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from picount.syntax import load_system

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
# the memory system's writer half, which the benchmark analyzes
MEMORY_WRITE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs", "memory_write.pi")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def corpus_text(name: str) -> str:
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def memory_index():
    return load_system(corpus_text("memory.pi"))


@pytest.fixture(scope="session")
def semaphore_index():
    return load_system(corpus_text("semaphore2.pi"))


@pytest.fixture(scope="session")
def synccomm_index():
    return load_system(corpus_text("synccomm.pi"))


@pytest.fixture(scope="session")
def memory_write_index():
    with open(MEMORY_WRITE, "r", encoding="utf-8") as fh:
        return load_system(fh.read())


@pytest.fixture(scope="session")
def memory_product(memory_index):
    from picount.engine import Analysis
    from picount.partition import getvar_channel

    analysis = Analysis.build(memory_index, getvar_channel(memory_index))
    fix = analysis.run("product")
    assert fix.stabilized
    return analysis, fix
