"""Outside-in span recorder for the traced run.

The analyzer itself carries no instrumentation.  `instrument` replaces the
public functions of each layer with timing wrappers before the command line
entry point runs, so every call into a layer records a span: name, start,
end and the span open when it was made (its parent).  Spans are kept in
memory in four flat arrays and written out once, when the process ends;
`self_times` then charges each span its duration minus its children's.

Rebinding has to reach every place a function is looked up:

* a module that imported a function by name (`engine` takes
  `enumerate_contexts`, `analysis` takes `enabled_steps`, `step_units`,
  `atom_admits` and `load_system`, `cli` takes `explore` and
  `dump_configs`) holds its own reference, so every `picount` module
  attribute that is the original function object is replaced;
* calls inside `numdom` resolve module globals, which that also covers;
* domain methods are looked up on the class at call time, so they are
  replaced on the class;
* `enumerate_contexts` is a generator: creating it runs no code, so each
  `next` is timed as its own span and each yield counted as one case.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute path, kind); kind "gen" marks a generator function.
TARGETS = [
    ("syntax", "load_system", "call"),
    ("numdom", "affine_from_rows", "call"),
    ("numdom", "_reduce", "call"),
    ("numdom", "affine_entailed", "call"),
    ("numdom", "affine_hull", "call"),
    ("numdom", "join", "call"),
    ("numdom", "widen", "call"),
    ("numdom", "update_trans", "call"),
    ("numdom", "sync_atleast", "call"),
    ("numdom", "entails", "call"),
    ("numdom", "contains_point", "call"),
    ("partition", "enumerate_contexts", "gen"),
    ("envdom", "EnvDomain.post", "call"),
    ("envdom", "EnvDomain.post_delta", "call"),
    ("envdom", "EnvDomain.join", "call"),
    ("envdom", "atom_admits", "call"),
    ("contents", "ContentsDomain.post", "call"),
    ("contents", "ContentsDomain.post_delta", "call"),
    ("contents", "ContentsDomain.join", "call"),
    ("contents", "ContentsDomain.widen", "call"),
    ("engine", "iterate", "call"),
    ("analysis", "verify_configs", "call"),
    ("concrete", "enabled_steps", "call"),
    ("concrete", "step_units", "call"),
    ("concrete", "explore", "call"),
    ("concrete", "dump_configs", "call"),
]

# Counts taken from a layer's return value: span name -> (counter, function).
RESULT_COUNTS = {
    # post_delta returns None exactly when the sub-case is infeasible
    "envdom.EnvDomain.post_delta": ("envdom.post.refuted", lambda r: r is None),
    "contents.ContentsDomain.post_delta": ("contents.post.refuted", lambda r: r is None),
    "engine.iterate": ("engine.iterate.rounds", lambda r: r.iterations),
    "analysis.verify_configs": ("analysis.verify_configs.states", lambda r: r.states_visited),
}


class Recorder:
    """Spans in flat arrays: name id, parent index (-1 at top), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter
        counted = RESULT_COUNTS.get(name)
        counters = self.counters
        if counted:
            counters.setdefault(counted[0], 0)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counted:
                counters[counted[0]] += counted[1](result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, count_key: str):
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter
        counters = self.counters
        counters.setdefault(count_key, 0)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                counters[count_key] += 1
                yield item

        return wrapper

    def write(self, path: str) -> None:
        """Spans as four binary arrays in `path`, names and counts in `path`.json."""
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        meta = {
            "spans": len(self.starts),
            "names": self.names,
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def instrument(rec: Recorder) -> None:
    """Wrap every target that exists in the loaded `picount` modules."""
    modules = [m for n, m in list(sys.modules.items()) if n == "picount" or n.startswith("picount.")]
    for mod_name, path, kind in TARGETS:
        name = f"{mod_name}.{path}"
        mod = sys.modules.get(f"picount.{mod_name}")
        owner_path, _, attr = path.rpartition(".")
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            rec.missing.append(name)
            continue
        if kind == "gen":
            wrapped = rec.wrap_generator(original, name, f"{mod_name}.{attr}.cases")
        else:
            wrapped = rec.wrap(original, name)
        if owner_path:  # a method: replace it on its class
            setattr(owner, attr, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def load(path: str):
    """Read back what `Recorder.write` wrote."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def self_times(meta, arrays) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time in seconds)."""
    name_ids, parents, starts, ends = arrays
    n = meta["spans"]
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, list] = {name: [0, 0.0] for name in meta["names"]}
    names = meta["names"]
    for i in range(n):
        agg = out[names[name_ids[i]]]
        agg[0] += 1
        agg[1] += dur[i] - child[i]
    return {k: (v[0], v[1]) for k, v in out.items()}
