"""Every function and method in `src/picount` is reached from production code.

Test-only judges (inclusion tests, raw-element constructors, decoders of a
state) belong in `tests/judges.py`, not in the analyzer.  This test parses
`src/picount`, `scripts/` and `perfbench/` with `ast` and marks what their
code can reach, then names every def of `src/picount` left unmarked.

- The roots are module-level code (imports, constants, class bodies,
  decorators and defaults), every module of `scripts/` and `perfbench/`,
  every dunder method and `cli.main`.
- A module function is reached by a bare name in its own module, by
  `mod.name` where `mod` names a `picount` module, or by
  `from .mod import name`.
- A method is reached by any attribute `.name`.
- A reached def reaches what its body names, nested defs included.

Blind spot: a method whose name is also a live attribute of anything else
is reached by that attribute, so it cannot be seen here.  A dead
`Walk.threads` would hide behind `StepTable.threads`, a dead
`PartitionCase.unit_of` behind `StepTable.unit_of`, and a dead
`EnvMap.is_bottom` behind `AtomEnv.is_bottom`.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = "picount"


def _modules(folder: str) -> dict[str, ast.Module]:
    path = os.path.join(ROOT, folder)
    return {
        name[:-3]: ast.parse(open(os.path.join(path, name), encoding="utf-8").read())
        for name in sorted(os.listdir(path))
        if name.endswith(".py")
    }


def _module_of(node: ast.ImportFrom, src: set[str]) -> str | None:
    """The `picount` module a `from ... import` reads, if any."""
    parts = (node.module or "").split(".")
    if node.level == 0 and parts[0] != PACKAGE:
        return None
    return parts[-1] if parts[-1] in src else None


def _scan(node, home: str, src: set[str]) -> set[tuple]:
    """What the code under `node`, in module `home`, reaches: ("fn", mod,
    name) for a module function, ("attr", name) for any method."""
    aliases = {m: m for m in src}
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            mod = _module_of(n, src)
            for a in n.names:
                if mod is None and a.name in src:  # `from picount import numdom`
                    aliases[a.asname or a.name] = a.name
                elif mod is not None:
                    out.add(("fn", mod, a.name))
        elif isinstance(n, ast.Name):
            out.add(("fn", home, n.id))
        elif isinstance(n, ast.Attribute):
            out.add(("attr", n.attr))
            if isinstance(n.value, ast.Name) and n.value.id in aliases:
                out.add(("fn", aliases[n.value.id], n.attr))
    return out


def _outside_defs(node) -> list:
    """The parts of a module or class body that run when it is loaded."""
    parts = []
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            parts += stmt.decorator_list + stmt.args.defaults + stmt.args.kw_defaults
        elif isinstance(stmt, ast.ClassDef):
            parts += stmt.decorator_list + stmt.bases + _outside_defs(stmt)
        else:
            parts.append(stmt)
    return [p for p in parts if p is not None]


def dead_defs(src: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """Qualified names of the defs in `src` that nothing reaches."""
    names = set(src)
    functions = {}  # (mod, name) -> def
    methods = {}  # (mod, class, name) -> def
    roots = []  # (code, home module)
    for mod, tree in src.items():
        roots += [(part, mod) for part in _outside_defs(tree)]
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions[mod, stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                for d in stmt.body:
                    if isinstance(d, ast.FunctionDef):
                        methods[mod, stmt.name, d.name] = d
                        if d.name.startswith("__") and d.name.endswith("__"):
                            roots.append((d, mod))
    roots.append((functions["cli", "main"], "cli"))
    roots += [(tree, None) for tree in others]

    reached = {id(node) for node, _ in roots}
    work = list(roots)
    while work:
        node, home = work.pop()
        for ref in _scan(node, home, names):
            if ref[0] == "fn":
                found = [(functions.get(ref[1:]), ref[1])]
            else:
                found = [(d, m) for (m, _, name), d in methods.items() if name == ref[1]]
            for d, m in found:
                if d is not None and id(d) not in reached:
                    reached.add(id(d))
                    work.append((d, m))
    dead = [f"{mod}.{name}" for (mod, name), d in functions.items() if id(d) not in reached]
    dead += [f"{c}.{name}" for (_, c, name), d in methods.items() if id(d) not in reached]
    return sorted(dead)


def test_every_src_def_is_reached_from_production_code():
    src = _modules(os.path.join("src", PACKAGE))
    others = [*_modules("scripts").values(), *_modules("perfbench").values()]
    assert dead_defs(src, others) == []


def test_the_judge_names_a_dead_function_and_a_dead_method():
    src = {
        "cli": ast.parse(
            "def main():\n    return used()\n"
            "def used():\n    return C().live()\n"
            "def unused():\n    pass\n"
            "class C:\n    def live(self):\n        pass\n    def dead(self):\n        pass\n"
        )
    }
    assert dead_defs(src, []) == ["C.dead", "cli.unused"]
