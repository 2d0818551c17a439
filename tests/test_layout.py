"""src/ holds the program: every module-level function and class of
src/filmloop is reached, by name, from the program or the benchmark, and
no name is defined in two of its modules.

A definition is reached when a reached place names it: module-level code of
src/filmloop (the command table, constants, the __main__ guard), the body of
a reached definition, or any non-test perfbench/*.py file, whose strings
count too (it instruments sites by attribute name).  Import statements in
src/filmloop and the package's __init__ re-exports reach nothing.  Test
oracles belong in tests/helpers.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(nodes, strings=False):
    """Identifiers the nodes refer to: names, attributes and imported names,
    and with strings=True every string constant."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name.rsplit(".", 1)[-1])
            elif strings and isinstance(n, ast.Constant) \
                    and isinstance(n.value, str):
                out.add(n.value)
    return out


def unreached_definitions():
    """Sorted 'module.name' of the src/filmloop definitions no reached place
    names."""
    defs = {}                                 # name -> [(module, node)]
    reached = set()
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names([node])
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            reached |= _names([ast.parse(path.read_text())], strings=True)

    done = set()
    todo = reached & defs.keys()
    while todo:
        name = todo.pop()
        done.add(name)
        body = [node for _, node in defs[name]]
        todo |= (_names(body) & defs.keys()) - done
    return sorted(f"{module}.{name}" for name, places in defs.items()
                  if name not in done for module, _ in places)


def test_every_src_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, (
        "definitions in src/filmloop that no command, workload or program "
        "module reaches (move test oracles to tests/helpers.py, delete "
        "the rest): " + ", ".join(unreached))


def test_no_name_is_defined_in_two_src_modules():
    # two definitions of one helper (a component-first _dot, say) can sum
    # in two orders; a module that needs it imports the other's
    modules = {}                              # name -> {module}
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                modules.setdefault(node.name, set()).add(path.stem)
    twice = sorted(f"{name} ({', '.join(sorted(places))})"
                   for name, places in modules.items() if len(places) > 1)
    assert not twice, ("names defined in more than one src/filmloop "
                       "module: " + "; ".join(twice))
