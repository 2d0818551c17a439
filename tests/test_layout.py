"""src/ holds the program: every module-level function and class of
src/filmloop is reached, by name, from the program or the benchmark, so is
every method and property of its classes, no name is defined in two of its
modules, and none imports scipy when it is imported itself.  A module's
_-prefixed names are its own: no other module imports them, and no
dataclass takes a _-prefixed field from its caller.  Every program name the
benchmark wraps by string resolves, and its workloads import.

A definition is reached when a reached place names it: module-level code of
src/filmloop (the command table, constants, the __main__ guard), the body of
a reached definition, or any non-test perfbench/*.py file, whose strings
count too (it instruments sites by attribute name).  Import statements in
src/filmloop and the package's __init__ re-exports reach nothing.  A class
member is named when a src/filmloop module or such a perfbench file names
it anywhere.  Test oracles belong in tests/helpers.py.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def unnamed_members():
    """Sorted 'module.Class.member' of the methods and properties of
    src/filmloop classes that no program module or benchmark file names.
    Dunders are exempt, and so are overrides of a library base class (an
    argparse.ArgumentParser's error, say), which the library calls."""
    named, classes = set(), []
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        tree = ast.parse(path.read_text())
        named |= _names([tree])
        classes += [(path.stem, node) for node in tree.body
                    if isinstance(node, ast.ClassDef)]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            named |= _names([ast.parse(path.read_text())], strings=True)
    unnamed = []
    for module, node in classes:
        cls = getattr(importlib.import_module(f"filmloop.{module}"), node.name)
        library = [base for base in cls.__mro__[1:]
                   if not base.__module__.startswith("filmloop")]
        unnamed += [f"{module}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                    and m.name not in named
                    and not any(m.name in vars(base) for base in library)]
    return sorted(unnamed)


def test_every_src_class_member_is_named():
    # a method that only the tests call is a test oracle in the program
    unnamed = unnamed_members()
    assert not unnamed, (
        "methods and properties of src/filmloop classes that no program "
        "module or benchmark file names (move test oracles to "
        "tests/helpers.py, delete the rest): " + ", ".join(unnamed))


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_src_module_imports_another_modules_private_name():
    # a helper another module needs is public, so its owner sees every
    # caller that depends on its float-op order
    found = []
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()           # names bound to filmloop modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("filmloop")):
                package = node.module is None or node.module == "filmloop"
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.name}:{node.lineno} "
                                     f"{alias.name}")
                    elif package:
                        modules.add(alias.asname or alias.name)
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert not found, ("src/filmloop modules reading another module's "
                       "private names: " + ", ".join(found))


def test_no_src_dataclass_takes_a_private_field():
    # a cache or derived value set by its caller can be out of step with
    # the data it is derived from
    found = []
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        module = importlib.import_module(f"filmloop.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(cls):
                found += [f"{path.stem}.{name}.{f.name}"
                          for f in dataclasses.fields(cls)
                          if f.init and f.name.startswith("_")]
    assert not found, ("src/filmloop dataclasses taking a private field "
                       "as an __init__ argument: " + ", ".join(found))


def _import_time_statements(node):
    """The statements under node that run when its module is imported:
    everything but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time_statements(child)


def test_no_src_module_imports_scipy_at_import_time():
    # scipy's import cost `import filmloop.cli` 0.21 s and 28 MB on a
    # 2-core Xeon, even for a command that never uses it; the functions that
    # need a scipy module import it when they run
    found = []
    for path in sorted((ROOT / "src" / "filmloop").glob("*.py")):
        for node in _import_time_statements(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, ("module-level scipy imports in src/filmloop: "
                       + ", ".join(found))


def _load_perfbench(name):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_wraps_resolves():
    # the benchmark replaces these attributes by name, so a program name it
    # wraps (sweep.perturb, say) cannot go without a test noticing
    layers = _load_perfbench("layers")
    sites = [site[:2] for site in layers.SPAN_SITES] + layers.SOLVE_SITES
    missing = [f"{module}.{attr}" for module, attr in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, ("names perfbench/layers.py wraps that the program "
                         "no longer defines: " + ", ".join(missing))
    _load_perfbench("workloads")
