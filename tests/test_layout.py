"""Every module-level function and class in src/planalg, and every method
other than a dunder, has a caller there; every process-global cache is
named in README's "Performance notes".

Code that only tests call belongs in the tests; code nothing calls goes.
A name counts as used when another top-level statement anywhere in the
package refers to it (a recursive call inside its own body does not
count).  A method counts as used when the package reads an attribute of
its name anywhere outside its own body.
"""

import ast
import re
import tomllib
from pathlib import Path

import planalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planalg"

# name -> why it stays in src/ without a caller there
ALLOWED = {
    "annular_norm_bound": "the paper's annular norm lemma, checked by the tests",
    "op_norm": "perfbench's tracer and the tests call it",
}


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _entry_points() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    return {target.rpartition(":")[2] for target in scripts.values()}


def _modules() -> list:
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _unused() -> set:
    """Top-level definitions no other top-level statement of the package uses."""
    definitions = []        # (module, name, defining statement)
    statements = []         # every top-level statement of the package
    for module, tree in _modules():
        for stmt in tree.body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((module, stmt.name, stmt))
    uses = [(stmt, _referenced(stmt)) for stmt in statements]
    return {(module, name) for module, name, node in definitions
            if not any(name in refs for stmt, refs in uses if stmt is not node)}


def _unused_methods() -> set:
    """(module, "Class.method") for each non-dunder method whose name the
    package reads as an attribute nowhere outside the method's own body."""
    trees = _modules()
    methods = [(module, cls.name, fn) for module, tree in trees
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    reads = []              # (attribute name, node reading it)
    for _module, tree in trees:
        reads += [(sub.attr, sub) for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)]
    unused = set()
    for module, cls, fn in methods:
        inside = {id(sub) for sub in ast.walk(fn)}
        if not any(attr == fn.name and id(node) not in inside
                   for attr, node in reads):
            unused.add((module, f"{cls}.{fn.name}"))
    return unused


def test_every_definition_has_a_caller_in_src():
    exempt = set(planalg.__all__) | _entry_points() | set(ALLOWED)
    unused = sorted(f"{module}.{name}" for module, name in _unused()
                    if name not in exempt)
    assert unused == []


def test_allowlist_names_only_unused_definitions():
    assert set(ALLOWED) <= {name for _module, name in _unused() | _unused_methods()}


def test_every_method_has_a_caller_in_src():
    unused = sorted(f"{module}.{name}" for module, name in _unused_methods()
                    if name not in ALLOWED)
    assert unused == []


def test_the_scalar_kernels_are_the_only_sums_of_products():
    # one kernel per scalar mode: a `_sum_products` defined or bound
    # anywhere else in src/ would be a second route for every sum
    found = []
    for module, tree in _modules():
        owner = {id(stmt): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(t, "id", getattr(t, "attr", None)) for t in targets]
            else:
                continue
            found += [(module, owner.get(id(node))) for name in names
                      if name == "_sum_products"]
    assert sorted(found) == [("scalars", "Laurent"), ("scalars", "_Valued")]


def _empty_dict_names(body) -> list:
    """Names bound to an empty dict literal by the statements of `body`."""
    names = []
    for stmt in body:
        if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(stmt.value, ast.Dict) and not stmt.value.keys):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _caches() -> list:
    """`module.name` of every `lru_cache`-decorated module-level function,
    every module-level name bound to an empty dict literal (a table that
    fills at run time), and `module.Class.name` of every such class
    attribute."""
    found = []
    for module, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and any(
                    "lru_cache" in _referenced(dec) for dec in stmt.decorator_list):
                found.append(f"{module}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                found += [f"{module}.{stmt.name}.{name}"
                          for name in _empty_dict_names(stmt.body)]
            else:
                found += [f"{module}.{name}" for name in _empty_dict_names([stmt])]
    return found


def test_every_cache_is_named_in_the_performance_notes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    notes = readme.split("## Performance notes", 1)[1].split("\n## ", 1)[0]
    unnamed = [name for name in _caches()
               if not re.search(rf"`{re.escape(name)}`", notes)]
    assert unnamed == []
