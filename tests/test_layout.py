"""Every module-level function and class in src/planalg has a caller there.

Code that only tests call belongs in the tests; code nothing calls goes.
A name counts as used when another top-level statement anywhere in the
package refers to it (a recursive call inside its own body does not count).
"""

import ast
import tomllib
from pathlib import Path

import planalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planalg"

# name -> why it stays in src/ without a caller there
ALLOWED = {
    "annular_norm_bound": "the paper's annular norm lemma, checked by the tests",
    "annular_Y": "the paper's Y^t_k; tests pin its default cup slot",
    "annular_Z": "the paper's Z^t_k; tests pin its default cup slot",
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


def _unused() -> set:
    """Top-level definitions no other top-level statement of the package uses."""
    definitions = []        # (module, name, defining statement)
    statements = []         # every top-level statement of the package
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    uses = [(stmt, _referenced(stmt)) for stmt in statements]
    return {(module, name) for module, name, node in definitions
            if not any(name in refs for stmt, refs in uses if stmt is not node)}


def test_every_definition_has_a_caller_in_src():
    exempt = set(planalg.__all__) | _entry_points() | set(ALLOWED)
    unused = sorted(f"{module}.{name}" for module, name in _unused()
                    if name not in exempt)
    assert unused == []


def test_allowlist_names_only_unused_definitions():
    assert set(ALLOWED) <= {name for _module, name in _unused()}
