"""Every library name the benchmark and the tools reach still exists.

perfbench/tracing.py wraps the functions named in SPANS and COUNTERS,
and its square_check observer counts with forms.ambient_basis_forms and
forms.multilinear_generators; the scripts under tools/ and perfbench/
import names from mdca.  Removing one of these from the library breaks
them only when they run, so this test names each one.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
OBSERVER_HELPERS = [("forms", "ambient_basis_forms"),
                    ("forms", "multilinear_generators")]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def script_imports():
    """(module, name) of every `from mdca... import name` and
    `from mdca import module` in the scripts of tools/ and perfbench/."""
    out = set()
    for path in sorted((ROOT / "tools").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "mdca"):
                out |= {(node.module, a.name) for a in node.names}
    return sorted(out)


def traced_names():
    tracing = load_tracing()
    return sorted(set(tracing.SPANS + tracing.COUNTERS + tuple(
        OBSERVER_HELPERS)))


def test_the_scripts_import_names_from_mdca():
    # the guard is empty if the scan finds nothing
    found = script_imports()
    assert ("mdca", "cli") in found
    assert ("mdca.structures", "build_maurer_cartan") in found
    assert ("forms", "square_check") in traced_names()


@pytest.mark.parametrize("layer, name", traced_names())
def test_every_traced_name_exists(layer, name):
    assert callable(getattr(importlib.import_module("mdca." + layer), name))


@pytest.mark.parametrize("module, name", script_imports())
def test_every_name_the_scripts_import_exists(module, name):
    # a name that is neither an attribute nor a submodule fails to import
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module("%s.%s" % (module, name))


def referenced_names():
    """Every name that code under src/, tools/ or perfbench/ reads: a
    name in an expression, an attribute, or a name imported."""
    out = set()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(
                    encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    out |= {a.name for a in node.names}
    return out


def library_definitions():
    """(module, name) of every top-level function and class of mdca."""
    out = []
    for path in sorted((ROOT / "src" / "mdca").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
    return out


def test_every_library_definition_is_reached():
    # only what a verb, a tool or the benchmark reaches stays in the
    # library; what only the tests reach lives beside them
    defined = library_definitions()
    assert ("forms", "build_D") in defined
    reached = referenced_names()
    assert [d for d in defined if d[1] not in reached] == []


def read_attributes():
    """Every attribute name that code under src/, tools/ or perfbench/
    reads: an attribute in Load context, as in obj.name or obj.name()."""
    out = set()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(
                    encoding="utf-8"))):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    out.add(node.attr)
    return out


def library_members():
    """(module, class, name) of every method of a class of mdca, dunder
    methods left out, and of every attribute its __init__ stores on
    self."""
    out = set()
    for path in sorted((ROOT / "src" / "mdca").glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if not node.name.startswith("__"):
                    out.add((path.stem, cls.name, node.name))
                elif node.name == "__init__":
                    out |= {(path.stem, cls.name, n.attr)
                            for n in ast.walk(node)
                            if isinstance(n, ast.Attribute)
                            and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name)
                            and n.value.id == "self"}
    return sorted(out)


def test_every_library_member_is_read():
    # a method or a stored attribute that nothing reads is state kept for
    # no reader.  The check is by name: a member whose name is also read
    # on another object (levels, value, add, L) passes unseen
    members = library_members()
    assert ("graded", "LinearMap", "entries") in members
    assert ("forms", "LevelTable", "apply") in members
    read = read_attributes()
    assert [m for m in members if m[2] not in read] == []
