"""Every name that ``pi1lab/__init__.py`` exports has a reader: a module of
the package other than the one that defines it uses it, or the README names
it in code. So has every function, class and method that the package
defines: another module or function of the package, a ``perfbench`` script
or the README's code reads it. A name that only tests call is surface to
delete, or to move into the tests."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pi1lab"


def _exports():
    """(defining module, name) of each name ``__init__`` imports from the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


def _names(tree):
    """The names read in a syntax tree, as a bare name or as an attribute,
    once per read."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _uses(path):
    """The names a module reads."""
    return set(_names(ast.parse(path.read_text(encoding="utf-8"))))


USES = {path.stem: _uses(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
PERFBENCH_USES = set().union(*(_uses(path) for path in (ROOT / "perfbench").glob("*.py")))

def _readme_code():
    """The identifiers in the README's code: fenced blocks and inline spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(fenced + inline)))


README_CODE = _readme_code()
EXPORTS = _exports()


def test_exports_found():
    assert len(EXPORTS) > 50


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_has_a_reader(module, name):
    readers = sorted(m for m, uses in USES.items() if m != module and name in uses)
    assert readers or name in README_CODE, f"{module}.{name} has no reader in src/pi1lab or README.md"


def _definitions():
    """(module, qualified name, name, read in its module) of each
    module-level function and class and each method, dunders aside, that
    ``src/pi1lab`` defines. A read in its own module counts outside the
    definition's body only."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _names(tree)
        defs = [(node.name, node) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        ]
        for qualname, node in defs:
            local = names.count(node.name) > _names(node).count(node.name)
            found.append((path.stem, qualname, node.name, local))
    return found


DEFINITIONS = _definitions()


def test_definitions_found():
    assert len(DEFINITIONS) > 200


@pytest.mark.parametrize("module,qualname,name,local", DEFINITIONS, ids=[f"{m}.{q}" for m, q, _, _ in DEFINITIONS])
def test_definition_has_a_reader(module, qualname, name, local):
    elsewhere = any(name in uses for m, uses in USES.items() if m != module)
    read = local or elsewhere or name in PERFBENCH_USES or name in README_CODE
    assert read, f"{module}.{qualname} has no reader in src/pi1lab, perfbench or README.md"
