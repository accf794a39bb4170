"""Every name that ``pi1lab/__init__.py`` exports has a reader: a module of
the package other than the one that defines it uses it, or the README names
it in code. An export that only tests call is surface to delete."""
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


def _uses(path):
    """The names a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


USES = {path.stem: _uses(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}

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
