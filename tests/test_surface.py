"""Every name that ``pi1lab/__init__.py`` exports has a reader: a module of
the package other than the one that defines it uses it, or the README names
it in code. So has every function, class and method that the package
defines: another module or function of the package, a ``perfbench`` script
or the README's code reads it. A name that only tests call is surface to
delete, or to move into the tests. And every parameter with a default has
a setter: some call passes it. A parameter that nothing passes is a
constant."""
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


def _defaulted_parameters():
    """(module, qualified name, called name, parameter, position) of each
    parameter with a default of a module-level function or a method that
    ``src/pi1lab`` defines. A method's positions count after ``self``, and
    an ``__init__`` is called by the name of its class. A keyword-only
    parameter has no position."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, tree.body)] + [(cls, cls.body) for cls in tree.body if isinstance(cls, ast.ClassDef)]
        for cls, body in scopes:
            for node in body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 0 if cls is None else 1
                called = cls.name if cls is not None and node.name == "__init__" else node.name
                qualname = node.name if cls is None else f"{cls.name}.{node.name}"
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found.append((path.stem, qualname, called, positional[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((path.stem, qualname, called, arg.arg, None))
    return found


def _calls():
    """Every call in ``src/``, ``tests/``, ``perfbench/`` and the README's
    python blocks, under the name it calls: a bare name or an attribute."""
    paths = [path for top in ("src", "tests", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, position):
    """Whether ``call`` passes the parameter ``name``: by keyword, or by
    ``position``, which a starred argument at or before it covers."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= position
    return position < len(call.args)


DEFAULTED = _defaulted_parameters()
CALLS = _calls()


def test_defaulted_parameters_found():
    assert len(DEFAULTED) > 20


@pytest.mark.parametrize(
    "module,qualname,called,name,position", DEFAULTED, ids=[f"{m}.{q}({n})" for m, q, _, n, _ in DEFAULTED]
)
def test_defaulted_parameter_has_a_setter(module, qualname, called, name, position):
    setters = [call for call in CALLS.get(called, ()) if _passes(call, name, position)]
    assert setters, f"no call in src, tests, perfbench or the README's code passes {name} to {module}.{qualname}"
