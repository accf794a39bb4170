"""Every name that ``pi1lab/__init__.py`` exports has a reader: a module of
the package other than the one that defines it uses it, or the README names
it in code. Its entry in the export table names the module that defines it,
and the package attribute is that module's object. Every function, class
and method that the package defines has a reader too: another module or
function of the package, a ``perfbench`` script or the README's code reads
it, and a method is read as an attribute. A name
that only tests call is surface to delete, or to move into the tests. Every
parameter with a default has a setter, some call that passes it, and a
taker, some call that leaves it out: a parameter that nothing passes is a
constant, and a default that nothing takes is dead.

The value records keep one rule each: only ``records.Record`` decides
equality, and every field of a record is read. No module imports a name it
never reads. Every exception class the package defines is one that the
command line maps to an exit code."""
import ast
import importlib
import re
from pathlib import Path

import pytest

import pi1lab
from pi1lab import cli, dsl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pi1lab"


def _exports():
    """(defining module, name) of each entry of ``__init__``'s ``_EXPORTS``
    table, which maps an exported name to its module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
    ]
    return [(module, name) for name, module in ast.literal_eval(table).items()]


def _names(tree, attributes=False):
    """The names read in a syntax tree, as a bare name or as an attribute
    (as an attribute only, if ``attributes``), once per read."""
    kinds = ast.Attribute if attributes else (ast.Name, ast.Attribute)
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    ]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


TREES = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
PERFBENCH_TREES = [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
USES = {module: set(_names(tree)) for module, tree in TREES.items() if module != "__init__"}
ATTRIBUTE_USES = {module: set(_names(tree, True)) for module, tree in TREES.items() if module != "__init__"}
PERFBENCH_USES = set().union(*(_names(tree) for tree in PERFBENCH_TREES))
PERFBENCH_ATTRIBUTE_USES = set().union(*(_names(tree, True) for tree in PERFBENCH_TREES))


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
    assert pi1lab.__all__ == tuple(name for _, name in EXPORTS)


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_has_a_reader(module, name):
    readers = sorted(m for m, uses in USES.items() if m != module and name in uses)
    assert readers or name in README_CODE, f"{module}.{name} has no reader in src/pi1lab or README.md"


def _bound_at_top(tree):
    """The names a module's own top-level statements define: functions,
    classes and assigned names, not imports."""
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = [node.targets for node in tree.body if isinstance(node, ast.Assign)]
    return names | {t.id for targets in assigned for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_is_its_modules_definition(module, name):
    """An export's table entry names the module that defines it, and the
    package attribute, loaded on first access, is that module's object."""
    assert name in _bound_at_top(TREES[module]), f"pi1lab.{module} does not define {name}"
    assert getattr(pi1lab, name) is getattr(importlib.import_module(f"pi1lab.{module}"), name)


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'pi1lab' has no attribute 'no_such_export'"):
        pi1lab.no_such_export


def _definitions():
    """(module, qualified name, name, is a method, read in its module) of
    each module-level function and class and each method, dunders aside
    (``__getattr__`` and ``__init__`` are read by the interpreter), that
    ``src/pi1lab`` defines. A read in its own module counts outside the
    definition's body only, and a method's reads are attribute reads."""
    found = []
    for module, tree in TREES.items():
        defs = [
            (node.name, node, False)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
        ]
        defs += [
            (f"{cls.name}.{node.name}", node, True)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        ]
        for qualname, node, method in defs:
            local = _names(tree, method).count(node.name) > _names(node, method).count(node.name)
            found.append((module, qualname, node.name, method, local))
    return found


DEFINITIONS = _definitions()


def test_definitions_found():
    assert len(DEFINITIONS) > 200


@pytest.mark.parametrize(
    "module,qualname,name,method,local", DEFINITIONS, ids=[f"{m}.{q}" for m, q, _, _, _ in DEFINITIONS]
)
def test_definition_has_a_reader(module, qualname, name, method, local):
    uses, perfbench = (ATTRIBUTE_USES, PERFBENCH_ATTRIBUTE_USES) if method else (USES, PERFBENCH_USES)
    elsewhere = any(name in names for m, names in uses.items() if m != module)
    read = local or elsewhere or name in perfbench or name in README_CODE
    assert read, f"{module}.{qualname} has no reader in src/pi1lab, perfbench or README.md"


def _defaulted_parameters():
    """(module, qualified name, called name, parameter, position) of each
    parameter with a default of a module-level function or a method that
    ``src/pi1lab`` defines. A method's positions count after ``self``, and
    an ``__init__`` is called by the name of its class. A keyword-only
    parameter has no position."""
    found = []
    for module, tree in TREES.items():
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
                    found.append((module, qualname, called, positional[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((module, qualname, called, arg.arg, None))
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


@pytest.mark.parametrize(
    "module,qualname,called,name,position", DEFAULTED, ids=[f"{m}.{q}({n})" for m, q, _, n, _ in DEFAULTED]
)
def test_defaulted_parameter_has_a_taker(module, qualname, called, name, position):
    takers = [call for call in CALLS.get(called, ()) if not _passes(call, name, position)]
    assert takers, f"every call in src, tests, perfbench and the README's code passes {name} to {module}.{qualname}"


def _classes():
    """(module, class) of each class that ``src/pi1lab`` defines at module level."""
    return [(module, node) for module, tree in TREES.items() for node in tree.body if isinstance(node, ast.ClassDef)]


def test_equality_has_one_home():
    """Only ``records.Record`` defines ``__eq__`` or ``__hash__``: every
    value type is a Record and compares its ``_fields``."""
    defining = {
        f"{module}.{cls.name}"
        for module, cls in _classes()
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
    }
    assert defining == {"records.Record"}


def _record_fields():
    """(module.Class, field) of each entry of the ``_fields`` of a class
    whose bases name ``Record``."""
    found = []
    for module, cls in _classes():
        if not any(isinstance(base, ast.Name) and base.id == "Record" for base in cls.bases):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_fields" for t in node.targets):
                found += [(f"{module}.{cls.name}", field) for field in ast.literal_eval(node.value)]
    return found


def _attribute_reads(tree):
    """The attribute names loaded in a syntax tree outside any ``__init__``."""
    inits = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    inside = {id(node) for init in inits for node in ast.walk(init)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }


def test_record_field_has_a_reader():
    """Every field of a record is read as an attribute, outside an
    ``__init__``, in ``src/pi1lab`` or ``perfbench``: a field that nothing
    reads is a fact the record need not keep."""
    fields = _record_fields()
    assert len(fields) > 40
    read = set().union(*(_attribute_reads(tree) for tree in [*TREES.values(), *PERFBENCH_TREES]))
    assert [f"{cls}.{field}" for cls, field in fields if field not in read] == []


def _unread_imports(path):
    """The names that the module at ``path`` imports and never reads as a
    bare name; ``from __future__`` imports bind no name."""
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


IMPORTING = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", IMPORTING, ids=[f"{p.parent.name}/{p.name}" for p in IMPORTING])
def test_imports_are_read(path):
    """No module imports a name it never reads."""
    assert _unread_imports(path) == []


EXCEPTIONS = [
    (module, cls.name)
    for module, cls in _classes()
    if issubclass(getattr(importlib.import_module(f"pi1lab.{module}"), cls.name), BaseException)
]


def test_exceptions_found():
    assert len(EXCEPTIONS) > 10


@pytest.mark.parametrize("module,name", EXCEPTIONS, ids=[f"{m}.{n}" for m, n in EXCEPTIONS])
def test_exception_has_an_exit_code(module, name):
    """``cli.main`` maps a ``dsl.DslError`` and a ``cli._Refused`` to exit
    code 2 and a member of ``cli.RunError`` to exit code 1; any other
    exception ends a command in a traceback."""
    exc = getattr(importlib.import_module(f"pi1lab.{module}"), name)
    assert issubclass(exc, (*cli.RunError, dsl.DslError, cli._Refused)), f"{module}.{name} has no exit code"
