"""Import and export hygiene of the package, read with the standard ast module.

Every module must use each name it imports (the package ``__init__`` imports
to re-export, so it is exempt), and every ``__all__`` entry must be a name
the module defines or imports. Every private module-level helper (a function,
class or constant whose name starts with ``_``), and every function of
``_dd``, must be used somewhere in the package outside its own definition,
and so must every ``__all__`` name, read as a name and not merely as an
attribute that shares it, save a few kept for users (the imports of
``__init__`` do not count as uses). Every annotated field of a dataclass
must be read as an attribute somewhere in the package or in the tests, or it
is state that nothing uses. No module imports a private name of another
package module, or reads a private dataclass field of another module's
class: a module's private names are its own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "enrichedfp"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """Each name an import statement binds, anywhere in the module, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _defined(tree):
    """Names bound at module level: definitions, assignments and imports."""
    return {name for name, _ in _definitions(tree)} | set(_imports(tree))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | set(_all(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imports(tree).items()
                    if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_name_in_all(path):
    tree = _tree(path)
    assert sorted(set(_all(tree)) - _defined(tree)) == []


def test_the_checks_see_every_module():
    assert {p.name for p in MODULES} >= {
        "__init__.py", "_dd.py", "analyzer.py", "cli.py", "mapping.py", "solver.py", "space.py"
    }


def _definitions(tree):
    """Each name bound at module level by a definition or assignment, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _helpers(path, tree):
    """Module-level private definitions, and every function of ``_dd``, as
    (name, first line, last line)."""
    return [(name, node.lineno, node.end_lineno) for name, node in _definitions(tree)
            if (name.startswith("_") and not name.startswith("__"))
            or (path.name == "_dd.py" and isinstance(node, ast.FunctionDef))]


def _uses(attributes=True):
    """Each (module, name, line) where the package reads a name, and with
    ``attributes`` also each where it reads an attribute of that name."""
    uses = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((path.name, node.id, node.lineno))
            elif attributes and isinstance(node, ast.Attribute):
                uses.append((path.name, node.attr, node.lineno))
    return uses


def _used_outside(name, path, first, last, uses):
    """Whether the package reads ``name`` anywhere but lines first..last of path."""
    return any(used == name and not (module == path.name and first <= line <= last)
               for module, used, line in uses)


def test_every_private_helper_is_used():
    uses = _uses()
    unused = [f"{path.name}:{first} {name}"
              for path in MODULES for name, first, last in _helpers(path, _tree(path))
              if not _used_outside(name, path, first, last, uses)]
    assert unused == []


def test_the_helper_check_sees_private_names_and_dd_functions():
    found = {p.name: {name for name, _, _ in _helpers(p, _tree(p))} for p in MODULES}
    assert {"_solve_core", "_CYCLE_WINDOW"} <= found["solver.py"]
    assert {"_screen", "_witness_norm_iter"} <= found["space.py"]
    assert {"_pieces", "_PIECE_LIMIT"} <= found["analyzer.py"]
    assert {"two_sum", "dd_add"} <= found["_dd.py"]
    assert "__all__" not in found["cli.py"]


# Public names kept for users of the package although no module reads them:
# the console-script entry, the scenario writer, the shipped example map, the
# seminorm view of the 2-norm, the theta of a map at a given b and the a
# priori bound of one row, which users call per row. The solver's a priori
# column repeats that expression inline: for a 140-row column, calling the
# function per row took 46 us against 14 us inline on a 2-vCPU Xeon, with
# bit-identical values.
_USER_FACING = {"main_entry", "write_scenario", "default_piecewise", "seminorm",
                "estimate_theta", "apriori_bound"}


def test_every_public_name_is_used():
    # Only a loaded name counts: an attribute of the same name (a field, a
    # method) is not a read of the module-level one. The package __init__
    # only re-exports, so its imports read nothing.
    uses = [u for u in _uses(attributes=False) if u[0] != "__init__.py"]
    unused = []
    for path in MODULES:
        tree = _tree(path)
        spans = {name: (node.lineno, node.end_lineno) for name, node in _definitions(tree)}
        unused += [f"{path.name} {name}" for name in _all(tree) if name not in _USER_FACING
                   and not _used_outside(name, path, *spans.get(name, (0, -1)), uses)]
    assert unused == []


def _dataclass_fields(path, tree):
    """Each annotated field of a ``@dataclass`` class as (class, field, line)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.append((node.name, item.target.id, item.lineno))
    return found


def test_every_dataclass_field_is_read():
    read = {node.attr for path in MODULES + TESTS for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {cls}.{name}"
              for path in MODULES for cls, name, line in _dataclass_fields(path, _tree(path))
              if name not in read]
    assert unread == []


def test_the_field_check_sees_dataclass_fields():
    found = {(p.name, cls, name) for p in MODULES for cls, name, _ in _dataclass_fields(p, _tree(p))}
    assert {("space.py", "AxiomViolation", "deviation"), ("space.py", "WitnessSet", "_batch"),
            ("solver.py", "TraceRow", "witness_steps"), ("cli.py", "ScenarioConfig", "box"),
            ("analyzer.py", "EnrichedCertificate", "provenance")} <= found


def _package_imports(tree):
    """Each (name, line) that a ``from`` import binds from a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == PACKAGE.name
        ):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _private_imports(tree):
    # _dd is a module, not a private name: importing its public functions is fine.
    return [f"{name} (line {line})" for name, line in _package_imports(tree)
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(_tree(path)) == []


def _private_fields():
    """Each module's private dataclass field names."""
    return {p.name: {name for _, name, _ in _dataclass_fields(p, _tree(p)) if name.startswith("_")}
            for p in MODULES}


def _foreign_field_reads(name, tree, fields):
    """Reads in module ``name`` of a private field that only another module's
    dataclasses declare, as ``line .field``."""
    foreign = set().union(*(f for module, f in fields.items() if module != name))
    foreign -= fields.get(name, set())
    return [f"{node.lineno} .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in foreign]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_private_field_of_another_modules_class(path):
    assert _foreign_field_reads(path.name, _tree(path), _private_fields()) == []


def test_the_private_name_checks_see_imports_and_field_reads():
    fields = _private_fields()
    assert {"_batch", "_basis", "_u_sq"} <= fields["space.py"]
    tree = ast.parse("from .space import _witness_norm_iter, two_norm\n"
                     "from ._dd import dd_add\n"
                     "from enrichedfp.space import _screen\n"
                     "ok = wset._basis\n")
    assert _private_imports(tree) == ["_witness_norm_iter (line 1)", "_screen (line 3)"]
    assert _foreign_field_reads("solver.py", tree, fields) == ["4 ._basis"]
    assert _foreign_field_reads("space.py", tree, fields) == []
