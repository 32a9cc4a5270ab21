import ast
import importlib
import inspect
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "normpart"


@pytest.mark.parametrize("path", sorted(SRC.glob("[!_]*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - loaded) == []


def _defined_names(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _read_names(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_read_in_the_package():
    """A module-level `_name` that no other statement of the package reads
    is dead code: a helper left behind when its callers went."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            read |= set(_read_names(stmt)) - names
    assert sorted(d for d in defined if d[1] not in read) == []


def _is_norm_batch_call(node):
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "norm_batch"
        or getattr(node.func, "attr", None) == "norm_batch")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_membership_goes_through_within(path):
    """``norm_batch(...) <= r`` (or ``<``, or ``r >= norm_batch(...)``)
    asks whether points lie in a ball, which `space.within_batch` answers,
    for Orlicz balls without solving a norm."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for a, op, b in zip(operands, node.ops, operands[1:]):
            if ((isinstance(op, (ast.Lt, ast.LtE)) and _is_norm_batch_call(a))
                    or (isinstance(op, (ast.Gt, ast.GtE))
                        and _is_norm_batch_call(b))):
                found.append(node.lineno)
    assert found == []


_EDGE_ROW_CHECKS = {"isfinite", "isnan", "nan_to_num"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_kinds_leave_edge_rows_to_the_entry_points(path):
    """`space.norm_batch`, `within_batch` and `gradient_batch` answer rows
    holding +-inf or NaN, so no method of a `Kind` subclass tests for them
    (``np.isfinite``, ``np.isnan``) or mends what they give
    (``np.nan_to_num``)."""
    found = []
    for cls in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(cls, ast.ClassDef)
                and any(getattr(b, "id", None) == "Kind" for b in cls.bases)):
            continue
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in _EDGE_ROW_CHECKS):
                found.append((cls.name, node.lineno))
    assert found == []


def _literal_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _exact_builds(tree):
    """The module-level definitions of tree that define `exact_estimate` or
    build an estimate of literal stderr 0: a `MonteCarloEstimate(...)` or
    ``replace(...)`` call passing 0 as its stderr."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "exact_estimate"):
                yield node.name
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            stderr = [kw.value for kw in node.keywords if kw.arg == "stderr"]
            if callee == "MonteCarloEstimate":
                stderr += node.args[1:2]
            if (callee in ("MonteCarloEstimate", "replace")
                    and any(map(_literal_zero, stderr))):
                yield getattr(stmt, "name", stmt.lineno)


def test_exact_estimates_are_built_in_one_place():
    """`geometry._exact_or` checks a call's count before it gives an exact
    answer, so it alone builds an estimate of stderr 0 in the source trees,
    and no `exact_estimate` comes back to give one without that check."""
    found = [(path.name, name)
             for tree in (SRC, SRC.parent.parent / "bench")
             for path in sorted(tree.rglob("*.py"))
             for name in _exact_builds(ast.parse(path.read_text()))]
    assert found == [("geometry.py", "_exact_or")]


def _public_functions(tree):
    """The public module-level functions of tree and the public methods of
    its classes."""
    for stmt in tree.body:
        body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        yield from (f for f in body if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("_"))


@pytest.mark.parametrize("module",
                         ["geometry", "partition", "extension", "sepmod"])
def test_outside_arrays_go_through_the_gate(module):
    """No public function or method converts one of its own parameters (or
    those of a function nested in it) with ``np.asarray`` or
    ``np.atleast_2d``: outside arrays go through `space._numbers` or
    `space._points`, which raise InputError on what is not a finite array
    of the right shape, so a new entry point cannot skip that gate."""
    found = []
    tree = ast.parse((SRC / (module + ".py")).read_text())
    for fn in _public_functions(tree):
        params = {arg.arg for node in ast.walk(fn)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda))
                  for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "np"
                    and node.func.attr in ("asarray", "atleast_2d")
                    and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params):
                found.append((fn.name, node.lineno))
    assert found == []


_MODULES = ("space", "geometry", "partition", "sepmod", "extension", "cli")


def _package_classes():
    return {name: obj for module in _MODULES
            for name, obj in vars(importlib.import_module(
                "normpart." + module)).items()
            if inspect.isclass(obj) and obj.__module__.startswith("normpart")}


def _family(cls):
    """cls and every subclass of it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _family(sub)


def _resolves(name, classes):
    """Whether a dotted name resolves: ``Kind.x`` when `Kind` or any of its
    subclasses defines x, as a method, attribute or dataclass field."""
    head, *rest = name.split(".")
    obj = (importlib.import_module("normpart." + head) if head in _MODULES
           else classes[head])
    for attr in rest:
        if inspect.isclass(obj):
            owner = next((c for c in _family(obj) if attr in vars(c)
                          or attr in getattr(c, "__dataclass_fields__", ())),
                         None)
            if owner is None:
                return False
            obj = getattr(owner, attr, None)
        elif hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return False
    return True


def test_backticked_names_in_the_docs_resolve():
    """A backticked dotted name in README.md or a module of the package,
    such as `geometry._cone_points` or ``Kind.cone_sample(...)``, whose head
    is a package module or class, names something that exists: a name left
    behind when what it named went is a stale doc."""
    classes = _package_classes()
    stale = []
    for path in [SRC.parent.parent / "README.md", *sorted(SRC.glob("*.py"))]:
        for quoted in re.finditer(r"`+([^`\n]+)`+", path.read_text()):
            name = re.match(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", quoted[1])
            if (name and not name[0].endswith(".py")
                    and name[0].split(".")[0] in {*_MODULES, *classes}
                    and not _resolves(name[0], classes)):
                stale.append((path.name, name[0]))
    assert stale == []
