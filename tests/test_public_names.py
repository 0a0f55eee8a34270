"""Every public name of latkern has a caller; every reference a test.

A name in a module's ``__all__`` is reached when the code outside its own
definition refers to it: a Name, an Attribute or an import in ``src/``
(leaving out ``latkern/__init__.py``, which only re-exports) or
``perfbench/``, a string naming a function that ``perfbench/`` traces,
or the console-script entry point in ``pyproject.toml``.  The reference
implementations in ``tests/reference.py`` exist to check production code,
so each of its public functions and classes needs a caller in another test
file.  No module raises AssertionError, which a caller cannot tell from a
failed test: numerical failures raise ArithmeticError.  Scaled-pair
arithmetic has one home, ``weights.py``, the only module that clips
exponent shifts.  The runtime needs numpy alone.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latkern"
PYPROJECT = ROOT / "pyproject.toml"
REFERENCE = ROOT / "tests" / "reference.py"


def _public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _defined_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds: its def, class or assignments."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _references(path: Path, strings: bool = False) -> list[tuple[str, set]]:
    """(referenced name, names bound by the enclosing top-level statement),
    for every Name, Attribute and imported name in the file; with strings,
    also the leading part of each dotted string constant (trace targets)."""
    refs = []
    for stmt in ast.parse(path.read_text()).body:
        owner = _defined_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs += [(a.name.rsplit(".")[-1], owner) for a in node.names]
            elif strings and isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                refs.append((node.value.split(".")[0], owner))
    return refs


def _entry_points() -> set[str]:
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    return {target.rsplit(":")[-1] for target in project["scripts"].values()}


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PUBLIC = [(p.stem, name) for p in MODULES for name in _public_names(p)]
REFERENCE_NAMES = [
    stmt.name for stmt in ast.parse(REFERENCE.read_text()).body
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    and not stmt.name.startswith("_")
]


@pytest.fixture(scope="module")
def reached():
    """name -> {(path, owner names)} for every reference outside tests."""
    found: dict[str, set] = {}
    sources = [(p, False) for p in MODULES]
    sources += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in sources:
        for name, owner in _references(path, strings):
            found.setdefault(name, set()).add((path, frozenset(owner)))
    for name in _entry_points():
        found.setdefault(name, set()).add((PYPROJECT, frozenset()))
    return found


@pytest.fixture(scope="module")
def tested():
    """Names referenced by the test files, leaving out this file and the
    reference module itself."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path not in (Path(__file__).resolve(), REFERENCE):
            names |= {name for name, _ in _references(path)}
    return names


class TestEveryPublicNameIsReached:
    def test_modules_found(self):
        assert {p.stem for p in MODULES} == {
            "cli", "experiments", "interpolant", "kernel", "lattice", "pde",
            "special", "weights",
        }
        assert all(_public_names(p) for p in MODULES)

    @pytest.mark.parametrize("module, name", PUBLIC)
    def test_public_name_has_a_caller(self, module, name, reached):
        own = PACKAGE / f"{module}.py"
        callers = {
            (where, owner) for where, owner in reached.get(name, ())
            if not (where == own and name in owner)
        }
        assert callers, (
            f"{module}.{name} is public but nothing outside its definition "
            "reaches it; delete it, or move it to tests/reference.py if it "
            "is a reference the tests check against"
        )


class TestEveryReferenceIsUsed:
    def test_reference_names_found(self):
        assert len(REFERENCE_NAMES) >= 10

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_reference_name_has_a_caller(self, name, tested):
        assert name in tested, f"reference.{name} checks nothing"


def test_no_module_raises_assertion_error():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else \
                    node.exc
                assert getattr(exc, "id", None) != "AssertionError", (
                    f"{path.name}:{node.lineno} raises AssertionError"
                )


def test_only_weights_clips_exponents():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "clip"
                and getattr(node.func.value, "id", None) == "np"
            ):
                assert path.name == "weights.py", (
                    f"{path.name}:{node.lineno} calls np.clip; scaled-pair "
                    "arithmetic belongs in weights.py"
                )


def test_runtime_needs_numpy_alone():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {top}; the runtime "
                    "needs numpy alone"
                )
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]
