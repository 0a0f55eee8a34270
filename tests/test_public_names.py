"""Every public name of latkern has a caller; every reference a test.

Each name has one import path, the module that defines it: the package's
``__init__.py`` is its docstring alone, and every public top-level def,
class or assignment of a module is listed in the module's ``__all__``.
A name in ``__all__`` is reached when the code outside its own definition
refers to it: a Name, an Attribute or an import in ``src/`` or
``perfbench/``, a string naming a function that ``perfbench/`` traces,
or the console-script entry point in ``pyproject.toml``.  Every public
method or property of a class in ``src/latkern`` needs a caller too: an
attribute of its name in ``src/`` or ``perfbench/`` outside the member's
own definition, or a part after the first of a dotted string in
``perfbench/``, such as the traced ``InterpolantBatch.shifted_union``.
The reference implementations in ``tests/reference.py`` exist to check
production code, so each of its public functions and classes needs a
caller in another test file.  No module raises AssertionError, which a caller cannot tell from a
failed test: numerical failures raise ArithmeticError.  No module imports
another's private name.  The package
computes in plain floats, so no module clips exponent shifts.  The runtime
needs numpy alone.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: the test extra installs tomli
    import tomli as tomllib

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


def _members(path: Path) -> list[tuple[str, ast.FunctionDef]]:
    """(Class.member, def) for every public method or property of a class."""
    return [
        (f"{cls.name}.{node.name}", node)
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _attributes(path: Path, strings: bool) -> list[tuple[str, int]]:
    """(attribute name, line) for every Attribute in the file; with strings,
    also each part after the first of a dotted string constant."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            refs += [(part, node.lineno) for part in node.value.split(".")[1:]]
    return refs


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PUBLIC = [(p.stem, name) for p in MODULES for name in _public_names(p)]
MEMBERS = [(p, m, node) for p in MODULES for m, node in _members(p)]
REFERENCE_NAMES = [
    stmt.name for stmt in ast.parse(REFERENCE.read_text()).body
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    and not stmt.name.startswith("_")
]


@pytest.fixture(scope="module")
def reached():
    """name -> {(path, owner names)} for every reference outside tests."""
    found: dict[str, set] = {}
    sources = [(p, False) for p in sorted(PACKAGE.glob("*.py"))]
    sources += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in sources:
        for name, owner in _references(path, strings):
            found.setdefault(name, set()).add((path, frozenset(owner)))
    for name in _entry_points():
        found.setdefault(name, set()).add((PYPROJECT, frozenset()))
    return found


@pytest.fixture(scope="module")
def attributes():
    """name -> {(path, line)} for every attribute outside tests."""
    found: dict[str, set] = {}
    sources = [(p, False) for p in sorted(PACKAGE.glob("*.py"))]
    sources += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in sources:
        for name, line in _attributes(path, strings):
            found.setdefault(name, set()).add((path, line))
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

    def test_package_namespace_is_its_docstring(self):
        tree = ast.parse((PACKAGE / "__init__.py").read_text())
        extra = [ast.unparse(stmt) for stmt in tree.body[1:]]
        assert ast.get_docstring(tree) and not extra, (
            "latkern/__init__.py gives these names a second import path; "
            f"import them from the module that defines them: {extra}"
        )

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
    def test_public_definitions_are_listed(self, path):
        listed = set(_public_names(path))
        defined = {
            name for stmt in ast.parse(path.read_text()).body
            for name in _defined_names(stmt) if not name.startswith("_")
        }
        assert defined <= listed, (
            f"{path.name} defines {sorted(defined - listed)} outside its "
            "__all__, where no caller check sees them; list them or make "
            "them private"
        )

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


class TestEveryPublicMemberIsReached:
    def test_members_found(self):
        assert len(MEMBERS) >= 10

    @pytest.mark.parametrize("path, member, node", MEMBERS,
                             ids=[m for _, m, _ in MEMBERS])
    def test_public_member_has_a_caller(self, path, member, node, attributes):
        callers = {
            (where, line)
            for where, line in attributes.get(node.name, ())
            if not (where == path and node.lineno <= line <= node.end_lineno)
        }
        assert callers, (
            f"{path.stem}.{member} is public but nothing outside its "
            "definition reaches it; delete it, or make it private"
        )


class TestEveryReferenceIsUsed:
    def test_reference_names_found(self):
        assert len(REFERENCE_NAMES) >= 10

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_reference_name_has_a_caller(self, name, tested):
        assert name in tested, f"reference.{name} checks nothing"


def test_no_module_imports_a_private_name():
    # a private helper has one home: a second module that needs it calls a
    # public name, which the caller checks and the benchmark's spans see
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("latkern")
            ):
                found += [
                    f"{path.name}:{node.lineno} {node.module}.{a.name}"
                    for a in node.names if a.name.startswith("_")
                ]
    assert not found, f"imports of another module's private name: {found}"


def test_no_module_raises_assertion_error():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else \
                    node.exc
                assert getattr(exc, "id", None) != "AssertionError", (
                    f"{path.name}:{node.lineno} raises AssertionError"
                )


def test_no_module_clips_exponents():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "clip"
                and getattr(node.func.value, "id", None) == "np"
            ), (
                f"{path.name}:{node.lineno} calls np.clip; the package "
                "computes in plain floats, with no exponent shifts to clip"
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
