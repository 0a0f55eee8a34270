"""Every public name of latkern has a caller, or is a declared oracle.

A name in a module's ``__all__`` is reached when the code outside its own
definition refers to it: a Name, an Attribute or an import in ``src/``
(leaving out ``latkern/__init__.py``, which only re-exports), ``scripts/``
or ``perfbench/``, a string naming a function that ``perfbench/`` traces,
or the console-script entry point in ``pyproject.toml``.  An oracle exists
to check production code, so it needs a caller in ``tests/`` instead.
"""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latkern"
PYPROJECT = ROOT / "pyproject.toml"

# Independent references the tests compare production code against, and
# the paper's worst-case bound.
ORACLES = (
    "kernel_eval",
    "kernel_eval_bruteforce",
    "weight_of",
    "rnorm",
    "h_norm",
    "TrigPolynomial",
    "truncated_solve",
    "diffusion_at",
    "theory_error_constant",
)


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


@pytest.fixture(scope="module")
def reached():
    """name -> {(path, owner names)} for every reference outside tests."""
    found: dict[str, set] = {}
    sources = [(p, False) for p in MODULES]
    sources += [(p, False) for p in sorted((ROOT / "scripts").glob("*.py"))]
    sources += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in sources:
        for name, owner in _references(path, strings):
            found.setdefault(name, set()).add((path, frozenset(owner)))
    for name in _entry_points():
        found.setdefault(name, set()).add((PYPROJECT, frozenset()))
    return found


@pytest.fixture(scope="module")
def tested():
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path != Path(__file__).resolve():
            names |= {name for name, _ in _references(path)}
    return names


class TestEveryPublicNameIsReached:
    def test_modules_found(self):
        assert len(MODULES) >= 9 and len(PUBLIC) >= 50

    def test_oracles_are_public(self):
        public = {name for _, name in PUBLIC}
        assert not set(ORACLES) - public

    @pytest.mark.parametrize("module, name", PUBLIC)
    def test_public_name_has_a_caller(self, module, name, reached, tested):
        if name in ORACLES:
            assert name in tested, f"oracle {module}.{name} checks nothing"
            return
        own = PACKAGE / f"{module}.py"
        callers = {
            (where, owner) for where, owner in reached.get(name, ())
            if not (where == own and name in owner)
        }
        assert callers, (
            f"{module}.{name} is public but nothing outside its definition "
            "reaches it; delete it or declare it an oracle"
        )
