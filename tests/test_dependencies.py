"""The dependency set: what pyproject.toml declares is what the code imports."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent

# distribution names whose import name differs
IMPORT_NAMES = {"PyYAML": "yaml"}


def imported_top_levels(directory: Path) -> set[str]:
    """Top-level names of every absolute import in the files under ``directory``,
    at module level or inside functions, plus ``pytest.importorskip`` targets."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                names.add(node.args[0].value.split(".")[0])
    return names


def third_party(names: set[str], local: set[str]) -> list[str]:
    return sorted(n for n in names if n not in sys.stdlib_module_names and n not in local)


def import_names(requirements: list[str]) -> list[str]:
    dists = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements)
    return sorted(IMPORT_NAMES.get(d, d.lower().replace("-", "_")) for d in dists)


@pytest.fixture
def project() -> dict:
    if sys.version_info < (3, 11):
        pytest.skip("tomllib is new in Python 3.11")
    import tomllib
    return tomllib.loads((REPO / "pyproject.toml").read_text())["project"]


def test_library_imports_are_the_declared_dependencies(project):
    found = third_party(imported_top_levels(REPO / "src" / "relkin"), {"relkin"})
    assert found == import_names(project["dependencies"])


def test_test_imports_are_declared_as_dependencies_or_test_extras(project):
    local = {"relkin"} | {p.stem for p in TESTS.glob("*.py")}
    declared = import_names(project["dependencies"] + project["optional-dependencies"]["test"])
    assert set(third_party(imported_top_levels(TESTS), local)) <= set(declared)


def test_exp_map_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from relkin import E0, E1, E2, E3, exp_map, wedge\n"
        "m = exp_map(wedge(E0, E1) + 0.5 * wedge(E2, E3), 0.7)\n"
        "print(m.is_lorentz(), 'scipy' in sys.modules and sys.modules['scipy'] is not None)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False"]
