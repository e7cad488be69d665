"""A stdlib (``ast``) guard against dead code in the package, and on its layering.

It fails on an import that a module of ``sphemb`` (``__init__.py`` aside,
whose imports are the public names) never reads, and on a private function
or class (``_name``, not a dunder) that nothing in the package refers to by
name or attribute.  It also fails when the realization kernel or the oracle
imports ``families``: the families build on both, never the other way, and
with the unused-import check no module re-exports the kernel's names.
Last, ``from sphemb import *`` must bind the public names alone, no module.

Two guards read the repository around the package: every private name
(``_name``) that the README shows as code is defined in the package, and
every third-party module that the tests or the benchmark import is listed in
``pyproject.toml``'s ``test`` extra, which CI installs.  A third reads the CI
workflow: its install step installs that extra and names no package itself.
"""

import ast
import re
import shlex
import sys
from pathlib import Path
from types import ModuleType

import pytest

import sphemb

PACKAGE = Path(sphemb.__file__).resolve().parent
REPOSITORY = Path(__file__).resolve().parent.parent


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    out = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{name}:{line}: {imported}" for line, imported in _imported_names(tree) if imported not in read]
    return out


def unreferenced_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    referenced = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    out = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                private = node.name.startswith("_") and not node.name.endswith("__")
                if private and node.name not in referenced:
                    out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by name: ``from . import x``, ``from .x import y`` and their absolute
    forms."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sphemb")):
            module = (node.module or "").removeprefix("sphemb").lstrip(".")
            out |= {alias.name for alias in node.names} if not module else {module.partition(".")[0]}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("sphemb.")}
    return out


def layering_faults(modules: dict[str, ast.Module]) -> list[str]:
    kernel = ("realization.py", "oracle.py")
    return [f"{name} imports families" for name in kernel if "families" in imported_modules(modules[name])]


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(_modules()) == []


def test_kernel_and_oracle_do_not_import_the_families():
    assert layering_faults(_modules()) == []


def test_layering_guard_flags_each_import_form():
    for text in ("from . import families\n", "from .families import build_family\n", "from sphemb.families import x\n",
                 "import sphemb.families\n", "from . import lattice, families\n"):
        planted = dict(_modules(), **{"oracle.py": ast.parse(text)})
        assert layering_faults(planted) == ["oracle.py imports families"], text
    assert layering_faults(dict(_modules(), **{"oracle.py": ast.parse("from .realization import families\n")})) == []


def test_guard_flags_planted_dead_code():
    # The guard itself: an unread import and an unreferenced private helper
    # are caught, and reading them (by name or attribute) clears both.
    dead = {
        "m.py": ast.parse("import os\nfrom math import gcd\n\ndef _helper():\n    return gcd(2, 4)\n"),
        "__init__.py": ast.parse("from .m import gcd\n"),
    }
    assert unused_imports(dead) == ["m.py:1: os"]
    assert unreferenced_private_definitions(dead) == ["m.py:4: _helper"]
    live = dict(dead, **{"n.py": ast.parse("import os\nimport m\n\nos.sep\nm._helper()\n")})
    live["m.py"] = ast.parse("import os\n\ndef _helper():\n    return os.sep\n")
    assert unused_imports(live) == [] and unreferenced_private_definitions(live) == []


def test_star_import_binds_the_public_names_and_no_module():
    namespace: dict = {}
    exec("from sphemb import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert sorted(bound) == sphemb.__all__ and all(hasattr(sphemb, name) for name in sphemb.__all__)
    assert not [name for name, value in bound.items() if isinstance(value, ModuleType)]
    assert {"build_family", "MatrixRealization", "t_order", "class_group"} <= set(bound)


def defined_names(modules: dict[str, ast.Module]) -> set[str]:
    """Every name that a module of the package defines, at any depth: functions, classes and assigned names."""
    out = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                out.add(node.id)
    return out


def private_names_in_code(text: str) -> set[str]:
    """Each ``_name`` (no dunder) in a backticked span of ``text``, at the span's start or after a dot, space or bracket."""
    spans = re.findall(r"`([^`\n]+)`", text)
    return {name for span in spans for name in re.findall(r"(?:^|(?<=[.\s(]))(_[A-Za-z]\w*)", span)}


def test_readme_names_only_existing_private_code():
    names = private_names_in_code((REPOSITORY / "README.md").read_text(encoding="utf-8"))
    assert names and sorted(names - defined_names(_modules())) == []


def test_readme_guard_reads_each_name_form():
    text = "(`_pairing_row`, which `principal_divisor` reads), `realization._dual_unit`, `__init__`, `a_b` and `_f(x, _y)`"
    assert private_names_in_code(text) == {"_pairing_row", "_dual_unit", "_f", "_y"}
    assert "_pairing_row" not in defined_names(_modules()) and "_dual_unit" in defined_names(_modules())


def third_party_imports(paths) -> set[str]:
    """The top-level modules that the files ``paths`` import, by statement or ``pytest.importorskip``, outside the
    standard library, ``sphemb`` and the files' own directories."""
    local = {path.stem for path in paths}
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                out |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                out.add(node.module.partition(".")[0])
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip" and node.args:
                out.add(node.args[0].value.partition(".")[0])
    return out - set(sys.stdlib_module_names) - local - {"sphemb"}


def test_test_extra_lists_every_third_party_import():
    # Each module is named as its distribution is; the extra's entries are
    # read up to their first version or marker character.
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads((REPOSITORY / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", entry).group().lower().replace("-", "_") for entry in extra}
    paths = sorted((REPOSITORY / "tests").glob("*.py")) + sorted((REPOSITORY / "bench").glob("*.py"))
    imported = third_party_imports(paths)
    assert {"pytest", "sympy", "hypothesis"} <= imported
    assert sorted(imported - listed) == []


def install_step_faults(workflow: str) -> list[str]:
    """What is wrong with the workflow's "Install test dependencies" step: it is missing, or it installs anything
    but the package's ``test`` extra, ``.[test]``, one argument after ``pip install``."""
    step = re.search(r"- name: Install test dependencies\n\s+run: (.+)", workflow)
    if step is None:
        return ["no install step"]
    words = shlex.split(step.group(1))
    if words[:4] != ["python", "-m", "pip", "install"]:
        return [f"the install step runs {step.group(1)!r}"]
    faults = [f"the install step installs {word!r}" for word in words[4:] if word != ".[test]"]
    return faults + ([] if ".[test]" in words[4:] else ["the install step does not install the test extra"])


def test_ci_installs_the_test_extra():
    workflow = (REPOSITORY / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert install_step_faults(workflow) == []


def test_install_step_guard_flags_named_packages():
    step = "      - name: Install test dependencies\n        run: {}\n"
    assert install_step_faults(step.format('python -m pip install ".[test]"')) == []
    assert install_step_faults(step.format("python -m pip install .[test]")) == []
    assert install_step_faults(step.format("python -m pip install pytest sympy hypothesis")) == [
        "the install step installs 'pytest'",
        "the install step installs 'sympy'",
        "the install step installs 'hypothesis'",
        "the install step does not install the test extra",
    ]
    assert install_step_faults(step.format('python -m pip install ".[test]" numpy')) == ["the install step installs 'numpy'"]
    assert install_step_faults(step.format("python -m pip install .")) == [
        "the install step installs '.'",
        "the install step does not install the test extra",
    ]
    assert install_step_faults(step.format("python -m pip install")) == ["the install step does not install the test extra"]
    assert install_step_faults("steps: []\n") == ["no install step"]
