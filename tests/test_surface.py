"""Guard on the package namespace: the exported names are the entry
points that the benchmark harness, the README and the CLI use, and no
more."""

from __future__ import annotations

import ast
import inspect
import math
import os
import re
import shlex
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import irrstrength
from irrstrength.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def resolve(dotted: str) -> object:
    """The object that ``irr.<dotted>`` names, failing if any part is missing."""
    return reduce(getattr, dotted.split("."), irrstrength)


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_code() -> list[str]:
    """The README's code: its fenced blocks and its inline code spans."""
    pieces = (ROOT / "README.md").read_text(encoding="utf-8").split("```")
    return pieces[1::2] + [span for prose in pieces[::2] for span in re.findall(r"`([^`\n]+)`", prose)]


def test_all_is_sorted_without_duplicates():
    assert irrstrength.__all__ == sorted(set(irrstrength.__all__))


def test_star_import_yields_exactly_all():
    namespace: dict[str, object] = {}
    exec("from irrstrength import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == irrstrength.__all__


def test_benchmark_names_resolve_on_the_package():
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\birr\.([A-Za-z_][\w.]*)", text))
    assert used
    for dotted in used:
        if "." not in dotted:
            assert dotted in irrstrength.__all__, dotted
        resolve(dotted)


def test_readme_library_names_are_exported():
    section = readme_section("Library")
    quoted = set(re.findall(r"`([A-Za-z_][\w.]*)`", section))
    for block in re.findall(r"from irrstrength import ([\w, ]+)", section):
        quoted.update(name.strip() for name in block.split(","))
    bare = {name for name in quoted if "." not in name}
    # the section lists every export by role, and nothing else bare
    assert bare == set(irrstrength.__all__), sorted(bare ^ set(irrstrength.__all__))
    for dotted in quoted - bare:
        package, _, rest = dotted.partition(".")
        assert package == "irrstrength", dotted
        resolve(rest)


def test_readme_cli_commands_parse():
    # the first fenced block of the CLI section, with its backslash continuations joined
    block = readme_section("CLI").split("```\n")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("irrstrength ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: {shlex.join(argv)}") from None


def runtime_imports() -> list[tuple[str, int, str]]:
    """(file name, line, top-level module) of each absolute import in src/."""
    found = []
    for path in sorted((ROOT / "src" / "irrstrength").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, name.split(".")[0]) for name in names]
    return found


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the one runtime dependency; anything else installed here
    # (scipy, and mpmath, which the tests use as an oracle) is not one
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for name, lineno, module in runtime_imports():
        assert module in allowed, f"{name}:{lineno} imports {module}"


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in declared}
    imported = {module for _, _, module in runtime_imports()} - set(sys.stdlib_module_names)
    assert names == imported


def test_import_loads_only_stdlib_and_numpy():
    # a fresh interpreter, so that no other test's imports are counted
    code = (
        "import sys; before = set(sys.modules); import irrstrength; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "irrstrength" in loaded and "mpmath" not in loaded
    assert loaded <= set(sys.stdlib_module_names) | {"irrstrength", "numpy"}, sorted(loaded)


def test_runtime_modules_use_every_name_they_import():
    # __init__.py is left out: its imports are the package's exports
    for path in sorted((ROOT / "src" / "irrstrength").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name in used, f"{path.name}:{node.lineno} imports {name} and never uses it"


def test_runtime_private_names_are_used():
    # a private module-level function, class or constant that no module
    # of the package loads or imports is dead code
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted((ROOT / "src" / "irrstrength").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = sorted(f"{where} defines {name}" for name, where in defined.items() if name not in used)
    assert not dead, dead


def test_public_names_have_a_user_outside_the_tests():
    # a public function, class or method that neither the package, the
    # benchmark harness nor the README's code uses is dead code; the
    # README lists every export, so an export counts as used
    package = sorted((ROOT / "src" / "irrstrength").rglob("*.py"))
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in [*package, ROOT / "perfbench" / "run.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in package:
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else []
                for defn in [node, *members]:
                    if isinstance(defn, (ast.FunctionDef, ast.ClassDef)) and not defn.name.startswith("_"):
                        defined[defn.name] = f"{path.name}:{defn.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.update(re.findall(r"[A-Za-z_]\w*", " ".join(readme_code())))
    dead = sorted(f"{where} defines {name}" for name, where in defined.items() if name not in used)
    assert not dead, dead


def test_exported_defaults_are_passed_outside_the_tests():
    # a defaulted parameter of an exported function that no call in the
    # package, the benchmark harness or the README's code passes is a
    # setting only the tests set: it belongs in a module constant that the
    # tests patch. Each default maps to its position, or inf if keyword-only
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    defaults: dict[str, dict[str, float]] = {}
    for name in irrstrength.__all__:
        func = getattr(irrstrength, name)
        if inspect.isfunction(func):
            params = inspect.signature(func).parameters.values()
            defaults[name] = {
                p.name: i if p.kind in positional else math.inf
                for i, p in enumerate(params)
                if p.default is not p.empty
            }
    paths = [*sorted((ROOT / "src" / "irrstrength").rglob("*.py")), ROOT / "perfbench" / "run.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    for snippet in readme_code():
        try:
            trees.append(ast.parse(snippet))
        except SyntaxError:  # shell commands and prose spans
            continue
    passed: set[tuple[str, str]] = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        for param, pos in defaults.get(callee, {}).items():
            if starred or pos < len(node.args) or param in keywords or None in keywords:
                passed.add((callee, param))
    wanted = {(name, param) for name, params in defaults.items() for param in params}
    assert wanted <= passed, sorted(wanted - passed)
