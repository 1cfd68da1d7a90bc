"""Guard on the package namespace: the exported names are the entry
points that the benchmark harness, the README and the CLI use, and no
more."""

from __future__ import annotations

import ast
import re
import shlex
import sys
from functools import reduce
from pathlib import Path

import irrstrength
from irrstrength.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def resolve(dotted: str) -> object:
    """The object that ``irr.<dotted>`` names, failing if any part is missing."""
    return reduce(getattr, dotted.split("."), irrstrength)


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


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


def test_runtime_imports_are_stdlib_numpy_or_mpmath():
    # the runtime dependencies stay numpy + mpmath; anything else installed
    # here (scipy among them) is not one
    allowed = set(sys.stdlib_module_names) | {"numpy", "mpmath"}
    for path in sorted((ROOT / "src" / "irrstrength").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


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
