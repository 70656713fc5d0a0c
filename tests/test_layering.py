"""Rules about what the source imports and declares, over parsed ASTs.

Each row of ``RULES`` names the files it reads and a check that yields
``(line, what)`` per violation; a failure lists them as ``path:line``.
The control plane and the baselines read a :class:`ClusterView` and emit
directives (``repro.net.view``, ``repro.net.directive``); none of them
depends on the data-plane driver, ``repro.net.simulator``.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import FrozenSet, Iterator, List, Tuple

import pytest

from repro import net

ROOT = Path(__file__).resolve().parents[1]
SIMULATOR = "repro.net.simulator"

Violation = Tuple[int, str]


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(node: ast.AST) -> List[str]:
    """The modules an import statement loads: each ``from`` name as a
    submodule too, with ``repro.net``'s lazy names at their home module."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    homes = net._SIMULATOR_EXPORTS if module == "repro.net" else {}
    return [module] + [
        f"{module}.{homes.get(alias.name, alias.name)}" for alias in node.names
    ]


@lru_cache(maxsize=None)
def _simulator_defines() -> FrozenSet[str]:
    """The names ``net/simulator.py`` binds at top level other than by import."""
    names = set()
    for node in _tree(ROOT / "src" / "repro" / "net" / "simulator.py").body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(names)


def imports_the_simulator(tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if SIMULATOR in _imported(node):
            yield node.lineno, f"imports {SIMULATOR}"


def imports_a_name_it_does_not_define(tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == SIMULATOR:
            for alias in node.names:
                if alias.name not in _simulator_defines():
                    yield node.lineno, f"{alias.name} is not defined in {SIMULATOR}"


def dataclass_keywords_past_python_3_9(tree: ast.Module) -> Iterator[Violation]:
    """``slots=`` and ``kw_only=`` arrived in Python 3.10."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            for keyword in node.keywords:
                if keyword.arg == "kw_only" or (
                    keyword.arg == "slots" and name == "dataclass"
                ):
                    yield node.lineno, f"{name}({keyword.arg}=...)"


def imports_process_or_pool_machinery(tree: ast.Module) -> Iterator[Violation]:
    """The simulator is one process by construction."""
    for node in ast.walk(tree):
        for module in _imported(node):
            if module.split(".")[0] in ("concurrent", "multiprocessing"):
                yield node.lineno, f"imports {module}"


SRC = ("src/**/*.py",)
EVERYWHERE = SRC + ("tests/**/*.py", "examples/**/*.py", "benchmarks/**/*.py")

#: rule -> (the glob patterns of the files it reads, its check)
RULES = {
    "control-plane-and-baselines-skip-the-simulator": (
        (
            "src/repro/core/**/*.py",
            "src/repro/baselines/**/*.py",
            "src/repro/net/directive.py",
            "src/repro/net/view.py",
            "src/repro/net/result.py",
        ),
        imports_the_simulator,
    ),
    "simulator-imports-name-its-own-definitions": (
        EVERYWHERE,
        imports_a_name_it_does_not_define,
    ),
    "src-dataclasses-run-on-python-3.9": (SRC, dataclass_keywords_past_python_3_9),
    "src-imports-no-process-or-pool-machinery": (
        SRC,
        imports_process_or_pool_machinery,
    ),
}


@pytest.mark.parametrize("rule", RULES)
def test_layering(rule):
    patterns, check = RULES[rule]
    files = sorted({path for pattern in patterns for path in ROOT.glob(pattern)})
    assert files, patterns
    violations = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in files
        for line, what in check(_tree(path))
    ]
    assert not violations, "\n".join(violations)
