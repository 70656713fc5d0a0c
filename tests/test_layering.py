"""Rules about what the source imports and declares, over parsed ASTs.

Each row of ``RULES`` names the files it reads and a check that yields
``(line, what)`` per violation; a failure lists them as ``path:line``.
The control plane and the baselines read a :class:`ClusterView` and emit
directives (``repro.net.view``, ``repro.net.directive``); none of them
depends on the data-plane driver, ``repro.net.simulator``.

``src/`` holds what the system runs: every ``def``/``class`` there is
named somewhere else in ``src/``. Exporting is not naming: an ``__all__``
entry or a package ``__init__`` re-importing a definition does not count.
Code only tests call lives in ``tests/oracles.py`` or the test that uses
it.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

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


def imports_process_or_pool_machinery(tree: ast.Module) -> Iterator[Violation]:
    """The simulator is one process by construction."""
    for node in ast.walk(tree):
        for module in _imported(node):
            if module.split(".")[0] in ("concurrent", "multiprocessing"):
                yield node.lineno, f"imports {module}"


def calls_flow_resources(tree: ast.Module) -> Iterator[Violation]:
    """The decide and the data plane read paths from the cycle cache's
    route table by server id, not per server pair by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "flow_resources":
                yield node.lineno, "calls flow_resources"


def _definitions(body: list, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """Module-level and class-body ``def``/``class`` nodes, by dotted name."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


#: The builtin ``sum`` calls ``src/`` keeps, by the definition they are
#: in: each folds ints, which add exactly in any order. Floats fold with
#: ``math.fsum``, correctly rounded, so no order or interpreter (the
#: builtin compensates from Python 3.12) reaches a result.
INT_FOLDS = {
    "FlowRows.compile": "path lengths",
    "SimResult.total_rate_stalemates": "stalemate counts times run lengths",
    "ShardPayload.approx_bytes": "fixed byte costs per job and per block",
    "ControlDecision.fold": "the shards' counts and payload byte counts",
    "Fig4.measure": "a count of ratios",
    "interference": "a count of cycles",
}


def _calls_of(name: str, tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, enclosing definition)`` per ``name(`` call."""
    owner = {}
    for qualname, node in _definitions(tree.body):
        if not isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                owner.setdefault(id(inner), qualname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        ):
            yield node.lineno, owner.get(id(node), "<module>")


def _sum_calls(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, enclosing definition)`` per builtin ``sum(`` call."""
    return _calls_of("sum", tree)


def folds_floats_with_builtin_sum(tree: ast.Module) -> Iterator[Violation]:
    for line, where in _sum_calls(tree):
        if where not in INT_FOLDS:
            yield line, f"builtin sum in {where}: fold floats with math.fsum"


#: Where a :class:`ClusterView` is constructed: the simulator's view of a
#: cycle, and every other view derived from one by ``replace``. A
#: subclass would be a third constructor.
VIEW_BUILDERS = ("Simulation._view", "ClusterView.replace")


def builds_a_view_outside_its_two_builders(tree: ast.Module) -> Iterator[Violation]:
    for line, where in _calls_of("ClusterView", tree):
        if where not in VIEW_BUILDERS:
            yield line, f"ClusterView( in {where}: derive the view with replace"
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "ClusterView"
            for base in node.bases
        ):
            yield node.lineno, f"{node.name} subclasses ClusterView"


def _all_strings(module: ast.Module) -> FrozenSet[int]:
    """The ids of the string nodes an ``__all__`` assignment lists."""
    return frozenset(
        id(node)
        for assign in ast.walk(module)
        if isinstance(assign, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
        for node in ast.walk(assign.value)
    )


@lru_cache(maxsize=None)
def _references(
    modules: Tuple[ast.Module, ...]
) -> Dict[str, List[Tuple[ast.Module, int]]]:
    """Where each name is used across ``modules``: a loaded or deleted
    name, an attribute or a string equal to it (``getattr(x, "name")``).
    An assignment target, a loop variable, an import alias and an
    ``__all__`` entry are not uses: binding or exporting a name does not
    call it."""
    uses: Dict[str, List[Tuple[ast.Module, int]]] = {}
    for module in modules:
        exports = _all_strings(module)
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    continue
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in exports
            ):
                name = node.value
            else:
                continue
            uses.setdefault(name, []).append((module, node.lineno))
    return uses


def unreferenced_definitions(
    tree: ast.Module, modules: Sequence[ast.Module]
) -> Iterator[Violation]:
    """The definitions of ``tree`` no code in ``modules`` names outside
    the definition itself. Dunders are exempt."""
    uses = _references(tuple(modules))
    for qualname, node in _definitions(tree.body):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if all(
            module is tree and first <= line <= node.end_lineno
            for module, line in uses.get(name, ())
        ):
            yield node.lineno, qualname


def _src_trees() -> Tuple[ast.Module, ...]:
    return tuple(_tree(path) for path in sorted(ROOT.glob("src/**/*.py")))


#: The definitions ``src/`` keeps for a caller outside it. A reason is
#: one of the two forms ``_REASON`` accepts, and its file must name the
#: definition; an entry the check no longer flags is stale.
LEDGER = "the frozen ledger reads it (`benchmarks/ledger/{}`)"
EXAMPLE = "an example calls it (`examples/{}`)"
ALLOWED = {
    "SimResult.fingerprint": LEDGER.format("child.py"),
    "SimResult.stage_time_totals": LEDGER.format("child.py"),
    "SimResult.total_rate_stalemates": LEDGER.format("child.py"),
    "PossessionIndex.record_delivery": LEDGER.format("trace.py"),
    "WorkloadGenerator.generate_diurnal": LEDGER.format("workloads.py"),
    "ControllerReplicaSet.leader": EXAMPLE.format("failover_drill.py"),
    "SweepResult.cheapest_meeting_deadline": EXAMPLE.format("capacity_planning.py"),
    "compare_sweeps": EXAMPLE.format("capacity_planning.py"),
    "format_rate": EXAMPLE.format("capacity_planning.py"),
}
_REASON = re.compile(
    r"(?:the frozen ledger reads it \(`(benchmarks/ledger/\w+\.py)`\)"
    r"|an example calls it \(`(examples/\w+\.py)`\))"
)


def src_definitions_have_a_src_caller(tree: ast.Module) -> Iterator[Violation]:
    for line, qualname in unreferenced_definitions(tree, _src_trees()):
        if qualname not in ALLOWED:
            yield line, f"{qualname} has no caller in src/"


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
    "src-imports-no-process-or-pool-machinery": (
        SRC,
        imports_process_or_pool_machinery,
    ),
    "src-definitions-have-a-src-caller": (SRC, src_definitions_have_a_src_caller),
    "src-folds-floats-with-fsum": (SRC, folds_floats_with_builtin_sum),
    "src-builds-views-in-two-places": (SRC, builds_a_view_outside_its_two_builders),
    "hot-path-reads-paths-by-server-id": (
        (
            "src/repro/core/routing.py",
            "src/repro/core/controller.py",
            "src/repro/net/simulator.py",
        ),
        calls_flow_resources,
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


def test_allowed_is_current():
    """Each entry is still flagged, and the file its reason names uses
    it as ``src/`` code would."""
    flagged = {
        qualname
        for tree in _src_trees()
        for _line, qualname in unreferenced_definitions(tree, _src_trees())
    }
    for qualname, reason in ALLOWED.items():
        match = _REASON.fullmatch(reason)
        assert match, f"{qualname}: {reason!r} is not an accepted reason"
        caller = ROOT / (match.group(1) or match.group(2))
        uses = _references((_tree(caller),))
        named = qualname.rpartition(".")[2] in uses
        assert named, f"{caller.relative_to(ROOT)} does not name {qualname}"
        assert qualname in flagged, f"{qualname} has a src/ caller: drop it"


def test_int_folds_are_current():
    """Each entry still encloses a builtin ``sum`` call."""
    kept = {where for tree in _src_trees() for _line, where in _sum_calls(tree)}
    assert sorted(kept) == sorted(INT_FOLDS)


def test_unreferenced_definitions_on_a_synthetic_module():
    tree = ast.parse(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def reimported(): pass\n"
        "def orphan(): return orphan()\n"
        "def by_string(): pass\n"
        "def rebound(): pass\n"
        "rebound = None\n"
        "for rebound in (): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def called(self): return 1\n"
        "    def uncalled(self): pass\n"
        "def use(box): return getattr(box, 'by_string'), box.called, Box\n"
    )
    package = ast.parse(
        "from m import reimported\n"
        "from m import reimported as alias\n"
        "__all__ = ['reimported', 'alias']\n"
    )
    assert [
        name for _line, name in unreferenced_definitions(tree, [tree, package])
    ] == [
        "exported",
        "reimported",
        "orphan",
        "rebound",
        "Box.uncalled",
        "use",
    ]
