"""Every ``src/repro`` module is reachable from an entry point.

A static import walk over the AST — no module is executed. The roots
are what a user actually runs: ``python -m repro``, the experiment
modules it loads by name (``EXPERIMENT_MODULES``), the documented
``python -m repro.tools.*`` scripts, ``examples/*.py`` and
``perfbench/*.py``. Every ``import`` and ``from ... import`` counts,
function-level ones included. Importing a module also runs its parent
packages' ``__init__``. ``from repro.sim import X`` follows
``repro.sim._LAZY`` to the module that defines ``X``; a ``_LAZY`` entry
that nothing imports is not an edge.

A module this walk misses is code that only its own tests call: delete
it with them, or give it a caller.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Documented ``python -m`` scripts (docs/api.md, "Command line").
TOOL_SCRIPTS = ("repro.tools.make_traces", "repro.tools.profile_trace")

#: Unreached on purpose. Each entry says why it stays.
ALLOWED_UNREACHED = {
    "repro.sim.detailed": (
        "cycle-level engine: the independent check of the interval "
        "timing model (tests/test_validation.py, tests/test_detailed.py)"
    ),
    "repro.analysis.validation": (
        "cross-checks the interval timing model against the detailed "
        "and scheduled engines (tests/test_validation.py)"
    ),
}


def _source_modules() -> Dict[str, Path]:
    """Dotted name -> file for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _source_modules()


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _lazy_table(module: str) -> Dict[str, str]:
    """A package's PEP 562 ``_LAZY`` map: attribute -> defining module."""
    path = MODULES.get(module)
    if path is None or path.name != "__init__.py":
        return {}
    for node in _parse(path).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_LAZY"
                        for t in node.targets)):
            return {name: target[0]
                    for name, target in ast.literal_eval(node.value).items()}
    return {}


def _imported_names(path: Path, module: str) -> Iterator[str]:
    """Every module name an import statement in ``path`` may load."""
    is_package = path.name == "__init__.py"
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = module.split(".")
                keep = len(package) - node.level + (1 if is_package else 0)
                base = ".".join(package[:keep] + ([node.module] if node.module else []))
            else:
                base = node.module
            yield base
            lazy = _lazy_table(base)
            for alias in node.names:
                yield f"{base}.{alias.name}"
                if alias.name in lazy:
                    yield lazy[alias.name]


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        prefix = ".".join(parts[:end])
        if prefix in MODULES:
            yield prefix


def _root_files() -> Iterator[Path]:
    yield from sorted((ROOT / "examples").glob("*.py"))
    yield from sorted((ROOT / "perfbench").glob("*.py"))


def _experiment_modules() -> Iterator[str]:
    for node in _parse(MODULES["repro.experiments"]).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "EXPERIMENT_MODULES"
                        for t in node.targets)):
            for name in ast.literal_eval(node.value):
                yield f"repro.experiments.{name}"


@lru_cache(maxsize=None)
def reached_modules() -> FrozenSet[str]:
    pending = ["repro.__main__", *TOOL_SCRIPTS, *_experiment_modules()]
    for path in _root_files():
        pending.extend(_imported_names(path, path.stem))
    reached: Set[str] = set()
    while pending:
        for name in _with_parents(pending.pop()):
            if name not in reached:
                reached.add(name)
                pending.extend(_imported_names(MODULES[name], name))
    return frozenset(reached)


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules() - set(ALLOWED_UNREACHED))
    assert not unreached, (
        f"no entry point imports {unreached}; delete them (with their "
        f"tests) or call them from an entry point"
    )


def test_allowlist_is_not_stale():
    reached = reached_modules()
    for name in ALLOWED_UNREACHED:
        assert name in MODULES, f"allowlisted {name} no longer exists"
        assert name not in reached, f"allowlisted {name} is reached now"


def test_roots_resolve():
    assert "repro.__main__" in reached_modules()
    for name in TOOL_SCRIPTS:
        assert name in MODULES
    assert list(_experiment_modules())
