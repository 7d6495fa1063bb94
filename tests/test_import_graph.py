"""Static import edges between ``repro`` modules.

``docs/architecture.md`` promises that the reference oracle shares no
operator code with the measured engines: an engine bug the oracle
shared could never be seen by a differential test.  The graph here is
read from the source (every ``import`` statement, function-level ones
included, plus the subpackage ``__init__`` each import executes) without
importing anything; the root ``repro`` facade is left out because it
re-exports the engines for library users.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import FrozenSet

import repro

SRC = Path(repro.__file__).parent


def _source(module: str) -> Path:
    parts = module.split(".")[1:]
    path = SRC.joinpath(*parts)
    package = path / "__init__.py"
    return package if package.exists() else path.with_suffix(".py")


def _is_module(module: str) -> bool:
    return _source(module).exists()


@lru_cache(maxsize=None)
def _imports(module: str) -> FrozenSet[str]:
    """``repro`` modules ``module`` imports directly."""
    source = _source(module)
    package = module if source.name == "__init__.py" else \
        module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = node.module
            if node.level:  # relative: climb from the importing package
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                prefix = ".".join(parts + [node.module] if node.module
                                  else parts)
            for alias in node.names:
                child = f"{prefix}.{alias.name}"
                found.add(child if _is_module(child) else prefix)
    edges = set()
    for name in found:
        if not name.startswith("repro."):
            continue
        parts = name.split(".")
        # importing a.b.c runs a.b's __init__ too
        edges.update(".".join(parts[:i]) for i in range(2, len(parts) + 1))
    return frozenset(name for name in edges if _is_module(name))


def reachable(start: str) -> FrozenSet[str]:
    """Every ``repro`` module importing ``start`` can load."""
    seen = {start}
    todo = [start]
    while todo:
        for name in _imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return frozenset(seen)


def test_oracle_imports_no_key_lookup_kernel():
    oracle = reachable("repro.reference")
    assert "repro.plan.logical" in oracle  # the walk does follow edges
    assert "repro.plan.keys" not in oracle
    # the engines do reach it: the edge above is one worth guarding
    assert "repro.plan.keys" in reachable("repro.colstore.engine")
    assert "repro.plan.keys" in reachable("repro.rowstore.engine")


def test_oracle_owns_its_output_semantics():
    oracle = reachable("repro.reference")
    assert "repro.result" in oracle  # the shared container
    assert "repro.plan.aggregates" not in oracle
    assert "repro.plan.tail" not in oracle
    # the container holds rows and nothing that orders or aggregates them
    assert reachable("repro.result") == {"repro.result"}
    # the engines do reach both: the edges above are worth guarding
    for engine in ("repro.colstore.engine", "repro.rowstore.engine",
                   "repro.plan.combine"):
        assert {"repro.plan.aggregates", "repro.plan.tail"} \
            <= reachable(engine)


def test_combiner_imports_no_oracle():
    """The WOS merge's combiner is engine-side code: it merges partials
    with the engines' own aggregate and tail semantics, never the
    oracle's, so a shared bug could not hide from the differential
    tests."""
    assert "repro.reference" not in reachable("repro.plan.combine")
    # the merge read still reaches the oracle, through the delta
    # evaluator (ROADMAP item 15 takes it out)
    assert "repro.reference" in reachable("repro.write.delta")
