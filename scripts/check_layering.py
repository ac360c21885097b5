#!/usr/bin/env python
"""Import-layering lint for ``src/repro``.

Enforces the layer order documented in ``docs/PIPELINE.md``: a package
may import (at module load) only from *strictly lower* layers.  This is
what keeps ``repro.pipeline`` importable below ``core``/``baselines``/
``eval``/``serve`` and prevents the contract sprawl this lint was added
alongside (four layers each defining their own detector protocol) from
growing back.

    0  data, signal, nn, metrics, runtime, validation   (leaves)
    1  obs, augment
    2  discord
    3  pipeline          (the canonical window/feature/contract layer)
    4  core, baselines
    5  eval, serve
    6  jobs              (bulk-inference fabric over pipeline/eval)
    7  viz, cli          (presentation; imports lazily anyway)

``repro.jobs`` additionally faces a *consumer* restriction
(``RESTRICTED_CONSUMERS``): only ``cli`` may import it, at any scope.  The job fabric is an orchestration shell around the
lower layers — letting eval/core reach back into it would create
exactly the cyclic "everything drives everything" coupling the
subsystem was built to avoid.  What eval and jobs share, the fan-out
``parallel_map``, lives below both in ``runtime.workers``.

Note: this order deviates from an idealized "observability above the
model" stacking — ``core`` instruments itself through ``obs`` and
guards training through ``runtime``, so both sit *below* it here.  The
lint encodes the dependency reality and keeps it a DAG.

Within ``repro.serve`` a second, finer map (``SERVE_SUBLAYERS``) keeps
the serving subsystem itself a DAG: the engine at the centre, and the
shard fabric and the replay harness each built on it:

    0  stream            (ring buffers, per-stream window state)
    2  registry          (fixed fallback chain)
    3  engine            (micro-batching scorer; state externalization)
    4  shard             (placement, worker processes, router)
    5  replay            (labelled replay harness + failover drill)
    6  __init__          (facade)

Within ``repro.discord`` a third map (``DISCORD_SUBLAYERS``) keeps the
discord subsystem a DAG around the shared kernel layer: scalar
primitives at the bottom, the batched kernels above them, then the
algorithms in dependency order (DRAG builds on brute force, MERLIN on
DRAG):

    0  distance          (scalar primitives, exclusion defaults)
    1  kernels           (SeriesContext, batched sweeps, tile rule)
    2  brute             (Discord dataclass; exhaustive scan)
    3  drag
    4  merlin
    5  streaming
    6  __init__          (facade)

Packages listed in ``IMPORT_LEAF`` (currently ``nn``) face a stricter
rule: no ``repro.*`` import at *any* scope — the lazy-import escape
hatch below does not apply to them.

Only module-scope imports count for the layer maps.  Function-level
imports are the sanctioned escape hatch for presentation-layer laziness and genuine
back-references (e.g. ``jobs.registry`` building ``core.TriAD`` inside
its builders); ``if TYPE_CHECKING:`` blocks are typing-only and
exempt.

Exit status 0 when clean, 1 with one ``file:line`` diagnostic per
violation otherwise.  Run from anywhere::

    python scripts/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

LAYERS: dict[str, int] = {
    "data": 0,
    "signal": 0,
    "nn": 0,
    "metrics": 0,
    "runtime": 0,
    "validation": 0,
    "obs": 1,
    "augment": 1,
    "discord": 2,
    "pipeline": 3,
    "core": 4,
    "baselines": 4,
    "eval": 5,
    "serve": 5,
    "jobs": 6,
    "viz": 7,
    "cli": 7,
    # The facade re-exports the public API and the entry point launches
    # it; both sit above everything by construction.
    "__init__": 8,
    "__main__": 8,
}

# Consumer restrictions: packages only the listed consumers may import,
# at ANY scope (the function-level escape hatch does not apply).  The
# job fabric orchestrates the layers below it; nothing below may grow a
# dependency on it, and even the facade stays clean so ``import repro``
# never drags in multiprocessing machinery.
RESTRICTED_CONSUMERS: dict[str, frozenset[str]] = {
    "jobs": frozenset({"cli"}),
}

# Packages that must stay *import-leaves*: no ``repro.*`` import at ANY
# scope, function-level included.  ``repro.nn`` is the kernel layer —
# the layer rule above already blocks module-scope imports, but a lazy
# function-level import would silently couple the hot training loops
# (and every process that imports them, from shard workers to bulk
# job workers) to the rest of the tree, so leaves get the stricter
# whole-file check.
IMPORT_LEAF = {"nn"}

# Intra-``repro.serve`` sublayers: same strictly-lower rule, applied to
# the serving subsystem's own modules (see module docstring).
SERVE_SUBLAYERS: dict[str, int] = {
    "stream": 0,
    "registry": 2,
    "engine": 3,
    "shard": 4,
    "replay": 5,
    "__init__": 6,
}

# Intra-``repro.discord`` sublayers: everything sits on the shared
# kernel layer; the scalar primitives below it import nothing of the
# discord package (see module docstring).
DISCORD_SUBLAYERS: dict[str, int] = {
    "distance": 0,
    "kernels": 1,
    "brute": 2,
    "drag": 3,
    "merlin": 4,
    "streaming": 5,
    "__init__": 6,
}

# Packages with an intra-package sublayer map, enforced with the same
# strictly-lower rule as the top-level layers.
SUBLAYERS: dict[str, dict[str, int]] = {
    "serve": SERVE_SUBLAYERS,
    "discord": DISCORD_SUBLAYERS,
}


def _top_package(path: Path, package_root: Path) -> str:
    """``repro/<pkg>/...`` -> ``<pkg>``; ``repro/<mod>.py`` -> ``<mod>``."""
    rel = path.relative_to(package_root)
    return rel.parts[0].removesuffix(".py")


def _is_type_checking(test: ast.expr) -> bool:
    node = test
    if isinstance(node, ast.Attribute):
        return node.attr == "TYPE_CHECKING"
    return isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"


def _imported_packages(
    node: ast.Import | ast.ImportFrom, path: Path, package_root: Path
):
    """Yield the ``repro`` top-level package(s) an import node touches."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]
        return
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "repro":
            return
        remainder = parts[1:]
    else:
        rel = path.relative_to(package_root)
        base = list(rel.parts[:-1])
        hops = node.level - 1
        if hops > len(base):
            return  # escapes the package; not ours to judge
        base = base[: len(base) - hops] if hops else base
        remainder = base + ((node.module or "").split(".") if node.module else [])
    if remainder:
        yield remainder[0]
    else:
        # ``from repro import x`` / ``from .. import x`` — the names
        # themselves are the subpackages.
        for alias in node.names:
            yield alias.name


def _package_submodules(
    node: ast.Import | ast.ImportFrom,
    path: Path,
    package_root: Path,
    package: str,
):
    """Yield the ``repro.<package>`` submodule(s) an import node touches."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[:2] == ["repro", package] and len(parts) > 2:
                yield parts[2]
        return
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[:2] != ["repro", package]:
            return
        remainder = parts[2:]
    else:
        rel = path.relative_to(package_root)
        base = list(rel.parts[:-1])
        hops = node.level - 1
        if hops > len(base):
            return
        base = base[: len(base) - hops] if hops else base
        if base != [package]:
            return  # relative import reaching outside the package
        remainder = (node.module or "").split(".") if node.module else []
    if remainder:
        yield remainder[0]
    else:
        # ``from repro.<pkg> import x`` / ``from . import x`` inside the
        # package — the names themselves are the submodules.
        for alias in node.names:
            yield alias.name


def _module_scope_imports(tree: ast.Module, path: Path, package_root: Path):
    """(node, packages) for every import that runs at module load."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            if _is_type_checking(node.test):
                continue
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, (ast.Try, ast.With)):
            stack.extend(
                child for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.stmt)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, list(_imported_packages(node, path, package_root))


def check(package_root: Path = PACKAGE_ROOT) -> list[str]:
    """Return one diagnostic string per layering violation."""
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        where = path.relative_to(package_root.parent)
        source_pkg = _top_package(path, package_root)
        source_layer = LAYERS.get(source_pkg)
        if source_layer is None:
            violations.append(
                f"{where}:1: package {source_pkg!r} is not in the layer "
                f"map (scripts/check_layering.py)"
            )
            continue
        source_sub = None
        sub_map = SUBLAYERS.get(source_pkg)
        if sub_map is not None and path.parent.name == source_pkg:
            source_sub = sub_map.get(path.stem)
            if source_sub is None:
                violations.append(
                    f"{where}:1: {source_pkg} module {path.stem!r} is not in "
                    f"the {source_pkg} sublayer map (scripts/check_layering.py)"
                )
        tree = ast.parse(path.read_text(), filename=str(path))
        for restricted, allowed in RESTRICTED_CONSUMERS.items():
            if source_pkg == restricted or source_pkg in allowed:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for target in _imported_packages(node, path, package_root):
                    if target == restricted:
                        violations.append(
                            f"{where}:{node.lineno}: {source_pkg} imports "
                            f"repro.{restricted}, but only "
                            f"{sorted(allowed)} may (any scope) — the "
                            f"{restricted} fabric drives lower layers, "
                            f"never the reverse"
                        )
        if source_pkg in IMPORT_LEAF:
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for target in _imported_packages(node, path, package_root):
                    if target == source_pkg:
                        continue
                    violations.append(
                        f"{where}:{node.lineno}: {source_pkg} is an "
                        f"import-leaf but imports repro.{target} — leaf "
                        f"packages may not import the rest of repro at "
                        f"any scope"
                    )
            continue
        for node, targets in _module_scope_imports(tree, path, package_root):
            for target in targets:
                if target == source_pkg:
                    continue
                target_layer = LAYERS.get(target)
                if target_layer is None:
                    violations.append(
                        f"{where}:{node.lineno}: import of unknown package "
                        f"repro.{target}"
                    )
                elif target_layer >= source_layer:
                    violations.append(
                        f"{where}:{node.lineno}: {source_pkg} (layer "
                        f"{source_layer}) imports repro.{target} (layer "
                        f"{target_layer}) at module scope — only strictly "
                        f"lower layers are allowed; use a function-level "
                        f"import if the dependency is genuinely lazy"
                    )
            if source_sub is None:
                continue
            for target in _package_submodules(node, path, package_root, source_pkg):
                if target == path.stem:
                    continue
                target_sub = sub_map.get(target)
                if target_sub is None:
                    violations.append(
                        f"{where}:{node.lineno}: import of unknown "
                        f"{source_pkg} module repro.{source_pkg}.{target}"
                    )
                elif target_sub >= source_sub:
                    violations.append(
                        f"{where}:{node.lineno}: {source_pkg}.{path.stem} "
                        f"(sublayer {source_sub}) imports "
                        f"repro.{source_pkg}.{target} (sublayer {target_sub}) "
                        f"at module scope — only strictly lower "
                        f"{source_pkg} sublayers are allowed"
                    )
    return violations


def main() -> int:
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"\n{len(violations)} layering violation(s)")
        return 1
    print("layering clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
