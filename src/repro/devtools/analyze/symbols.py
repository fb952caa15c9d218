"""Per-module symbol tables for the interprocedural analysis.

Granularity: one symbol per top-level ``def``/``class``, plus one
pseudo-symbol ``<module>`` holding everything that executes at import
time.  Methods are *not* separate symbols — referencing a class pulls in
the whole class — because method dispatch is rarely resolvable
statically and an over-approximation here must err toward inclusion.

The same tables drive the per-symbol cache fingerprints
(:func:`repro.cache.fingerprint.fingerprint_symbols`), so the digest
helpers live here too:

* :func:`symbol_digest` — SHA-256 of ``ast.dump`` of the full ``def``/
  ``class`` node (comments and whitespace never reach the tree);
* :func:`import_time_digest` — digest of the module with the bodies of
  top-level functions (and of methods inside *undecorated* classes)
  replaced by ``pass``.  Signatures, decorators, default values, and
  annotations stay: they all execute at import.  Decorated classes stay
  whole — a registration decorator may instantiate the class at import,
  so their bodies are import-time behavior.
"""

from __future__ import annotations

import ast
import copy
import hashlib
from dataclasses import dataclass, field

from repro.devtools.analyze.project import ModuleInfo, Project

__all__ = [
    "MODULE_SYMBOL",
    "Binding",
    "Symbol",
    "ModuleSymbols",
    "build_module_symbols",
    "symbol_scan_nodes",
    "symbol_digest",
    "import_time_digest",
    "has_opaque_decorator",
    "resolve_relative_import",
]

#: Name of the pseudo-symbol holding a module's import-time code.
MODULE_SYMBOL = "<module>"


@dataclass(frozen=True)
class Binding:
    """What a module-level name resolves to.

    ``kind`` is ``"module"`` (the name is a first-party module object)
    or ``"symbol"`` (the name is — or is re-exported as — a symbol
    defined in ``module``; follow :meth:`ModuleSymbols` chains to the
    defining module)."""

    kind: str
    module: str
    symbol: str | None = None


@dataclass(frozen=True)
class Symbol:
    """One analysis node: a top-level def/class or the module body."""

    module: str
    name: str  # MODULE_SYMBOL, or the def/class name
    kind: str  # "module" | "function" | "class"
    lineno: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.name)

    def display(self) -> str:
        """Human form: ``pkg.mod.func`` / plain ``pkg.mod`` for the
        module body."""
        if self.name == MODULE_SYMBOL:
            return self.module
        return f"{self.module}.{self.name}"


@dataclass
class ModuleSymbols:
    """Symbol table plus name bindings for one module."""

    info: ModuleInfo
    symbols: dict[str, Symbol] = field(default_factory=dict)
    nodes: dict[str, ast.stmt] = field(default_factory=dict)
    bindings: dict[str, Binding] = field(default_factory=dict)
    #: Names assigned at module level (constants, caches) — the targets
    #: the global-mutation effect pass checks mutations against.
    module_assigns: set[str] = field(default_factory=set)

    @property
    def module(self) -> str:
        return self.info.name


def resolve_relative_import(
    module: str, importing: str, level: int, is_package: bool
) -> str | None:
    """Absolute module named by ``from <dots><module> import ...``
    inside ``importing`` (mirrors the cache-fingerprint resolution)."""
    from repro.cache.fingerprint import _resolve_relative

    return _resolve_relative(module, importing, level, is_package)


def _is_package(project: Project, module: str) -> bool:
    path = project.resolve_path(module)
    return path is not None and path.name == "__init__.py"


def _bind_import(
    table: ModuleSymbols, project: Project, node: ast.Import
) -> None:
    for alias in node.names:
        if not project.is_first_party(alias.name):
            continue
        if alias.asname:
            table.bindings[alias.asname] = Binding("module", alias.name)
        else:
            # ``import a.b.c`` binds the *top* package; attribute chains
            # descend from there.
            top = alias.name.split(".", 1)[0]
            table.bindings[top] = Binding("module", top)


def _bind_import_from(
    table: ModuleSymbols, project: Project, node: ast.ImportFrom
) -> None:
    importing = table.module
    if node.level:
        base = resolve_relative_import(
            node.module or "",
            importing,
            node.level,
            _is_package(project, importing),
        )
        if base is None:
            return
    else:
        base = node.module or ""
    if not base or not project.is_first_party(base):
        return
    for alias in node.names:
        if alias.name == "*":
            continue  # star imports are handled as whole-module deps
        bound = alias.asname or alias.name
        if project.resolve_path(f"{base}.{alias.name}") is not None:
            table.bindings[bound] = Binding("module", f"{base}.{alias.name}")
        else:
            table.bindings[bound] = Binding("symbol", base, alias.name)


def build_module_symbols(project: Project, info: ModuleInfo) -> ModuleSymbols:
    """Symbol table for one module: top-level defs, import bindings,
    module-level assignment targets."""
    table = ModuleSymbols(info=info)
    table.symbols[MODULE_SYMBOL] = Symbol(
        module=info.name, name=MODULE_SYMBOL, kind="module", lineno=1
    )
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.symbols[stmt.name] = Symbol(
                module=info.name,
                name=stmt.name,
                kind="function",
                lineno=stmt.lineno,
            )
            table.nodes[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            table.symbols[stmt.name] = Symbol(
                module=info.name,
                name=stmt.name,
                kind="class",
                lineno=stmt.lineno,
            )
            table.nodes[stmt.name] = stmt
        elif isinstance(stmt, ast.Import):
            _bind_import(table, project, stmt)
        elif isinstance(stmt, ast.ImportFrom):
            _bind_import_from(table, project, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        table.module_assigns.add(node.id)
    # A def/class name is also a module-level binding (so ``helper()``
    # inside a sibling function resolves to the local symbol).
    for name, sym in table.symbols.items():
        if name != MODULE_SYMBOL:
            table.bindings.setdefault(
                name, Binding("symbol", info.name, name)
            )
    return table


def symbol_scan_nodes(table: ModuleSymbols) -> dict[str, list[ast.AST]]:
    """Partition the module's AST among its symbols.

    A def/class symbol owns its full node.  ``<module>`` owns every
    other top-level statement *plus* the import-time slice of each def:
    decorators, base classes, class keywords, and default values — all
    of which evaluate when the module is imported.
    """
    parts: dict[str, list[ast.AST]] = {MODULE_SYMBOL: []}
    toplevel = parts[MODULE_SYMBOL]
    for stmt in table.info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts[stmt.name] = [stmt]
            toplevel.extend(stmt.decorator_list)
            args = stmt.args
            toplevel.extend(d for d in args.defaults if d is not None)
            toplevel.extend(d for d in args.kw_defaults if d is not None)
        elif isinstance(stmt, ast.ClassDef):
            parts[stmt.name] = [stmt]
            toplevel.extend(stmt.decorator_list)
            toplevel.extend(stmt.bases)
            toplevel.extend(kw.value for kw in stmt.keywords)
        else:
            toplevel.append(stmt)
    return parts


# -- digests ---------------------------------------------------------------


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    while isinstance(target, ast.Attribute):
        if target.attr == "dataclass":
            return True
        target = target.value
    return isinstance(target, ast.Name) and target.id == "dataclass"


def has_opaque_decorator(cls: ast.ClassDef) -> bool:
    """Whether any decorator on ``cls`` might run the class body's
    methods at import time (instantiate, call, register-and-invoke).

    ``@dataclass`` (bare, called, or ``dataclasses.dataclass``) is the
    one decorator known *not* to: it only synthesizes methods from the
    already-executed class body.  Everything else is treated as opaque.
    """
    return any(
        not _is_dataclass_decorator(d) for d in cls.decorator_list
    )


def _sha256_of_dump(node: ast.AST) -> str:
    dump = ast.dump(node, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def symbol_digest(node: ast.stmt) -> str:
    """Digest of one top-level def/class (the full node, decorators and
    docstring included — both are runtime behavior)."""
    return _sha256_of_dump(node)


def _stripped(node: ast.stmt) -> ast.stmt:
    """``node`` with a function's body replaced by ``pass``; any other
    statement is returned as is.  The copy is shallow: the signature,
    decorators and annotations are shared with ``node``, never edited."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node
    stripped = copy.copy(node)
    stripped.body = [ast.Pass()]
    return stripped


def import_time_digest(info: ModuleInfo) -> str:
    """Digest of the module's import-time surface.

    Bodies of top-level functions and of methods inside classes without
    an opaque decorator (see :func:`has_opaque_decorator`; ``@dataclass``
    is transparent) are replaced by ``pass`` — they run only when
    called, and callers depend on them through their own symbol digests.
    Everything else (imports, constants, signatures, decorators,
    defaults, annotations, class-level assignments, opaquely-decorated
    classes in full) executes at import and stays in the digest.

    ``info.tree`` is shared with :func:`symbol_digest` and with later
    fingerprints, so it is never edited: only the module node and the
    nodes whose body is replaced are (shallowly) copied.
    """
    body: list[ast.stmt] = []
    for stmt in info.tree.body:
        if isinstance(stmt, ast.ClassDef) and not has_opaque_decorator(stmt):
            cls = copy.copy(stmt)
            cls.body = [_stripped(inner) for inner in stmt.body]
            body.append(cls)
        else:
            body.append(_stripped(stmt))
    tree = copy.copy(info.tree)
    tree.body = body
    return _sha256_of_dump(tree)
