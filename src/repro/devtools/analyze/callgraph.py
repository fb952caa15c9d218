"""Project-wide symbol reference graph (the "call graph").

Edges over-approximate "executing S may execute T": every *reference*
from S's code to a first-party symbol T becomes an edge, whether the
reference is a call, a decorator, a default value, or a function passed
by name.  That conservatism is what lets both consumers trust the
reachable set:

* the taint pass (:mod:`repro.devtools.analyze.report`) — a
  nondeterminism source anywhere in the reachable set taints the entry;
* the per-symbol cache fingerprints
  (:func:`repro.cache.fingerprint.fingerprint_symbols`) — a cache entry
  stays warm only while nothing in the reachable set changed.

Resolution rules:

* a name bound by ``from m import f`` resolves through re-export chains
  to the defining module;
* an attribute chain rooted at a module binding descends submodules and
  stops at the first symbol;
* importing a module (any form, anywhere) adds an edge to its
  ``<module>`` body and to every ancestor package's ``<module>`` (they
  all execute on import);
* an attribute of a first-party module that resolves to nothing — e.g.
  a PEP 562 ``__getattr__`` export — degrades to a *module-wide* edge
  (every symbol of that module) and marks the referent ``unknown``.
"""

# repro-lint: disable-file=nondet-id -- id() keys in-process AST-node
# maps (one tree, one pass); identities are never compared across runs
# or emitted.

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.devtools.analyze.project import Project
from repro.devtools.analyze.symbols import (
    MODULE_SYMBOL,
    Binding,
    ModuleSymbols,
    Symbol,
    build_module_symbols,
    has_opaque_decorator,
    symbol_scan_nodes,
)
from repro.devtools.context import dotted_chain

__all__ = [
    "SymbolKey",
    "CallGraph",
    "GraphBuilder",
    "build_graph",
    "reachable_from",
]

SymbolKey = tuple[str, str]


@dataclass
class CallGraph:
    """Symbols, edges, and unresolved-reference markers."""

    project: Project
    tables: dict[str, ModuleSymbols] = field(default_factory=dict)
    symbols: dict[SymbolKey, Symbol] = field(default_factory=dict)
    edges: dict[SymbolKey, set[SymbolKey]] = field(default_factory=dict)
    #: symbol -> dotted references that could not be resolved (feeds the
    #: "unknown" classification).
    unresolved: dict[SymbolKey, set[str]] = field(default_factory=dict)

    def add_edge(self, src: SymbolKey, dst: SymbolKey) -> None:
        if dst != src:
            self.edges.setdefault(src, set()).add(dst)

    def successors(self, key: SymbolKey) -> set[SymbolKey]:
        return self.edges.get(key, set())

    def reverse_edges(self) -> dict[SymbolKey, set[SymbolKey]]:
        reverse: dict[SymbolKey, set[SymbolKey]] = {}
        for src, dsts in self.edges.items():
            for dst in dsts:
                reverse.setdefault(dst, set()).add(src)
        return reverse

    def iter_module_symbols(self, module: str) -> Iterator[Symbol]:
        table = self.tables.get(module)
        if table is not None:
            yield from table.symbols.values()


def _ancestor_modules(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


class GraphBuilder:
    """Incremental graph builder: ``build`` may be called repeatedly
    with new seeds; already-processed modules are never re-scanned, so
    one builder can serve many entry points (the per-symbol fingerprint
    memo does exactly that)."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project=project)
        self._pending: list[str] = []

    # -- module loading ---------------------------------------------------

    def ensure_module(self, module: str) -> ModuleSymbols | None:
        """Load (and queue for edge-processing) ``module``'s table."""
        table = self.graph.tables.get(module)
        if table is not None:
            return table
        info = self.project.get(module)
        if info is None:
            return None
        table = build_module_symbols(self.project, info)
        self.graph.tables[module] = table
        for sym in table.symbols.values():
            self.graph.symbols[sym.key] = sym
        self._pending.append(module)
        return table

    # -- edge helpers -----------------------------------------------------

    def module_import_edges(self, src: SymbolKey, module: str) -> None:
        """``src`` imports ``module``: edge to its body and every
        ancestor package body (they execute along the import chain)."""
        for mod in [module, *_ancestor_modules(module)]:
            if self.ensure_module(mod) is not None:
                self.graph.add_edge(src, (mod, MODULE_SYMBOL))

    def module_wide_edges(self, src: SymbolKey, module: str, ref: str) -> None:
        """Unresolvable attribute on a first-party module: depend on
        everything it defines, and mark the reference unresolved."""
        table = self.ensure_module(module)
        self.graph.unresolved.setdefault(src, set()).add(ref)
        if table is None:
            return
        for sym in table.symbols.values():
            self.graph.add_edge(src, sym.key)

    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset[SymbolKey] = frozenset()
    ) -> SymbolKey | None:
        """Follow re-export chains to the defining module's symbol.

        Returns ``None`` when the chain dead-ends (dynamic export);
        callers degrade to a module-wide edge."""
        key = (module, name)
        if key in _seen:
            return None  # re-export cycle
        table = self.ensure_module(module)
        if table is None:
            return None
        if name in table.symbols:
            return key
        binding = table.bindings.get(name)
        if binding is None:
            if name in table.module_assigns:
                # a module-level constant: defined by the module body,
                # digested and tainted through ``<module>``
                return (module, MODULE_SYMBOL)
            return None
        if binding.kind == "module":
            return (binding.module, MODULE_SYMBOL)
        assert binding.symbol is not None
        return self.resolve_symbol(
            binding.module, binding.symbol, _seen | {key}
        )

    def binding_edges(self, src: SymbolKey, binding: Binding, ref: str) -> None:
        if binding.kind == "module":
            self.module_import_edges(src, binding.module)
            return
        assert binding.symbol is not None
        resolved = self.resolve_symbol(binding.module, binding.symbol)
        if resolved is None:
            self.module_wide_edges(src, binding.module, ref)
        else:
            self.graph.add_edge(src, resolved)

    def attribute_edges(
        self, src: SymbolKey, chain: tuple[str, ...], table: ModuleSymbols
    ) -> bool:
        """Edges for a dotted chain rooted at a module binding.  Returns
        True when the chain was handled (rooted first-party)."""
        binding = table.bindings.get(chain[0])
        if binding is None:
            return False
        if binding.kind == "symbol":
            self.binding_edges(src, binding, ".".join(chain))
            return True
        current = binding.module
        self.module_import_edges(src, current)
        for attr in chain[1:]:
            submodule = f"{current}.{attr}"
            if self.project.resolve_path(submodule) is not None:
                current = submodule
                self.module_import_edges(src, current)
                continue
            resolved = self.resolve_symbol(current, attr)
            if resolved is None:
                self.module_wide_edges(src, current, ".".join(chain))
            else:
                self.graph.add_edge(src, resolved)
            return True
        return True

    # -- per-symbol reference scan ---------------------------------------

    def scan_refs(
        self, src: SymbolKey, nodes: list[ast.AST], table: ModuleSymbols
    ) -> None:
        """Add edges for every first-party reference inside ``nodes``."""
        # A module-level ``from m import f`` only *binds* a name — the
        # import executes m's body, not f.  Uses of f elsewhere resolve
        # through the binding table.  Inside a def the binding is local
        # (not in the table), so there the alias itself must edge to f.
        binding_only = src[1] == MODULE_SYMBOL
        skip_names: set[int] = set()
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if self.project.is_first_party(alias.name):
                            self.module_import_edges(src, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    self._local_import_from(
                        src, node, table, binding_only=binding_only
                    )
                elif isinstance(node, ast.Attribute):
                    chain = dotted_chain(node)
                    if chain is not None and self.attribute_edges(
                        src, chain, table
                    ):
                        # the root Name is covered by the chain edges
                        root = _chain_root(node)
                        if root is not None:
                            skip_names.add(id(root))
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    if id(node) in skip_names:
                        continue
                    binding = table.bindings.get(node.id)
                    if binding is not None:
                        self.binding_edges(src, binding, node.id)

    def _local_import_from(
        self,
        src: SymbolKey,
        node: ast.ImportFrom,
        table: ModuleSymbols,
        binding_only: bool = False,
    ) -> None:
        from repro.devtools.analyze.symbols import resolve_relative_import

        if node.level:
            importing = table.module
            path = self.project.resolve_path(importing)
            is_pkg = path is not None and path.name == "__init__.py"
            base = resolve_relative_import(
                node.module or "", importing, node.level, is_pkg
            )
            if base is None:
                return
        else:
            base = node.module or ""
        if not base or not self.project.is_first_party(base):
            return
        self.module_import_edges(src, base)
        for alias in node.names:
            if alias.name == "*":
                # star-imported names never land in the binding table,
                # so uses of them cannot resolve later — stay sound by
                # depending on everything the source module defines.
                self.module_wide_edges(src, base, f"{base}.*")
                continue
            submodule = f"{base}.{alias.name}"
            if self.project.resolve_path(submodule) is not None:
                # ``from pkg import submod`` does execute submod's body
                self.module_import_edges(src, submodule)
                continue
            if binding_only:
                continue
            resolved = self.resolve_symbol(base, alias.name)
            if resolved is None:
                self.module_wide_edges(src, base, submodule)
            else:
                self.graph.add_edge(src, resolved)

    # -- module processing ------------------------------------------------

    def process_module(self, module: str) -> None:
        table = self.graph.tables[module]
        module_key = (module, MODULE_SYMBOL)
        for name, nodes in symbol_scan_nodes(table).items():
            self.scan_refs((module, name), nodes, table)
        for name, node in table.nodes.items():
            if not isinstance(node, ast.ClassDef):
                continue
            # A class body executes at import: its non-method statements
            # (base classes, field defaults, class attrs) are module
            # import-time behavior even though the class symbol owns them.
            class_level: list[ast.AST] = [
                stmt
                for stmt in node.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            ]
            self.scan_refs(module_key, class_level, table)
            if has_opaque_decorator(node):
                # an opaque class decorator may instantiate the class at
                # import: its whole body is import-time behavior
                self.graph.add_edge(module_key, (module, name))

    def build(self, seeds: list[str]) -> CallGraph:
        for seed in seeds:
            self.ensure_module(seed)
        while self._pending:
            module = self._pending.pop()
            self.process_module(module)
        return self.graph


def _chain_root(node: ast.Attribute) -> ast.Name | None:
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        current = current.value
    return current if isinstance(current, ast.Name) else None


def build_graph(project: Project, seeds: list[str]) -> CallGraph:
    """Build the reference graph over ``seeds`` and everything they
    transitively touch (lazily resolved through ``project``)."""
    return GraphBuilder(project).build(list(seeds))


def reachable_from(
    graph: CallGraph, entries: set[SymbolKey]
) -> dict[SymbolKey, SymbolKey | None]:
    """BFS over forward edges; maps each reachable symbol to its BFS
    parent (``None`` for entries) so callers can rebuild shortest
    chains."""
    parents: dict[SymbolKey, SymbolKey | None] = {
        key: None for key in entries if key in graph.symbols
    }
    frontier = list(parents)
    while frontier:
        nxt: list[SymbolKey] = []
        for key in frontier:
            for succ in sorted(graph.successors(key)):
                if succ in parents or succ not in graph.symbols:
                    continue
                parents[succ] = key
                nxt.append(succ)
        frontier = nxt
    return parents
