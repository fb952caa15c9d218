"""Intrinsic nondeterminism-source detection (the taint seeds).

This pass looks at one symbol's AST in isolation and answers: does this
code *itself* consult something that can differ between two runs with
the same ``(experiment_id, quick, seed)``?  Interprocedural spread is
the call graph's job (:mod:`repro.devtools.analyze.report`); this module
only plants the seeds.

Sources, one rule id each:

==================  =====================================================
``nondet-wallclock``  ``time.time``/``perf_counter``/``monotonic`` and
                      friends, ``datetime.now``/``utcnow``/``today``
``nondet-env``        ``os.environ`` reads, ``os.getenv``, ``os.urandom``
``nondet-rng``        module-level ``random.*`` / ``numpy.random.*``
                      APIs (the hidden global, unseedable-per-run RNG);
                      explicit ``random.Random(seed)`` /
                      ``numpy.random.default_rng(seed)`` construction is
                      fine
``nondet-set-order``  iterating a ``set``/``frozenset`` into ordered
                      output (``for``, comprehensions, ``list()``,
                      ``join``) without ``sorted``
``nondet-id``         ``id()`` — CPython address, differs per process
``nondet-fs-order``   ``os.listdir``/``scandir``/``walk``, ``glob``,
                      ``Path.glob``/``rglob``/``iterdir`` without an
                      immediate ``sorted`` wrapper
==================  =====================================================

Alias tracking is textual but honest: ``import numpy as np`` makes
``np.random.shuffle`` canonicalize to ``numpy.random.shuffle``;
``from time import perf_counter as tick`` makes ``tick()`` canonicalize
to ``time.perf_counter``.
"""

# repro-lint: disable-file=nondet-id -- id() keys the in-process AST
# parent maps (one tree, one pass); identities are never compared
# across runs or emitted.

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.devtools.context import dotted_chain

__all__ = [
    "Finding",
    "TAINT_RULES",
    "canonical_name",
    "collect_aliases",
    "scan_taints",
]

#: rule id -> one-line summary (feeds --json and the docs table).
TAINT_RULES = {
    "nondet-wallclock": "reads the wall clock or a process timer",
    "nondet-env": "reads the process environment or OS entropy",
    "nondet-rng": "uses the global (unseeded-per-run) RNG APIs",
    "nondet-set-order": "iterates a set into ordered output without sorted()",
    "nondet-id": "depends on object identity (id())",
    "nondet-fs-order": "enumerates the filesystem without sorted()",
}

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_ENV_CALLS = {"os.getenv", "os.putenv", "os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: Seeded-RNG constructors: explicitly passing a seed is the sanctioned
#: pattern, so constructing these is never a finding.
_RNG_FACTORIES = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}

_FS_CALLS = {
    "os.listdir",
    "os.scandir",
    "os.walk",
    "glob.glob",
    "glob.iglob",
}

#: ``<receiver>.<attr>()`` filesystem enumerators (receiver type unknown
#: statically — assume ``pathlib.Path``-like).
_FS_METHODS = {"glob", "rglob", "iterdir"}

#: Tracked third-party/stdlib roots; anything else never canonicalizes,
#: keeping the alias map small and lookups cheap.
_TRACKED_TOPS = {
    "time",
    "datetime",
    "os",
    "glob",
    "random",
    "numpy",
    "secrets",
    "uuid",
}


@dataclass(frozen=True)
class Finding:
    """One intrinsic source site inside one symbol."""

    rule: str
    lineno: int
    col: int
    message: str


def collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted paths for tracked modules.

    Scans *every* import in the module (function-local imports
    included): the binding scope does not matter for canonicalization,
    only what the name means where it is used.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                if top not in _TRACKED_TOPS:
                    continue
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            base = node.module or ""
            if base.split(".", 1)[0] not in _TRACKED_TOPS:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{base}.{alias.name}"
    return aliases


def canonical_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted path of a Name/Attribute expression, or None."""
    chain = dotted_chain(node)
    if chain is None:
        return None
    base = aliases.get(chain[0])
    if base is None:
        return None
    return ".".join([base, *chain[1:]])


def _parent_map(roots: list[ast.AST]) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for root in roots:
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
    return parents


#: Combinators that preserve *set*-determinism: feeding them an
#: unordered enumeration and sorting the result is still a pure
#: function of the enumerated items.
_ORDER_INSENSITIVE = {"chain", "filter", "list", "tuple", "set", "frozenset"}


def _is_sorted_wrapped(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    """True when ``node`` reaches ``sorted(...)``, possibly through
    order-insensitive combinators (``sorted(chain(a.glob(), b.glob()))``
    is deterministic; ``islice`` or ``enumerate`` in between is not)."""
    while True:
        parent = parents.get(id(node))
        if not (isinstance(parent, ast.Call) and node in parent.args):
            return False
        func = parent.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == "sorted":
            return True
        if name not in _ORDER_INSENSITIVE:
            return False
        node = parent


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


#: Callables that turn their (set) argument into ordered output.
_ORDERING_CONSUMERS = {"list", "tuple", "enumerate", "iter", "next"}


def _set_order_sink(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    """Does this set expression feed order-sensitive consumption?"""
    if _is_sorted_wrapped(node, parents):
        return False
    parent = parents.get(id(node))
    if isinstance(parent, ast.For) and parent.iter is node:
        return True
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        return True
    if isinstance(parent, ast.Call) and node in parent.args:
        func = parent.func
        if isinstance(func, ast.Name) and func.id in _ORDERING_CONSUMERS:
            return True
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return True
    return False


def scan_taints(
    nodes: list[ast.AST], aliases: dict[str, str]
) -> list[Finding]:
    """All intrinsic source sites in one symbol's AST slice."""
    findings: list[Finding] = []
    parents = _parent_map(nodes)

    def emit(rule: str, node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                lineno=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=f"{what} — {TAINT_RULES[rule]}",
            )
        )

    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                canon = canonical_name(node.func, aliases)
                if canon is not None:
                    if canon in _WALLCLOCK_CALLS:
                        emit("nondet-wallclock", node, f"call to {canon}()")
                        continue
                    if canon in _ENV_CALLS:
                        emit("nondet-env", node, f"call to {canon}()")
                        continue
                    if canon in _RNG_FACTORIES:
                        continue  # seeded construction is the blessed path
                    if canon.startswith(("random.", "numpy.random.")):
                        emit(
                            "nondet-rng", node, f"call to {canon}()"
                        )
                        continue
                    if canon in _FS_CALLS and not _is_sorted_wrapped(
                        node, parents
                    ):
                        emit("nondet-fs-order", node, f"call to {canon}()")
                        continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and node.args
                ):
                    emit("nondet-id", node, "call to id()")
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_METHODS
                    and canonical_name(node.func.value, aliases) is None
                    and not _is_sorted_wrapped(node, parents)
                ):
                    emit(
                        "nondet-fs-order",
                        node,
                        f"call to .{node.func.attr}()",
                    )
                    continue
            elif isinstance(node, (ast.Attribute, ast.Name)):
                # ``os.environ`` in any form — bare, subscripted,
                # ``.get``/``.setdefault`` — flagged once at the top of
                # the attribute chain.
                canon = canonical_name(node, aliases)
                if (
                    canon is not None
                    and (canon == "os.environ" or canon.startswith("os.environ."))
                    and not isinstance(parents.get(id(node)), ast.Attribute)
                ):
                    emit("nondet-env", node, "read of os.environ")
            if _is_set_expr(node) and _set_order_sink(node, parents):
                emit(
                    "nondet-set-order",
                    node,
                    "set iterated into ordered output",
                )
    return findings
