"""AST-normalized code fingerprints for cache invalidation.

A cached :class:`~repro.runtime.artifact.RunArtifact` is only reusable
while the code that produced it is unchanged.  "Unchanged" here is
*semantic*, not textual: editing a comment or re-wrapping a line must not
invalidate anything, while editing an expression anywhere in the
experiment's transitive first-party import closure must.  The fingerprint
therefore hashes ``ast.dump(ast.parse(source))`` — the parsed tree, which
comments and whitespace never reach — for the experiment module *and*
every first-party module it transitively imports (including the package
``__init__`` modules that execute along the import chain).

The closure walk is purely static (no module is imported), so it is safe
to fingerprint code that is expensive or side-effectful to load, and it
works on synthetic package trees in tests via the ``root``/``prefix``
parameters.  Per-file digests and import lists are memoized on ``(path,
mtime, size)`` so fingerprinting all twenty experiments parses each
source file once per process.

Across processes, :func:`experiment_fingerprint` keeps the digests in a
memo file at the root of an artifact store (:data:`FINGERPRINT_MEMO`),
keyed by a byte digest of the source tree (:func:`source_tree_digest`).
A process that finds the memo for its tree parses nothing; any byte edit
misses it and recomputes through the same fingerprinters.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.errors import CacheError

__all__ = [
    "FingerprintError",
    "Fingerprint",
    "normalized_source_digest",
    "module_path",
    "first_party_imports",
    "fingerprint_module",
    "fingerprint_symbols",
    "fingerprint_mode",
    "FINGERPRINT_MEMO",
    "source_tree_digest",
    "experiment_fingerprint",
    "fingerprint_memo_state",
    "clear_fingerprint_caches",
    "fingerprint_generation",
]


class FingerprintError(CacheError):
    """A module in the fingerprint closure cannot be read or parsed."""


def _default_root() -> Path:
    """Directory containing the top-level ``repro`` package (i.e. ``src``)."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def normalized_source_digest(source: str, *, path: str = "<string>") -> str:
    """SHA-256 of the AST-normalized ``source``.

    Normalization is ``ast.dump`` of the parse tree: comments, whitespace,
    and formatting vanish; every token that can influence execution
    (including docstrings, which are runtime values) survives.
    """
    return _tree_digest(_parse(source, path))


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise FingerprintError(f"cannot parse {path}: {exc}") from None


def _tree_digest(tree: ast.Module) -> str:
    normalized = ast.dump(tree, include_attributes=False)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def module_path(module: str, root: Path) -> Path | None:
    """Resolve dotted ``module`` to its source file under ``root``.

    Returns the ``<module>.py`` file, the package's ``__init__.py``, or
    ``None`` when neither exists (not first-party, or namespace junk).
    """
    base = root.joinpath(*module.split("."))
    candidate = base.with_suffix(".py")
    if candidate.is_file():
        return candidate
    init = base / "__init__.py"
    if init.is_file():
        return init
    return None


def _resolve_relative(module: str, importing: str, level: int, is_package: bool) -> str | None:
    """Absolute module named by a ``from . import``-style statement issued
    inside ``importing`` (``level`` leading dots)."""
    parts = importing.split(".")
    # Level 1 inside a package __init__ refers to the package itself;
    # inside a plain module it refers to the containing package.
    drop = level - 1 if is_package else level
    if drop >= len(parts):
        return None
    base = parts[: len(parts) - drop]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def first_party_imports(
    tree: ast.Module, importing: str, prefix: str, root: Path
) -> Iterator[str]:
    """Yield the first-party modules statically imported by ``tree``.

    ``import p.q`` yields ``p.q``; ``from p.q import r`` yields ``p.q``
    plus ``p.q.r`` when that resolves to a real submodule file (a
    ``from``-import of a symbol and of a submodule are indistinguishable
    without resolving); relative imports resolve against ``importing``.
    """
    own_path = module_path(importing, root)
    is_package = own_path is not None and own_path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == prefix or name.startswith(prefix + "."):
                    yield name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                resolved = _resolve_relative(
                    node.module or "", importing, node.level, is_package
                )
                if resolved is None:
                    continue
                base = resolved
            else:
                base = node.module or ""
            if not (base == prefix or base.startswith(prefix + ".")):
                continue
            yield base
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                if module_path(sub, root) is not None:
                    yield sub


def _ancestor_packages(module: str) -> Iterator[str]:
    """Every package whose ``__init__`` executes when ``module`` is
    imported (``a.b.c`` -> ``a``, ``a.b``)."""
    parts = module.split(".")
    for i in range(1, len(parts)):
        yield ".".join(parts[:i])


@dataclass(frozen=True)
class Fingerprint:
    """Digest of a module's transitive first-party closure.

    ``digest`` hashes the sorted ``(module, file digest)`` pairs;
    ``modules`` records which modules contributed, for observability
    (``repro cache stats``) and tests.
    """

    module: str
    digest: str
    modules: tuple[str, ...]


# Per-process file memo: (path, module, prefix) -> ((mtime_ns, size),
# digest, first-party imports).  Keyed on the stat signature so an edited
# file re-parses but an unchanged one is parsed once per process no
# matter how many closures include it.
_FILE_FACTS: dict[
    tuple[Path, str, str], tuple[tuple[int, int], str, tuple[str, ...]]
] = {}
_CLOSURE_CACHE: dict[tuple[str, str, str], Fingerprint] = {}
_SYMBOL_CACHE: dict[tuple[str, str, str, str], Fingerprint] = {}
# (root, prefix) -> shared incremental GraphBuilder: all experiments of
# one tree extend the same graph instead of re-parsing it 20 times.
_GRAPH_BUILDERS: dict[tuple[str, str], object] = {}
# (root, prefix) -> (byte digest of the source files, their stat
# signature); see source_tree_digest().
_SOURCE_TREES: dict[
    tuple[str, str], tuple[str, tuple[tuple[str, int, int], ...]]
] = {}
# (memo file, tree digest) -> the digests known to be in that memo.
_MEMO_DIGESTS: dict[tuple[str, str], dict[str, str]] = {}

# One lock serializes fingerprint computation across threads.  The memo
# dicts alone would survive concurrency (GIL-atomic, idempotent writes),
# but the shared incremental GraphBuilder would not: two threads
# extending one graph interleave module loads and produce corrupted —
# nondeterministic — digests, which become wrong cache keys.  The serve
# daemon fingerprints from executor threads (the store fast path, and
# every jobs=0 execute), so computation must be single-file; post-warmup
# lookups only hold the lock for a dict probe.
_CACHE_LOCK = threading.RLock()

# Bumped by clear_fingerprint_caches().  Consumers that memoize
# *derived* values (the serve daemon's request-key -> digest hints)
# watch this to drop their memos in the same breath: within one
# process, digests only change when these caches are cleared, so the
# generation is the complete invalidation signal.
_GENERATION = 0


def fingerprint_generation() -> int:
    """A counter that advances whenever the fingerprint memos are
    cleared; anything caching digests derived from them should be
    dropped when it moves."""
    with _CACHE_LOCK:
        return _GENERATION


def clear_fingerprint_caches() -> None:
    """Drop the per-process digest, closure and source-tree memos
    (tests).  The memo files in artifact stores stay: they are keyed by
    the tree's bytes, so a process that re-reads them after an edit
    misses."""
    global _GENERATION
    # Test-only reset of idempotent memos; see waivers below.
    with _CACHE_LOCK:
        _FILE_FACTS.clear()  # repro-lint: disable=effect-global-mutation
        _CLOSURE_CACHE.clear()  # repro-lint: disable=effect-global-mutation
        _SYMBOL_CACHE.clear()  # repro-lint: disable=effect-global-mutation
        _GRAPH_BUILDERS.clear()  # repro-lint: disable=effect-global-mutation
        _SOURCE_TREES.clear()  # repro-lint: disable=effect-global-mutation
        _MEMO_DIGESTS.clear()  # repro-lint: disable=effect-global-mutation
        _GENERATION += 1  # repro-lint: disable=effect-global-mutation


def _file_facts(
    path: Path, module: str, prefix: str, root: Path
) -> tuple[str, tuple[str, ...]]:
    """The normalized digest of ``path`` (``module``'s source) and the
    first-party modules it imports, from one parse."""
    try:
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = _FILE_FACTS.get((path, module, prefix))
        if cached is not None and cached[0] == signature:
            return cached[1], cached[2]
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FingerprintError(f"cannot read {path}: {exc}") from None
    tree = _parse(source, str(path))
    digest = _tree_digest(tree)
    imports = tuple(first_party_imports(tree, module, prefix, root))
    # Content-keyed memo: same (path, stat) always maps to the same
    # facts, so the write is idempotent and call-order-free.
    _FILE_FACTS[path, module, prefix] = (signature, digest, imports)  # repro-lint: disable=effect-global-mutation
    return digest, imports


def fingerprint_module(
    module: str, *, root: Path | None = None, prefix: str | None = None
) -> Fingerprint:
    """Fingerprint ``module`` and its transitive first-party imports.

    ``root`` is the directory containing the top-level package (defaults
    to the installed ``repro`` tree); ``prefix`` is the first-party
    package name (defaults to the first component of ``module``).  The
    walk is static: files are parsed, never imported.
    """
    root = _default_root() if root is None else Path(root)
    if prefix is None:
        prefix = module.split(".")[0]
    # The closure cache is keyed per (module, root, prefix); it is NOT
    # stat-validated, so mutate-and-refingerprint flows (tests, long
    # sessions) must clear_fingerprint_caches() after editing sources.
    # The disk store's correctness does not depend on this cache: it only
    # amortizes repeated fingerprints within one run.
    cache_key = (module, str(root), prefix)
    with _CACHE_LOCK:
        cached = _CLOSURE_CACHE.get(cache_key)
        if cached is not None:
            return cached

        seen: dict[str, str] = {}
        stack = [module]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            path = module_path(current, root)
            if path is None:
                if current == module:
                    raise FingerprintError(
                        f"module {current!r} not found under {root}"
                    )
                continue  # first-party prefix but no file: nothing to hash
            seen[current], imports = _file_facts(path, current, prefix, root)
            for anc in _ancestor_packages(current):
                if anc == prefix or anc.startswith(prefix + "."):
                    stack.append(anc)
            stack.extend(imports)

        combined = hashlib.sha256()
        for name in sorted(seen):
            combined.update(name.encode("utf-8"))
            combined.update(b"\x00")
            combined.update(seen[name].encode("utf-8"))
            combined.update(b"\x00")
        fp = Fingerprint(
            module=module,
            digest=combined.hexdigest(),
            modules=tuple(sorted(seen)),
        )
        # Content-keyed memo: idempotent, call-order-free (see
        # _FILE_FACTS).
        _CLOSURE_CACHE[cache_key] = fp  # repro-lint: disable=effect-global-mutation
        return fp


def fingerprint_mode() -> str:
    """Which closure granularity cache keys use.

    ``symbol`` (the default) fingerprints only the code *reachable* from
    the experiment's entry point through the analyzer's reference graph,
    so editing one experiment's private helper invalidates only that
    experiment's entries.  ``module`` is the PR-3 behavior: hash every
    transitively imported file whole.  Set ``REPRO_CACHE_FINGERPRINT``
    to choose; unknown values raise so a typo cannot silently flip the
    invalidation semantics of the whole store.
    """
    import os

    # Granularity knob: changes *which key* a run looks up, never what
    # any cached entry contains — both modes are sound, symbol mode is
    # merely finer.
    raw = os.environ.get("REPRO_CACHE_FINGERPRINT", "symbol")  # repro-lint: disable=nondet-env
    mode = raw.strip().lower() or "symbol"
    if mode not in ("symbol", "module"):
        raise FingerprintError(
            f"REPRO_CACHE_FINGERPRINT must be 'symbol' or 'module', got {raw!r}"
        )
    return mode


def fingerprint_symbols(
    module: str,
    *,
    entry: str = "run",
    root: Path | None = None,
    prefix: str | None = None,
) -> Fingerprint:
    """Fingerprint the code *reachable* from ``module``'s entry point.

    Builds (lazily, memoized per process) the analyzer's project-wide
    reference graph (:mod:`repro.devtools.analyze`), walks forward from
    ``module.entry`` and from ``module``'s import-time body, and hashes
    one digest per reachable symbol: the full ``def``/``class`` node for
    named symbols, the body-stripped import-time surface for each
    module's ``<module>`` pseudo-symbol.  A comment-only edit anywhere
    changes nothing; editing a helper only changes keys whose entry can
    reach it.

    ``entry`` need not be a plain top-level ``def``: a runner built by
    indirection — ``run = functools.partial(_impl, ...)``, a decorator
    assignment ``run = wrap(_impl)``, or a re-export ``from .impl
    import run`` — resolves through the analyzer's binding table to the
    code that actually defines it (module-level assignments digest
    through the module body, whose references reach the wrapped
    callable).  Only when the name is genuinely dynamic (``__getattr__``,
    ``setattr``) does the entry set fall back to every symbol of
    ``module``: over-approximating keeps the key sound.

    Same caveat as :func:`fingerprint_module`: the memo is not
    stat-validated — call :func:`clear_fingerprint_caches` after editing
    sources mid-process.
    """
    # Imported lazily: repro.devtools.analyze.project imports
    # module_path from this module at its top level.
    from repro.devtools.analyze.callgraph import GraphBuilder, reachable_from
    from repro.devtools.analyze.symbols import (
        MODULE_SYMBOL,
        import_time_digest,
        symbol_digest,
    )
    from repro.devtools.analyze.project import Project
    from repro.errors import AnalysisError

    root = _default_root() if root is None else Path(root)
    if prefix is None:
        prefix = module.split(".")[0]
    cache_key = (module, entry, str(root), prefix)
    # The lock is load-bearing here, not just for the memo dicts: the
    # shared incremental GraphBuilder mutates under build(), and two
    # threads extending it concurrently would corrupt the graph and
    # digest nondeterministically.
    with _CACHE_LOCK:
        cached = _SYMBOL_CACHE.get(cache_key)
        if cached is not None:
            return cached

        if module_path(module, root) is None:
            raise FingerprintError(f"module {module!r} not found under {root}")
        builder_key = (str(root), prefix)
        shared = _GRAPH_BUILDERS.get(builder_key)
        if isinstance(shared, tuple) and isinstance(shared[0], GraphBuilder):
            builder, digests = shared
        else:
            builder = GraphBuilder(Project([root], prefixes=[prefix]))
            digests = {}
            # Shared content-keyed memo, same contract as _FILE_FACTS.
            _GRAPH_BUILDERS[builder_key] = (builder, digests)  # repro-lint: disable=effect-global-mutation
        try:
            graph = builder.build([module])
            # Follow partial/decorator/re-export indirection: a module-
            # level ``run = ...`` assignment resolves to the module body,
            # a re-exported name to its defining symbol.  Resolution may
            # load new modules; flush their edges before walking
            # reachability.
            resolved = builder.resolve_symbol(module, entry)
            if resolved is not None:
                graph = builder.build([])
        except AnalysisError as exc:
            raise FingerprintError(str(exc)) from None

        entries = {(module, MODULE_SYMBOL)}
        if resolved is not None:
            entries.add(resolved)
        else:
            entries.update(
                key for key in graph.symbols if key[0] == module
            )
        reachable = reachable_from(graph, entries)

        combined = hashlib.sha256()
        modules: set[str] = set()
        for mod, name in sorted(reachable):
            table = graph.tables[mod]
            digest = digests.get((mod, name))
            if digest is None:
                if name == MODULE_SYMBOL:
                    digest = import_time_digest(table.info)
                else:
                    digest = symbol_digest(table.nodes[name])
                digests[mod, name] = digest
            modules.add(mod)
            combined.update(f"{mod}::{name}".encode("utf-8"))
            combined.update(b"\x00")
            combined.update(digest.encode("utf-8"))
            combined.update(b"\x00")
        fp = Fingerprint(
            module=module,
            digest=combined.hexdigest(),
            modules=tuple(sorted(modules)),
        )
        # Content-keyed memo: idempotent, call-order-free (see
        # _FILE_FACTS).
        _SYMBOL_CACHE[cache_key] = fp  # repro-lint: disable=effect-global-mutation
        return fp


# -- the fingerprint memo ---------------------------------------------------

#: The memo's file name, at the root of an artifact store:
#: ``{"tree": <source_tree_digest>, "digests": {"<module>:<entry>": digest}}``.
FINGERPRINT_MEMO = ".fingerprints.json"


def _tree_signature(root: Path, prefix: str) -> tuple[tuple[str, int, int], ...]:
    """``(relative path, mtime_ns, size)`` of every file a fingerprint
    of ``prefix`` can read, in a fixed order: ``<root>/<prefix>.py``,
    then each ``*.py`` under ``<root>/<prefix>``."""
    files = [root / f"{prefix}.py"] if (root / f"{prefix}.py").is_file() else []
    if (root / prefix).is_dir():
        files.extend(p for p in sorted((root / prefix).rglob("*.py")) if p.is_file())
    signature = []
    for path in files:
        stat = path.stat()
        signature.append((path.relative_to(root).as_posix(), stat.st_mtime_ns, stat.st_size))
    return tuple(signature)


def _source_tree(
    root: Path, prefix: str
) -> tuple[str, tuple[tuple[str, int, int], ...]]:
    """Byte digest of the source files plus their stat signature, taken
    once per process (callers hold ``_CACHE_LOCK``)."""
    cached = _SOURCE_TREES.get((str(root), prefix))
    if cached is not None:
        return cached
    # Stat before reading: an edit in between leaves a signature older
    # than the bytes, which a later comparison reports as changed.
    signature = _tree_signature(root, prefix)
    files = hashlib.sha256()
    for rel, _, _ in signature:
        data = (root / rel).read_bytes()
        files.update(f"{rel}\x00{len(data)}\x00".encode("utf-8"))
        files.update(data)
    result = (files.hexdigest(), signature)
    # A per-process snapshot, like the closure memos: not re-validated
    # until clear_fingerprint_caches() drops it.
    _SOURCE_TREES[str(root), prefix] = result  # repro-lint: disable=effect-global-mutation
    return result


def _memo_key(files_digest: str) -> str:
    """The memo's ``tree`` value: the source bytes, the fingerprint
    mode, and the interpreter (``ast.dump`` output differs between
    Python versions)."""
    interpreter = ".".join(str(part) for part in sys.version_info)
    key = hashlib.sha256()
    for part in (sys.implementation.name, interpreter, fingerprint_mode(), files_digest):
        key.update(part.encode("utf-8"))
        key.update(b"\x00")
    return key.hexdigest()


def source_tree_digest(root: Path | None = None, prefix: str = "repro") -> str:
    """The key of the fingerprint memo: a SHA-256 over the interpreter,
    :func:`fingerprint_mode`, and the relative path and raw bytes of
    every source file under ``<root>/<prefix>``.  The bytes are read
    once per process; :func:`clear_fingerprint_caches` drops them."""
    root = _default_root() if root is None else Path(root)
    with _CACHE_LOCK:
        try:
            files_digest, _ = _source_tree(root, prefix)
        except OSError as exc:
            raise FingerprintError(f"cannot read the tree under {root}: {exc}") from None
    return _memo_key(files_digest)


def _load_memo(path: Path) -> tuple[str, dict[str, str]] | None:
    """``(tree, digests)`` from a memo file, or ``None`` when it is
    missing, unreadable or malformed."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    tree, digests = payload.get("tree"), payload.get("digests")
    if not isinstance(tree, str) or not isinstance(digests, dict):
        return None
    return tree, {k: v for k, v in digests.items() if isinstance(v, str)}


def _read_memo(path: Path, tree: str) -> dict[str, str]:
    loaded = _load_memo(path)
    return loaded[1] if loaded is not None and loaded[0] == tree else {}


def _write_memo(path: Path, tree: str, digests: dict[str, str]) -> None:
    """Replace the memo atomically (a ``.tmp-*`` file, then
    ``os.replace``).  Best-effort: a read-only store keeps no memo."""
    payload = {"tree": tree, "digests": dict(sorted(digests.items()))}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass  # the memo saves time; a store that cannot hold it still works


def _fingerprint(module: str, entry: str, root: Path, prefix: str) -> str:
    if fingerprint_mode() == "symbol":
        return fingerprint_symbols(module, entry=entry, root=root, prefix=prefix).digest
    return fingerprint_module(module, root=root, prefix=prefix).digest


def experiment_fingerprint(
    module: str,
    *,
    entry: str = "run",
    memo_root: Path | None = None,
    root: Path | None = None,
    prefix: str | None = None,
) -> str:
    """The code digest cache keys use for ``module.entry``, at the
    granularity :func:`fingerprint_mode` selects.

    With ``memo_root`` (an artifact store's root), the digest is read
    from the memo there when the memo belongs to this source tree
    (:func:`source_tree_digest`): no parse, no graph build.  On a miss it
    is computed as without the memo and written back, merged with what
    the memo already holds for the same tree, so concurrent workers keep
    each other's entries.  A tree that changed while the digest was
    computed is not written back.  The memo can cost time, never
    correctness: its key covers every byte the fingerprinters read.
    """
    root = _default_root() if root is None else Path(root)
    if prefix is None:
        prefix = module.split(".")[0]
    if memo_root is None:
        return _fingerprint(module, entry, root, prefix)
    name = f"{module}:{entry}"
    path = Path(memo_root) / FINGERPRINT_MEMO
    with _CACHE_LOCK:
        try:
            files_digest, signature = _source_tree(root, prefix)
        except OSError:
            return _fingerprint(module, entry, root, prefix)
        tree = _memo_key(files_digest)
        known = _MEMO_DIGESTS.setdefault((str(path), tree), {})  # repro-lint: disable=effect-global-mutation
        if name not in known:
            known.update(_read_memo(path, tree))
        if name in known:
            return known[name]
        digest = _fingerprint(module, entry, root, prefix)
        try:
            unchanged = _tree_signature(root, prefix) == signature
        except OSError:
            unchanged = False
        if unchanged:
            known.update(_read_memo(path, tree))
            known[name] = digest
            _write_memo(path, tree, known)
        return digest


def fingerprint_memo_state(
    memo_root: Path, *, root: Path | None = None, prefix: str = "repro"
) -> dict[str, Any]:
    """``{"state": s, "fingerprints": n}``: ``s`` is ``current`` when the
    memo in ``memo_root`` belongs to this source tree, ``stale`` when it
    belongs to another, and ``absent`` when there is no readable memo;
    ``n`` counts its fingerprints."""
    loaded = _load_memo(Path(memo_root) / FINGERPRINT_MEMO)
    if loaded is None:
        return {"state": "absent", "fingerprints": 0}
    tree, digests = loaded
    current = tree == source_tree_digest(root, prefix)
    return {"state": "current" if current else "stale", "fingerprints": len(digests)}
