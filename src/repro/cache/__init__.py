"""``repro.cache`` — content-addressed incremental execution.

Every experiment is a pure function of ``(quick, seed)`` that freezes
into a schema-versioned :class:`~repro.runtime.artifact.RunArtifact`
(the PR-2 contract); this package makes that purity pay rent.  Three
layers:

* :mod:`~repro.cache.fingerprint` — AST-normalized hashing of the code
  an experiment can reach (its reachable symbols by default, its whole
  first-party import closure under ``REPRO_CACHE_FINGERPRINT=module``),
  so a cache entry survives comments and reformatting but not semantic
  edits;
* :mod:`~repro.cache.store` — the on-disk, content-addressed
  :class:`Cache` of artifacts, one file per entry, keyed by
  ``(experiment id, quick, seed, code fingerprint, schema version, RNG
  scheme, environment)``, consumed by
  ``execute(RunRequest(..., cache="auto"))``;
* :mod:`~repro.cache.memo` — in-process keyed-LRU memoization (with
  ``cache_info()``) for hot pure kernels
  (:func:`~repro.analysis.recurrence.solve_recurrence`,
  :func:`~repro.profiles.worst_case.worst_case_profile`).

:mod:`~repro.cache.verify` proves stored artifacts bit-identical (modulo
timing and git revision) to live recomputation; :mod:`~repro.cache.gc`
bounds the on-disk store (LRU eviction by each entry file's mtime under
byte/entry/age budgets, ``.tmp-*`` debris reaping, post-run auto-GC).
See ``docs/CACHE.md``.
"""

from repro.cache.gc import (
    DEFAULT_MAX_BYTES,
    Eviction,
    GCBudget,
    GCReport,
    collect,
)
from repro.cache.fingerprint import (
    Fingerprint,
    FingerprintError,
    clear_fingerprint_caches,
    fingerprint_module,
    module_path,
    normalized_source_digest,
)
from repro.cache.memo import MemoInfo, distribution_key, memoized
from repro.cache.store import (
    CACHE_ENTRY_VERSION,
    Cache,
    CacheEntry,
    CacheKey,
    CacheStats,
    cache_key_for,
    default_cache_dir,
    environment_tag,
)
from repro.cache.verify import VerifyRecord, VerifyReport, verify_store

__all__ = [
    "DEFAULT_MAX_BYTES",
    "Eviction",
    "GCBudget",
    "GCReport",
    "collect",
    "Fingerprint",
    "FingerprintError",
    "clear_fingerprint_caches",
    "fingerprint_module",
    "module_path",
    "normalized_source_digest",
    "MemoInfo",
    "distribution_key",
    "memoized",
    "CACHE_ENTRY_VERSION",
    "Cache",
    "CacheEntry",
    "CacheKey",
    "CacheStats",
    "cache_key_for",
    "default_cache_dir",
    "environment_tag",
    "VerifyRecord",
    "VerifyReport",
    "verify_store",
]
