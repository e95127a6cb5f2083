"""Persistent content-addressed result cache (``docs/caching.md``).

Every expensive quantity the paper's pipeline computes — clean
activations, per-layer Eq. 5 fits, sigma-search accuracy evaluations,
final bit allocations — is a pure, deterministic function of the model
weights, the calibration images, the seed, the probe grid, and the code
version.  This package stores those quantities on disk under keys
derived from exactly those inputs, so a repeated or swept run never
recomputes what an earlier run already proved:

* :mod:`repro.cache.keys` — content digests and canonical key hashing.
* :mod:`repro.cache.store` — atomic, checksummed, mmap-able artifact
  store (:class:`ResultCache`) with hit/miss/byte telemetry, and
  :func:`atomic_write`, the one write-then-rename every persisted file
  goes through.
* :mod:`repro.cache.maintenance` — stats / size-budgeted LRU GC /
  integrity verification (the ``repro cache`` CLI).
* :mod:`repro.cache.leases` — atomic lease files with TTL + heartbeat,
  the claim protocol distributed sweep workers coordinate through
  (``docs/distributed.md``).

A corrupt or missing entry is always a miss (the damaged file is
dropped and the value recomputed); cached results are bit-identical to
recomputed ones by construction, and the whole layer disconnects via
``--no-cache``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from .keys import (
    CODE_SALT,
    array_digest,
    dataset_digest,
    make_key,
    network_digest,
    profiles_digest,
)
from .leases import (
    Lease,
    LeaseHeartbeat,
    LeaseSettings,
    acquire_lease,
    lease_age_seconds,
    lease_is_expired,
    read_lease,
    steal_expired_lease,
)
from .maintenance import (
    DEFAULT_MAX_BYTES,
    CacheStatsReport,
    GCReport,
    VerifyReport,
    cache_stats,
    gc,
    verify,
)
from .store import CacheCounters, ResultCache, atomic_write

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Directory used when neither a flag nor the environment names one.
DEFAULT_CACHE_DIR = ".repro-cache"


def resolve_cache_dir(directory: Union[str, Path, None] = None) -> Path:
    """The cache directory a CLI invocation should operate on."""
    if directory:
        return Path(directory)
    env = os.environ.get(CACHE_DIR_ENV, "")
    return Path(env) if env else Path(DEFAULT_CACHE_DIR)


def open_cache(
    cache: Union[None, str, Path, ResultCache],
    metrics: Optional[object] = None,
) -> Optional[ResultCache]:
    """Coerce a user-facing cache knob into a store (or None = off)."""
    from ..telemetry.metrics import MetricsRegistry

    if cache is None or isinstance(cache, ResultCache):
        return cache
    registry = metrics if isinstance(metrics, MetricsRegistry) else None
    return ResultCache(Path(cache), metrics=registry)


__all__ = [
    "CACHE_DIR_ENV",
    "CODE_SALT",
    "CacheCounters",
    "CacheStatsReport",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "GCReport",
    "Lease",
    "LeaseHeartbeat",
    "LeaseSettings",
    "ResultCache",
    "VerifyReport",
    "acquire_lease",
    "array_digest",
    "atomic_write",
    "cache_stats",
    "dataset_digest",
    "gc",
    "lease_age_seconds",
    "lease_is_expired",
    "make_key",
    "network_digest",
    "open_cache",
    "profiles_digest",
    "read_lease",
    "resolve_cache_dir",
    "steal_expired_lease",
    "verify",
]
