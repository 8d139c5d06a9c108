"""repro.cache — content-addressed feature/margin caching.

Scans over near-identical layouts (ECO iterations) recompute MTCG
features and SVM margins for clips whose geometry did not change.  This
package keys both by geometry content so they are computed once:

- :mod:`repro.cache.keys` — translation-invariant clip keys plus
  config and model fingerprints.
- :mod:`repro.cache.store` — :class:`HotspotCache`, the in-process LRU
  layered over pluggable :class:`CacheStore` blob backends (disk,
  memory, or the fleet's HTTP remote tier), all sha256-integrity
  checked via the RPCB1 envelope.

Wiring lives with the consumers: ``FeatureExtractor.cache``,
``MultiKernelModel`` margin rows, ``HotspotDetector.attach_cache`` and
the ``--cache-dir/--no-cache/--incremental`` scan flags.  See
``docs/CACHING.md``.
"""

from .keys import (
    CACHE_KEY_VERSION,
    clip_content_key,
    feature_fingerprint,
    model_fingerprint,
)
from .store import (
    BLOB_MAGIC,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    CacheStore,
    DiskCacheStore,
    HotspotCache,
    MemoryCacheStore,
    open_blob,
    wrap_blob,
)

__all__ = [
    "BLOB_MAGIC",
    "CACHE_KEY_VERSION",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "CacheStore",
    "DiskCacheStore",
    "HotspotCache",
    "MemoryCacheStore",
    "open_blob",
    "wrap_blob",
    "clip_content_key",
    "feature_fingerprint",
    "model_fingerprint",
]
