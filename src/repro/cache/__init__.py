"""Result caching for interactive analysis (paper Section 3.3)."""

from .cache import CacheStats, ResultCache
from .keys import cache_key, canonical_payload, short_key

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "canonical_payload",
    "short_key",
]
