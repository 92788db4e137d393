"""Maintenance tooling for the sharded result cache (``repro cache``).

Two operations over a :class:`~repro.experiments.parallel.ResultCache`
root, neither of which ever touches simulation semantics (cache keys are
content-addressed, so removal can only cause re-simulation, never wrong
results):

* :func:`cache_stats` — entry/byte counts and shard distribution;
* :func:`prune` — evict entries older than ``max_age_days`` and/or the
  oldest entries beyond ``max_bytes``; the age bound also deletes temp
  files that crashed writers left behind.

Both are safe to run while other processes read and write the cache.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Optional

from repro.experiments.parallel import ResultCache


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """One snapshot of a cache root."""

    root: str
    entries: int
    total_bytes: int
    shards: int
    min_shard_entries: int
    max_shard_entries: int
    mean_shard_entries: float

    def summary(self) -> str:
        lines = [
            f"cache {self.root}",
            f"  entries: {self.entries}",
            f"  bytes:   {self.total_bytes}",
            f"  shards:  {self.shards}",
        ]
        if self.shards:
            lines.append(
                "  entries/shard: "
                f"min {self.min_shard_entries}, "
                f"max {self.max_shard_entries}, "
                f"mean {self.mean_shard_entries:.1f}"
            )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class PruneResult:
    removed: int
    kept: int
    bytes_freed: int

    def summary(self) -> str:
        return (
            f"pruned {self.removed} entries ({self.bytes_freed} bytes), "
            f"{self.kept} kept"
        )


def _entry_map(cache: ResultCache) -> dict[str, tuple[float, int]]:
    """Key → (mtime, bytes) of every entry."""
    return {info.key: (info.mtime, info.nbytes) for info in cache.iter_entries()}


def cache_stats(root: str | os.PathLike[str]) -> CacheStats:
    per_shard: dict[str, int] = {}
    total_bytes = 0
    for info in ResultCache(root).iter_entries():
        per_shard[info.key[:2]] = per_shard.get(info.key[:2], 0) + 1
        total_bytes += info.nbytes
    counts = list(per_shard.values())
    return CacheStats(
        root=str(root),
        entries=sum(counts),
        total_bytes=total_bytes,
        shards=len(counts),
        min_shard_entries=min(counts) if counts else 0,
        max_shard_entries=max(counts) if counts else 0,
        mean_shard_entries=(sum(counts) / len(counts)) if counts else 0.0,
    )


def prune(
    root: str | os.PathLike[str],
    *,
    max_age_days: Optional[float] = None,
    max_bytes: Optional[int] = None,
    now: Optional[float] = None,
) -> PruneResult:
    """Evict stale and/or excess entries, oldest first.

    ``max_age_days`` removes entries older than the cutoff, and temp files
    older than it (a writer that died before renaming its temp file into
    place leaves one; a live writer's is only seconds old); ``max_bytes``
    then evicts the oldest remaining entries until the cache fits. Either
    bound may be given alone.
    """
    cache = ResultCache(root)
    entries = _entry_map(cache)
    now = time.time() if now is None else now

    victims: set[str] = set()
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        victims.update(k for k, (mtime, _) in entries.items() if mtime < cutoff)
        cache.remove_temp_files(older_than=cutoff)
    if max_bytes is not None:
        kept = [
            (mtime, key, nbytes)
            for key, (mtime, nbytes) in entries.items()
            if key not in victims
        ]
        total = sum(nbytes for _, _, nbytes in kept)
        for mtime, key, nbytes in sorted(kept):
            if total <= max_bytes:
                break
            victims.add(key)
            total -= nbytes

    bytes_freed = sum(entries[k][1] for k in victims)
    cache.remove_keys(victims)
    return PruneResult(
        removed=len(victims),
        kept=len(entries) - len(victims),
        bytes_freed=bytes_freed,
    )


__all__ = [
    "CacheStats",
    "PruneResult",
    "cache_stats",
    "prune",
]
