"""Content-keyed artifact cache shared across synthesis contexts.

Every expensive intermediate of the synthesis flow (encoded state
graph, CSC-resolved state graph, per-signal cover implementations,
mapping results) is stored under a key derived from the *content* of
the source STG — the SHA-256 of its canonical ``.g`` serialization —
plus the artifact kind and its parameters.  Two contexts built from the
same circuit therefore share one reachability pass and one initial
synthesis, no matter how the circuit was loaded (benchmark registry,
``.g`` file, inline text).
"""

from __future__ import annotations

import hashlib
import threading
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable,
                    Optional, Tuple)

if TYPE_CHECKING:
    from repro.dist.base import ArtifactStore


def _cache_ops(op: str, amount: int = 1) -> None:
    """Mirror a memory-layer cache event onto the process registry."""
    from repro.obs.metrics import default_registry
    default_registry().counter(
        "si_cache_ops_total",
        "Memory-layer artifact cache events.",
        ("op",)).inc(amount, op=op)


def content_key_of(g_text: str) -> str:
    """The cache namespace for one circuit: SHA-256 of its ``.g`` form."""
    return hashlib.sha256(g_text.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A thread-safe memo table for synthesis artifacts.

    Keys are hashable tuples ``(kind, content_key, *params)``; values
    are whatever the compute thunk returns.  Artifacts are treated as
    immutable by convention — consumers that need to mutate a state
    graph must copy it (the mapper already does).

    Concurrent requests for the same key are serialized through a
    per-key in-flight event: exactly one caller computes, the others
    block until the value lands and then read it as a hit.  (The old
    lost-race policy recomputed the artifact *and* counted a hit.)

    With a persistent backend layered underneath — any
    :class:`~repro.dist.base.ArtifactStore`: the local
    :class:`~repro.pipeline.store.DiskArtifactCache`, a
    :class:`~repro.dist.remote.RemoteArtifactCache` talking to a
    ``si-mapper serve`` daemon, or a tiered combination — a memory
    miss consults the store before computing, and computed values are
    written through.  ``hits`` stays "served from memory" and
    ``misses`` stays "actually computed"; store traffic has its own
    counters on the backend's :class:`~repro.pipeline.store.
    StoreStats`.  Every event is also counted on the metrics registry
    (``si_cache_ops_total{op}``), which is where a run's
    ``cache_hits`` / ``cache_misses`` come from.
    """

    def __init__(self, disk: "Optional[ArtifactStore]" = None
                 ) -> None:
        self._store: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, threading.Event] = {}
        self.disk = disk
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, computing on miss."""
        while True:
            hit = False
            with self._lock:
                if key in self._store:
                    self.hits += 1
                    value = self._store[key]
                    hit = True
                else:
                    pending = self._inflight.get(key)
                    if pending is None:
                        pending = self._inflight[key] = threading.Event()
                        owner = True
                    else:
                        owner = False
            if hit:
                _cache_ops("hit")
                return value
            if not owner:
                # Another thread is computing this key: wait for it,
                # then re-check the store (it is absent again only if
                # the owner's compute raised, in which case we retry
                # the computation ourselves).
                pending.wait()
                continue
            if self.disk is not None:
                from repro.pipeline.store import MISS
                value = self.disk.get(key)
                if value is not MISS:
                    # warm start: neither a memory hit nor a compute —
                    # the disk layer counted it on ``disk.stats``.
                    with self._lock:
                        self._store[key] = value
                        del self._inflight[key]
                    pending.set()
                    _cache_ops("store_fill")
                    return value
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    del self._inflight[key]
                pending.set()
                raise
            with self._lock:
                self.misses += 1
                self._store[key] = value
                del self._inflight[key]
            pending.set()
            _cache_ops("miss")
            if self.disk is not None:
                self.disk.put(key, value)
            return value

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Tuple[int, int, int]:
        """``(entries, hits, misses)`` — for telemetry and tests."""
        with self._lock:
            return len(self._store), self.hits, self.misses

    def __repr__(self) -> str:
        entries, hits, misses = self.stats()
        return (f"ArtifactCache(entries={entries}, hits={hits}, "
                f"misses={misses})")
