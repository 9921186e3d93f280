"""The autotune cache: converged row maps keyed by (graph, config).

The Eq. 5 auto-tuner spends its first rounds probing hotspots and
migrating rows; once converged, the map is optimal for that (sparse
matrix, architecture) pair forever — the matrix does not change between
requests. :class:`AutotuneCache` therefore memoizes the per-stage
converged :class:`~repro.accel.workload.RowAssignment` maps (plus the
recorded warm-up cycle trace) under a ``(workload fingerprint,
ArchConfig)`` key. A repeat graph skips the tuner loop entirely and goes
through the vectorized frozen fast path of
:func:`~repro.accel.cyclemodel.simulate_spmm_frozen`, producing a report
cycle-identical to the cold run at a fraction of the simulation cost.

Entries survive the process: :meth:`AutotuneCache.save` writes a single
``.npz`` archive (owner maps as arrays, everything else as an embedded
JSON index) and :meth:`AutotuneCache.load` restores it, so a service
restart starts warm.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from repro.accel.config import ArchConfig
from repro.accel.gcnaccel import CachedStage, CachedTuning
from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER, config_label
from repro.utils.validation import check_instance, check_positive_int


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one :class:`AutotuneCache`."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    """Entries dropped by the LRU size bound since the last clear."""

    @property
    def lookups(self):
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CacheEntryInfo:
    """One entry of an :meth:`AutotuneCache.snapshot` view."""

    fingerprint: str
    config: ArchConfig
    hits: int
    """Lookup hits this cache served from the entry (its own history —
    merge, replicate and load do not transfer donor hit counts)."""
    last_used: float
    """Simulated-clock time of the entry's last store or lookup hit
    (the cache's :attr:`~AutotuneCache.clock` at that moment)."""

    @property
    def key(self):
        """The composite ``(fingerprint, config)`` cache key."""
        return (self.fingerprint, self.config)


class AutotuneCache:
    """Persistent map from (workload fingerprint, config) to tuning state.

    The stored value is a :class:`~repro.accel.CachedTuning`: one frozen
    owner map + warm-up trace per SPMM stage of the inference.
    :meth:`lookup` and :meth:`store` are the hook surface
    :meth:`~repro.accel.GcnAccelerator.run` drives. The service's other
    entry points are side-effect-free reads — ``key in cache`` and
    :meth:`get` for the affinity router's coverage and replica
    sources, :meth:`peek` for the backfill screen — and
    :meth:`replicate`, which copies hot entries between per-instance
    shards through :meth:`store`; the service never touches entries
    directly.

    ``max_entries`` bounds the cache LRU-style: every :meth:`lookup`
    hit and :meth:`store` refreshes the key's recency, and an insert
    that would exceed the bound evicts the least-recently-used entries
    first (counted in :attr:`stats`). None keeps the historical
    unbounded behavior. Recency survives persistence: :meth:`save`
    archives entries in LRU order (least recent first) and
    :meth:`load` restores them in that order, so cross-process cache
    sharing keeps evicting in true recency order.
    """

    def __init__(self, *, max_entries=None):
        if max_entries is not None:
            max_entries = check_positive_int(max_entries, "max_entries")
        self.max_entries = max_entries
        # Insertion-ordered dict doubling as the LRU list: the front is
        # the least recently used, re-insertion moves a key to the back.
        self._entries = {}
        # Per-entry [hits, last_used] metadata, keyed like _entries.
        self._meta = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.clock = 0.0
        """Simulated-clock anchor stamped onto entry metadata
        (``last_used``); the service advances it alongside its own
        clock. Standalone users may leave it at 0.0."""
        self.tracer = NULL_TRACER
        """Event sink for cache traffic (:mod:`repro.obs`); the service
        points it at its own tracer. Timestamps use the tracer's
        current simulated anchor."""
        self.lane = "cache"
        """Trace lane cache events are emitted on; the affinity service
        renames per-worker shards (``cache/w0`` ...) so their traffic
        is distinguishable in the stream."""

    @staticmethod
    def _key_args(fingerprint, config):
        """Deterministic event args naming one cache key."""
        return {
            "key": str(fingerprint)[:24],
            "config": config_label(config),
        }

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """The entry under a :meth:`key` tuple, or None, read as ``in``
        tests it: no counter, no recency, no event."""
        return self._entries.get(key)

    @staticmethod
    def key(fingerprint, config):
        """The composite cache key for a workload/config pair."""
        if not isinstance(config, ArchConfig):
            raise ConfigError(
                f"config must be ArchConfig, got {type(config).__name__}"
            )
        return (str(fingerprint), config)

    def lookup(self, fingerprint, config):
        """Return the cached :class:`CachedTuning` or None (counted).

        ``fingerprint`` is the workload's structural hash
        (:meth:`~repro.accel.GcnAccelerator.fingerprint` — any object
        whose ``str()`` names the workload deterministically) and
        ``config`` the :class:`~repro.accel.ArchConfig` it would run
        under; together they form the cache key. Every call counts as
        a hit or miss in :attr:`stats`; a hit refreshes the key's LRU
        recency.
        """
        key = self.key(fingerprint, config)
        # A hit moves its key to the back with one pop and one
        # re-insert: each dict operation re-hashes the config.
        entry = self._entries.pop(key, None)
        if entry is None:
            self._misses += 1
        else:
            self._hits += 1
            self._entries[key] = entry
            meta = self._meta[key]
            meta[0] += 1
            meta[1] = self.clock
        if self.tracer.enabled:
            self.tracer.instant(
                "cache.hit" if entry is not None else "cache.miss",
                lane=self.lane, args=self._key_args(fingerprint, config),
            )
        return entry

    def peek(self, fingerprint, config):
        """Return the cached entry without counting or touching recency.

        The side-effect-free read behind scheduling probes such as the
        backfill screen's :class:`OverlayCache`, which must not perturb
        the hit/miss counters or the LRU order, or a later real run
        would diverge from the oracle; it records a ``cache.peek``
        event. (The affinity router reads shards with ``key in cache``
        and :meth:`get` instead: it already holds each key as a tuple,
        and neither re-checks the config type nor emits an event.)
        """
        entry = self._entries.get(self.key(fingerprint, config))
        if self.tracer.enabled:
            args = self._key_args(fingerprint, config)
            args["found"] = entry is not None
            self.tracer.instant("cache.peek", lane=self.lane, args=args)
        return entry

    def store(self, fingerprint, config, entry):
        """Insert (or overwrite) the tuning state for a key.

        ``fingerprint``/``config`` form the key as in :meth:`lookup`;
        ``entry`` must be a :class:`~repro.accel.CachedTuning` (the
        frozen owner maps plus warm-up cycle traces of one full
        inference — cycle counts, not timestamps, so an entry is valid
        under any arrival pattern). The key becomes the most recently
        used; when ``max_entries`` is set, least-recently-used entries
        are evicted to make room.
        """
        check_instance(entry, CachedTuning, "entry")
        key = self.key(fingerprint, config)
        self._entries.pop(key, None)
        self._entries[key] = entry
        # Re-storing a key keeps its hit count (same logical entry);
        # a fresh key starts cold. Either way the store refreshes the
        # last-used stamp alongside the LRU recency.
        meta = self._meta.setdefault(key, [0, self.clock])
        meta[1] = self.clock
        if self.tracer.enabled:
            self.tracer.instant(
                "cache.store", lane=self.lane,
                args=self._key_args(fingerprint, config),
            )
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._meta.pop(oldest, None)
                self._evictions += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "cache.evict", lane=self.lane,
                        args=self._key_args(oldest[0], oldest[1]),
                    )

    def merge(self, other):
        """Fold another cache's entries into this one (merge-on-gather).

        Walks ``other`` in its LRU order (least recently used first).
        New keys are :meth:`store`-d (becoming the most recently used
        here, carrying the donor's last-used stamp); a key already
        present is left exactly where it sits in the receiver's LRU
        order unless the donor's copy is strictly *fresher* (larger
        ``last_used``), in which case it is re-stored and promoted —
        a gather must not make hot local entries look cold.
        Counters are not transferred — hits/misses (and per-entry hit
        counts) describe *this* cache's lookup history, not the
        donor's. Returns the number of donor entries folded in
        (stored or already present).

        This is the deterministic gather path for worker-local caches:
        merging the same caches in the same order always yields the same
        contents and LRU order, regardless of how the donors were
        populated in time.
        """
        check_instance(other, AutotuneCache, "other")
        merged = 0
        for key, entry in list(other._entries.items()):
            fingerprint, config = key
            incoming = other._meta.get(key, [0, 0.0])[1]
            existing = self._meta.get(key)
            if key in self._entries and incoming <= existing[1]:
                merged += 1
                continue
            hits = existing[0] if existing is not None else 0
            self.store(fingerprint, config, entry)
            meta = self._meta[key]
            meta[0] = hits
            meta[1] = incoming
            merged += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "cache.merge", lane=self.lane, args={"entries": merged},
            )
        return merged

    def replicate(self, replicas, *, admit):
        """Store the replicas this cache lacks; returns the keys stored.

        ``replicas`` yields ``(key, entry)`` pairs in priority order,
        ``key`` a :meth:`key` tuple and ``entry`` the
        :class:`~repro.accel.CachedTuning` another cache holds for it.
        A key this cache already holds is skipped and keeps its place
        in the LRU order. Any other key goes through :meth:`store`, so
        it becomes the most recently used entry, stamped with
        :attr:`clock`. When that store would evict the least recently
        used entry ``victim``, ``admit(key, victim)`` decides first,
        and a refused replica is not stored.
        """
        stored = []
        for key, entry in replicas:
            if key in self._entries:
                continue
            if (self.max_entries is not None
                    and len(self._entries) >= self.max_entries
                    and not admit(key, next(iter(self._entries)))):
                continue
            self.store(key[0], key[1], entry)
            stored.append(key)
        return stored

    def clear(self):
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._meta.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def stats(self):
        """Current :class:`CacheStats`."""
        return CacheStats(
            hits=self._hits, misses=self._misses,
            entries=len(self._entries), evictions=self._evictions,
        )

    def snapshot(self):
        """Per-entry metadata view, in LRU order (least recent first).

        Returns a tuple of :class:`CacheEntryInfo` carrying each
        entry's hit count and last-used simulated timestamp — the
        recency/frequency signal, readable without inferring it from
        position.
        """
        return tuple(
            CacheEntryInfo(
                fingerprint=fingerprint, config=config,
                hits=self._meta[(fingerprint, config)][0],
                last_used=self._meta[(fingerprint, config)][1],
            )
            for fingerprint, config in self._entries
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write every entry to ``path`` as a single ``.npz`` archive.

        Owner maps go in as arrays; fingerprints, configs, warm-up traces
        and convergence rounds ride in an embedded JSON index. Entries
        are archived in the live LRU order (least recently used first),
        so a :meth:`load` restores not just the contents but the
        eviction order — a warm restart evicts exactly what the saved
        process would have evicted next. Returns the path actually
        written (numpy appends ``.npz`` when the given path has no
        suffix, and so does this return value).

        The write is atomic: the archive is serialized to a temp file
        next to ``path`` and moved into place with :func:`os.replace`,
        so a crash mid-save (or a concurrent saver) never leaves a
        truncated archive — readers see either the old file or the new
        one, whole.
        """
        path = str(path)
        if not path.endswith(".npz"):
            path = path + ".npz"
        index = []
        arrays = {}
        for slot, ((fingerprint, config), entry) in enumerate(
            self._entries.items()
        ):
            stages_meta = []
            flat = 0
            for layer in entry.layers:
                layer_meta = []
                for stage in layer:
                    arrays[f"e{slot}_s{flat}"] = stage.owner
                    layer_meta.append({
                        "warmup": list(stage.warmup_costs),
                        "converged_round": stage.converged_round,
                        "final_backlog": stage.final_backlog,
                        "total_backlog": stage.total_backlog,
                    })
                    flat += 1
                stages_meta.append(layer_meta)
            meta = self._meta.get((fingerprint, config), [0, 0.0])
            index.append({
                "fingerprint": fingerprint,
                "config": asdict(config),
                "layers": stages_meta,
                "hits": int(meta[0]),
                "last_used": float(meta[1]),
            })
        arrays["index"] = np.frombuffer(
            json.dumps({"version": 3, "entries": index}).encode(),
            dtype=np.uint8,
        )
        # Atomic publish: numpy would append ".npz" to a suffix-less
        # temp name, so the temp path must already carry the suffix.
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        try:
            np.savez_compressed(tmp, **arrays)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    @classmethod
    def load(cls, path):
        """Rebuild an unbounded cache from a :meth:`save` archive.

        Entries are restored in archive order, which is the saved
        process's LRU order — recency carries across processes — with
        their hit counts and last-used stamps. Only the version
        :meth:`save` writes (3) loads; an archive of any other version
        raises :class:`~repro.errors.ConfigError`.

        A file that is not a readable archive — truncated, not an
        ``.npz`` at all, empty, without an ``index``, with an index
        that is not JSON or without an entry list — raises
        :class:`~repro.errors.ConfigError` naming ``path``. So does a
        malformed entry (a missing field or owner array, an unknown
        config field or one :class:`~repro.accel.ArchConfig` refuses,
        such as a fractional ``mac_latency``, a non-finite number:
        Python's ``json`` reads ``Infinity`` and ``NaN``), an entry
        whose owner map names a PE outside ``[0, config.n_pes)`` and a
        stage no cold run can produce (one
        :class:`~repro.accel.CachedStage` refuses, such as a negative
        warm-up cost or a convergence round past the warm-up), naming
        its slot too: a poisoned entry fails here, not at its first
        hit mid-drain.

        An archive saved before ``ArchConfig`` lost its
        ``sharing_efficiency`` field names that field in every config,
        so its first entry is refused as malformed, like any other
        unknown config field.
        """
        cache = cls()
        # np.load leaves a file it opened itself open when the archive
        # is truncated, so the handle is ours to close.
        with open(path, "rb") as handle:
            try:
                archive = np.load(handle)
            except (EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise ConfigError(
                    f"cannot read autotune cache archive {path}: {exc}"
                ) from exc
            with archive:
                try:
                    index = json.loads(bytes(archive["index"]).decode())
                except (KeyError, ValueError) as exc:
                    raise ConfigError(
                        f"autotune cache archive {path} has no readable "
                        f"index: {exc}"
                    ) from exc
                version = (index.get("version") if isinstance(index, dict)
                           else None)
                if version != 3:
                    raise ConfigError(
                        f"unsupported cache archive version {version} in "
                        f"{path}"
                    )
                entries = index.get("entries")
                if not isinstance(entries, list):
                    raise ConfigError(
                        f"autotune cache archive {path} index has no entry "
                        "list"
                    )
                for slot, meta in enumerate(entries):
                    try:
                        fingerprint, config, entry, hits, last_used = (
                            _entry_from_index(archive, slot, meta)
                        )
                    except (KeyError, TypeError, ValueError, OverflowError,
                            AttributeError) as exc:
                        raise ConfigError(
                            f"autotune cache archive {path} entry {slot} is "
                            f"malformed: {exc!r}"
                        ) from exc
                    cache.store(fingerprint, config, entry)
                    cache._meta[cache.key(fingerprint, config)] = [
                        hits, last_used,
                    ]
        return cache


class OverlayCache:
    """A private :class:`AutotuneCache` layer over a shared cache.

    For simulations whose tuning state must not reach the shared cache
    (which may be None): the service's backfill screen of a sharded job
    and the feedback rebalancer's candidate plans. Stores land only in
    the private layer, so a bounded shared cache never evicts a live
    entry for them, while entries the shared cache already holds still
    replay. Reads try the private layer first. ``counted`` picks how
    they then read the shared cache: through :meth:`AutotuneCache.lookup`
    (a counted hit or miss, as a real run makes) or through
    :meth:`AutotuneCache.peek` (no counters, no recency: a probe that
    leaves the shared cache as it found it).
    """

    def __init__(self, shared, *, counted):
        self._own = AutotuneCache()
        self._shared = shared
        self._counted = counted

    def lookup(self, fingerprint, config):
        entry = self._own.lookup(fingerprint, config)
        if entry is None and self._shared is not None:
            if self._counted:
                entry = self._shared.lookup(fingerprint, config)
            else:
                entry = self._shared.peek(fingerprint, config)
        return entry

    def store(self, fingerprint, config, entry):
        self._own.store(fingerprint, config, entry)


def _entry_from_index(archive, slot, meta):
    """One archived entry: ``(fingerprint, config, CachedTuning, hits,
    last_used)``. A malformed index entry raises the ``KeyError``,
    ``TypeError``, ``ValueError``, ``OverflowError`` or
    ``AttributeError`` its first bad field trips (``int()`` of an
    infinite hit count overflows, of a NaN is a ``ValueError``), an
    owner map naming a PE outside ``[0, config.n_pes)`` or a non-finite
    ``last_used`` a ``ValueError``, and a config or stage field that
    :class:`~repro.accel.ArchConfig` or
    :class:`~repro.accel.CachedStage` refuses (a fractional warm-up cost
    or owner map included: each is checked as archived, never
    truncated) a
    :class:`~repro.errors.ConfigError`; :meth:`AutotuneCache.load`
    turns each into a :class:`~repro.errors.ConfigError` naming the
    slot."""
    config = ArchConfig(**meta["config"])
    layers = []
    flat = 0
    for layer_meta in meta["layers"]:
        stages = []
        for stage_meta in layer_meta:
            owner = archive[f"e{slot}_s{flat}"]
            if owner.size and (owner.min() < 0
                               or owner.max() >= config.n_pes):
                raise ValueError(
                    f"owner PE ids out of range [0, {config.n_pes})"
                )
            stages.append(CachedStage(
                owner=owner,
                warmup_costs=tuple(stage_meta["warmup"]),
                converged_round=stage_meta["converged_round"],
                final_backlog=stage_meta["final_backlog"],
                total_backlog=stage_meta["total_backlog"],
            ))
            flat += 1
        layers.append(tuple(stages))
    last_used = float(meta["last_used"])
    if not math.isfinite(last_used):
        # It would load, and then break merge's freshness comparison.
        raise ValueError(f"last_used must be finite, got {last_used}")
    return (
        str(meta["fingerprint"]), config, CachedTuning(layers=tuple(layers)),
        int(meta["hits"]), last_used,
    )
