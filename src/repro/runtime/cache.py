"""On-disk, content-addressed, sharded store of simulation results.

Layout (under the root resolved by
the ``cache_dir`` knob of :mod:`repro.runtime.settings`)::

    <root>/v<JOB_SCHEMA_VERSION>/layout.json          # {"shards": N}
    <root>/v<JOB_SCHEMA_VERSION>/shard-<NNN>/<key>.json
    <root>/v<JOB_SCHEMA_VERSION>/stats/proc-<pid>.json

Entries fan out over ``shards`` shard directories — ``NNN`` is
``int(key[:8], 16) % shards`` — so a shared cache serving many hosts
never concentrates millions of entries in one directory, and eviction,
stats, and metrics can all work shard-by-shard.  The shard count is
pinned in ``layout.json`` when the root is first written, so every
process addressing the root (including ones with a different
``REPRO_CACHE_SHARDS``) agrees on the layout forever.

The pre-PR-6 layout (``<root>/v<N>/<key[:2]>/<key>.json``) is migrated
transparently: a lookup that misses the sharded path checks the legacy
path and moves the entry into its shard, and ``repro cache gc``
migrates any remainder wholesale.

Each entry is a JSON document ``{"schema", "job", "result", "elapsed"}``
where ``job`` is the producing job's canonical form (kept for
debuggability — the key alone addresses the entry) and ``result`` is the
:class:`~repro.core.simulator.SimResult` in ``to_dict`` form.

Writes follow the atomic-replace rule of :mod:`repro._jsonfile`, so
concurrent writers — pool workers, service workers on other hosts,
parallel pytest sessions, several CLIs — can never leave a torn entry
behind.  Reads treat *any* malformed entry (truncated JSON, schema
drift, missing fields) as a miss: the entry is deleted best-effort and
the job is re-executed.

Remote tier: with ``REPRO_SERVICE_URL`` set (or ``remote=`` passed), a
local miss additionally asks the simulation service's HTTP cache
backend (``GET <url>/cache/<key>``) before giving up — the entry is
copied into the local cache on a remote hit, so identical cells are
computed once globally and served at wire speed thereafter (see
``docs/SERVICE.md``).  Remote trouble of any kind silently degrades to
a plain miss; the service is an accelerator, never a dependency.

Eviction: :meth:`ResultCache.gc` applies TTL (drop entries older than
``ttl`` seconds) and LRU (drop oldest-first until ``max_entries`` /
``max_bytes`` hold) policies.  A cache hit refreshes the entry's mtime,
so "oldest" means least-recently-*used*.  ``repro cache gc`` is the CLI
face; eviction counts land in the same per-shard counters ``/metrics``
exports.

Persistent counters: every hit/miss/store/eviction is also accumulated
in memory and written to a per-process delta file under ``stats/``
(atomic rewrite, one file per process — no cross-process contention)
at flush points: the end of an engine run and of each service worker
job, before :meth:`ResultCache.persistent_stats` and
:meth:`ResultCache.reset_persistent_stats` read, at most once a second
while a process keeps counting, and at interpreter exit (see
:func:`flush_persistent_stats`).  ``repro cache stats`` sums the files
for the "hit rate since last reset" report; ``--reset`` clears them.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro._http import ServiceUnavailable, json_round_trip
from repro._jsonfile import read_json, write_json_atomic
from repro.core.result import SimResult
from repro.runtime.job import JOB_SCHEMA_VERSION, SimJob
from repro.runtime.settings import setting

#: Seconds allowed for one remote cache-backend HTTP round trip.
REMOTE_TIMEOUT = 5.0

#: The digits of a cache key (a SHA-256 hex digest).
_HEX = frozenset("0123456789abcdef")

#: Counter fields tracked per cache, per shard, and persistently.
_COUNTER_FIELDS = ("hits", "misses", "stores", "corrupt", "evicted",
                   "migrated", "remote_hits", "remote_errors")


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters for one cache (and the process aggregate)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    #: Entries dropped by TTL/LRU eviction (:meth:`ResultCache.gc`).
    evicted: int = 0
    #: Legacy-layout entries moved into their shard directory.
    migrated: int = 0
    #: Local misses satisfied by the service's HTTP cache backend.
    remote_hits: int = 0
    #: Remote lookups that failed (connection, schema, parse) — each one
    #: degraded to a plain local miss.
    remote_errors: int = 0

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.remote_hits + self.misses
        return (self.hits + self.remote_hits) / looked if looked else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form, including the derived hit rate."""
        data = dataclasses.asdict(self)
        data["hit_rate"] = self.hit_rate
        return data

    def render(self) -> str:
        looked = self.hits + self.remote_hits + self.misses
        text = (
            f"cache: {self.hits + self.remote_hits} hits / {looked} lookups "
            f"({self.hit_rate:.0%}), "
            f"{self.stores} stores, {self.corrupt} corrupt entries dropped"
        )
        if self.remote_hits:
            text += f", {self.remote_hits} served by the remote service"
        return text


#: Process-wide aggregate over every ResultCache instance.
_GLOBAL_STATS = CacheStats()

#: Seconds between delta-file writes while a process keeps counting.
PERSIST_INTERVAL = 1.0


class _Delta:
    """This process's persistent counts for one stats directory."""

    __slots__ = ("path", "pid", "record", "dirty", "written")

    def __init__(self, stats_dir: str) -> None:
        self.pid = os.getpid()
        self.path = os.path.join(stats_dir, f"proc-{self.pid}.json")
        self.record = {field: 0 for field in _COUNTER_FIELDS}
        self.record["since"] = time.time()
        self.record["pid"] = self.pid
        self.dirty = False
        #: ``time.monotonic()`` of the last write (None: never written).
        self.written: Optional[float] = None

    def write(self) -> None:
        """Write the counts if any changed since the last write.

        Best-effort: a sick disk degrades the report, never the
        simulation.  A forked child never writes its parent's record.
        """
        if not self.dirty or self.pid != os.getpid():
            return
        self.dirty = False
        self.written = time.monotonic()
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            write_json_atomic(self.path, self.record)
        except OSError:
            pass


#: Per-process persistent delta accumulators, keyed by stats directory.
_PERSIST: Dict[str, _Delta] = {}
_PERSIST_LOCK = threading.Lock()


def flush_persistent_stats() -> None:
    """Write this process's unwritten persistent counts to disk."""
    with _PERSIST_LOCK:
        for delta in _PERSIST.values():
            delta.write()


atexit.register(flush_persistent_stats)


def global_cache_stats() -> CacheStats:
    """The process-wide aggregate cache counters."""
    return _GLOBAL_STATS


class ResultCache:
    """Persistent :class:`SimResult` store keyed by job content hash."""

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        enabled: Optional[bool] = None,
        shards: Optional[int] = None,
        remote: Union[str, bool, None] = None,
    ) -> None:
        self.enabled = setting("cache", enabled)
        self.root = setting("cache_dir", root)
        self.stats = CacheStats()
        #: Per-shard counters (shard index -> CacheStats), exported on
        #: the service's ``/metrics``.
        self.shard_stats: Dict[int, CacheStats] = {}
        if remote is False or remote == "":
            self.remote: Optional[str] = None
        elif remote is None or remote is True:
            self.remote = setting("service_url")
        else:
            self.remote = setting("service_url", remote)
        #: Optional :class:`repro.resilience.FaultPlan` arming the
        #: ``cache.corrupt`` site (set by the engine for chaos runs).
        self.faults = None
        #: Optional :class:`repro.obs.spans.SpanRecorder`.  When set and
        #: a trace context is ambient (``tracer.current()``), lookups
        #: and stores emit ``cache.*`` spans — observers only, never a
        #: dependency (see ``docs/OBSERVABILITY.md``).
        self.tracer = None
        self._requested_shards = shards
        self._shards: Optional[int] = None

    # ------------------------------------------------------------------
    # Layout.
    # ------------------------------------------------------------------
    @property
    def version_dir(self) -> str:
        return os.path.join(self.root, f"v{JOB_SCHEMA_VERSION}")

    @property
    def layout_path(self) -> str:
        return os.path.join(self.version_dir, "layout.json")

    @property
    def stats_dir(self) -> str:
        return os.path.join(self.version_dir, "stats")

    @property
    def shards(self) -> int:
        """The root's shard fan-out; pinned by ``layout.json``.

        An existing marker always wins (so every process sharing the
        root agrees), otherwise the explicit argument / environment
        value is used and recorded on first write.
        """
        if self._shards is not None:
            return self._shards
        try:
            with open(self.layout_path, encoding="utf-8") as handle:
                recorded = int(json.load(handle)["shards"])
            if recorded >= 1:
                self._shards = recorded
                return recorded
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self._shards = setting("cache_shards", self._requested_shards)
        return self._shards

    def _pin_layout(self) -> None:
        """Record the shard count on first write (best-effort, atomic)."""
        if os.path.exists(self.layout_path):
            return
        try:
            os.makedirs(self.version_dir, exist_ok=True)
            write_json_atomic(self.layout_path,
                              {"shards": self.shards, "created": time.time()})
        except OSError:
            pass

    def shard_index(self, key: str) -> int:
        """The shard directory index owning ``key``."""
        return int(key[:8], 16) % self.shards

    def shard_dir(self, index: int) -> str:
        return os.path.join(self.version_dir, f"shard-{index:03d}")

    def path_for_key(self, key: str) -> str:
        """Filesystem path of ``key``'s cache entry (sharded layout)."""
        return os.path.join(self.shard_dir(self.shard_index(key)),
                            f"{key}.json")

    def path_for(self, job: SimJob) -> str:
        """Filesystem path of ``job``'s cache entry."""
        return self.path_for_key(job.key)

    def legacy_path_for_key(self, key: str) -> str:
        """Where the pre-shard layout stored ``key`` (for migration)."""
        return os.path.join(self.version_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def load(self, job: SimJob) -> Optional[SimResult]:
        """Return the cached result for ``job``, or ``None`` on a miss.

        Tries, in order: the sharded path, the legacy path (migrating a
        found entry into its shard), then the remote service backend
        (copying a found entry into the local cache).  Corrupted
        entries are dropped and reported as misses — the cache never
        raises on bad on-disk state.
        """
        if not self.enabled or not job.cacheable:
            return None
        tracer = self.tracer
        context = tracer.current() if tracer is not None else None
        span = None
        if context is not None:
            span = tracer.start("cache.lookup", context, stage="cache",
                                key=job.key)
        result = self._load(job)
        if span is not None:
            tracer.finish(span, hit=result is not None)
        return result

    def _load(self, job: SimJob) -> Optional[SimResult]:
        key = job.key
        shard = self.shard_index(key)
        result = self._read_entry(self.path_for_key(key), shard)
        if result is None:
            result = self._read_legacy(key, shard)
        if result is not None:
            self._count("hits", shard)
            return result
        remote = self._remote_load(job, shard)
        if remote is not None:
            return remote
        self._count("misses", shard)
        return None

    def load_key(self, key: str) -> Optional[dict]:
        """The raw entry payload for ``key`` (service backend reads).

        Returns the full on-disk document (``{"schema", "job",
        "result", "elapsed"}``) or ``None``; counts a hit/miss like
        :meth:`load` but never consults the remote tier (the service
        must not call itself).  A ``key`` that is not lowercase hex
        cannot name an entry and is ``None`` without a lookup.
        """
        if not self.enabled or not key or not _HEX.issuperset(key):
            return None
        shard = self.shard_index(key)
        path = self.path_for_key(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload["schema"] != JOB_SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']!r}")
            SimResult.from_dict(payload["result"])  # validate
        except FileNotFoundError:
            if self._read_legacy(key, shard) is not None:
                self._count("hits", shard)
                return self._raw(key)
            self._count("misses", shard)
            return None
        except Exception:
            self._drop_corrupt(path, shard)
            return None
        self._touch(path)
        self._count("hits", shard)
        return payload

    def holds(self, job: SimJob) -> bool:
        """Whether ``job``'s shard holds a valid entry for it; counts no
        lookup and never asks the remote tier."""
        return (self.enabled and job.cacheable
                and self._read_entry(self.path_for(job),
                                     self.shard_index(job.key)) is not None)

    def _raw(self, key: str) -> Optional[dict]:
        """Re-read a just-migrated entry without recounting."""
        return read_json(self.path_for_key(key))

    def _read_entry(self, path: str, shard: int) -> Optional[SimResult]:
        """Parse one entry file; ``None`` on missing/corrupt."""
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload["schema"] != JOB_SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']!r}")
            result = SimResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write from a killed process, schema drift, or a
            # hand-edited file: treat as a miss and clear the entry.
            self._drop_corrupt(path, shard)
            return None
        self._touch(path)
        return result

    def _read_legacy(self, key: str, shard: int) -> Optional[SimResult]:
        """Look ``key`` up in the pre-shard layout; migrate on a find."""
        legacy = self.legacy_path_for_key(key)
        result = self._read_entry(legacy, shard)
        if result is None:
            return None
        self._migrate_file(legacy, key)
        return result

    def _migrate_file(self, legacy: str, key: str) -> bool:
        """Move one legacy entry into its shard directory (best-effort)."""
        target = self.path_for_key(key)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(legacy, target)
        except OSError:
            return False
        self._pin_layout()
        self._count("migrated", self.shard_index(key))
        self._prune_empty_dir(os.path.dirname(legacy))
        return True

    def _remote_load(self, job: SimJob, shard: int) -> Optional[SimResult]:
        """Ask the service's cache backend; copy a hit into this cache."""
        if self.remote is None:
            return None
        tracer = self.tracer
        context = tracer.current() if tracer is not None else None
        span = None
        if context is not None:
            span = tracer.start("cache.remote", context, stage="cache",
                                key=job.key)
        payload, trouble = _fetch_remote(self.remote, job.key)
        if payload is None:
            if trouble:
                self._count("remote_errors", shard)
            if span is not None:
                tracer.finish(span, hit=False)
            return None
        if span is not None:
            tracer.finish(span, hit=True)
        try:
            if payload["schema"] != JOB_SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']!r}")
            result = SimResult.from_dict(payload["result"])
        except Exception:
            self._count("remote_errors", shard)
            return None
        self.store(job, result, elapsed=payload.get("elapsed"))
        self._count("remote_hits", shard)
        return result

    # ------------------------------------------------------------------
    # Stores.
    # ------------------------------------------------------------------
    def store(
        self, job: SimJob, result: SimResult, elapsed: Optional[float] = None,
    ) -> None:
        """Atomically persist ``result`` under ``job``'s key."""
        if not self.enabled or not job.cacheable:
            return
        tracer = self.tracer
        context = tracer.current() if tracer is not None else None
        span = None
        if context is not None:
            span = tracer.start("cache.store", context, stage="store",
                                key=job.key)
        try:
            self._store(job, result, elapsed)
        finally:
            if span is not None:
                tracer.finish(span)

    def _store(self, job: SimJob, result: SimResult,
               elapsed: Optional[float]) -> None:
        path = self.path_for(job)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        self._pin_layout()
        if self.faults is not None and self.faults.fires("cache.corrupt"):
            # Injected fault: leave a deliberately torn entry behind, as
            # a process killed mid-write (without the atomic-rename
            # protection) would.  The next load must recover by
            # treating it as a miss.
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"schema": ')
            return
        if (self.faults is not None
                and self.faults.fire("disk.full", path="cache") is not None):
            # Injected full disk: fail exactly like the real thing.  No
            # partial entry is left — the atomic-rename discipline
            # below never was reached, which is the point: disk
            # pressure loses a store, never tears one.
            raise OSError(28, "injected disk.full (cache store)")
        payload = {
            "schema": JOB_SCHEMA_VERSION,
            "job": job.canonical(),
            "result": result.to_dict(),
            "elapsed": elapsed,
        }
        write_json_atomic(path, payload)
        self._count("stores", self.shard_index(job.key))

    # ------------------------------------------------------------------
    # Scanning, eviction, migration.
    # ------------------------------------------------------------------
    def _iter_entries(self) -> List[Tuple[str, str, bool]]:
        """Every entry as ``(key, path, legacy)`` under the version dir."""
        entries: List[Tuple[str, str, bool]] = []
        try:
            names = sorted(os.listdir(self.version_dir))
        except OSError:
            return entries
        for name in names:
            directory = os.path.join(self.version_dir, name)
            if name.startswith("shard-"):
                legacy = False
            elif len(name) == 2 and os.path.isdir(directory):
                legacy = True  # pre-shard two-hex-digit fan-out
            else:
                continue
            try:
                files = sorted(os.listdir(directory))
            except OSError:
                continue
            for filename in files:
                if not filename.endswith(".json") \
                        or filename.startswith("."):
                    continue
                entries.append((filename[:-len(".json")],
                                os.path.join(directory, filename), legacy))
        return entries

    def scan(self) -> dict:
        """Entry count / byte totals, overall and per shard."""
        shards: Dict[int, dict] = {}
        total_entries = 0
        total_bytes = 0
        legacy_entries = 0
        for key, path, legacy in self._iter_entries():
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            total_entries += 1
            total_bytes += size
            if legacy:
                legacy_entries += 1
            index = self.shard_index(key)
            record = shards.setdefault(index, {"entries": 0, "bytes": 0})
            record["entries"] += 1
            record["bytes"] += size
        return {
            "root": self.root,
            "shards": self.shards,
            "entries": total_entries,
            "bytes": total_bytes,
            "legacy_entries": legacy_entries,
            "per_shard": {index: shards[index] for index in sorted(shards)},
        }

    def migrate(self) -> int:
        """Move every legacy-layout entry into its shard; returns count."""
        moved = 0
        for key, path, legacy in self._iter_entries():
            if legacy and self._migrate_file(path, key):
                moved += 1
        return moved

    def gc(
        self,
        ttl: Optional[float] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Migrate legacy entries, then apply TTL and LRU eviction.

        ``ttl`` drops entries unused for more than that many seconds;
        ``max_entries`` / ``max_bytes`` then evict least-recently-used
        entries until the bounds hold.  Returns a report dict.  Always
        safe to run while readers/writers are live: eviction is a
        single ``os.remove`` per entry and a racing reader treats the
        vanished file as an ordinary miss.
        """
        migrated = self.migrate()
        now = time.time()
        survivors: List[Tuple[float, int, str, str]] = []  # (mtime, size, ...)
        evicted_ttl = 0
        for key, path, _legacy in self._iter_entries():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            if ttl is not None and now - stat.st_mtime > ttl:
                if self._evict(path, key):
                    evicted_ttl += 1
                continue
            survivors.append((stat.st_mtime, stat.st_size, key, path))
        survivors.sort()  # oldest first
        evicted_lru = 0
        entries = len(survivors)
        total = sum(size for _, size, _, _ in survivors)
        cursor = 0
        while cursor < len(survivors) and (
            (max_entries is not None and entries > max_entries)
            or (max_bytes is not None and total > max_bytes)
        ):
            mtime, size, key, path = survivors[cursor]
            cursor += 1
            if self._evict(path, key):
                evicted_lru += 1
                entries -= 1
                total -= size
        return {
            "migrated": migrated,
            "evicted_ttl": evicted_ttl,
            "evicted_lru": evicted_lru,
            "entries": entries,
            "bytes": total,
        }

    def _evict(self, path: str, key: str) -> bool:
        try:
            os.remove(path)
        except OSError:
            return False
        self._count("evicted", self.shard_index(key))
        return True

    @staticmethod
    def _prune_empty_dir(directory: str) -> None:
        try:
            os.rmdir(directory)  # only succeeds when empty
        except OSError:
            pass

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh an entry's mtime so LRU eviction tracks *use*."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _drop_corrupt(self, path: str, shard: int) -> None:
        self._count("corrupt", shard)
        self._count("misses", shard)
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Persistent counters ("since last reset" reporting).
    # ------------------------------------------------------------------
    def persistent_stats(self) -> dict:
        """Sum every process's delta file: counters since last reset."""
        flush_persistent_stats()
        totals = {field: 0 for field in _COUNTER_FIELDS}
        since: Optional[float] = None
        files = 0
        try:
            names = sorted(os.listdir(self.stats_dir))
        except OSError:
            names = []
        for name in names:
            if not name.startswith("proc-") or not name.endswith(".json"):
                continue
            record = read_json(os.path.join(self.stats_dir, name))
            if record is None:
                continue
            files += 1
            for field in _COUNTER_FIELDS:
                value = record.get(field, 0)
                if isinstance(value, int):
                    totals[field] += value
            started = record.get("since")
            if isinstance(started, (int, float)):
                since = started if since is None else min(since, started)
        looked = totals["hits"] + totals["remote_hits"] + totals["misses"]
        totals["hit_rate"] = (
            (totals["hits"] + totals["remote_hits"]) / looked if looked
            else 0.0)
        totals["since"] = since
        totals["processes"] = files
        return totals

    def reset_persistent_stats(self) -> int:
        """Delete every delta file, this process's unwritten counts
        included; returns how many files were removed."""
        flush_persistent_stats()
        with _PERSIST_LOCK:
            _PERSIST.pop(self.stats_dir, None)
        removed = 0
        try:
            names = os.listdir(self.stats_dir)
        except OSError:
            return 0
        for name in names:
            if name.startswith("proc-") and name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.stats_dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def _persist(self, field: str) -> None:
        """Accumulate one count for this process's delta file.

        Each process owns exactly one file per cache root (atomic
        rewrite), so concurrent processes never contend; ``repro cache
        stats`` sums the files.  The count is written at once only if
        the file was last written :data:`PERSIST_INTERVAL` seconds ago
        or more; otherwise it waits for the next flush point.
        """
        with _PERSIST_LOCK:
            delta = _PERSIST.get(self.stats_dir)
            if delta is None or delta.pid != os.getpid():
                delta = _PERSIST[self.stats_dir] = _Delta(self.stats_dir)
            delta.record[field] += 1
            delta.dirty = True
            if (delta.written is None
                    or time.monotonic() - delta.written >= PERSIST_INTERVAL):
                delta.write()

    # ------------------------------------------------------------------
    def _count(self, field: str, shard: Optional[int] = None) -> None:
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        setattr(_GLOBAL_STATS, field, getattr(_GLOBAL_STATS, field) + 1)
        if shard is not None:
            record = self.shard_stats.setdefault(shard, CacheStats())
            setattr(record, field, getattr(record, field) + 1)
        if self.enabled:
            self._persist(field)


def _fetch_remote(url: str, key: str, timeout: float = REMOTE_TIMEOUT
                  ) -> Tuple[Optional[dict], bool]:
    """``(entry, trouble)`` of one ``GET <url>/cache/<key>``.

    A 404 is a plain miss, ``(None, False)``.  A connection fault, any
    other error status or a reply that is not a JSON object is trouble,
    ``(None, True)``.  Goes through the stdlib-only leaf
    :mod:`repro._http`, so the runtime layer never depends on the
    service package (the service depends on the runtime).
    """
    try:
        status, _, reply = json_round_trip(
            f"{url.rstrip('/')}/cache/{key}",
            headers={"Accept": "application/json"}, timeout=timeout)
    except ServiceUnavailable:
        return None, True
    if status >= 400:
        return None, status != 404
    return reply, False


def fetch_remote_entry(url: str, key: str,
                       timeout: float = REMOTE_TIMEOUT) -> Optional[dict]:
    """One ``GET <url>/cache/<key>`` round trip; ``None`` on any trouble."""
    return _fetch_remote(url, key, timeout)[0]
