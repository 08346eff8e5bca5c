"""Worker heartbeats: live in-run progress records on disk.

Long simulations are opaque from the parent process: a pool worker that
is three million cycles into a five-million-cycle run looks exactly
like one wedged in an infinite loop.  Heartbeats fix that with a tiny
shared-nothing channel through the run's telemetry directory:

* each worker installs a :class:`HeartbeatWriter` as the simulator's
  progress hook (see :meth:`repro.core.simulator.Simulator.progress`),
  which atomically rewrites one small JSON file —
  ``heartbeats/hb-<index>.json`` — every N simulated cycles with the
  worker's pid, job key, attempt, cycles simulated, instructions
  retired, sim-IPC so far, and (when a
  :class:`~repro.obs.profiler.PhaseProfiler` is attached) the per-phase
  wall-clock split;
* the parent's :class:`HeartbeatMonitor` aggregates the records,
  computes each worker's silence age, and flags workers whose
  heartbeat has gone stale — evidence of a wedged worker *before* the
  per-job deadline fires, which the engine feeds into its
  :func:`~repro.resilience.watchdog.reap_executor` watchdog;
* ``repro top`` and the :class:`~repro.obs.server.TelemetryServer`
  exporter read the same records to render live per-job progress.

Writes follow the atomic-replace rule of :mod:`repro._jsonfile` and
are best-effort: a full disk degrades heartbeats (counted in
:attr:`HeartbeatWriter.errors`), it never fails a simulation.  The
hook only *reads* pipeline state, so simulated results are
byte-identical with heartbeats on or off.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from repro._jsonfile import read_json, write_json_atomic

#: Heartbeat record layout; bump on incompatible changes.
HEARTBEAT_SCHEMA_VERSION = 1

#: Subdirectory of a telemetry directory that holds heartbeat records.
HEARTBEAT_DIRNAME = "heartbeats"

#: Default cycles between beats (see ``REPRO_HEARTBEAT_CYCLES``).
DEFAULT_BEAT_CYCLES = 2_000


#: Every field of a heartbeat record except ``ts``, which is the clock
#: of whoever stores the record.  The service stores exactly these.
HEARTBEAT_FIELDS = ("schema", "pid", "index", "key", "label", "attempt",
                    "beats", "cycles", "retired", "ipc", "elapsed",
                    "profile", "interval", "worker", "run_id")


def heartbeat_record(index: int, key: Optional[str], label: Optional[str],
                     attempt: int, beats: int, cycles: int, retired: int,
                     ipc: float, elapsed: float, **optional) -> dict:
    """One heartbeat record of this process, without ``ts``.

    The ``optional`` fields of :data:`HEARTBEAT_FIELDS` (``profile``,
    ``interval``, ``worker``, ``run_id``) are kept only when set.
    """
    record = {"schema": HEARTBEAT_SCHEMA_VERSION, "pid": os.getpid(),
              "index": index, "key": key, "label": label,
              "attempt": attempt, "beats": beats, "cycles": cycles,
              "retired": retired, "ipc": ipc, "elapsed": elapsed}
    record.update((field, value) for field, value in optional.items()
                  if value is not None)
    return record


def heartbeat_dir(telemetry_dir: str) -> str:
    """The heartbeat subdirectory of ``telemetry_dir``."""
    return os.path.join(os.fspath(telemetry_dir), HEARTBEAT_DIRNAME)


class HeartbeatWriter:
    """Worker-side channel: one atomically-rewritten record per job.

    Use :meth:`beat` as a simulator progress hook::

        writer = HeartbeatWriter(directory, index=3, key=job.key,
                                 label=job.label, attempt=0)
        simulator.progress(writer.beat, every=2_000)

    The record also goes through :meth:`beat` once at construction time
    (``cycles=0``), so the parent can distinguish "worker started, no
    beat yet" from "job never scheduled".
    """

    def __init__(
        self,
        directory: str,
        index: int,
        key: Optional[str] = None,
        label: Optional[str] = None,
        attempt: int = 0,
        profiler=None,
        run_id: Optional[str] = None,
        _clock=time.time,
    ) -> None:
        self.directory = os.fspath(directory)
        self.index = index
        self.key = key
        self.label = label
        self.attempt = attempt
        #: Correlation id of the engine run this worker beats for.
        self.run_id = run_id
        #: Optional PhaseProfiler whose split rides along in each beat.
        self.profiler = profiler
        self.path = os.path.join(self.directory, f"hb-{index}.json")
        self.beats = 0
        self.errors = 0
        self._clock = _clock
        self._started = _clock()
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError:
            self.errors += 1
        self._write(cycles=0, retired=0, ipc=0.0)

    # ------------------------------------------------------------------
    def beat(self, pipeline) -> None:
        """Progress-hook entry point: snapshot ``pipeline`` to disk."""
        stats = pipeline.stats
        self._write(
            cycles=stats.cycles,
            retired=stats.retired,
            ipc=stats.ipc,
        )

    def final(self, result) -> None:
        """Write the finished state from a ``SimResult``.

        The measured-run totals land in the record so ``repro top``
        shows the completed job's real cycles/IPC, not the last beat.
        """
        self._write(cycles=result.cycles, retired=result.retired,
                    ipc=result.ipc)

    def _write(self, cycles: int, retired: int, ipc: float) -> None:
        now = self._clock()
        record = heartbeat_record(
            self.index, self.key, self.label, self.attempt, self.beats,
            cycles, retired, ipc, now - self._started, run_id=self.run_id,
            profile=(dict(self.profiler.seconds)
                     if self.profiler is not None else None))
        record["ts"] = now
        try:
            write_json_atomic(self.path, record)
        except OSError:
            # A sick disk must never take the simulation down.
            self.errors += 1
            return
        self.beats += 1


def read_heartbeats(directory: str) -> List[dict]:
    """All parseable heartbeat records under ``directory``, by index.

    Tolerates a missing directory (no heartbeats yet) and torn or
    foreign files (skipped).
    """
    directory = os.fspath(directory)
    records: List[dict] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return records
    for name in names:
        if not name.startswith("hb-") or not name.endswith(".json"):
            continue
        record = read_json(os.path.join(directory, name))
        if record is not None and "index" in record:
            records.append(record)
    records.sort(key=lambda r: r.get("index", 0))
    return records


class HeartbeatMonitor:
    """Parent-side aggregation and staleness detection.

    ``stale_after`` is the silence budget in seconds: a worker whose
    newest record is older than that is *stale* — it claimed the job
    (it wrote at least one beat) but has stopped making progress.
    :meth:`stale` reports stale records for a set of live job indices;
    the engine turns those into early worker reaping without waiting
    for the (much longer) per-job deadline.
    """

    def __init__(
        self,
        directory: str,
        stale_after: Optional[float] = None,
        _clock=time.time,
    ) -> None:
        self.directory = os.fspath(directory)
        self.stale_after = stale_after
        self._clock = _clock

    def snapshot(self) -> List[dict]:
        """Current records, each annotated with its silence ``age``."""
        now = self._clock()
        records = read_heartbeats(self.directory)
        for record in records:
            record["age"] = max(0.0, now - record.get("ts", now))
            if self.stale_after is not None:
                record["stale"] = record["age"] >= self.stale_after
        return records

    def by_index(self) -> Dict[int, dict]:
        """Newest record per job index (annotated like :meth:`snapshot`)."""
        return {record["index"]: record for record in self.snapshot()}

    def stale(
        self,
        live: Optional[Dict[int, int]] = None,
    ) -> List[dict]:
        """Records whose silence exceeds ``stale_after``.

        ``live`` maps job index -> current attempt number for jobs the
        caller still has in flight; records for other indices (already
        harvested) or earlier attempts (a retry whose fresh worker has
        not beaten yet) are ignored, so a finished job's last record
        can never be declared stale.
        """
        if self.stale_after is None:
            return []
        flagged = []
        for record in self.snapshot():
            if not record.get("stale"):
                continue
            if live is not None:
                index = record.get("index")
                if index not in live:
                    continue
                if record.get("attempt") != live[index]:
                    continue
            flagged.append(record)
        return flagged
