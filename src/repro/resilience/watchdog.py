"""Force-kill wedged pool workers instead of leaking them.

``ProcessPoolExecutor.shutdown(wait=False)`` only *asks* workers to
exit; a worker wedged inside a job (a hung simulation, an injected
``worker.hang``) never reads the sentinel and outlives the run — and a
long sweep that recycles its pool on every timeout round leaks one
process per round.  :func:`reap_executor` is the watchdog the engine
runs instead whenever it abandons a pool: snapshot the worker
processes, initiate shutdown, ``terminate()`` survivors, escalate to
``kill()`` after a grace period, and reap them with ``join`` so nothing
is left behind — not even a zombie.
"""

from __future__ import annotations

import time
from typing import List


def worker_processes(executor) -> List:
    """Best-effort snapshot of an executor's worker processes.

    Works on ``ProcessPoolExecutor`` (its ``_processes`` dict); fake or
    degraded pools without one simply have no workers to reap.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return []
    try:
        return [p for p in list(processes.values()) if p is not None]
    except Exception:
        return []


def reap_executor(executor, grace: float = 2.0) -> int:
    """Shut ``executor`` down, force-kill any worker that lingers, and
    return once the pool has recorded every worker's exit.

    Returns the number of workers that had to be terminated or killed
    (0 for a pool that exited cleanly).  Never raises: the watchdog
    runs on failure paths where a second exception would mask the
    first.
    """
    workers = worker_processes(executor)
    # Shutdown drops the pool's reference to its manager thread.
    manager = getattr(executor, "_executor_manager_thread", None)
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except TypeError:
        # Fake pools in tests may use the bare signature.
        try:
            executor.shutdown(wait=False)
        except Exception:
            pass
    except Exception:
        pass

    forced = 0
    survivors = []
    for process in workers:
        try:
            if process.is_alive():
                process.terminate()
                forced += 1
                survivors.append(process)
        except Exception:
            pass

    deadline = time.monotonic() + grace
    for process in survivors:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(grace)
        except Exception:
            pass
    # The manager thread joins the same workers: between its waitpid and
    # its recording the exit code, ours fails with ECHILD and the worker
    # reads as alive.  The thread ends once every exit is recorded.
    try:
        if manager is not None:
            manager.join(grace)
    except Exception:
        pass
    return forced
