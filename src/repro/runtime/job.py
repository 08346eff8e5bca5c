"""The unit of schedulable work: one fully-specified simulation.

A :class:`SimJob` pins down everything that determines a simulation's
outcome — benchmark, strategy, machine configuration, instruction
budgets, and seed.  Because workload generation and the pipeline are
fully deterministic given those inputs, two jobs with equal canonical
forms produce bit-identical :class:`~repro.core.simulator.SimResult`
objects, which is what makes content-addressed caching sound.

``JOB_SCHEMA_VERSION`` is baked into every key: bump it whenever the
canonical serialisation, the simulator's statistics, or anything else
that could silently change results across versions changes, and every
stale cache entry becomes an automatic miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Optional, Union

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.result import SimResult

if TYPE_CHECKING:
    from repro.workloads.program import Program

#: Bump on any change that invalidates previously cached results.
#: v2: SimResult carries ``width`` and top-down ``cycle_accounting``.
JOB_SCHEMA_VERSION = 2


def simulate(*args, **kwargs) -> SimResult:
    """:func:`repro.core.simulator.simulate`, imported on first call.

    The service hashes and stores jobs without ever running one, and a
    worker needs the simulator only from its first job on, so neither
    loads it at start-up.
    """
    from repro.core.simulator import simulate as run_simulation

    return run_simulation(*args, **kwargs)


@dataclasses.dataclass(frozen=True)
class SimJob:
    """Canonical description of one (benchmark, strategy, config) cell."""

    benchmark: Union[str, Program]
    spec: StrategySpec
    config: MachineConfig
    instructions: int
    warmup: int
    seed: Optional[int] = None

    @property
    def cacheable(self) -> bool:
        """Only catalog benchmarks (by name) have a stable identity.

        Ad-hoc :class:`Program` objects execute fine but bypass the
        result cache: their contents are not part of the key.
        """
        return isinstance(self.benchmark, str)

    @property
    def label(self) -> str:
        """Human-readable ``benchmark × strategy`` tag for progress output."""
        name = self.benchmark if self.cacheable else self.benchmark.name
        return f"{name} × {self.spec.label}"

    def canonical(self) -> dict:
        """Stable, JSON-serialisable form of every result-determining field.

        Note ``StrategySpec.static_mapping`` is included even though the
        spec excludes it from equality: different mappings yield
        different results, so they must yield different keys.
        """
        if not self.cacheable:
            raise ValueError(
                "ad-hoc Program jobs have no canonical form (not cacheable)"
            )
        return {
            "schema": JOB_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "spec": dataclasses.asdict(self.spec),
            "config": dataclasses.asdict(self.config),
            "instructions": int(self.instructions),
            "warmup": int(self.warmup),
            "seed": self.seed,
        }

    @classmethod
    def from_canonical(cls, payload: dict) -> "SimJob":
        """Rebuild a job from its :meth:`canonical` form.

        This is the wire format of the simulation service's ``POST
        /jobs`` endpoint, so it validates strictly: the schema version
        must match this process's ``JOB_SCHEMA_VERSION`` (a mismatched
        client would compute a different key for the same cell), and
        spec/config payloads go through their dataclasses' own
        validation.  Round-trip invariant: ``SimJob.from_canonical(
        job.canonical()).key == job.key``.
        """
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        schema = payload.get("schema")
        if schema != JOB_SCHEMA_VERSION:
            raise ValueError(
                f"job schema {schema!r} does not match this service's "
                f"schema {JOB_SCHEMA_VERSION}"
            )
        benchmark = payload.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise ValueError("job benchmark must be a catalog name")
        spec_data = dict(payload.get("spec") or {})
        mapping = spec_data.get("static_mapping")
        if mapping is not None:
            # JSON object keys are strings; the spec wants int -> int.
            spec_data["static_mapping"] = {
                int(block): int(cluster) for block, cluster in mapping.items()
            }
        try:
            spec = StrategySpec(**spec_data)
        except TypeError as exc:
            raise ValueError(f"invalid strategy spec: {exc}") from None
        config = MachineConfig.from_dict(dict(payload.get("config") or {}))
        seed = payload.get("seed")
        if seed is not None:
            seed = int(seed)
        job = cls(
            benchmark=benchmark,
            spec=spec,
            config=config,
            instructions=int(payload["instructions"]),
            warmup=int(payload["warmup"]),
            seed=seed,
        )
        if job.instructions <= 0:
            raise ValueError("job instructions must be positive")
        if job.warmup < 0:
            raise ValueError("job warmup must be non-negative")
        return job

    @property
    def key(self) -> str:
        """Content hash of :meth:`canonical` (hex SHA-256)."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def run(self, progress_hook=None, progress_interval: int = 2_000,
            profiler=None, recorder=None) -> SimResult:
        """Execute the simulation described by this job.

        ``progress_hook``/``progress_interval``/``profiler``/``recorder``
        forward to :func:`repro.core.simulator.simulate` — read-only
        in-run observers (worker heartbeats, phase profiling, interval
        time series) that cannot affect the result, so they are
        deliberately *not* part of the job's canonical form.
        """
        return simulate(
            self.benchmark,
            self.spec,
            config=self.config,
            instructions=self.instructions,
            warmup=self.warmup,
            seed=self.seed,
            progress_hook=progress_hook,
            progress_interval=progress_interval,
            profiler=profiler,
            recorder=recorder,
        )
