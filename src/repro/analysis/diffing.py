"""Run diffing: flag out-of-noise-band metric deltas between runs.

``repro diff`` compares two metric sources — telemetry directories
(schema-v2 run manifests carry full per-job results) and/or baseline
documents — and classifies every per-entry metric delta:

* **regression** — the metric left ``value ± band`` in the
  unfavourable direction (lower IPC, higher mispredict rate, ...);
* **improvement** — it left the band in the favourable direction;
* within-band moves and informational metrics (``stall.*``) are
  reported but never gate.

:attr:`DiffReport.exit_code` is the CI contract: ``0`` when clean,
``1`` on any regression (or when the candidate is missing entries the
reference has), so the regression-gate job is just ``repro diff
telemetry --against baselines/base.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.analysis.baseline import (
    ABSOLUTE_BAND_FLOOR,
    RELATIVE_BAND_FLOOR,
    load_baseline,
    metric_direction,
    metrics_from_result,
)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs."""

    name: str
    before: float
    after: float
    band: float
    direction: str  #: 'higher', 'lower', or 'info'

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def regression(self) -> bool:
        """Out of band in the unfavourable direction (never for info)."""
        if self.direction == "higher":
            return self.after < self.before - self.band
        if self.direction == "lower":
            return self.after > self.before + self.band
        return False

    @property
    def improvement(self) -> bool:
        """Out of band in the favourable direction (never for info)."""
        if self.direction == "higher":
            return self.after > self.before + self.band
        if self.direction == "lower":
            return self.after < self.before - self.band
        return False

    @property
    def flag(self) -> str:
        if self.regression:
            return "REGRESSION"
        if self.improvement:
            return "improved"
        return ""


@dataclasses.dataclass
class EntryDiff:
    """All metric deltas of one (benchmark × strategy) entry."""

    key: str
    deltas: List[MetricDelta]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.improvement]


@dataclasses.dataclass
class DiffReport:
    """Full comparison of two metric sources."""

    before_label: str
    after_label: str
    entries: List[EntryDiff]
    #: Entry keys present in the reference but absent from the candidate.
    missing: List[str]
    #: Entry keys only the candidate has (reported, never gating).
    extra: List[str]
    #: Provenance caveats (e.g. the sources came from different git
    #: SHAs) — printed with the report, never part of the exit code.
    notes: List[str] = dataclasses.field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for e in self.entries for d in e.regressions]

    @property
    def exit_code(self) -> int:
        """``0`` clean, ``1`` on regressions or missing entries."""
        return 1 if self.regressions or self.missing else 0

    def to_dict(self) -> dict:
        """Machine-readable report (``repro diff --json``)."""
        return {
            "before": self.before_label,
            "after": self.after_label,
            "exit_code": self.exit_code,
            "notes": list(self.notes),
            "missing": list(self.missing),
            "extra": list(self.extra),
            "entries": [
                {
                    "key": entry.key,
                    "regressions": len(entry.regressions),
                    "metrics": [
                        {
                            "name": delta.name,
                            "before": delta.before,
                            "after": delta.after,
                            "delta": delta.delta,
                            "band": delta.band,
                            "direction": delta.direction,
                            "flag": delta.flag,
                        }
                        for delta in entry.deltas
                    ],
                }
                for entry in self.entries
            ],
        }

    def render(self) -> str:
        """Terminal diff summary, gated metrics first per entry."""
        lines = [f"diff: {self.after_label} vs {self.before_label}"]
        lines.extend(f"note: {note}" for note in self.notes)
        for entry in self.entries:
            flagged = entry.regressions + entry.improvements
            marker = (f"{len(entry.regressions)} regression(s)"
                      if entry.regressions else "ok")
            lines.append(f"  {entry.key}: {marker}")
            for delta in flagged:
                lines.append(
                    f"    {delta.flag:<10} {delta.name:<30} "
                    f"{delta.before:.4f} -> {delta.after:.4f} "
                    f"(band ±{delta.band:.4f})"
                )
        for key in self.missing:
            lines.append(f"  {key}: MISSING from {self.after_label}")
        for key in self.extra:
            lines.append(f"  {key}: only in {self.after_label} (ignored)")
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing entr(y/ies) "
            f"-> exit {self.exit_code}"
        )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown diff report (for CI artifacts)."""
        lines = [
            "# Run diff",
            "",
            f"`{self.after_label}` vs `{self.before_label}` — "
            f"**{len(self.regressions)} regression(s)**, "
            f"{len(self.missing)} missing entries.",
            "",
            "| entry | metric | before | after | band | flag |",
            "| --- | --- | ---: | ---: | ---: | --- |",
        ]
        for entry in self.entries:
            for delta in entry.deltas:
                if not delta.flag and delta.direction == "info":
                    continue
                lines.append(
                    f"| {entry.key} | `{delta.name}` "
                    f"| {delta.before:.4f} | {delta.after:.4f} "
                    f"| ±{delta.band:.4f} | {delta.flag} |"
                )
        for key in self.missing:
            lines.append(f"| {key} | — | — | — | — | MISSING |")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Loading metric sources.
# ----------------------------------------------------------------------
def entries_from_manifest(manifest: dict) -> Dict[str, Dict[str, float]]:
    """``{key: metrics}`` from a schema-v2 run manifest.

    Only default-seed jobs participate (seeded replicates exist to
    widen baseline noise bands, not to be gated); jobs without a result
    payload (v1 manifests, skipped jobs) are ignored.
    """
    entries: Dict[str, Dict[str, float]] = {}
    for record in manifest.get("jobs", ()):
        result = record.get("result")
        if result is None or record.get("seed") is not None:
            continue
        benchmark = record.get("benchmark") or result.get("benchmark")
        strategy = record.get("strategy") or result.get("strategy")
        entries[f"{benchmark}|{strategy}"] = metrics_from_result(result)
    return entries


def _provenance(document: dict) -> dict:
    """``{git_sha, git_dirty}`` of a manifest or baseline document."""
    return {
        "git_sha": document.get("git_sha"),
        "git_dirty": document.get("git_dirty"),
    }


def _load_source(path: str):
    """Resolve a diff operand to ``(label, metrics, bands, provenance)``.

    Accepts a telemetry directory (containing ``manifest.json``), a
    manifest JSON file, or a baseline JSON document.  ``bands`` is
    empty for manifests — the diff then applies the default floors.
    """
    from repro.obs.manifest import load_manifest, manifest_path

    path = manifest_path(path)
    document = load_manifest(path)

    if "entries" in document:  # baseline document
        document = load_baseline(path)  # re-read for schema validation
        metrics: Dict[str, Dict[str, float]] = {}
        bands: Dict[str, Dict[str, float]] = {}
        for key, entry in document["entries"].items():
            metrics[key] = {
                name: cell["value"] for name, cell in entry["metrics"].items()
            }
            bands[key] = {
                name: cell["band"] for name, cell in entry["metrics"].items()
            }
        return path, metrics, bands, _provenance(document)
    if "jobs" in document:  # run manifest
        return path, entries_from_manifest(document), {}, _provenance(
            document)
    raise ValueError(
        f"{path}: neither a run manifest (jobs) nor a baseline (entries)"
    )


def default_band(before: float) -> float:
    """Band used when the reference carries no noise band of its own."""
    return max(RELATIVE_BAND_FLOOR * abs(before), ABSOLUTE_BAND_FLOOR)


def diff_sources(before: str, after: str) -> DiffReport:
    """Compare two metric sources (paths) into a :class:`DiffReport`.

    Noise bands come from the *reference* (``before``) when it is a
    baseline document; otherwise the default floors apply.
    """
    before_label, before_metrics, before_bands, before_prov = _load_source(
        before)
    after_label, after_metrics, _, after_prov = _load_source(after)

    notes: List[str] = []
    before_sha = before_prov.get("git_sha")
    after_sha = after_prov.get("git_sha")
    if before_sha and after_sha and before_sha != after_sha:
        notes.append(
            f"sources come from different commits "
            f"({before_sha[:10]} vs {after_sha[:10]}) — deltas mix code "
            "changes with measurement noise")
    for label, prov in ((before_label, before_prov),
                        (after_label, after_prov)):
        if prov.get("git_dirty"):
            notes.append(
                f"{label} was captured from a dirty working tree")

    entries: List[EntryDiff] = []
    missing: List[str] = []
    for key in sorted(before_metrics):
        if key not in after_metrics:
            missing.append(key)
            continue
        deltas: List[MetricDelta] = []
        bands = before_bands.get(key, {})
        after_entry = after_metrics[key]
        for name in sorted(before_metrics[key]):
            if name not in after_entry:
                continue
            value = before_metrics[key][name]
            band: Optional[float] = bands.get(name)
            deltas.append(MetricDelta(
                name=name,
                before=value,
                after=after_entry[name],
                band=band if band is not None else default_band(value),
                direction=metric_direction(name),
            ))
        entries.append(EntryDiff(key=key, deltas=deltas))
    extra = sorted(set(after_metrics) - set(before_metrics))
    return DiffReport(
        before_label=before_label,
        after_label=after_label,
        entries=entries,
        missing=missing,
        extra=extra,
        notes=notes,
    )
