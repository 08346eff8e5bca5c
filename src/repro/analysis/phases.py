"""Offline program-phase detection over interval time series.

Consumes the windows an :class:`~repro.obs.timeseries.IntervalRecorder`
produced (in memory or from its JSONL export) and answers the questions
whole-run aggregates cannot: *when* does the workload change behaviour,
which blocker dominates each regime, and which assignment strategy wins
each regime — the direct input for the ROADMAP's online dynamic policy
selection item.

Two mechanisms, both deterministic:

**Change-point detection.**  Each window becomes a normalised feature
vector (IPC as a fraction of machine width, the per-category
cycle-accounting shares, trace-cache hit rate, RS occupancy fraction),
weighted by fixed per-feature gains.  A boundary is cut wherever the
RMS distance between the mean vectors of the ``smooth`` windows on
either side exceeds ``threshold`` and is a local maximum — classic
sliding-window change-point detection, no randomness, no iteration.

**Quantised phase signatures.**  Every segment gets a **phase id**:
``"p"`` plus one digit per feature, each digit the segment's mean
feature quantised with the *fixed* gains in :data:`SIGNATURE_GAINS`.
Because the gains are constants of this module (not derived from the
run), the same behaviour maps to the same id across seeds, strategies,
and runs — ids are comparable, so "phase ``p30000000031`` prefers
``fdrt``" is a meaningful cross-run statement.  Adjacent segments with
equal signatures merge.  The id is **not** guaranteed stable across
:data:`PHASE_SIGNATURE_VERSION` bumps — persist the version with any
stored id.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro._jsonfile import parse_jsonl
from repro.core.accounting import CYCLE_LOSS_CATEGORIES

#: Bump on any change to features, gains, or quantisation: stored phase
#: ids are only comparable within one version.
PHASE_SIGNATURE_VERSION = 1

#: Feature order of the signature digits (and of every vector here).
PHASE_FEATURES: Tuple[str, ...] = (
    ("ipc_frac",) + CYCLE_LOSS_CATEGORIES
    + ("tc_hit_rate", "occupancy_frac"))

#: Fixed per-feature gains: run-independent constants, so quantised
#: signatures (and distances) are comparable across seeds and runs.
SIGNATURE_GAINS: Dict[str, float] = {
    "ipc_frac": 4.0,
    "tc_hit_rate": 3.0,
    "occupancy_frac": 3.0,
    **{category: 4.0 for category in CYCLE_LOSS_CATEGORIES},
}

#: Signature digits run 0..QUANT_LEVELS-1 per feature.
QUANT_LEVELS = 5

#: Default change-point distance threshold (RMS of gain-weighted
#: feature deltas; tuned on the phased workloads in the test suite).
DEFAULT_THRESHOLD = 0.25

#: Default windows averaged on each side of a candidate boundary.
DEFAULT_SMOOTH = 2


def window_features(window: dict) -> Dict[str, float]:
    """Raw (ungained) feature vector of one recorder window.

    All features are fractions in roughly ``[0, 1]``: IPC over machine
    width, lost-slot share per accounting category (slots over
    ``width * cycles``), trace-cache hit rate, RS occupancy fraction.
    """
    width = max(1, int(window.get("width") or 1))
    cycles = max(1, int(window.get("cycles") or 1))
    slots = width * cycles
    accounting = window.get("accounting") or {}
    features = {"ipc_frac": float(window.get("ipc", 0.0)) / width}
    for category in CYCLE_LOSS_CATEGORIES:
        features[category] = accounting.get(category, 0) / slots
    features["tc_hit_rate"] = float(window.get("tc_hit_rate", 0.0))
    features["occupancy_frac"] = float(window.get("occupancy_frac", 0.0))
    return features


def _vector(window: dict) -> List[float]:
    """Gain-weighted feature vector (the distance/signature space)."""
    features = window_features(window)
    return [features[name] * SIGNATURE_GAINS[name]
            for name in PHASE_FEATURES]


def _mean(vectors: Sequence[List[float]]) -> List[float]:
    count = len(vectors)
    return [sum(vector[i] for vector in vectors) / count
            for i in range(len(vectors[0]))]


def _distance(a: List[float], b: List[float]) -> float:
    """RMS distance between two gain-weighted vectors."""
    return math.sqrt(
        sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def signature(mean_vector: Sequence[float]) -> str:
    """Quantised phase id of a gain-weighted mean feature vector."""
    digits = []
    for value in mean_vector:
        digits.append(str(min(QUANT_LEVELS - 1, max(0, int(value)))))
    return "p" + "".join(digits)


@dataclasses.dataclass
class Phase:
    """One contiguous run of behaviourally-similar windows."""

    phase_id: str
    first_window: int
    last_window: int  # inclusive
    start: int        # measured cycles
    end: int
    cycles: int
    retired: int
    ipc: float
    features: Dict[str, float]      # mean raw features
    accounting: Dict[str, int]      # summed lost slots per category
    dominant_blocker: str

    @property
    def windows(self) -> int:
        return self.last_window - self.first_window + 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def detect_phases(windows: Sequence[dict],
                  threshold: float = DEFAULT_THRESHOLD,
                  smooth: int = DEFAULT_SMOOTH) -> List[Phase]:
    """Segment a window sequence into phases.

    Boundaries are cut at local maxima of the sliding-window mean
    distance above ``threshold``; adjacent segments whose quantised
    signatures coincide are merged, so phase count reflects *distinct*
    behaviours, not boundary count.
    """
    if smooth < 1:
        raise ValueError(f"smooth must be >= 1, got {smooth}")
    windows = [w for w in windows if w.get("cycles")]
    if not windows:
        return []
    vectors = [_vector(window) for window in windows]
    count = len(vectors)
    # Distance score at each candidate boundary i (cut before window i).
    scores = [0.0] * (count + 1)
    for i in range(1, count):
        left = vectors[max(0, i - smooth):i]
        right = vectors[i:i + smooth]
        scores[i] = _distance(_mean(left), _mean(right))
    cuts = [0]
    for i in range(1, count):
        if scores[i] < threshold:
            continue
        if scores[i] >= scores[i - 1] and scores[i] >= scores[i + 1]:
            if i > cuts[-1]:
                cuts.append(i)
    cuts.append(count)
    # Build segments, merging adjacent equal-signature runs.
    segments: List[Tuple[int, int, str]] = []  # (first, last, phase_id)
    for first, bound in zip(cuts, cuts[1:]):
        last = bound - 1
        phase_id = signature(_mean(vectors[first:bound]))
        if segments and segments[-1][2] == phase_id:
            segments[-1] = (segments[-1][0], last, phase_id)
        else:
            segments.append((first, last, phase_id))
    phases = []
    for first, last, phase_id in segments:
        chunk = windows[first:last + 1]
        cycles = sum(w["cycles"] for w in chunk)
        retired = sum(w["retired"] for w in chunk)
        accounting = {category: 0 for category in CYCLE_LOSS_CATEGORIES}
        for window in chunk:
            for category, slots in (window.get("accounting") or {}).items():
                accounting[category] = accounting.get(category, 0) + slots
        dominant = max(accounting, key=lambda c: (accounting[c], c))
        raw = [window_features(w) for w in chunk]
        features = {name: sum(r[name] for r in raw) / len(raw)
                    for name in PHASE_FEATURES}
        # Re-derive the id from the merged span so it matches the
        # stored mean features.
        merged_id = signature(_mean(vectors[first:last + 1]))
        phases.append(Phase(
            phase_id=merged_id,
            first_window=first,
            last_window=last,
            start=chunk[0]["start"],
            end=chunk[-1]["end"],
            cycles=cycles,
            retired=retired,
            ipc=retired / cycles if cycles else 0.0,
            features=features,
            accounting=accounting,
            dominant_blocker=dominant,
        ))
    return phases


class PhaseReport:
    """Phases of one timeline plus rendering/export."""

    def __init__(self, phases: List[Phase], windows: int,
                 meta: Optional[dict] = None) -> None:
        self.phases = phases
        self.windows = windows
        self.meta = dict(meta or {})

    @property
    def distinct_ids(self) -> List[str]:
        seen: List[str] = []
        for phase in self.phases:
            if phase.phase_id not in seen:
                seen.append(phase.phase_id)
        return seen

    def to_dict(self) -> dict:
        return {
            "signature_version": PHASE_SIGNATURE_VERSION,
            "windows": self.windows,
            "distinct_phases": len(self.distinct_ids),
            "meta": self.meta,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    def _rows(self) -> List[List[str]]:
        rows = []
        total = sum(phase.cycles for phase in self.phases) or 1
        for phase in self.phases:
            features = phase.features
            loss = phase.accounting.get(phase.dominant_blocker, 0)
            cycles = phase.cycles or 1
            rows.append([
                phase.phase_id,
                f"{phase.first_window}-{phase.last_window}",
                f"{phase.cycles}",
                f"{phase.cycles / total:.1%}",
                f"{phase.ipc:.3f}",
                f"{features['tc_hit_rate']:.2f}",
                f"{features['occupancy_frac']:.2f}",
                phase.dominant_blocker,
                f"{loss / cycles:.3f}",
            ])
        return rows

    _HEADER = ["phase", "windows", "cycles", "share", "ipc", "tc_hit",
               "rs_occ", "dominant blocker", "loss IPC"]

    def render(self) -> str:
        """Terminal per-phase attribution table."""
        if not self.phases:
            return "no phases detected (empty timeline)"
        rows = self._rows()
        widths = [max(len(self._HEADER[i]),
                      max(len(row[i]) for row in rows))
                  for i in range(len(self._HEADER))]
        lines = [
            f"{len(self.phases)} phase(s), "
            f"{len(self.distinct_ids)} distinct, "
            f"over {self.windows} window(s)",
            "  " + "  ".join(h.ljust(widths[i])
                             for i, h in enumerate(self._HEADER)),
        ]
        for row in rows:
            lines.append("  " + "  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """The same table as GitHub-flavoured markdown."""
        lines = [
            "| " + " | ".join(self._HEADER) + " |",
            "|" + "|".join("---" for _ in self._HEADER) + "|",
        ]
        for row in self._rows():
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)


def segment_timeline(windows: Sequence[dict],
                     threshold: float = DEFAULT_THRESHOLD,
                     smooth: int = DEFAULT_SMOOTH,
                     meta: Optional[dict] = None) -> PhaseReport:
    """Detect phases and wrap them in a :class:`PhaseReport`."""
    phases = detect_phases(windows, threshold=threshold, smooth=smooth)
    return PhaseReport(phases, windows=len(list(windows)), meta=meta)


def load_timeline(path: str) -> Tuple[dict, List[dict]]:
    """Load ``(meta, windows)`` from a recorder export.

    Accepts both shapes ``repro timeline`` writes: the JSONL form
    (header line then one window per line) and the single-document
    ``--json`` form (``{"meta": ..., "windows": [...]}``).  Torn JSONL
    tail lines are skipped.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except ValueError:
        document = None
    if isinstance(document, dict) and "windows" in document:
        return dict(document.get("meta") or {}), list(document["windows"])
    meta: dict = {}
    windows: List[dict] = []
    records, _ = parse_jsonl(text.splitlines())
    for record in records:
        if record.get("kind") == "interval-series" or (
                not windows and not meta and "cycles" not in record):
            meta = record
        else:
            windows.append(record)
    return meta, windows


#: Shade ramp for the lost-slot heatmap (blank = no loss).
_HEAT_SHADES = " ░▒▓█"

#: ANSI SGR per shade level, dim → alarming; index 0 unused (blank).
_HEAT_COLORS = ("", "\x1b[2m", "", "\x1b[33m", "\x1b[31m")
_ANSI_RESET = "\x1b[0m"
_ANSI_DIM = "\x1b[2m"
_ANSI_CYAN = "\x1b[36m"


def _pool(values: Sequence[float], columns: int) -> List[float]:
    """Mean-pool a series down to at most ``columns`` buckets."""
    count = len(values)
    if count <= columns:
        return list(values)
    pooled = []
    for i in range(columns):
        lo = i * count // columns
        hi = max(lo + 1, (i + 1) * count // columns)
        chunk = values[lo:hi]
        pooled.append(sum(chunk) / len(chunk))
    return pooled


def render_timeline(windows: Sequence[dict],
                    report: Optional[PhaseReport] = None,
                    ansi: bool = False,
                    columns: int = 64) -> str:
    """Sparkline / heatmap terminal view of an interval series.

    One sparkline row per headline signal, one lost-slot heatmap row
    per active cycle-accounting category (darker = larger share of
    that window's issue slots, normalised per row), and — when
    ``report`` is given — a phase strip labelling each column with its
    detected phase.  ``ansi`` only adds colour; the glyphs are plain
    unicode, so piped output stays readable.
    """
    from repro.analysis.charts import sparkline

    windows = [w for w in windows if w.get("cycles")]
    if not windows:
        return "no windows recorded"

    def dim(text: str) -> str:
        return f"{_ANSI_DIM}{text}{_ANSI_RESET}" if ansi else text

    label_width = max(len(name) for name in
                      CYCLE_LOSS_CATEGORIES + ("occupancy",))
    lines: List[str] = []

    signals = (
        ("ipc", lambda w: float(w.get("ipc", 0.0))),
        ("tc_hit_rate", lambda w: float(w.get("tc_hit_rate", 0.0))),
        ("occupancy", lambda w: float(w.get("occupancy_frac", 0.0))),
    )
    for name, pick in signals:
        series = [pick(w) for w in windows]
        pooled = _pool(series, columns)
        spark = sparkline(pooled)
        stats = (f"min {min(series):.3f}  mean "
                 f"{sum(series) / len(series):.3f}  max {max(series):.3f}")
        lines.append(f"  {name:<{label_width}}  {spark}  {dim(stats)}")

    lines.append("")
    lines.append("  lost-slot heatmap (row-normalised share of issue "
                 "slots per window):")
    for category in CYCLE_LOSS_CATEGORIES:
        shares = []
        for window in windows:
            slots = (max(1, int(window.get("width") or 1))
                     * max(1, int(window["cycles"])))
            shares.append(
                (window.get("accounting") or {}).get(category, 0) / slots)
        peak = max(shares)
        if peak <= 0.0:
            continue
        cells = []
        for value in _pool(shares, columns):
            level = min(len(_HEAT_SHADES) - 1,
                        int(round(value / peak * (len(_HEAT_SHADES) - 1))))
            shade = _HEAT_SHADES[level]
            if ansi and level and _HEAT_COLORS[level]:
                shade = f"{_HEAT_COLORS[level]}{shade}{_ANSI_RESET}"
            cells.append(shade)
        lines.append(f"  {category:<{label_width}}  {''.join(cells)}  "
                     + dim(f"peak {peak:.3f}"))

    if report is not None and report.phases:
        letters = {}
        for phase_id in report.distinct_ids:
            letters[phase_id] = chr(ord("A") + len(letters) % 26)
        by_window = {}
        for phase in report.phases:
            for index in range(phase.first_window, phase.last_window + 1):
                by_window[index] = letters[phase.phase_id]
        count = len(windows)
        width = min(count, columns)
        strip = []
        previous = None
        for i in range(width):
            letter = by_window.get(i * count // width, "?")
            strip.append(letter if letter != previous else "·")
            previous = letter
        text = "".join(strip)
        if ansi:
            text = f"{_ANSI_CYAN}{text}{_ANSI_RESET}"
        lines.append("")
        lines.append(f"  {'phases':<{label_width}}  {text}")
        legend = "  ".join(f"{letter}={phase_id}" for phase_id, letter
                           in letters.items())
        lines.append(f"  {'':<{label_width}}  {dim(legend)}")
    return "\n".join(lines)


def compare_timelines(reports: Dict[str, PhaseReport]) -> List[dict]:
    """Cross-strategy winner table: best mean IPC per phase id.

    ``reports`` maps a label (strategy name, file stem) to its
    :class:`PhaseReport`; phases are matched by their seed-stable
    quantised ids, so rows only exist for behaviours at least one run
    exhibited.
    """
    ipc_by_id: Dict[str, Dict[str, List[Tuple[float, int]]]] = {}
    order: List[str] = []
    for label, report in reports.items():
        for phase in report.phases:
            if phase.phase_id not in order:
                order.append(phase.phase_id)
            ipc_by_id.setdefault(phase.phase_id, {}).setdefault(
                label, []).append((phase.ipc, phase.cycles))
    rows = []
    for phase_id in order:
        cells: Dict[str, float] = {}
        for label, samples in ipc_by_id[phase_id].items():
            cycles = sum(c for _, c in samples) or 1
            cells[label] = sum(ipc * c for ipc, c in samples) / cycles
        winner = max(cells, key=lambda label: (cells[label], label))
        rows.append({"phase": phase_id, "ipc": cells, "winner": winner})
    return rows


def render_comparison(rows: List[dict]) -> str:
    """Terminal table of :func:`compare_timelines` output."""
    if not rows:
        return "no phases to compare"
    labels: List[str] = []
    for row in rows:
        for label in row["ipc"]:
            if label not in labels:
                labels.append(label)
    header = ["phase"] + labels + ["winner"]
    table = []
    for row in rows:
        cells = [row["phase"]]
        for label in labels:
            ipc = row["ipc"].get(label)
            cells.append(f"{ipc:.3f}" if ipc is not None else "-")
        cells.append(row["winner"])
        table.append(cells)
    widths = [max(len(header[i]), max(len(r[i]) for r in table))
              for i in range(len(header))]
    lines = ["  " + "  ".join(h.ljust(widths[i])
                              for i, h in enumerate(header))]
    for cells in table:
        lines.append("  " + "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)))
    return "\n".join(lines)
