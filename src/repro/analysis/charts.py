"""Terminal bar charts and sparklines for rendering results as text.

Deliberately dependency-free: the benchmark harness runs in environments
without plotting libraries, and the paper's bar figures carry their
information fine as proportional text bars.  Sparklines draw the trend
columns of ``repro top`` and ``repro timeline``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

#: The sparkline ramp, lowest to highest.
_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def bar_chart(
    data: Mapping[str, float],
    title: str = "",
    width: int = 50,
    baseline: Optional[float] = None,
    fmt: str = "{:.3f}",
) -> str:
    """Render labelled horizontal bars.

    ``baseline`` draws bars relative to a reference value (e.g. 1.0 for
    speedups), so that values below the baseline render as shorter bars
    and are annotated with a minus marker.
    """
    if not data:
        return title
    label_width = max(len(label) for label in data)
    values = list(data.values())
    low = min(values + ([baseline] if baseline is not None else []))
    high = max(values + ([baseline] if baseline is not None else []))
    span = (high - low) or 1.0
    lines = [title] if title else []
    for label, value in data.items():
        filled = int(round(width * (value - low) / span))
        bar = "#" * filled
        marker = ""
        if baseline is not None and value < baseline:
            marker = " (below baseline)"
        lines.append(
            f"{label.ljust(label_width)} | {bar.ljust(width)} "
            + fmt.format(value) + marker
        )
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 40,
    fmt: str = "{:.3f}",
) -> str:
    """Render groups of bars (one sub-chart per group key)."""
    sections = [title] if title else []
    for group, data in groups.items():
        sections.append(bar_chart(data, title=f"[{group}]", width=width,
                                  fmt=fmt))
    return "\n".join(sections)


def sparkline(values: Iterable[float]) -> str:
    """Unicode sparkline of ``values`` (empty string for no values)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_TICKS[3] * len(values)
    span = high - low
    ticks = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_TICKS) - 1))
        ticks.append(_SPARK_TICKS[index])
    return "".join(ticks)
