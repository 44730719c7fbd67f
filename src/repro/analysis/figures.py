"""Plain-text (ASCII) figure rendering.

The paper presents its evaluation as two charts.  The benchmark harness and
the CLI regenerate them as text so the "figures" can live inside terminal
output, log files and ``bench_output.txt`` without a plotting dependency:

* :func:`line_chart` -- a general multi-series scatter/line chart on linear or
  logarithmic axes,
* :func:`figure4_chart` -- log-log time vs. processors for the plain and
  resilient series (the paper's Figure 4), and
* :func:`figure5_chart` -- time vs. processors for the granularity multipliers
  (the paper's Figure 5).

The renderer is intentionally simple: each series is plotted with its own
marker character on a shared canvas, with collisions resolved in favour of the
later series (and marked with ``*`` when two series genuinely overlap).
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple

from .speedup import SpeedupCurve

#: Marker characters assigned to successive series.
_MARKERS = "ox+#@%&"


def _transform(value: float, log: bool) -> float:
    if log:
        if value <= 0:
            raise ValueError("logarithmic axes require positive values")
        return math.log10(value)
    return value


def _ticks(low: float, high: float, count: int, log: bool) -> List[float]:
    if count < 2:
        raise ValueError("need at least two ticks")
    if log:
        return [10 ** (low + (high - low) * i / (count - 1)) for i in range(count)]
    return [low + (high - low) * i / (count - 1) for i in range(count)]


def line_chart(series: Mapping[str, Sequence[Tuple[float, float]]], *,
               width: int = 60, height: int = 18,
               log_x: bool = False, log_y: bool = False,
               x_label: str = "x", y_label: str = "y",
               title: Optional[str] = None) -> str:
    """Render ``{label: [(x, y), ...]}`` as an ASCII chart.

    Parameters
    ----------
    series:
        Mapping from series label to its (x, y) samples.
    width / height:
        Plot-area size in character cells (axes and legend are added around it).
    log_x / log_y:
        Use logarithmic axes (the paper's Figure 4 is log-log).
    x_label / y_label / title:
        Axis labels and an optional title line.
    """
    if not series:
        raise ValueError("no series to plot")
    points = [(x, y) for samples in series.values() for x, y in samples]
    if not points:
        raise ValueError("series contain no points")
    xs = [_transform(x, log_x) for x, _ in points]
    ys = [_transform(y, log_y) for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    canvas = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        column = int(round((_transform(x, log_x) - x_low) / (x_high - x_low) * (width - 1)))
        row = int(round((_transform(y, log_y) - y_low) / (y_high - y_low) * (height - 1)))
        row = height - 1 - row
        current = canvas[row][column]
        canvas[row][column] = "*" if current not in (" ", marker) else marker

    legend = []
    for index, (label, samples) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"  {marker} {label}")
        for x, y in samples:
            place(x, y, marker)

    lines: List[str] = []
    if title:
        lines.append(title)
    y_ticks = _ticks(y_low, y_high, 5, log_y)
    tick_rows = {height - 1 - int(round(i * (height - 1) / 4)): tick
                 for i, tick in enumerate(y_ticks)}
    for row_index, row in enumerate(canvas):
        tick = tick_rows.get(row_index)
        prefix = f"{tick:10.3g} |" if tick is not None else " " * 10 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    x_ticks = _ticks(x_low, x_high, 5, log_x)
    tick_line = [" "] * (width + 12)
    for i, tick in enumerate(x_ticks):
        column = 12 + int(round(i * (width - 1) / 4))
        text = f"{tick:g}"
        for offset, char in enumerate(text):
            if column + offset < len(tick_line):
                tick_line[column + offset] = char
    lines.append("".join(tick_line))
    lines.append(f"{'':11s} {x_label}   (y: {y_label}"
                 f"{', log-log' if log_x and log_y else ''})")
    lines.extend(legend)
    return "\n".join(lines)


def figure4_chart(no_resiliency: SpeedupCurve, resiliency: SpeedupCurve, *,
                  width: int = 60, height: int = 16) -> str:
    """The paper's Figure 4: log-log time vs. processors for both series."""
    series = {
        no_resiliency.label: [(p.processors, p.elapsed_seconds)
                              for p in no_resiliency.sorted_points()],
        resiliency.label: [(p.processors, p.elapsed_seconds)
                           for p in resiliency.sorted_points()],
    }
    return line_chart(series, width=width, height=height, log_x=True, log_y=True,
                      x_label="processors", y_label="time (virtual s)",
                      title="Figure 4: time vs processors (log-log)")


def figure5_chart(curves: Mapping[int, SpeedupCurve], *, width: int = 60,
                  height: int = 16) -> str:
    """The paper's Figure 5: time vs. processors per granularity multiplier."""
    series = {
        f"#sub-cube = #proc x {multiplier}": [
            (p.processors, p.elapsed_seconds) for p in curve.sorted_points()]
        for multiplier, curve in sorted(curves.items())
    }
    return line_chart(series, width=width, height=height, log_x=False, log_y=False,
                      x_label="processors", y_label="time (virtual s)",
                      title="Figure 5: granularity control")


__all__ = ["line_chart", "figure4_chart", "figure5_chart"]
