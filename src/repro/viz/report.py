"""The composed CAP report — the paper's Figure 3 as a standalone HTML page.

For a mining result, :class:`CapReport` renders:

* panel (A): the full sensor map;
* per CAP, panel (B): the map with that CAP's sensors highlighted,
  panel (C): the full-range measurement chart with co-evolving timestamps
  marked, and panel (D): a zoomed window around the densest co-evolution
  burst — the zoom-in the demo performs live.

Everything is a single self-contained HTML file (inline SVG, no external
assets), so reports can be archived next to experiment outputs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.miner import MiningResult
from ..core.search import filter_maximal
from ..core.types import CAP, SensorDataset
from .map_view import render_map
from .svg import escape
from .timeseries_view import render_cap_timeseries

__all__ = ["CapReport", "densest_window"]


def densest_window(cap: CAP, num_timestamps: int, width: int = 48) -> tuple[int, int]:
    """The ``width``-long window containing the most co-evolving timestamps.

    This is what the report zooms panel (D) into; ties resolve to the
    earliest window.  Falls back to the start of the timeline for patterns
    without recorded evolving indices.
    """
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    width = min(width, num_timestamps)
    if not cap.evolving_indices:
        return 0, width
    indices = np.asarray(cap.evolving_indices, dtype=np.int64)
    best_start, best_count = 0, -1
    for start in range(0, num_timestamps - width + 1):
        count = int(np.count_nonzero((indices >= start) & (indices < start + width)))
        if count > best_count:
            best_start, best_count = start, count
    return best_start, best_start + width


class CapReport:
    """Render a mining result into a self-contained HTML report."""

    def __init__(
        self,
        dataset: SensorDataset,
        result: MiningResult,
        max_caps: int = 10,
        maximal_only: bool = True,
        zoom_width: int = 48,
    ) -> None:
        if max_caps < 1:
            raise ValueError(f"max_caps must be >= 1, got {max_caps}")
        self.dataset = dataset
        self.result = result
        self.max_caps = max_caps
        self.zoom_width = zoom_width
        caps: Sequence[CAP] = result.caps
        if maximal_only:
            caps = filter_maximal(caps)
        self.caps = list(caps[:max_caps])

    # -- fragments -------------------------------------------------------------

    def _header_html(self) -> str:
        params = self.result.parameters
        rows = [
            ("dataset", self.dataset.name),
            ("sensors", len(self.dataset)),
            ("timestamps", self.dataset.num_timestamps),
            ("evolving rate ε", params.evolving_rate),
            ("distance threshold η (km)", params.distance_threshold),
            ("max attributes μ", params.max_attributes),
            ("min support ψ", params.min_support),
            ("patterns found", self.result.num_caps),
            ("patterns shown", len(self.caps)),
            ("mining time (s)", f"{self.result.elapsed_seconds:.3f}"),
            ("served from cache", self.result.from_cache),
        ]
        cells = "".join(
            f"<tr><td>{escape(k)}</td><td>{escape(v)}</td></tr>" for k, v in rows
        )
        return (
            "<h1>Miscela-V CAP report</h1>"
            f"<table class='meta'>{cells}</table>"
        )

    def _cap_section_html(self, index: int, cap: CAP) -> str:
        highlighted = cap.sensor_ids
        map_svg = render_map(
            self.dataset,
            highlighted_sensors=highlighted,
            dim_unhighlighted=True,
            title=f"CAP {index + 1}: sensor locations",
        ).to_string()
        full_chart = render_cap_timeseries(self.dataset, cap).to_string()
        window = densest_window(cap, self.dataset.num_timestamps, self.zoom_width)
        zoom_chart = render_cap_timeseries(self.dataset, cap, window=window).to_string()
        sensors_list = ", ".join(
            f"{sid} ({self.dataset.sensor(sid).attribute})" for sid in sorted(cap.sensor_ids)
        )
        delays = ""
        if cap.is_delayed:
            delay_text = ", ".join(
                f"{sid}: +{d}" for sid, d in sorted(cap.delays.items()) if d
            )
            delays = f"<p><b>delays:</b> {escape(delay_text)} steps</p>"
        return (
            f"<section class='cap'>"
            f"<h2>CAP {index + 1} — attributes {{{escape(', '.join(sorted(cap.attributes)))}}}, "
            f"support {cap.support}</h2>"
            f"<p><b>sensors:</b> {escape(sensors_list)}</p>{delays}"
            f"<div class='panels'>"
            f"<div class='panel'><h3>(B) map, CAP highlighted</h3>{map_svg}</div>"
            f"<div class='panel'><h3>(C) measurements, full range</h3>{full_chart}</div>"
            f"<div class='panel'><h3>(D) zoom: steps {window[0]}–{window[1]}</h3>{zoom_chart}</div>"
            f"</div></section>"
        )

    _CSS = """
    body { font-family: sans-serif; margin: 24px; color: #222; }
    table.meta { border-collapse: collapse; margin-bottom: 24px; }
    table.meta td { border: 1px solid #ccc; padding: 4px 10px; }
    section.cap { border-top: 2px solid #e0e0e0; margin-top: 28px; padding-top: 8px; }
    .panels { display: flex; flex-wrap: wrap; gap: 16px; }
    .panel h3 { margin: 4px 0; font-size: 13px; color: #555; }
    """

    def to_html(self) -> str:
        overview = render_map(
            self.dataset,
            adjacency=self.result.adjacency or None,
            title=f"(A) all sensors in {self.dataset.name}",
        ).to_string()
        sections = "".join(
            self._cap_section_html(i, cap) for i, cap in enumerate(self.caps)
        )
        if not self.caps:
            sections = "<p><i>No CAPs found with these parameters.</i></p>"
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>Miscela-V report: {escape(self.dataset.name)}</title>"
            f"<style>{self._CSS}</style></head><body>"
            f"{self._header_html()}"
            f"<section><h2>Overview</h2>{overview}</section>"
            f"{sections}"
            "</body></html>"
        )

    def save_html(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_html())
        return path
