"""Shared building blocks for self-contained HTML reports.

The HTML run report (``repro report --html``) is built from these
parts, and :mod:`repro.obs.flame` shares the escaping: one escaping
path, one stylesheet, no external assets — a report file must render
from a CI artifact tab or an ``file://`` open with nothing else on
disk.  Deterministic: output is a pure function of the input values
and all iteration orders are the caller's.

Cells passed to :func:`table` are escaped here (callers hand over raw
values, never pre-escaped markup); the only way to attach styling is
the ``(value, css)`` tuple form, which keeps attribute injection
impossible by construction.
"""

from __future__ import annotations

import html as _html
from typing import Any, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "esc",
    "page",
    "svg_line",
    "table",
]

# The one stylesheet every report shares (monospace tables, bordered
# cells, left-aligned first columns via the "l" class).
_STYLE = (
    "body{font-family:monospace;margin:1.5em;max-width:72em}"
    "table{border-collapse:collapse;margin:0.8em 0}"
    "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
    "th{background:#eee}td.l,th.l{text-align:left}"
    "h2{margin-top:1.2em}"
    ".bad{background:#fdd}.warn{background:#fec}.ok{background:#dfd}"
    "svg{margin:0.4em 0}"
    ".meta{color:#555}"
)


def esc(value: Any) -> str:
    """The single escaping path for text landing in markup."""
    return _html.escape(str(value), quote=True)


def page(title: str, parts: Iterable[str]) -> str:
    """A complete self-contained document around pre-rendered parts."""
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{esc(title)}</h1>" + "".join(parts) + "</body></html>"
    )


def _cell(value: Any, tag: str, left: bool) -> str:
    """One ``<td>``/``<th>``: value, or ``(value, css)`` for styling."""
    style = ""
    if isinstance(value, tuple):
        value, css = value
        if css:
            style = f" style='{esc(css)}'"
    cls = " class='l'" if left else ""
    return f"<{tag}{cls}{style}>{esc(value)}</{tag}>"


def table(headers: Sequence[Any], rows: Iterable[Sequence[Any]],
          left_cols: int = 1) -> str:
    """An escaped table; the first ``left_cols`` columns left-align."""
    parts: List[str] = ["<table><tr>"]
    for i, h in enumerate(headers):
        parts.append(_cell(h, "th", i < left_cols))
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for i, value in enumerate(row):
            parts.append(_cell(value, "td", i < left_cols))
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def svg_line(points: Sequence[Tuple[float, float]], *,
             width: int = 480, height: int = 120,
             label: str = "", unit: str = "",
             y_max: Optional[float] = None) -> str:
    """A minimal inline SVG line chart (no scripts, no assets).

    ``points`` are ``(x, y)`` in data space; axes are normalized to the
    data's bounding box (``y_max`` pins the top instead when given).
    Renders a labelled frame even for empty/degenerate series so report
    sections keep their shape.
    """
    pts = [(float(x), float(y)) for x, y in points]
    head = (f"<div><div class='meta'>{esc(label)}"
            + (f" ({esc(unit)})" if unit else "") + "</div>")
    frame = (f"<svg width='{width}' height='{height}' "
             f"viewBox='0 0 {width} {height}'>"
             f"<rect x='0' y='0' width='{width}' height='{height}' "
             "fill='#fafafa' stroke='#999'/>")
    if len(pts) < 2:
        return head + frame + "</svg></div>"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0 = min(min(ys), 0.0)
    y1 = y_max if y_max is not None else max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    pad = 4.0
    w, h = width - 2 * pad, height - 2 * pad

    def sx(x: float) -> float:
        return pad + (x - x0) / xspan * w

    def sy(y: float) -> float:
        return pad + h - (y - y0) / yspan * h

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
    last = pts[-1][1]
    return (
        head + frame
        + f"<polyline fill='none' stroke='#b22222' stroke-width='1.5' "
          f"points='{poly}'/>"
        + f"<text x='{pad}' y='12' font-size='10' fill='#555'>"
          f"max {y1:.4g}</text>"
        + f"<text x='{width - pad}' y='{height - 6}' font-size='10' "
          f"fill='#555' text-anchor='end'>last {last:.4g}</text>"
        + "</svg></div>"
    )
