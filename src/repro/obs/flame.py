"""Self-contained flamegraph SVG builder for collapsed stacks.

Input is the classic folded/collapsed format — one stack per line,
innermost frame last, value after the final space::

    repro/machine/simulate.py:simulate;repro/machine/trace.py:program_traces 0.0042

(:meth:`repro.obs.hotspot.HotspotReport.collapsed` produces it for
``repro perf --flame``/``--stacks``, and external folded files
from ``stackcollapse-*.pl`` parse the same way).

The output is a single standalone SVG document — no scripts, no
external references beyond the mandatory SVG ``xmlns``, hover detail
via ``<title>`` elements — so it can be committed, attached to CI
artifacts, or opened from ``file://`` with nothing else present.  The
rendering is deterministic: children are laid out name-sorted, colors
are derived from a hash of the frame name (classic flamegraph "warm"
palette), and equal input always yields byte-identical output, which
lets tests and CI diff the artifact directly.

Escaping is shared with :mod:`repro.obs.html` so frame names with
``<``/``&`` (e.g. the ``<external>`` bucket) stay well-formed XML.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Union

from repro.obs.html import esc

__all__ = ["parse_collapsed", "flamegraph_svg"]

ROW_H = 17          # pixels per stack depth level
HEADER_H = 30       # title band at the top
FOOTER_H = 6
FONT_PX = 11
CHAR_W = 6.6        # approx monospace advance at FONT_PX — label budget
MIN_LABEL_W = 30.0  # frames narrower than this get no text, only <title>

_STYLE = (
    "text{font-family:ui-monospace,Menlo,monospace;"
    f"font-size:{FONT_PX}px;fill:#1c1c1c}}"
    "rect{stroke:#fff;stroke-width:0.4}"
)


def parse_collapsed(lines: Iterable[str]) -> Dict[str, float]:
    """Parse folded-stack lines into ``{stack: value}``.

    Duplicate stacks accumulate; blank lines are skipped.  Raises
    :class:`ValueError` on a line without a ``stack value`` split.
    """
    out: Dict[str, float] = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        stack, _, val = line.rpartition(" ")
        try:
            value = float(val)
        except ValueError:
            stack = ""
        if not stack:
            raise ValueError(f"malformed collapsed-stack line: {raw!r}")
        out[stack] = out.get(stack, 0.0) + value
    return out


class _Node:
    __slots__ = ("value", "children")

    def __init__(self) -> None:
        self.value = 0.0
        self.children: Dict[str, "_Node"] = {}


def _tree(stacks: Mapping[str, float]) -> _Node:
    root = _Node()
    for stack in sorted(stacks):
        v = float(stacks[stack])
        if v <= 0.0:
            continue
        root.value += v
        node = root
        for frame in stack.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _Node()
            child.value += v
            node = child
    return root


def _color(name: str) -> str:
    """Classic flamegraph warm color, deterministic per frame name."""
    d = hashlib.sha256(name.encode("utf-8")).digest()
    return f"rgb({205 + d[0] % 51},{d[1] % 231},{d[2] % 56})"


def flamegraph_svg(
    stacks: Union[Mapping[str, float], Iterable[str]],
    title: str = "flamegraph",
    width: int = 1200,
    min_frac: float = 0.001,
) -> str:
    """Render collapsed stacks as a standalone icicle-layout SVG.

    ``stacks`` is either a ``{stack: seconds}`` mapping or an iterable
    of folded lines (fed through :func:`parse_collapsed`).  Frames
    narrower than ``min_frac`` of the total are pruned, but the layout
    still advances by their true width so siblings stay aligned.
    """
    if not isinstance(stacks, Mapping):
        stacks = parse_collapsed(stacks)
    root = _tree(stacks)
    total = root.value
    scale = (width / total) if total > 0 else 0.0
    body: List[str] = []
    max_depth = 0

    def frame(name: str, node: _Node, x: float, depth: int) -> None:
        nonlocal max_depth
        w = node.value * scale
        if w < width * min_frac:
            return
        max_depth = max(max_depth, depth)
        y = HEADER_H + depth * ROW_H
        pct = node.value / total
        tip = f"{name} — {node.value:.4g}s ({pct:.1%})"
        parts = [
            "<g>",
            f"<title>{esc(tip)}</title>",
            f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}"'
            f' height="{ROW_H - 1}" fill="{_color(name)}" rx="1"/>',
        ]
        if w >= MIN_LABEL_W:
            budget = int((w - 6) / CHAR_W)
            label = name if len(name) <= budget else name[: max(budget - 1, 1)] + "…"
            if budget >= 3:
                parts.append(
                    f'<text x="{x + 3:.2f}" y="{y + FONT_PX + 2}">'
                    f"{esc(label)}</text>"
                )
        parts.append("</g>")
        body.append("".join(parts))
        cx = x
        for cname in sorted(node.children):
            child = node.children[cname]
            frame(cname, child, cx, depth + 1)
            cx += child.value * scale  # true width even when pruned

    if total > 0:
        frame("all", root, 0.0, 0)
    height = HEADER_H + (max_depth + 1) * ROW_H + FOOTER_H
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fdfdfd"/>',
        f'<text x="6" y="{FONT_PX + 7}" font-weight="bold">'
        f"{esc(title)} — total {total:.4g}s, {len(stacks)} stack(s)</text>",
    ]
    if total <= 0:
        body.append(
            f'<text x="6" y="{HEADER_H + FONT_PX + 2}">(no samples)</text>'
        )
    return "\n".join(head + body) + "\n</svg>\n"
