"""Plain SVG drawings of cyclic configurations.

Each cell shows the circumscribed circle, the directed edges with
arrowheads, vertex labels, and an annotation line with the orientation
string, winding, radius, Morse index, and signed area.  Output is pure
string templating, deterministic byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CELL = 260.0
PAD = 26.0


@dataclass(frozen=True)
class RenderItem:
    """Plain drawing data for one configuration."""

    points: np.ndarray
    center: np.ndarray
    radius: float
    label: str


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_item_group(item: RenderItem, ox: float, oy: float) -> str:
    """One <g> cell with origin (ox, oy)."""
    pts = np.asarray(item.points, dtype=float)
    ctr = np.asarray(item.center, dtype=float)
    r = float(item.radius)
    span = 2.0 * r
    scale = (CELL - 2.0 * PAD) / span
    # world -> cell coordinates, y flipped so ccw looks ccw on screen
    def sx(x):
        return ox + PAD + (x - (ctr[0] - r)) * scale

    def sy(y):
        return oy + PAD + ((ctr[1] + r) - y) * scale

    parts = ['<g>']
    parts.append(
        f'<circle cx="{_fmt(sx(ctr[0]))}" cy="{_fmt(sy(ctr[1]))}" r="{_fmt(r * scale)}" '
        f'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
    )
    n = pts.shape[0]
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        parts.append(
            f'<line x1="{_fmt(sx(a[0]))}" y1="{_fmt(sy(a[1]))}" '
            f'x2="{_fmt(sx(b[0]))}" y2="{_fmt(sy(b[1]))}" '
            f'stroke="#1f3b73" stroke-width="1.4" marker-end="url(#arrow)"/>'
        )
    for i, p in enumerate(pts):
        out = p - ctr
        norm = math.hypot(*out)
        off = out / norm * 10.0 if norm > 1e-12 * r else np.array([10.0, 0.0])
        parts.append(
            f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" r="2.2" fill="#b33939"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(p[0]) + off[0])}" y="{_fmt(sy(p[1]) - off[1])}" '
            f'font-size="9" font-family="monospace" text-anchor="middle">p{i + 1}</text>'
        )
    parts.append(
        f'<text x="{_fmt(ox + CELL / 2)}" y="{_fmt(oy + CELL - 6)}" '
        f'font-size="10" font-family="monospace" text-anchor="middle">{item.label}</text>'
    )
    parts.append("</g>")
    return "\n".join(parts)


def render_grid_svg(items: list) -> str:
    """A grid SVG with one cell per configuration (empty grid is valid)."""
    count = len(items)
    cols = max(1, math.ceil(math.sqrt(count))) if count else 1
    rows = max(1, math.ceil(count / cols)) if count else 1
    width = cols * CELL
    height = rows * CELL
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        "<defs>\n"
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6" '
        'markerHeight="6" orient="auto-start-reverse">\n'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#1f3b73"/>\n'
        "</marker>\n"
        "</defs>\n"
    )
    body = []
    for idx, item in enumerate(items):
        ox = (idx % cols) * CELL
        oy = (idx // cols) * CELL
        body.append(render_item_group(item, ox, oy))
    return head + "\n".join(body) + ("\n" if body else "") + "</svg>\n"


def render_single_svg(item: RenderItem) -> str:
    return render_grid_svg([item])


def annotation(eps, winding: int, radius: float, index, area: float) -> str:
    eps_text = "".join("+" if v > 0 else "-" for v in eps)
    idx_text = "?" if index is None else str(index)
    return f"E={eps_text} k={winding} r={_fmt(radius)} m={idx_text} A={_fmt(area)}"
