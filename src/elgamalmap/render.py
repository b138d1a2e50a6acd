"""Cycle diagrams as standalone SVG documents.

One circle per cycle, radius (hence circumference) proportional to the
cycle length, packed greedily into rows from the longest cycle down.
The layout is a deterministic aesthetic choice, not a data encoding.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["cycle_diagram_svg"]

_RADIUS_PER_ELEMENT = 2.0
_PAD = 6.0


def cycle_diagram_svg(cycle_lengths: Iterable[int]) -> str:
    """Render a permutation's cycle lengths, in any order, as an SVG 1.1
    document string."""
    radii = [_RADIUS_PER_ELEMENT * k for k in sorted(cycle_lengths, reverse=True)]
    width = _canvas_width(radii)

    circles = []
    x = _PAD
    y = _PAD
    row_height = 0.0
    for r in radii:
        if x > _PAD and x + 2 * r + _PAD > width:
            x = _PAD
            y += row_height + _PAD
            row_height = 0.0
        circles.append((x + r, y + r, r))
        x += 2 * r + _PAD
        row_height = max(row_height, 2 * r)
    height = y + row_height + _PAD

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">',
    ]
    parts.extend(
        f'  <circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:.1f}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
        for cx, cy, r in circles
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _canvas_width(radii: list[float]) -> float:
    # Wide enough for the largest circle, aiming at a roughly square canvas.
    area = sum((2 * r + _PAD) ** 2 for r in radii)
    return max(2 * max(radii) + 2 * _PAD, math.sqrt(area) + 2 * _PAD)
