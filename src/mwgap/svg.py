"""Deterministic SVG rendering of triangle-grid instances.

Edges are stroked with width proportional to weight, zero-weight edges
are dashed, an optional cut highlights its cut edges, and an optional
potential overlay labels each face with its exact value.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt
from typing import Optional

from .core import Cut, Point, WeightFunction, enumerate_edges
from .dual import enumerate_faces, face_centroid, potential

SIDE = 480.0
MARGIN = 40.0
SQ3_2 = sqrt(3) / 2


def _xy(p: Point, n: int) -> tuple[float, float]:
    # e^0 bottom-left, e^1 bottom-right, e^2 top
    x = (p[1] + p[2] / 2) / n * SIDE + MARGIN
    y = MARGIN + SIDE * SQ3_2 - p[2] / n * SIDE * SQ3_2
    return x, y


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(
    w: WeightFunction,
    cut: Optional[Cut] = None,
    potential_index: Optional[int] = None,
) -> str:
    """Render the instance (k = 3 only) as a standalone SVG document."""
    if w.k != 3:
        raise ValueError(f"SVG rendering is specific to k = 3, got k = {w.k}")
    if cut is not None and (cut.k, cut.n) != (w.k, w.n):
        raise ValueError(f"cut is on (k={cut.k}, n={cut.n}) but the instance on (k={w.k}, n={w.n})")
    n = w.n
    maxw = max(w.weights.values(), default=Fraction(0))
    width = SIDE + 2 * MARGIN
    height = SIDE * SQ3_2 + 2 * MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for x, y in enumerate_edges(3, n):
        val = w.get(x, y)
        (x1, y1), (x2, y2) = _xy(x, n), _xy(y, n)
        is_cut = cut is not None and cut.labels[x] != cut.labels[y]
        color = "#cc2222" if is_cut else "#333333"
        if val == 0:
            style = f'stroke="{color}" stroke-width="1" stroke-dasharray="4 3"'
        else:
            sw = 1.0 + 5.0 * float(val / maxw) if maxw else 1.0
            style = f'stroke="{color}" stroke-width="{_fmt(sw)}"'
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}>'
            f"<title>{x}-{y} w={val}</title></line>"
        )
    if potential_index is not None:
        for f in enumerate_faces(n):
            c = face_centroid(f, n)
            cx, cy = _xy(tuple(v * n for v in c), n)  # rational point scaled like grid coords
            val = potential(potential_index, f, n)
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="9" text-anchor="middle">{val}</text>'
            )
    for i in range(3):
        p = tuple(n if j == i else 0 for j in range(3))
        px, py = _xy(p, n)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#2255cc"/>')
    out.append("</svg>")
    return "\n".join(out)
