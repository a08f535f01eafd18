"""Deterministic SVG rendering of triangle-grid instances.

Edges are stroked with width proportional to weight, zero-weight edges
are dashed, an optional cut highlights its cut edges, and an optional
potential overlay labels each face with its exact value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import sqrt
from typing import Optional

from .core import Cut, Point, WeightFunction, edge_index, enumerate_edges, terminal
from .dual import build_dual, paper_potentials

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
    g = build_dual(n, w)
    nums = g.weights.tolist()
    maxw = Fraction(max(nums, default=0), g.denominator)
    width = SIDE + 2 * MARGIN
    height = SIDE * SQ3_2 + 2 * MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    cut_at = repeat(False) if cut is None else [a != b for a, b in zip(*cut.label_array[edge_index(3, n)].tolist())]
    for (x, y), num, is_cut in zip(enumerate_edges(3, n), nums, cut_at):
        val = Fraction(num, g.denominator)
        (x1, y1), (x2, y2) = _xy(x, n), _xy(y, n)
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
        topo = g.topology
        phi = paper_potentials(n)[potential_index].tolist()
        for f, c in zip(topo.faces.tolist(), topo.centroids.tolist()):
            cx, cy = _xy(tuple(Fraction(v, 3) for v in c), n)  # the centroid, scaled like grid coords
            val = Fraction(phi[f], 6 * n)
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="9" text-anchor="middle">{val}</text>'
            )
    for i in range(3):
        px, py = _xy(terminal(i, 3, n), n)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#2255cc"/>')
    out.append("</svg>")
    return "\n".join(out)
