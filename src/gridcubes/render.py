"""Deterministic SVG rendering of grids, regions and query plans."""

from __future__ import annotations

from .flow import QueryPlan
from .grid import RectilinearRegion
from .hierarchy import CubeHierarchy

CELL_PX = 24
MARGIN = 8


def render_svg(h: CubeHierarchy, region: RectilinearRegion | None = None,
               plan: QueryPlan | None = None) -> str:
    """Grid lines, cell boundaries per level, region shading, plan outlines.

    Output is byte-identical across runs for the same inputs.
    """
    w, ht = h.dims.width, h.dims.height
    width_px = w * CELL_PX + 2 * MARGIN
    height_px = ht * CELL_PX + 2 * MARGIN

    def px(x, y):
        return MARGIN + x * CELL_PX, MARGIN + y * CELL_PX

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    if region:
        ys, xs = region.mask.nonzero()  # row-major
        for x, y in zip(xs.tolist(), ys.tolist()):
            cx, cy = px(region.x0 + x, region.y0 + y)
            parts.append(f'<rect x="{cx}" y="{cy}" width="{CELL_PX}" height="{CELL_PX}" '
                         f'fill="#c9c9c9"/>')
    for gx in range(w + 1):
        x0, y0 = px(gx, 0)
        _, y1 = px(gx, ht)
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
    for gy in range(ht + 1):
        x0, y0 = px(0, gy)
        x1, _ = px(w, gy)
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
    for level in range(1, h.height + 1):
        stroke = 1 + level
        for cell in h.cells_of(level):
            b = cell.bounds
            x0, y0 = px(b.x0, b.y0)
            x1, y1 = px(b.x1 + 1, b.y1 + 1)
            parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                         f'fill="none" stroke="#555555" stroke-width="{stroke}" '
                         f'stroke-opacity="0.45"/>')
    if plan is not None:
        for point, sign in plan.terms:
            cell = getattr(point, "cell", point)
            b = cell.bounds
            x0, y0 = px(b.x0, b.y0)
            x1, y1 = px(b.x1 + 1, b.y1 + 1)
            color = "#1a7f37" if sign > 0 else "#c0392b"
            parts.append(f'<rect x="{x0 + 2}" y="{y0 + 2}" width="{x1 - x0 - 4}" '
                         f'height="{y1 - y0 - 4}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{x0 + 5}" y="{y0 + 15}" font-size="12" '
                         f'fill="{color}">{"+" if sign > 0 else "-"}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
