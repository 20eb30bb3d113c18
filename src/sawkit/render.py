"""Deterministic SVG rendering of walks and partitions.

Output is plain text built from integer coordinates only, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from .aztec import Partition, partition_to_path
from .lattice import Walk


SCALE = 16  # pixels per lattice unit
MARGIN = 1  # lattice units of padding around the drawing
BACKGROUND = "#ffffff"
STROKE = "#d1495b"
STROKE_WIDTH = 2
START_FILL = "#1d3557"
END_FILL = "#e07a1f"
ENDPOINT_RADIUS = 4
CLASS1_FILL = "#f2c57c"
CLASS2_FILL = "#6d9dc5"
CELL_STROKE = "#909090"


class _Canvas:
    def __init__(self, min_x: int, min_y: int, max_x: int, max_y: int):
        self.min_x, self.max_y = min_x, max_y
        self.width = (max_x - min_x + 2 * MARGIN) * SCALE
        self.height = (max_y - min_y + 2 * MARGIN) * SCALE
        self.parts: list[str] = []

    def sx(self, x: float) -> int:
        return round((x - self.min_x + MARGIN) * SCALE)

    def sy(self, y: float) -> int:
        return round((self.max_y - y + MARGIN) * SCALE)

    def document(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="{BACKGROUND}"/>\n'
        )
        return head + "".join(self.parts) + "</svg>\n"


def render_walk_svg(walk: Walk) -> str:
    """SVG document with the walk polyline and marked endpoints."""
    pts = walk.points()
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    c = _Canvas(min(xs), min(ys), max(xs), max(ys))
    coords = " ".join(f"{c.sx(p.x)},{c.sy(p.y)}" for p in pts)
    c.parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH}" stroke-linecap="round" stroke-linejoin="round"/>\n'
    )
    for p, fill in ((pts[0], START_FILL), (pts[-1], END_FILL)):
        c.parts.append(
            f'<circle cx="{c.sx(p.x)}" cy="{c.sy(p.y)}" r="{ENDPOINT_RADIUS}" fill="{fill}"/>\n'
        )
    return c.document()


def render_partition_svg(partition: Partition) -> str:
    """SVG document with the two dual-cell classes and the boundary path overlay."""
    k = partition.k
    c = _Canvas(-k, -k, k, k)
    for verts, fill in ((partition.class1, CLASS1_FILL), (partition.class2, CLASS2_FILL)):
        for (a, b) in sorted(verts):
            # dual vertex (a/2, b/2) is the unit cell centered there
            x0 = c.sx((a - 1) // 2)
            y0 = c.sy((b + 1) // 2)
            c.parts.append(
                f'<rect x="{x0}" y="{y0}" width="{SCALE}" height="{SCALE}" '
                f'fill="{fill}" stroke="{CELL_STROKE}" stroke-width="1"/>\n'
            )
    walk = partition_to_path(partition)
    coords = " ".join(f"{c.sx(p.x)},{c.sy(p.y)}" for p in walk.points())
    c.parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH + 1}" stroke-linecap="round" stroke-linejoin="round"/>\n'
    )
    return c.document()
