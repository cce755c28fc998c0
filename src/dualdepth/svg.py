"""Deterministic SVG rendering of planar instances and result overlays.

Pure string assembly: identical inputs produce identical bytes.  Lines are
clipped to the fixed viewport [-5, 5]^2, drawn 600 pixels wide;
overlay elements carry stable ids so downstream tooling can address them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .geometry import DimensionMismatchError, Instance

# (xmin, ymin, xmax, ymax) of the drawn region, and its width in pixels
_VIEWPORT = (-5.0, -5.0, 5.0, 5.0)
_SIZE = 600


class UnsupportedDimensionError(DimensionMismatchError):
    pass


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _clip_line(a: float, b: float, c: float, box) -> Optional[tuple]:
    """Segment of the line a*x + b*y = c inside the viewport box, if any."""
    xmin, ymin, xmax, ymax = box
    pts = []
    if b != 0.0:
        for x in (xmin, xmax):
            y = (c - a * x) / b
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if a != 0.0:
        for y in (ymin, ymax):
            x = (c - b * y) / a
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-7 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def render_svg(instance: Instance, triangles: Sequence[Sequence] = (), witness=None) -> bytes:
    """Render a planar instance with overlays as SVG 1.1 bytes.

    ``triangles`` are vertex lists and ``witness`` a point.  Coordinates
    may be exact rationals; they are formatted at fixed precision for byte
    stability.
    """
    if instance.dim != 2:
        raise UnsupportedDimensionError(f"cannot render dimension {instance.dim}")
    if witness is not None and len(witness) != 2:
        raise DimensionMismatchError(f"witness must have 2 coordinates, got {len(witness)}")
    xmin, ymin, xmax, ymax = box = _VIEWPORT
    scale = _SIZE / (xmax - xmin)
    height = int(round((ymax - ymin) * scale))

    def to_px(p):
        x = (float(p[0]) - xmin) * scale
        y = (ymax - float(p[1])) * scale  # flip: SVG y grows downward
        return x, y

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{height}" '
        f'viewBox="0 0 {_SIZE} {height}">\n',
        f'<rect x="0" y="0" width="{_SIZE}" height="{height}" fill="#ffffff"/>\n',
    ]

    for i, h in enumerate(instance.hyperplanes):
        a, b = (float(c) for c in h.normal)
        c0 = float(h.offset)
        seg = _clip_line(a, b, c0, box)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = (to_px(seg[0]), to_px(seg[1]))
        parts.append(
            f'<line id="hyperplane-{i}" class="hyperplane" '
            f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#444444" stroke-width="1"/>\n'
        )

    palette = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
    for gi, tri in enumerate(triangles):
        pts = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in tri)
        )
        color = palette[gi % len(palette)]
        parts.append(
            f'<polygon id="group-{gi}" class="group" points="{pts}" '
            f'fill="{color}" fill-opacity="0.25" stroke="{color}" stroke-width="1.5"/>\n'
        )

    if witness is not None:
        x, y = to_px(witness)
        parts.append(
            f'<circle id="witness" class="witness" '
            f'cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#d62728" '
            f'stroke="#000000" stroke-width="1"/>\n'
        )

    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")
