"""Standalone SVG pictures of line families.

All clipping happens in exact rational arithmetic; floats appear only in
the final coordinate formatting, so the same family and options always
produce the identical document byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .arrangement import SignVector, bounding_lines
from .errors import EmptyViewportError, ParameterRangeError
from .geometry import Line, LineFamily, Point, Rat, _as_rat

__all__ = ["RenderOptions", "render_svg"]

_STROKE = "#1f2937"
_STROKE_WIDTH = 1.5
_HIGHLIGHT_FILL = "#fcd34d"
_HIGHLIGHT_STROKE = "#dc2626"


@dataclass(frozen=True)
class RenderOptions:
    """Rendering knobs for render_svg.

    viewport is (x0, y0, x1, y1) in family coordinates; None picks a box
    around all intersection points with a 10% margin. highlight names a
    sign vector whose cell gets filled; highlight_lines picks indices
    (into the slope-sorted family) to restroke in the accent color.
    """

    viewport: Optional[Tuple] = None
    highlight: Optional[SignVector] = None
    highlight_lines: Optional[Tuple[int, ...]] = None
    width: int = 640


def _auto_viewport(family: LineFamily) -> Tuple[Rat, Rat, Rat, Rat]:
    if len(family) > 1:
        # the integer keys order crossings exactly as their coordinates do,
        # so only the four extreme vertices are built as Points
        view = family.view
        keys = {pair: view.vertex_key(*pair) for pair in view.rim}

        def extreme(pick, axis):
            return view.vertex(*pick(keys, key=lambda pair: keys[pair][axis]))

        x0, x1 = extreme(min, 0).x, extreme(max, 0).x
        y0, y1 = extreme(min, 1).y, extreme(max, 1).y
    else:
        line = family[0]
        x0, x1 = Fraction(-1), Fraction(1)
        y0 = min(line.y_at(x0), line.y_at(x1))
        y1 = max(line.y_at(x0), line.y_at(x1))
    span = max(x1 - x0, y1 - y0, Fraction(1))
    pad = span / 10
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _visible_span(line: Line, box) -> Optional[Tuple[Rat, Rat]]:
    """x-range where the line runs inside the box, or None."""
    x0, y0, x1, y1 = box
    if line.m == 0:
        if y0 <= line.c <= y1:
            return (x0, x1)
        return None
    a = (y0 - line.c) / line.m
    b = (y1 - line.c) / line.m
    if a > b:
        a, b = b, a
    lo = max(a, x0)
    hi = min(b, x1)
    if lo >= hi:
        return None
    return (lo, hi)


def _clip_cell(family: LineFamily, signs: SignVector, box):
    """Viewport rectangle cut down to the cell, as a rational polygon.

    Only the cell's bounding lines cut it: the closed side of any other
    line holds the whole cell. Raises InfeasibleSignVectorError for a sign
    vector with no cell at all.
    """
    x0, y0, x1, y1 = box
    poly = [Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]
    for i in sorted(bounding_lines(family, signs)):
        m, c, sign = family[i].m, family[i].c, signs[i]
        clipped = []
        for cur, nxt in zip(poly, poly[1:] + poly[:1]):
            vc = sign * (cur.y - m * cur.x - c)
            vn = sign * (nxt.y - m * nxt.x - c)
            if (vc < 0) != (vn < 0):
                clipped.append(_edge_cross(cur, nxt, vc, vn))
            if vn >= 0:
                clipped.append(nxt)
        poly = clipped
    return poly


def _edge_cross(cur: Point, nxt: Point, vc: Rat, vn: Rat) -> Point:
    t = vc / (vc - vn)
    return Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))


def _area2(poly) -> Rat:
    total = Fraction(0)
    for idx in range(len(poly)):
        a = poly[idx]
        b = poly[(idx + 1) % len(poly)]
        total += a.x * b.y - b.x * a.y
    return total


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def render_svg(family: LineFamily, options: Optional[RenderOptions] = None) -> str:
    options = options or RenderOptions()
    if options.viewport is not None:
        box = tuple(_as_rat(v) for v in options.viewport)
        if len(box) != 4 or box[0] >= box[2] or box[1] >= box[3]:
            raise ParameterRangeError(f"degenerate viewport: {options.viewport}")
    else:
        box = _auto_viewport(family)
    if options.highlight_lines is not None:
        for idx in options.highlight_lines:
            if not 0 <= idx < len(family):
                raise ParameterRangeError(f"line index out of range: {idx}")

    x0, y0, x1, y1 = box
    dx, dy = x1 - x0, y1 - y0
    width = options.width
    if width < 1:
        raise ParameterRangeError(f"width must be positive: {width}")
    height = width * dy / dx

    def to_svg(p: Point) -> Tuple[str, str]:
        sx = (p.x - x0) / dx * width
        sy = (y1 - p.y) / dy * height
        return _fmt(sx), _fmt(sy)

    spans = [_visible_span(line, box) for line in family]
    if options.viewport is not None and not any(spans):
        raise EmptyViewportError(
            f"no line of the family is visible in viewport {options.viewport}"
        )

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_fmt(height)}" viewBox="0 0 {width} {_fmt(height)}">'
    )
    parts.append(f'<rect width="{width}" height="{_fmt(height)}" fill="#ffffff"/>')

    if options.highlight is not None:
        poly = _clip_cell(family, options.highlight, box)
        if len(poly) >= 3 and _area2(poly) != 0:
            coords = " ".join(",".join(to_svg(p)) for p in poly)
            parts.append(
                f'<polygon points="{coords}" fill="{_HIGHLIGHT_FILL}" '
                f'fill-opacity="0.6" stroke="none"/>'
            )

    accents = set(options.highlight_lines or ())
    for idx, (line, span) in enumerate(zip(family, spans)):
        if span is None:
            continue
        a = Point(span[0], line.y_at(span[0]))
        b = Point(span[1], line.y_at(span[1]))
        (ax, ay), (bx, by) = to_svg(a), to_svg(b)
        if idx in accents:
            color, sw = _HIGHLIGHT_STROKE, _STROKE_WIDTH * 2
        else:
            color, sw = _STROKE, _STROKE_WIDTH
        parts.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
            f'stroke="{color}" stroke-width="{_fmt(sw)}"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
