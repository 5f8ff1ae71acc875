"""Standalone SVG pictures of line families.

Everything is cut on the family's integer pairs, against the viewport
put over one common denominator: each line by a cross-multiplied integer
comparison, with each endpoint an unreduced ratio of integers, and a
highlighted cell by each bounding line in turn, on integer vertices.
Floats appear only in the final coordinate formatting, num / den rounded
once (int true division is correctly rounded, as float(Fraction) is), so
the same family and options always produce the identical document byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Optional, Tuple

from .arrangement import SignVector, bounding_lines
from .errors import EmptyViewportError, ParameterRangeError
from .geometry import LineFamily, Rat, _as_rat, format_rat

__all__ = ["RenderOptions", "render_svg"]

_STROKE = "#1f2937"
_STROKE_WIDTH = "1.5"
_ACCENT_WIDTH = "3"
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
        ((m, c),), s = family.pairs, family.scale
        x0, x1 = Fraction(-1), Fraction(1)
        y0, y1 = Fraction(c - abs(m), s), Fraction(c + abs(m), s)
    span = max(x1 - x0, y1 - y0, Fraction(1))
    pad = span / 10
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _visible_spans(family: LineFamily, box, d: int):
    """For each line, the x-range where it runs inside the box, as
    (lo, hi, a) for lo / (a*d) < x < hi / (a*d), or None.

    box is (x0, y0, x1, y1) times d. Line y = (m*x + c) / s meets the
    heights y0 / d and y1 / d at (y0*s - c*d) / (m*d) and (y1*s - c*d) /
    (m*d); a is |m|, or 1 for a horizontal line, which runs inside over
    the whole width or not at all.
    """
    x0, y0, x1, y1 = box
    s = family.scale
    spans = []
    for m, c in family.pairs:
        if m == 0:
            spans.append((x0, x1, 1) if y0 * s <= c * d <= y1 * s else None)
            continue
        lo, hi = y0 * s - c * d, y1 * s - c * d
        if m < 0:
            lo, hi = -hi, -lo
        a = abs(m)
        lo, hi = max(lo, x0 * a), min(hi, x1 * a)
        spans.append((lo, hi, a) if lo < hi else None)
    return spans


def _clip_cell(family: LineFamily, signs: SignVector, box, d: int):
    """The box cut down to the cell, as integer vertices (X, Y, W), W > 0,
    for the points (X / W, Y / W) / d; box is (x0, y0, x1, y1) times d.

    Only the cell's bounding lines cut it: the closed side of any other
    line holds the whole cell. Line y = (m*x + c) / s takes the value
    sign * (s*Y - m*X - c*d*W), linear in the vertex: an edge with ends of
    opposite signs crosses it at vn*cur - vc*nxt, over its gcd signed as W.
    Raises InfeasibleSignVectorError for a sign vector with no cell at all.
    """
    x0, y0, x1, y1 = box
    poly = [(x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1)]
    s = family.scale
    for i in sorted(bounding_lines(family, signs)):
        (m, c), sign = family.pairs[i], signs[i]
        values = [sign * (s * y - m * x - c * d * w) for x, y, w in poly]
        clipped = []
        for cur, nxt, vc, vn in zip(poly, poly[1:] + poly[:1], values, values[1:] + values[:1]):
            if vc * vn < 0:
                x, y, w = (vn * a - vc * b for a, b in zip(cur, nxt))
                g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
                clipped.append((x // g, y // g, w // g))
            if vn >= 0:
                clipped.append(nxt)
        poly = clipped
    return poly


def _has_area(poly) -> bool:
    """Whether the clipped box encloses any area. It is convex and turns
    counter-clockwise as the box does, so it does exactly when some fan
    triangle from its first vertex has a determinant other than 0."""
    return len(poly) >= 3 and any(
        xa * (yb * wc - wb * yc) - ya * (xb * wc - wb * xc) + wa * (xb * yc - yb * xc)
        for (xa, ya, wa), (xb, yb, wb), (xc, yc, wc) in zip(repeat(poly[0]), poly[1:], poly[2:])
    )


def _fmt(num: int, den: int) -> str:
    """num / den, den > 0, as float(Fraction(num, den)) prints it."""
    return f"{num / den:.12g}"


def render_svg(family: LineFamily, options: Optional[RenderOptions] = None) -> str:
    options = options or RenderOptions()
    if options.viewport is not None:
        box = tuple(_as_rat(v) for v in options.viewport)
        shown = f"({', '.join(map(format_rat, box))})"
        if len(box) != 4 or box[0] >= box[2] or box[1] >= box[3]:
            raise ParameterRangeError(f"degenerate viewport: {shown}")
    else:
        box = _auto_viewport(family)
    if options.highlight_lines is not None:
        for idx in options.highlight_lines:
            if not 0 <= idx < len(family):
                raise ParameterRangeError(f"line index out of range: {idx}")

    width = options.width
    if width < 1:
        raise ParameterRangeError(f"width must be positive: {width}")
    # the box over one denominator d: its corners are (x0, y0) / d and (x1, y1) / d
    d = lcm(*(v.denominator for v in box))
    scaled = tuple(v.numerator * (d // v.denominator) for v in box)
    x0, y0, x1, y1 = scaled
    dx = x1 - x0
    height = _fmt(width * (y1 - y0), dx)

    def to_svg(xn: int, yn: int, ex: int, ey: int) -> Tuple[str, str]:
        """The point (xn / ex, yn / ey) / d, ex, ey > 0, on the canvas."""
        return (
            _fmt((xn - x0 * ex) * width, ex * dx),
            _fmt((y1 * ey - yn) * width, ey * dx),
        )

    spans = _visible_spans(family, scaled, d)
    if options.viewport is not None and not any(spans):
        raise EmptyViewportError(f"no line of the family is visible in viewport {shown}")

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    if options.highlight is not None:
        poly = _clip_cell(family, options.highlight, scaled, d)
        if _has_area(poly):
            coords = " ".join(",".join(to_svg(x, y, w, w)) for x, y, w in poly)
            parts.append(
                f'<polygon points="{coords}" fill="{_HIGHLIGHT_FILL}" '
                f'fill-opacity="0.6" stroke="none"/>'
            )

    accents = set(options.highlight_lines or ())
    s = family.scale
    for idx, ((m, c), span) in enumerate(zip(family.pairs, spans)):
        if span is None:
            continue
        lo, hi, a = span
        # at x = t / (a*d), y = (m*t + c*a*d) / (a*s*d)
        cad, ey = c * a * d, a * s
        ax, ay = to_svg(lo, m * lo + cad, a, ey)
        bx, by = to_svg(hi, m * hi + cad, a, ey)
        if idx in accents:
            color, sw = _HIGHLIGHT_STROKE, _ACCENT_WIDTH
        else:
            color, sw = _STROKE, _STROKE_WIDTH
        parts.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
            f'stroke="{color}" stroke-width="{sw}"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
