from fractions import Fraction
from pathlib import Path

import pytest

from linecells import (
    EmptyViewportError,
    InfeasibleSignVectorError,
    Line,
    LineFamily,
    ParameterRangeError,
    RenderOptions,
    enumerate_cells,
    parse_family,
    render_svg,
)
from linecells.svg import _area2, _auto_viewport, _clip_cell

import oracles

FAMILIES = Path(__file__).resolve().parents[1] / "bench" / "families"

TRIANGLE = LineFamily((Line(1, 0), Line(-1, 0), Line(0, 1)))


def test_render_default_viewport():
    svg = render_svg(TRIANGLE)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<line ") == 3
    assert '<rect width="640"' in svg


def test_render_is_deterministic():
    opts = RenderOptions(highlight=(1, -1, 1), highlight_lines=(0,))
    assert render_svg(TRIANGLE, opts) == render_svg(TRIANGLE, opts)


def test_render_highlight_cell_polygon():
    svg = render_svg(TRIANGLE, RenderOptions(highlight=(1, -1, 1)))
    assert svg.count("<polygon ") == 1


def test_render_highlight_cell_outside_the_viewport():
    # the cell above y=x, below y=-x and above y=1 lies left of x = -1; all
    # three lines cross the box, so it renders with no polygon
    svg = render_svg(TRIANGLE, RenderOptions(viewport=(5, -10, 6, 10), highlight=(1, -1, 1)))
    assert svg.count("<line ") == 3
    assert "<polygon " not in svg


def test_render_highlight_infeasible_cell():
    with pytest.raises(InfeasibleSignVectorError):
        render_svg(TRIANGLE, RenderOptions(highlight=(-1, 1, -1)))


def test_render_highlight_lines_accent():
    svg = render_svg(TRIANGLE, RenderOptions(highlight_lines=(1,)))
    assert svg.count('stroke="#dc2626"') == 1
    with pytest.raises(ParameterRangeError):
        render_svg(TRIANGLE, RenderOptions(highlight_lines=(7,)))


def test_render_empty_viewport_raises():
    # a box missed by all three lines (y=x passes below, y=1 below, y=-x below)
    box = (100, 2, 101, 3)
    with pytest.raises(EmptyViewportError):
        render_svg(TRIANGLE, RenderOptions(viewport=box))


def test_render_degenerate_viewport_raises():
    with pytest.raises(ParameterRangeError):
        render_svg(TRIANGLE, RenderOptions(viewport=(0, 0, 0, 1)))


def test_render_single_line():
    svg = render_svg(LineFamily((Line(0, 5),)))
    assert svg.count("<line ") == 1


def test_render_partial_visibility():
    # steep line misses the box, shallow one crosses it
    fam = LineFamily((Line(0, 0), Line(1000, 0)))
    svg = render_svg(fam, RenderOptions(viewport=(5, -1, 6, 1)))
    assert svg.count("<line ") == 1


def test_render_width_knob():
    svg = render_svg(TRIANGLE, RenderOptions(width=320))
    assert '<svg xmlns="http://www.w3.org/2000/svg" width="320"' in svg
    with pytest.raises(ParameterRangeError):
        render_svg(TRIANGLE, RenderOptions(width=0))


def cycle(poly):
    """The polygon's vertex cycle without consecutive repeats, started at
    its least vertex."""
    kept = [p for idx, p in enumerate(poly) if p != poly[idx - 1]]
    start = kept.index(min(kept))
    return kept[start:] + kept[:start]


@pytest.mark.parametrize("name", ["F334", "F434"])
def test_clip_cell_matches_clipping_by_every_line(name):
    fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    box = _auto_viewport(fam)
    x0, y0, x1, y1 = box
    for cell in enumerate_cells(fam):
        poly = _clip_cell(fam, cell.signs, box)
        assert _area2(poly) != 0, cell.signs
        for p in poly:
            assert x0 <= p.x <= x1 and y0 <= p.y <= y1
            for line, sign in zip(fam, cell.signs):
                assert sign * (p.y - line.y_at(p.x)) >= 0, cell.signs
        assert cycle(poly) == cycle(oracles.clip_cell(fam, cell.signs, box)), cell.signs
