import hashlib
import re
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linecells import (
    EmptyViewportError,
    InfeasibleSignVectorError,
    Line,
    LineFamily,
    ParameterRangeError,
    Point,
    RenderOptions,
    enumerate_cells,
    parse_family,
    render_svg,
)
from linecells.svg import _auto_viewport, _clip_cell, _has_area

import oracles
from oracles import area2, clip_by_bounding_lines

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
    # strings and ints are read as rationals, and printed as parse_rat reads them
    with pytest.raises(EmptyViewportError) as info:
        render_svg(TRIANGLE, RenderOptions(viewport=(100, "2", "303/3", Fraction(3))))
    assert str(info.value) == "no line of the family is visible in viewport (100, 2, 101, 3)"


def test_render_degenerate_viewport_raises():
    with pytest.raises(ParameterRangeError):
        render_svg(TRIANGLE, RenderOptions(viewport=(0, 0, 0, 1)))
    with pytest.raises(ParameterRangeError) as info:
        render_svg(TRIANGLE, RenderOptions(viewport=("1/2", 0, "2/4", 1)))
    assert str(info.value) == "degenerate viewport: (1/2, 0, 1/2, 1)"


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
        poly = clip_by_bounding_lines(fam, cell.signs, box)
        assert area2(poly) != 0, cell.signs
        for p in poly:
            assert x0 <= p.x <= x1 and y0 <= p.y <= y1
            for line, sign in zip(fam, cell.signs):
                assert sign * (p.y - line.y_at(p.x)) >= 0, cell.signs
        assert cycle(poly) == cycle(oracles.clip_cell(fam, cell.signs, box)), cell.signs


# sha256 of render_svg, recorded while every line was clipped in Fractions
# (oracles.visible_span) and printed from Points: the integer clip must
# reproduce every document byte for byte; the highlighted cell, recorded
# while it was cut in Fractions (oracles.clip_by_bounding_lines), pins the
# cut on the integer pairs the same way
RENDER_OPTIONS = {
    "default": RenderOptions(),
    "viewport": RenderOptions(
        viewport=(Fraction(-1, 3), Fraction(-7, 5), Fraction(5, 2), Fraction(9, 4))
    ),
    "accent": RenderOptions(highlight_lines=(0, 2), width=400),
    "highlight": RenderOptions(highlight=(-1, -1, -1, -1, 1, 1, 1, 1)),
}

PINNED_RENDERS = {
    ("F334", "default"): "d2d730eae6b90d92ad574432194a21079dd556b2af164ed37309a353bc13d9ca",
    ("F334", "viewport"): "d72a221abc6781ae206ef73826a4fc8b112905cc1c993a4a4bd853807b17792f",
    ("F334", "accent"): "53d713c9474c25ff7d8892e7d065d74700498599a76c6a3ec731ff6595454c7f",
    ("F434", "default"): "8f9c994251ae548e8dd2b0991dd5d4a6a06f6c50c1228de9796a3f6b0b92aea4",
    ("F434", "viewport"): "ee5cc685cb9242e5b975a937ae62925649bb32bfcd9d4c467af8ea226315db82",
    ("F434", "accent"): "d64d4bb98337c149fce49a8e16597efa80ea9a9c985fd12f912b0649becf3236",
    ("F444", "default"): "259d2fa1be97c330c91b28e07b6e7776176bbf6884a3b9732ea516fb6d0a3b24",
    ("F444", "viewport"): "a467665539f6ecb8cfd0ba67113ff4eac0527146d18fd61ed5fe9c29fe6682d4",
    ("F444", "accent"): "334613986e9321dd0ce48aa88fbac394451ec8d86a2c3eaf87203255ffeed9da",
    ("F544", "default"): "c0cf4b8271474cfb7f45e79f583cb16de2064ec3ec466dd01ba630793325c0fe",
    ("F544", "viewport"): "564578250b60f2212a9f1333f114d95a86b7270f64902b03149af290e6279e5b",
    ("F544", "accent"): "171dca5c3868f6a43be17e9bca3c7d62276f428c99e1396bc5d9c157c876790b",
    ("F554", "default"): "5833a27af77d3e39595e42e78714c206e99998d01f18af94798716fd50894413",
    ("F554", "viewport"): "24034bf3b9bbb86f9c36f6c3000d5dec7b1870d1540d7643b47c9e228d2fee84",
    ("F554", "accent"): "6d031faddbcd9e1c37157c34877f7cc13c33d99f4f8bf4be6b674e7567223aa4",
    ("F654", "default"): "5a66da44172ba96a4ca82561964532a0c4a630d7e7cefac1a162502f1e7eec68",
    ("F654", "viewport"): "35348c2440acd8ec3492b53e1d5bfdbd7884df102d71e181bff965435b6b55d3",
    ("F654", "accent"): "4091190e6f847335a4459cad1e9d6a4700d7df107bec2b020bc0f8c1a8a13e98",
    ("fig5", "default"): "0f5e4d6411dd7473e4c90a01a051c17132c8fbf431a0ab5fcd5b01f2ad41ae9e",
    ("fig5", "viewport"): "36c93e832b9e4defc3121394f151533143b362aa6d1e29f23afd87e18c89557d",
    ("fig5", "accent"): "510331b313fac07ef381bfef26890e75a1e7392920a78c3554a114255ac7afbb",
    ("fig6", "default"): "5ecd826fec658d8ba108ecccd1a7a4675e68c343a7e3927e2db04af9e42b5f1a",
    ("fig6", "viewport"): "544f1f0b5684132d6a1bce2ebdfe2e330306c63c0ebf5cac1192fb419b364138",
    ("fig6", "accent"): "53e4c0f279bf5039c9114100cc90772b58755d0e287361d15271639b5a348e30",
    ("fig8", "default"): "eab25e9019aad0dfe4b80bc216e30f5a75d428b067a73469efc55a142884d311",
    ("fig8", "viewport"): "5a02850118e2b940268bac60c8e540c24a97dba8a4271b16e47e4efa3cd7468f",
    ("fig8", "accent"): "00cbbb57fb988660cf66e628a42fb5b5d9d7fee5327c8c6dacdaf54d9d4531f1",
    ("F334", "highlight"): "fb8dfb6cdc9eedd334fe7fe696a82ac9b873bf84be4156c20951638585521470",
}


@pytest.mark.parametrize("name,options", PINNED_RENDERS)
def test_render_is_byte_identical_to_the_fraction_clip(name, options):
    fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    svg = render_svg(fam, RENDER_OPTIONS[options])
    assert hashlib.sha256(svg.encode()).hexdigest() == PINNED_RENDERS[name, options]


def test_parse_and_render_make_no_lines(monkeypatch):
    # both read and draw the integer pairs, the highlighted cell included:
    # no Line is built, and the family's Fraction lines stay unbuilt
    made = [0]
    post_init = Line.__post_init__

    def counted_post_init(line):
        made[0] += 1
        post_init(line)

    monkeypatch.setattr(Line, "__post_init__", counted_post_init)
    fam = parse_family((FAMILIES / "F654.txt").read_text())
    render_svg(fam)
    render_svg(fam, RENDER_OPTIONS["viewport"])
    render_svg(fam, RENDER_OPTIONS["accent"])
    assert render_svg(fam, RenderOptions(highlight=(1,) * len(fam))).count("<polygon ") == 1
    assert made[0] == 0
    assert "lines" not in vars(fam)


LINE_ELEMENT = re.compile(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"')


def check_lines(fam, viewport=None, width=640):
    """render_svg draws exactly the lines of oracles.line_elements, or raises
    EmptyViewportError when an explicit viewport shows none of them; returns
    the number drawn."""
    options = RenderOptions(viewport=viewport, width=width)
    box = _auto_viewport(fam) if viewport is None else tuple(map(Fraction, viewport))
    expected = oracles.line_elements(fam, box, width)
    if not expected:
        with pytest.raises(EmptyViewportError):
            render_svg(fam, options)
        return 0
    assert LINE_ELEMENT.findall(render_svg(fam, options)) == expected
    return len(expected)


EDGE_CASES = {
    # (family, viewport, lines drawn); y = 1 runs across, y = 2x - 1 leaves
    # through the top
    "horizontal": (LineFamily((Line(0, 1), Line(2, -1))), (-1, -1, 1, 2), 2),
    # a horizontal line along the bottom edge is drawn, one above is not
    "horizontal on the edge": (LineFamily((Line(0, -2),)), (-1, -2, 1, 2), 1),
    "horizontal above": (LineFamily((Line(0, 3), Line(1, 0))), (-1, -2, 1, 2), 1),
    # y = x touches the box only at its top-left corner (0, 0)
    "corner": (LineFamily((Line(1, 0), Line(0, -1))), (0, -2, 2, 0), 1),
    # y = -x touches the box only at its bottom-left corner (0, 0)
    "corner, negative slope": (
        LineFamily((Line(-1, 0), Line(Fraction(1, 2), 1))), (0, 0, 2, 2), 1
    ),
    # the steep line passes left of the box
    "miss": (LineFamily((Line(0, 0), Line(1000, 0))), (5, -1, 6, 1), 1),
    "negative slopes": (
        LineFamily((Line(-3, 1), Line(Fraction(-1, 2), Fraction(2, 3)))),
        RENDER_OPTIONS["viewport"].viewport,
        2,
    ),
    "one line": (LineFamily((Line(Fraction(-2, 3), 5),)), None, 1),
    "one horizontal line": (LineFamily((Line(0, 5),)), None, 1),
    "empty viewport": (TRIANGLE, (100, 2, 101, 3), 0),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_lines_match_the_fraction_clip_at_the_edges(case):
    fam, viewport, drawn = EDGE_CASES[case]
    assert check_lines(fam, viewport) == drawn


small = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def scenes(draw):
    """(family, viewport): a rational box and up to seven lines with small
    rational coordinates, among them, by choice, a horizontal line, a line
    through a box corner that touches the box there only, and a line that
    misses the box."""
    x0, x1 = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
    lines = []
    if draw(st.booleans()):
        lines.append(Line(0, draw(small)))
    if draw(st.booleans()):
        # rising through the top-left corner, falling through the bottom-left
        m = draw(small.filter(bool))
        y = y1 if m > 0 else y0
        lines.append(Line(m, y - m * x0))
    if draw(st.booleans()):
        # above the box: above both top corners
        m = draw(small)
        lines.append(Line(m, y1 - min(m * x0, m * x1) + draw(small.filter(lambda v: v > 0))))
    lines += [Line(m, c) for m, c in draw(st.lists(st.tuples(small, small), max_size=4))]
    by_slope = {}
    for line in lines:
        by_slope.setdefault(line.m, line)
    if not by_slope:
        by_slope[0] = Line(draw(small), draw(small))
    return LineFamily(by_slope.values()), (x0, y0, x1, y1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenes(), st.booleans(), st.integers(1, 1000))
def test_lines_match_the_fraction_clip(scene, explicit, width):
    fam, viewport = scene
    check_lines(fam, viewport if explicit else None, width)


@pytest.mark.parametrize("name", ["F334", "F434"])
def test_highlighted_cell_is_printed_as_its_points(name):
    fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    box = _auto_viewport(fam)
    for cell in enumerate_cells(fam)[::7]:
        svg = render_svg(fam, RenderOptions(highlight=cell.signs))
        points = re.search(r'<polygon points="([^"]*)"', svg).group(1)
        poly = clip_by_bounding_lines(fam, cell.signs, box)
        assert points == " ".join(",".join(oracles.canvas_point(p, box, 640)) for p in poly)


POLYGON_POINTS = re.compile(r'<polygon points="([^"]*)"')


def as_points(poly, d):
    """The integer vertices (X, Y, W) of _clip_cell as the Points
    (X / W, Y / W) / d."""
    return [Point(Fraction(x, w * d), Fraction(y, w * d)) for x, y, w in poly]


@pytest.mark.parametrize("viewport", ["auto", "rational"])
@pytest.mark.parametrize("name", ["F334", "F434", "fig5", "fig6", "fig8"])
def test_integer_clip_matches_the_fraction_clip(name, viewport):
    # every cell, vertex for vertex, and the document prints the reference's
    # Points, or no polygon where the reference has no area
    fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    if viewport == "auto":
        box, options = _auto_viewport(fam), RenderOptions()
    else:
        options = RENDER_OPTIONS["viewport"]
        box = options.viewport
    d = lcm(*(v.denominator for v in box))
    scaled = tuple(v.numerator * (d // v.denominator) for v in box)
    for cell in enumerate_cells(fam):
        poly = _clip_cell(fam, cell.signs, scaled, d)
        expected = clip_by_bounding_lines(fam, cell.signs, box)
        assert as_points(poly, d) == expected, cell.signs
        assert _has_area(poly) == (len(expected) >= 3 and area2(expected) != 0), cell.signs
        svg = render_svg(fam, replace(options, highlight=cell.signs))
        drawn = POLYGON_POINTS.findall(svg)
        if _has_area(poly):
            assert drawn == [" ".join(",".join(oracles.canvas_point(p, box, 640)) for p in expected)]
            # a vertex on a cutting line is kept once: each (X, Y, W) is in
            # lowest terms with W > 0, so no point repeats, wrap included
            assert len(set(poly)) == len(poly), cell.signs
        else:
            assert drawn == []


def test_clip_of_a_vertex_on_the_line_keeps_it_once():
    # y = x runs through two corners of its box, and the cell above it is
    # the triangle of three corners, each printed once
    assert POLYGON_POINTS.findall(
        render_svg(LineFamily((Line(1, 0),)), RenderOptions(highlight=(1,)))
    ) == ["640,0 0,0 0,640"]


def test_clip_with_vertices_and_no_area_draws_no_polygon():
    # the cell below y = 0 meets the box above it only along the bottom
    # edge: the cut keeps both ends of that edge, each once, and no area
    fam = LineFamily((Line(0, 0),))
    box = (-1, 0, 1, 1)
    poly = _clip_cell(fam, (-1,), box, 1)
    assert poly == [(1, 0, 1), (-1, 0, 1)]
    assert as_points(poly, 1) == clip_by_bounding_lines(fam, (-1,), box)
    assert not _has_area(poly)
    svg = render_svg(fam, RenderOptions(viewport=box, highlight=(-1,)))
    assert svg.count("<line ") == 1
    assert "<polygon " not in svg
