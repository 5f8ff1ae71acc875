from fractions import Fraction

import pytest

from linecells import (
    DuplicateSlopeError,
    Line,
    LineFamily,
    Point,
    format_rat,
    parse_rat,
)
from linecells.geometry import _as_rat

from oracles import intersect, orientation, side_of


def test_parse_rat_literals():
    assert parse_rat("3") == 3
    assert parse_rat("-5/2") == Fraction(-5, 2)
    assert parse_rat("+7/3") == Fraction(7, 3)
    assert parse_rat("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["1.5", "1/0", "1/00", "1 /2", "", "a", "1/-2", "--3", "1e3"]
    # a trailing newline, and digits outside ASCII: Arabic-Indic 3 and 4
    + ["3\n", "1/3\n", "\u0663", "1/\u0664"],
)
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@pytest.mark.parametrize(
    "bad, message",
    [("1.5", "not a rational literal: '1.5'"), ("1/ 2", "not a rational literal: '1/ 2'"),
     ("1/+2", "not a rational literal: '1/+2'"), ("-3/0", "zero denominator: '-3/0'")],
)
def test_parse_rat_rejection_messages(bad, message):
    with pytest.raises(ValueError) as info:
        parse_rat(bad)
    assert str(info.value) == message


def test_format_rat_round_trips():
    for v in (Fraction(3), Fraction(-5, 2), Fraction(0), Fraction(7, 3)):
        assert parse_rat(format_rat(v)) == v


def test_floats_are_banned():
    with pytest.raises(TypeError):
        Line(0.5, 1)
    with pytest.raises(TypeError):
        Point(1, 2.0)


def test_as_rat_keeps_a_fraction_and_bans_floats():
    x = Fraction(-5, 2)
    assert _as_rat(x) is x
    assert Point(x, x).x is x
    assert Line(x, x).c is x
    assert _as_rat(3) == Fraction(3) and type(_as_rat(3)) is Fraction
    assert _as_rat("7/3") == Fraction(7, 3)
    for bad in (0.5, -2.0, float("inf")):
        with pytest.raises(TypeError):
            _as_rat(bad)


def test_line_accepts_ints_strings_fractions():
    line = Line("1/2", 3)
    assert line.m == Fraction(1, 2)
    assert line.c == 3
    assert line.y_at(4) == 5


def test_intersect_fixture():
    assert intersect(Line(2, 3), Line(1, 1)) == Point(-2, -1)


def test_intersect_parallel_raises():
    with pytest.raises(ValueError):
        intersect(Line(1, 0), Line(1, 5))


def test_orientation_signs():
    a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
    assert orientation(a, b, c) == 1
    assert orientation(a, c, b) == -1
    assert orientation(a, b, Point(2, 0)) == 0


def test_side_of():
    line = Line(1, 0)
    assert side_of(line, Point(0, 1)) == 1
    assert side_of(line, Point(0, -1)) == -1
    assert side_of(line, Point(5, 5)) == 0


def test_family_sorts_by_slope():
    fam = LineFamily((Line(1, 0), Line(-1, 0), Line(0, 1)))
    assert [line.m for line in fam] == [-1, 0, 1]
    assert fam.slopes() == (-1, 0, 1)


def test_family_rejects_duplicate_slopes():
    with pytest.raises(DuplicateSlopeError):
        LineFamily((Line(1, 0), Line(1, 5)))


def test_family_rejects_empty():
    with pytest.raises(ValueError):
        LineFamily(())


def test_family_metadata():
    fam = LineFamily((Line(0, 0),))
    assert fam.name is None and fam.provenance is None
    tagged = fam.with_meta(name="demo", provenance=(("kind", "pencil"),))
    assert tagged.name == "demo"
    assert tagged.provenance == (("kind", "pencil"),)
    assert tagged.lines == fam.lines
