import random
from fractions import Fraction

import pytest

from linecells import (
    Line,
    LineFamily,
    ParameterRangeError,
    Point,
    find_unbounded_cell,
    has_k_cell_unbounded,
    is_cap,
    is_cup,
    longest_cap,
    longest_cup,
    pencil,
    reflect_x,
)

import oracles
from conftest import (
    brute_longest_cap,
    brute_longest_cup,
    random_family,
    signs_at,
    subfamily,
)

CUP3 = LineFamily((Line(-1, -1), Line(0, 0), Line(1, -1)))

FIG2 = LineFamily(
    (
        Line(0, 0),
        Line(Fraction(1, 2), -2),
        Line(2, -10),
        Line(3, Fraction(-76, 5)),
    )
)


def test_cup_fixture():
    assert is_cup(CUP3)
    assert not is_cap(CUP3)
    result = longest_cup(CUP3)
    assert result.size == 3
    assert result.witness == (0, 1, 2)
    assert result.kind == "cup"


def test_cap_is_mirrored_cup():
    cap = reflect_x(CUP3)
    assert is_cap(cap)
    assert not is_cup(cap)
    assert longest_cap(cap).size == 3


def test_two_lines_are_both():
    fam = LineFamily((Line(0, 0), Line(1, 0)))
    assert is_cup(fam) and is_cap(fam)


def test_single_line():
    fam = LineFamily((Line(5, 2),))
    assert is_cup(fam) and is_cap(fam)
    assert longest_cup(fam).size == 1
    assert longest_cup(fam).witness == (0,)


def test_pencil_chains_stop_at_two():
    fam = pencil(Point(1, 1), 4, (0, 1, 2, 3))
    assert longest_cup(fam).size == 2
    assert longest_cap(fam).size == 2


def test_dp_matches_brute_force_on_fixture():
    assert longest_cup(FIG2).size == brute_longest_cup(FIG2)
    assert longest_cap(FIG2).size == brute_longest_cap(FIG2)


def test_dp_witness_is_a_chain():
    rng = random.Random(2718)
    for _ in range(20):
        fam = random_family(rng, max_lines=7)
        checks = ((longest_cup(fam), oracles.is_cup), (longest_cap(fam), oracles.is_cap))
        for result, pred in checks:
            assert pred(subfamily(fam, result.witness))
            assert result.size == len(result.witness)


def test_fig2_unbounded_right_4cell():
    assert has_k_cell_unbounded(FIG2, 4, "right")
    assert not has_k_cell_unbounded(FIG2, 5, "right")
    cell = find_unbounded_cell(FIG2, 4, "right")
    assert cell.bound_class == "unbounded_right"
    assert len(cell.bounding) >= 4
    assert signs_at(FIG2, cell.witness_point) == cell.signs


def test_unbounded_left_mirror():
    mirror = LineFamily(tuple(Line(-l.m, l.c) for l in FIG2))
    assert has_k_cell_unbounded(mirror, 4, "left")
    assert not has_k_cell_unbounded(mirror, 4, "right")


def test_unbounded_cell_validation():
    with pytest.raises(ValueError):
        find_unbounded_cell(FIG2, 4, "up")
    with pytest.raises(ParameterRangeError):
        find_unbounded_cell(FIG2, 1, "right")


def test_staircase_scan_order():
    cell = find_unbounded_cell(FIG2, 2, "right")
    assert cell is not None
    # staircases are scanned bottom-up; the first one already qualifies
    assert cell.signs == (1, -1, -1, -1)
