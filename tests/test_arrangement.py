import random
from fractions import Fraction

import pytest

from linecells import (
    InfeasibleSignVectorError,
    Line,
    LineFamily,
    Point,
    bounding_lines,
    classify_cell,
    concurrency_profile,
    convex_position_cell,
    enumerate_cells,
    is_convex_position,
    max_concurrency,
    pencil,
)

from conftest import random_family, signs_at

TRIANGLE = LineFamily((Line(1, 0), Line(-1, 0), Line(0, 1)))
# slope order: y=-x, y=1, y=x

WEDGE = LineFamily((Line(1, 0), Line(-1, 0)))

# one horizontal, one shallow, two steep lines; the all-but-one-plus cell
# is a quadrilateral opening to the right
FIG2 = LineFamily(
    (
        Line(0, 0),
        Line(Fraction(1, 2), -2),
        Line(2, -10),
        Line(3, Fraction(-76, 5)),
    )
)


def test_triangle_interior_cell():
    signs = (1, -1, 1)
    assert bounding_lines(TRIANGLE, signs) == frozenset({0, 1, 2})
    assert classify_cell(TRIANGLE, signs) == "bounded"


def test_triangle_infeasible_vector():
    with pytest.raises(InfeasibleSignVectorError):
        bounding_lines(TRIANGLE, (-1, 1, -1))


def test_signs_validation():
    with pytest.raises(ValueError):
        bounding_lines(TRIANGLE, (1, -1))
    with pytest.raises(ValueError):
        bounding_lines(TRIANGLE, (1, 0, 1))


def test_triangle_cell_count():
    cells = enumerate_cells(TRIANGLE)
    assert len(cells) == 7
    interior = [c for c in cells if c.bound_class == "bounded"]
    assert len(interior) == 1
    assert interior[0].signs == (1, -1, 1)


def test_wedge_classes():
    cells = enumerate_cells(WEDGE)
    assert len(cells) == 4
    classes = sorted(c.bound_class for c in cells)
    assert classes == [
        "unbounded_left",
        "unbounded_other",
        "unbounded_other",
        "unbounded_right",
    ]
    right = next(c for c in cells if c.bound_class == "unbounded_right")
    assert right.signs == (1, -1)


def test_single_line_cells():
    fam = LineFamily((Line(2, 3),))
    cells = enumerate_cells(fam)
    assert len(cells) == 2
    assert {c.signs for c in cells} == {(1,), (-1,)}
    for cell in cells:
        assert cell.bound_class == "unbounded_other"
        assert signs_at(fam, cell.witness_point) == cell.signs


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_pencil_cells(k):
    fam = pencil(Point(Fraction(1, 2), -3), k, range(-1, k - 1))
    cells = enumerate_cells(fam)
    assert len(cells) == 2 * k
    classes = [cell.bound_class for cell in cells]
    assert classes.count("unbounded_right") == k - 1
    assert classes.count("unbounded_left") == k - 1
    assert classes.count("unbounded_other") == 2
    for cell in cells:
        assert len(cell.bounding) == 2
        assert signs_at(fam, cell.witness_point) == cell.signs


def test_fig2_right_opening_cell():
    signs = (1, -1, -1, -1)
    assert bounding_lines(FIG2, signs) == frozenset({0, 1, 2, 3})
    assert classify_cell(FIG2, signs) == "unbounded_right"


def test_enumerate_matches_witnesses():
    rng = random.Random(4821)
    for _ in range(25):
        fam = random_family(rng, max_lines=6)
        for cell in enumerate_cells(fam):
            assert signs_at(fam, cell.witness_point) == cell.signs
            assert bounding_lines(fam, cell.signs) == cell.bounding
            assert classify_cell(fam, cell.signs) == cell.bound_class


def test_cell_count_simple_families():
    rng = random.Random(917)
    for _ in range(10):
        fam = random_family(rng, min_lines=3, max_lines=6, simple=True)
        n = len(fam)
        assert len(enumerate_cells(fam)) == 1 + n + n * (n - 1) // 2


def test_pencil_has_fewer_cells():
    fam = pencil(Point(0, -1), 3, (1, 2, 3))
    assert len(enumerate_cells(fam)) == 6


def test_max_concurrency_triangle():
    report = max_concurrency(TRIANGLE)
    assert report.max_count == 2
    assert concurrency_profile(TRIANGLE) == {2: 3}


def test_max_concurrency_pencil():
    fam = pencil(Point(2, 5), 4, (0, 1, 2, 3))
    report = max_concurrency(fam)
    assert report.max_count == 4
    assert report.point == Point(2, 5)
    assert concurrency_profile(fam) == {4: 1}


def test_max_concurrency_single_line():
    report = max_concurrency(LineFamily((Line(1, 1),)))
    assert report.max_count == 1
    assert report.point is None


def test_convex_position_triangle():
    cell = convex_position_cell(TRIANGLE)
    assert cell is not None
    assert cell.bounding == frozenset({0, 1, 2})
    assert signs_at(TRIANGLE, cell.witness_point) == cell.signs
    assert is_convex_position(TRIANGLE)


def test_convex_position_needs_all_lines_bounding():
    # three concurrent lines never bound a common cell
    fam = pencil(Point(0, 0), 3, (-1, 0, 1))
    assert convex_position_cell(fam) is None
    assert not is_convex_position(fam)


def test_convex_position_unbounded_cell_counts():
    # cups are convex position too: the cell above all three opens upward
    fam = LineFamily((Line(-1, -1), Line(0, 0), Line(1, -1)))
    cell = convex_position_cell(fam)
    assert cell is not None
    assert cell.bounding == frozenset({0, 1, 2})
