"""The fast kernels against the slow oracles in oracles.py.

Families are drawn with pencils, so three or more concurrent lines and
repeated crossing abscissae are common.
"""

import ast
import collections
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from linecells import (
    InfeasibleSignVectorError,
    Line,
    LineFamily,
    Point,
    RenderOptions,
    bounding_lines,
    classify_cell,
    cli_main,
    concurrency_profile,
    contract,
    construct_F,
    construct_base,
    construct_thm12,
    convex_position_cell,
    enumerate_cells,
    find_n_convex,
    find_unbounded_cell,
    has_k_cell_unbounded,
    is_cap,
    is_convex_position,
    is_cup,
    largest_convex_subset,
    longest_cap,
    longest_cup,
    max_concurrency,
    parse_family,
    pencil,
    reflect_y,
    render_svg,
    verify_properties,
)
from linecells import arrangement, constructions, geometry
from linecells.chains import _staircases
from linecells.constructions import _lift
from linecells.geometry import Census, IntegerView
from linecells.svg import _auto_viewport

import oracles
from conftest import random_family, signs_at, subfamily

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)

FAMILIES = Path(__file__).resolve().parents[1] / "bench" / "families"
F434_FILE = FAMILIES / "F434.txt"
F544_FILE = FAMILIES / "F544.txt"
F554_FILE = FAMILIES / "F554.txt"

KERNELS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def pencil_families(draw, min_lines=2, max_lines=9):
    """Lines with distinct slopes, each either free or through one of a
    few shared apexes."""
    n = draw(st.integers(min_lines, max_lines))
    slopes = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    apexes = draw(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3))
    lines = []
    for m in slopes:
        pick = draw(st.integers(-1, len(apexes) - 1))
        if pick < 0:
            c = draw(rationals)
        else:
            x, y = apexes[pick]
            c = y - m * x
        lines.append(Line(m, c))
    return LineFamily(tuple(lines))


def check_keys(fam):
    """view.key(i, j) against the oracle's rows, entry for entry off the
    diagonal."""
    view = fam.view
    for i, row in enumerate(oracles.crossing_rows(view)):
        for j, want in enumerate(row):
            if j != i:
                assert view.key(i, j) == want, (i, j)


def check_staircases(fam):
    n = len(fam)
    for side in ("right", "left"):
        want = oracles.staircase_members(fam, side)
        got = _staircases(fam, side)
        assert {r: got[r] for r in range(1, n)} == want
        assert got == oracles.scan_staircases(fam, side)
        for k in range(2, 6):
            first = next((r for r in range(1, n) if len(want[r]) >= k), None)
            cell = find_unbounded_cell(fam, k, side)
            assert has_k_cell_unbounded(fam, k, side) == (first is not None)
            if first is None:
                assert cell is None
                continue
            signs = oracles.staircase_signs(n, first, side)
            assert cell.signs == signs
            assert cell.bounding == oracles.bounding_lines(fam, signs)
            assert cell.bound_class == oracles.classify_cell(fam, signs)
            assert signs_at(fam, cell.witness_point) == signs


def check_cell_predicates(fam):
    """bounding_lines and classify_cell on every sign vector, infeasible
    ones included, against the cross-product references."""
    n = len(fam)
    for mask in range(1 << n):
        signs = tuple(1 if (mask >> i) & 1 else -1 for i in range(n))
        try:
            want = oracles.bounding_lines(fam, signs), oracles.classify_cell(fam, signs)
        except InfeasibleSignVectorError:
            for predicate in (bounding_lines, classify_cell):
                with pytest.raises(InfeasibleSignVectorError):
                    predicate(fam, signs)
            continue
        assert (bounding_lines(fam, signs), classify_cell(fam, signs)) == want, signs


def check_chains(fam):
    for result, turn in ((longest_cup(fam), -1), (longest_cap(fam), +1)):
        size, _ = oracles.longest_chain(fam, turn)
        assert result.size == size
        assert len(result.witness) == size
        assert oracles.is_strict_chain(fam, result.witness, turn)


def check_concurrency(fam):
    top, points, profile = oracles.concurrency(fam)
    report = max_concurrency(fam)
    assert report.max_count == top
    assert report.point == (points[0] if points else None)
    assert concurrency_profile(fam) == profile
    assert _auto_viewport(fam) == oracles.viewport(fam)


def check_vertex_runs(fam):
    """The vertices, concurrency report and profile read off the edge
    order, field for field against the row-grouping references."""
    report = max_concurrency(fam)
    want = oracles.counted_concurrency(fam)
    assert (report.max_count, report.point) == want[:2]
    profile = concurrency_profile(fam)
    assert list(profile.items()) == list(oracles.counted_profile(fam).items())
    if len(fam) > 1:
        view = fam.view
        assert list(arrangement._vertices(view)) == oracles.row_grouped_vertices(view)


def check_cells_on_grouped_vertices(fam):
    """enumerate_cells, field for field, against itself fed the vertices
    of the row-grouping reference."""
    got = enumerate_cells(fam)
    with patch.object(arrangement, "_vertices", oracles.row_grouped_vertices):
        assert got == enumerate_cells(fam)


def coordinate_bits(point):
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for v in (point.x, point.y)
    )


def check_vertex_scan(fam):
    """enumerate_cells, whole Cells with their witnesses, against the
    enumeration that scans every line per vertex and per cell."""
    assert enumerate_cells(fam) == oracles.scan_cells(fam)


def check_cells(fam):
    want = oracles.enumerate_cells(fam)
    got = enumerate_cells(fam)
    assert [cell.signs for cell in got] == [cell.signs for cell in want]
    for cell, ref in zip(got, want):
        assert cell.bounding == ref.bounding, cell.signs
        assert cell.bound_class == ref.bound_class, cell.signs
        assert signs_at(fam, cell.witness_point) == cell.signs
        assert coordinate_bits(cell.witness_point) <= coordinate_bits(ref.witness_point)


def check_cup_cap_split(sub, cell):
    """The lemma behind the search's cup+cap bound, by the primal cell
    test in cross products: the lines below a cell bounded by all of them
    form a cup, and the lines above it a cap."""
    for side, is_chain in ((1, oracles.is_cup), (-1, oracles.is_cap)):
        part = tuple(line for line, s in zip(sub, cell.signs) if s == side)
        if part:
            assert is_chain(LineFamily(part)), (side, cell.signs)


def check_convex_cell(fam, cell, ref):
    """cell is None exactly when the 2^n scan's ref is; otherwise every
    line bounds it by the cross-product interval test, its class is that
    test's, and its witness point realizes its signs."""
    assert (cell is None) == (ref is None)
    if cell is not None:
        everyone = frozenset(range(len(fam)))
        assert cell.bounding == everyone
        assert oracles.bounding_lines(fam, cell.signs) == everyone
        assert cell.bound_class == oracles.classify_cell(fam, cell.signs)
        assert signs_at(fam, cell.witness_point) == cell.signs


def check_convex_witness(fam, witness, size):
    """witness is size sorted lines that the 2^n scan finds in convex
    position."""
    assert len(witness) == size and list(witness) == sorted(set(witness))
    sub = subfamily(fam, witness)
    cell = oracles.convex_position_cell(sub)
    assert size < 2 or cell is not None
    return sub, cell


def check_convex_search(fam):
    # a line of a pencil may touch a cell only at its apex, which must not
    # count as bounding it
    check_convex_cell(fam, convex_position_cell(fam), oracles.convex_position_cell(fam))
    for n in range(2, len(fam) + 1):
        witness = find_n_convex(fam, n)
        assert (witness is None) == (oracles.find_n_convex(fam, n) is None)
        if witness is not None:
            sub, cell = check_convex_witness(fam, witness, n)
            check_convex_cell(sub, convex_position_cell(sub), cell)
            check_cup_cap_split(sub, cell)
    size, witness = largest_convex_subset(fam)
    assert size == oracles.largest_convex_subset(fam)[0]
    check_convex_witness(fam, witness, size)
    assert size <= longest_cup(fam).size + longest_cap(fam).size


def check_split_against_walk(fam):
    """The split DP's sizes against the exponential walk over subsets:
    the same largest size, and an n-subset exactly when the walk finds
    one."""
    size, witness = largest_convex_subset(fam)
    assert size == oracles.walk_largest(fam)
    check_convex_witness(fam, witness, size)
    for n in range(2, len(fam) + 1):
        found = find_n_convex(fam, n)
        assert (found is None) == (not oracles.convex_walk(fam, n, n)), n
        if found is not None:
            check_convex_witness(fam, found, n)


@KERNELS
@given(pencil_families())
def test_staircases_match_interval_scan(fam):
    check_staircases(fam)


BENCH_FAMILIES = pytest.mark.parametrize(
    "path", sorted(FAMILIES.glob("*.txt")), ids=lambda path: path.stem
)


@KERNELS
@given(pencil_families())
def test_key_table_matches_crossing_rows(fam):
    check_keys(fam)


@BENCH_FAMILIES
def test_key_table_matches_crossing_rows_on_bench_families(path):
    check_keys(parse_family(path.read_text()))


def check_cup_cap(fam):
    """is_cup and is_cap against the cross-product cell test, on the family
    and on its longest cup and cap, which are a cup and a cap."""
    chains = [subfamily(fam, longest(fam).witness) for longest in (longest_cup, longest_cap)]
    for sub in [fam, *chains]:
        assert (is_cup(sub), is_cap(sub)) == (oracles.is_cup(sub), oracles.is_cap(sub))


@KERNELS
@given(pencil_families(min_lines=1))
# three concurrent slope neighbours: line 1 touches neither outer cell
@example(LineFamily((Line(-1, 0), Line(0, 0), Line(1, 0))))
def test_cup_and_cap_tests_match_the_cell_test(fam):
    check_cup_cap(fam)


@BENCH_FAMILIES
def test_cup_and_cap_tests_match_the_cell_test_on_bench_families(path):
    check_cup_cap(parse_family(path.read_text()))


def _entries(value):
    """Leaf entries of a list or tuple, nested ones counted through."""
    if not isinstance(value, (list, tuple)):
        return 1
    return sum(map(_entries, value))


def test_frame_is_the_views_only_n_squared_table():
    fam = parse_family(F434_FILE.read_text())
    n = len(fam)
    verify_properties(fam, 4, 4, 3, check_unbounded=("left", "right"))
    enumerate_cells(fam)
    assert find_n_convex(fam, 7) is not None
    render_svg(fam)
    bounding_lines(fam, (1,) * n)
    # an attribute of n(n-1)/2 or more entries, nested ones counted
    # through, is an n^2 table; the frame's three parallel lists count as
    # three tables
    tables = dict(vars(fam.view))
    tables.update(zip(("lows", "highs", "tied"), tables.pop("frame")))
    edges = n * (n - 1) // 2
    sized = [name for name, value in tables.items() if _entries(value) >= edges]
    assert sized == ["lows", "highs", "tied"]
    assert [len(tables[name]) for name in sized] == [edges] * 3


@BENCH_FAMILIES
def test_staircases_match_key_scan_on_bench_families(path):
    fam = parse_family(path.read_text())
    for side in ("right", "left"):
        assert _staircases(fam, side) == oracles.scan_staircases(fam, side)
    # the right check of the F families is derived, the figures' walked
    assert check_unbounded_cells(fam) == path.stem.startswith("F")


@pytest.mark.parametrize(
    "lines, right",
    [
        # lines 0, 1 and 2 meet at (0, 0), the break of the upper envelope
        # of lines 0 and 1 at r = 2; line 3 stays above line 2 for x > -1
        ([(-1, 0), (0, 0), (1, 0), (2, 1)], {1: [0, 1], 2: [1, 2], 3: [0, 2, 3]}),
        # all four meet at (0, 0), a break of both envelopes at r = 2
        ([(-1, 0), (0, 0), (1, 0), (2, 0)], {1: [0, 1], 2: [1, 2], 3: [2, 3]}),
    ],
    ids=["three_at_upper_break", "four_at_both_breaks"],
)
def test_staircase_envelopes_meeting_at_a_break(lines, right):
    fam = LineFamily(tuple(Line(m, c) for m, c in lines))
    got = _staircases(fam, "right")
    assert {r: got[r] for r in range(1, 4)} == right
    check_staircases(fam)


@KERNELS
@given(pencil_families())
def test_vertex_runs_match_row_grouping(fam):
    check_vertex_runs(fam)
    check_cells_on_grouped_vertices(fam)


@BENCH_FAMILIES
def test_vertex_runs_match_row_grouping_on_bench_families(path):
    fam = parse_family(path.read_text())
    check_vertex_runs(fam)
    # F654's 177 lines take about a second per enumeration; the vertex list
    # that enumerate_cells consumes is checked above
    if len(fam) < 100:
        check_cells_on_grouped_vertices(fam)


def test_max_concurrency_builds_one_point():
    fam = construct_F(4, 4, 3)
    calls = []
    vertex = IntegerView.vertex

    def counted(self, i, j):
        calls.append((i, j))
        return vertex(self, i, j)

    with patch.object(IntegerView, "vertex", counted):
        report = max_concurrency(fam)
    assert len(calls) == 1
    assert (report.max_count, report.point) == oracles.counted_concurrency(fam)[:2]


@KERNELS
@given(pencil_families(max_lines=8))
def test_cell_predicates_match_interval_scan(fam):
    check_cell_predicates(fam)


@pytest.mark.parametrize("name", ["F334", "fig5", "fig6"])
def test_cell_predicates_match_interval_scan_on_bench_families(name):
    # vertices of 3, 4 and 5 lines, where pieces end at tied crossings
    check_cell_predicates(parse_family((FAMILIES / f"{name}.txt").read_text()))


@KERNELS
@given(pencil_families())
def test_chain_dp_matches_cubic_dp(fam):
    check_chains(fam)


@KERNELS
@given(pencil_families(max_lines=40))
def test_chain_dp_matches_tuple_sort_on_pencils(fam):
    # dual points of lines through one apex are collinear, so their edges
    # tie on key and the DP meets batches of more than one edge; up to 40
    # lines, the chains reach several sizes
    assert longest_cup(fam) == oracles.tuple_sort_chain(fam, "cup")
    assert longest_cap(fam) == oracles.tuple_sort_chain(fam, "cap")


@BENCH_FAMILIES
def test_chain_dp_matches_tuple_sort_on_bench_families(path):
    fam = parse_family(path.read_text())
    assert longest_cup(fam) == oracles.tuple_sort_chain(fam, "cup")
    assert longest_cap(fam) == oracles.tuple_sort_chain(fam, "cap")


def check_key_identity(fam):
    """For lines h < i < j in slope order, (M_j - M_h) X_hj is
    (M_i - M_h) X_hi + (M_j - M_i) X_ij, so X_hj lies strictly between X_hi
    and X_ij when they differ and equals both when they are equal. The
    census rests on the crossing keys keeping that."""
    view, n = fam.view, len(fam)
    for h in range(n):
        for i in range(h + 1, n):
            for j in range(i + 1, n):
                low, high = sorted((view.key(h, i), view.key(i, j)))
                mid = view.key(h, j)
                assert low < mid < high or low == mid == high, (h, i, j)


def wide_families():
    """Ten-line families with 100-bit coordinates, so every crossing
    abscissa is a wide rational; odd ones put about half of the lines
    through one apex."""
    rng = random.Random(3)

    def wide():
        return Fraction(rng.getrandbits(100) - (1 << 99), rng.getrandbits(80) + 1)

    for trial in range(20):
        apex = (wide(), wide())
        lines = {}
        while len(lines) < 10:
            m = wide()
            lines[m] = apex[1] - m * apex[0] if trial % 2 and rng.random() < 0.5 else wide()
        yield LineFamily(Line(m, c) for m, c in lines.items())


@pytest.mark.parametrize("denom", [1, 5])
def test_crossing_keys_keep_the_three_line_identity_on_random_families(denom):
    rng = random.Random(denom)
    for _ in range(40):
        check_key_identity(random_family(rng, 3, 12, span=20, denom=denom))


@KERNELS
@given(pencil_families(min_lines=3, max_lines=12))
def test_crossing_keys_keep_the_three_line_identity_on_pencils(fam):
    check_key_identity(fam)


def test_crossing_keys_keep_the_three_line_identity_on_wide_coordinates():
    for fam in wide_families():
        check_key_identity(fam)


def test_census_at_a_coarse_column_tie_walks_on_the_exact_keys():
    # at 2^1, lines 0 and 1 cross line 3 at one floor key, -1, but at
    # x = -7/29 and -13/27: the census reads the exact keys, where the two
    # differ, and its walk back gives the key-sorting DP's witnesses
    fam = LineFamily(
        (Line(-18, -6), Line(-17, -9), Line(-8, 0), Line(Fraction(-7, 2), Fraction(-5, 2)))
    )
    x03, x13 = ((fam[3].c - fam[i].c) / (fam[i].m - fam[3].m) for i in (0, 1))
    assert (x03, x13) == (Fraction(-7, 29), Fraction(-13, 27))
    assert math.floor(x03 * 2) == math.floor(x13 * 2) == -1
    assert fam.view.key(0, 3) != fam.view.key(1, 3)
    # the census, and the row pass over all four lines
    for census in (fam.view.census, fam.view._census()):
        assert census.cup == oracles.tuple_sort_chain(fam, "cup").witness
        assert census.cap == oracles.tuple_sort_chain(fam, "cap").witness


def leaf_passes(fam, run):
    """(lo, hi, shifts) of each row pass that run(view) makes on a fresh
    view of fam, in turn: the pass measures the normal form of lines
    lo..hi-1, a leaf, and reads its rows at 2^shift for each of shifts."""
    passes, ranges = [], []
    leaf, census, rows = IntegerView._leaf, IntegerView._census, geometry._rows

    def leaf_spy(view, lo, hi, memo):
        ranges.append((lo, hi))
        return leaf(view, lo, hi, memo)

    def census_spy(view):
        passes.append((*ranges[-1], []))
        return census(view)

    def rows_spy(pairs, shift):
        passes[-1][2].append(shift)
        return rows(pairs, shift)

    with patch.object(IntegerView, "_leaf", leaf_spy), patch.object(IntegerView, "_census", census_spy):
        with patch.object(geometry, "_rows", rows_spy):
            run(IntegerView(fam.scale, fam.pairs))
    return passes


def offset(census, lo):
    """census with lo added to each of its lines."""
    shifted = lambda lines: None if lines is None else tuple(lo + i for i in lines)
    return Census(shifted(census.cup), shifted(census.cap), census.groups, shifted(census.first))


def measured_census(fam):
    """The census of fam with every join test of more than two lines
    refused and its leaf, all of fam's lines, measured on fam's own pairs:
    one pass over all of its rows, as the census was read before it found
    joins, pencils and normal forms."""
    with patch.object(geometry, "in_join_order", lambda *args: False):
        with patch.object(IntegerView, "_leaf", lambda view, lo, hi, memo: view._census()):
            return IntegerView(fam.scale, fam.pairs).census


def check_census_by_joins(fam):
    """The census, derived over the joins it finds, is the one pass over
    the rows field for field, with its groups in rising size; its chains
    are the key-sorting DP's and its concurrency the counting oracle's."""
    census = fam.view.census
    assert census == measured_census(fam)
    assert list(census.groups) == sorted(census.groups)
    assert census.cup == oracles.tuple_sort_chain(fam, "cup").witness
    assert census.cap == oracles.tuple_sort_chain(fam, "cap").witness
    assert concurrency_profile(fam) == oracles.counted_profile(fam)
    report = max_concurrency(fam)
    assert (report.max_count, report.point) == oracles.counted_concurrency(fam)[:2]


@BENCH_FAMILIES
def test_census_by_joins_is_the_row_pass_on_bench_families(path):
    check_census_by_joins(parse_family(path.read_text()))


def test_census_by_joins_is_the_row_pass_on_random_and_wide_families():
    rng = random.Random(37)
    for denom in (1, 5):
        for _ in range(40):
            check_census_by_joins(random_family(rng, 3, 12, span=20, denom=denom))
    for fam in wide_families():
        check_census_by_joins(fam)


@pytest.mark.parametrize(
    "p, q, l",
    [(p, q, l) for l in (3, 4, 5) for p in range(2, 6) for q in range(2, 6) if p + q <= 9],
    ids=str,
)
def test_census_by_joins_is_the_row_pass_on_recursive_families(p, q, l):
    check_census_by_joins(construct_F(p, q, l))


def random_part(rng):
    """A random family of 1 to 8 lines, or a pencil of 1 to 6."""
    if rng.random() < 0.3:
        count = rng.randint(1, 6)
        apex = Point(rng.randint(-5, 5), rng.randint(-5, 5))
        return pencil(apex, count, rng.sample(range(-9, 10), count))
    return random_family(rng, min_lines=1)


def random_join(rng, low, high):
    """low and high contracted onto random carriers with rising slopes and
    joined, and whether the join test holds on the carriers' split. Each
    bundle's slopes lie within a fifth of the carriers' slope gap of its
    carrier's, so the gap between the bundles is the join's largest."""
    m_low, m_high = (Fraction(m, 4) for m in sorted(rng.sample(range(-12, 13), 2)))
    eps = (m_high - m_low) / rng.randint(5, 100)
    low = contract(low, Line(m_low, rng.randint(-9, 9)), eps)
    high = contract(high, Line(m_high, rng.randint(-9, 9)), eps)
    fam = constructions._join(low, high)
    return fam, oracles.join_order_by_heights(fam.pairs, 0, len(low), len(fam))


def test_census_by_joins_is_the_row_pass_on_random_joins():
    # the census splits each join between its bundles first, and carriers
    # that fail the test there make the whole join a leaf
    rng = random.Random(33)
    joins, outcomes = [], collections.Counter()
    for _ in range(60):
        fam, holds = random_join(rng, random_part(rng), random_part(rng))
        check_census_by_joins(fam)
        if holds:
            joins.append(fam)
        outcomes[holds] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes
    # joins of the joins that split, so that the census derives both parts
    outcomes.clear()
    for _ in range(40):
        fam, holds = random_join(rng, *rng.sample(joins, 2))
        check_census_by_joins(fam)
        outcomes[holds] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes


positive = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)


@KERNELS
@given(
    pencil_families(min_lines=3),
    st.tuples(positive, rationals, positive, rationals, rationals),
    st.tuples(rationals, rationals, st.fractions(Fraction(1, 1000), 1)),
    st.integers(0, 3),
)
def test_affine_images_of_a_leaf_share_its_normal_form_and_census(fam, affine, carrier, lo):
    # contract, and any map (M, C) -> (aM + b, cC + dM + e) with a, c > 0
    # on the integer pairs, keep slope, key and Point order: each image has
    # the leaf's normal form and its census, which _leaf gives at any lo
    a, b, c, d, e = affine
    mapped = [(a * m + b, c * k + d * m + e) for m, k in fam.pairs]
    den = math.lcm(*(v.denominator for pair in mapped for v in pair))
    m, k, eps = carrier
    images = [
        LineFamily.from_pairs(fam.scale, [(int(x * den), int(y * den)) for x, y in mapped]),
        contract(fam, Line(m, k), eps),
    ]
    form = geometry._normal_form(fam.pairs)
    census = IntegerView(fam.scale, fam.pairs)._census()
    assert IntegerView(1, form)._census() == census
    for image in images:
        assert geometry._normal_form(image.pairs) == form
        assert IntegerView(image.scale, image.pairs)._census() == census
        # lo lines of lesser slopes before the image
        start = image.pairs[0][0]
        pairs = [(start - lo + i, i) for i in range(lo)] + list(image.pairs)
        assert IntegerView(image.scale, pairs)._leaf(lo, lo + len(fam), {}) == offset(census, lo)


def check_join_tree(fam):
    """Every node of fam's join tree, its range, split and join test,
    against the slicing split and the heights at X0 (oracles.join_tree),
    and its parts against their own nodes. Returns the tree."""
    joins = fam.view.joins
    n = len(fam)
    nodes = [(joins.lo[g], g + 1, joins.hi[g], joins.joined[g]) for g in range(n - 1)]
    assert nodes == oracles.join_tree(fam.pairs)
    if n == 1:
        assert joins.root is None
        return joins
    assert (joins.lo[joins.root], joins.hi[joins.root]) == (0, n)
    for g in range(n - 1):
        for part, (lo, hi) in ((joins.low[g], (joins.lo[g], g + 1)), (joins.high[g], (g + 1, joins.hi[g]))):
            if part is None:
                assert hi - lo == 1, g
            else:
                assert (joins.lo[part], joins.hi[part]) == (lo, hi), g
    return joins


def check_census_join_tests(fam):
    """Every node of fam's join tree, split and join test, against the
    slicing split and the heights at X0 (check_join_tree).
    Returns the join tests, root first, then in rising split."""
    joins = check_join_tree(fam)
    nodes = range(len(fam) - 1)
    return [joins.joined[g] for g in sorted(nodes, key=lambda g: g != joins.root)]


def join_test(view, lo, a, hi):
    """The join test on lines lo..hi-1 of view split before line a, fed
    the largest key of view.steps inside the parts, or True when both
    parts are single lines."""
    inside = view.steps[lo : a - 1] + view.steps[a : hi - 1]
    return not inside or geometry.in_join_order(view, lo, hi, max(inside))


def check_every_join_test(fam):
    """The join test on every range and split of fam against the heights
    at X0; a range of two lines always passes."""
    n = len(fam)
    for lo in range(n):
        for hi in range(lo + 2, n + 1):
            for a in range(lo + 1, hi):
                want = oracles.join_order_by_heights(fam.pairs, lo, a, hi)
                assert join_test(fam.view, lo, a, hi) == want, (lo, a, hi)
        if lo + 2 <= n:
            assert join_test(fam.view, lo, lo + 1, lo + 2)


@BENCH_FAMILIES
def test_join_test_matches_the_heights_on_bench_families(path):
    fam = parse_family(path.read_text())
    outcomes = check_census_join_tests(fam)
    # the F families are joins down to leaves, the figures not at the root
    if path.stem.startswith("F"):
        assert outcomes[0] and not all(outcomes)
    else:
        assert not outcomes[0]


def test_join_test_matches_the_heights_on_random_joins():
    rng = random.Random(35)
    joins, outcomes = [], collections.Counter()
    for _ in range(60):
        fam, holds = random_join(rng, random_part(rng), random_part(rng))
        # the carriers' gap is the root split
        assert (fam.view.root_join is not None) == holds
        outcomes.update(check_census_join_tests(fam))
        if holds:
            joins.append(fam)
    for _ in range(40):
        fam, _ = random_join(rng, *rng.sample(joins, 2))
        outcomes.update(check_census_join_tests(fam))
    assert outcomes[True] >= 50 and outcomes[False] >= 20, outcomes


@KERNELS
@given(pencil_families())
def test_join_test_matches_the_heights_on_every_split(fam):
    check_every_join_test(fam)


def test_join_test_refuses_a_pencil_whose_neighbours_meet_at_X0():
    # every crossing of a pencil is its apex, X0 itself: a split with a
    # part of two or more lines fails, and a range of two lines passes
    fam = pencil(Point(1, -2), 5, (-3, -1, 0, 2, 7))
    check_every_join_test(fam)
    n = len(fam)
    for lo in range(n):
        for hi in range(lo + 3, n + 1):
            assert not any(join_test(fam.view, lo, a, hi) for a in range(lo + 1, hi))


def check_unbounded_cells(fam):
    """find_unbounded_cell and has_k_cell_unbounded, for k = 2..6 on both
    sides, whether derived from the root's join test or walked, against
    the key scan of every staircase. Returns whether the root is a join."""
    n = len(fam)
    for side in ("right", "left"):
        members = oracles.scan_staircases(fam, side)
        for k in range(2, 7):
            first = next((r for r in range(1, n) if len(members[r]) >= k), None)
            cell = find_unbounded_cell(fam, k, side)
            assert has_k_cell_unbounded(fam, k, side) == (first is not None), (side, k)
            if first is None:
                assert cell is None
            else:
                assert cell.signs == oracles.staircase_signs(n, first, side)
                assert cell.bounding == frozenset(members[first])
    assert fam.view.root_join == oracles.root_join(fam.pairs)
    return fam.view.root_join is not None


@pytest.mark.parametrize(
    "p, q, l",
    [(p, q, l) for l in (3, 4, 5) for p in range(2, 6) for q in range(2, 6) if p + q <= 9],
    ids=str,
)
def test_unbounded_cells_match_the_key_scan_on_recursive_families(p, q, l):
    # joins above the base families (p or q of 2), some of which are joins
    # too, such as a pencil and one steep line
    joined = check_unbounded_cells(construct_F(p, q, l))
    assert joined or min(p, q) == 2


def test_unbounded_cells_match_the_key_scan_on_random_joins():
    rng = random.Random(36)
    joins, outcomes = [], collections.Counter()
    for _ in range(60):
        fam, holds = random_join(rng, random_part(rng), random_part(rng))
        outcomes[check_unbounded_cells(fam)] += 1
        if holds:
            joins.append(fam)
    for _ in range(40):
        fam, _ = random_join(rng, *rng.sample(joins, 2))
        outcomes[check_unbounded_cells(fam)] += 1
    assert outcomes[True] >= 30 and outcomes[False] >= 10, outcomes


@contextmanager
def staircase_walks():
    """The sides the staircases are walked on while the block runs."""
    walks = []
    walk = _staircases

    def recorded(fam, side):
        walks.append(side)
        return walk(fam, side)

    with patch("linecells.chains._staircases", recorded):
        yield walks


@pytest.mark.parametrize("name", ["F654", "F774"])
def test_verify_derives_the_right_check_of_a_join_at_k_4(name):
    if name == "F654":
        fam, p, q = parse_family((FAMILIES / "F654.txt").read_text()), 6, 5
    else:
        fam, p, q = construct_F(7, 7, 4), 7, 7
    with staircase_walks() as walks:
        report = verify_properties(fam, 4, p, q, check_unbounded=("left", "right"))
    assert walks == ["left"]
    assert dict(report.checks)["no 4-cell unbounded right"]
    # a 3-cell is not excluded by the join: the right staircases are walked
    with staircase_walks() as walks:
        report = verify_properties(fam, 4, p, q, k=3)
    assert walks == ["right"]
    assert not dict(report.checks)["no 3-cell unbounded right"]


def test_verify_walks_the_right_staircases_of_a_root_that_is_no_join():
    fam = parse_family((FAMILIES / "fig8.txt").read_text())
    n = len(fam)
    assert fam.view.root_join is None
    with staircase_walks() as walks:
        report = verify_properties(fam, 3, 4, 4)
    assert walks == ["right"]
    assert not dict(report.checks)["no 4-cell unbounded right"]


def leaves(fam):
    """The ranges of lines the census of fam reads rows of, as (lo, hi)."""
    return [(lo, hi) for lo, hi, _ in leaf_passes(fam, lambda view: view.census)]


@pytest.mark.parametrize("name", ["fig8", "failed join"])
def test_census_reads_every_row_when_the_first_split_fails(name):
    if name == "fig8":
        fam = parse_family((FAMILIES / "fig8.txt").read_text())
    else:
        rng = random.Random(5)
        while True:
            fam, holds = random_join(rng, random_part(rng), random_part(rng))
            if not holds and len(fam) >= 4:
                break
    assert set(leaves(fam)) == {(0, len(fam))}


def test_census_of_F_6_6_4_reads_rows_of_base_families_at_most():
    fam = construct_F(6, 6, 4)
    widest = max(hi - lo for lo, hi in leaves(fam))
    assert widest <= max(len(construct_base(p, 4)) for p in range(2, 7)) == 9


@contextmanager
def counted(table):
    """The views that build table, a cached property of IntegerView, while
    the block runs, in order."""
    build = getattr(IntegerView, table).func
    builds = []

    def counted_build(view):
        builds.append(view)
        return build(view)

    with patch.object(getattr(IntegerView, table), "func", counted_build):
        yield builds


def test_frame_is_sorted_once_per_family():
    fam = parse_family(F434_FILE.read_text())
    with counted("frame") as builds:
        longest_cup(fam)
        frame = fam.view.frame
        longest_cap(fam)
        assert find_n_convex(fam, 8) is None
        assert find_n_convex(fam, 7) is not None
        enumerate_cells(fam)
        bounding_lines(fam, (1,) * len(fam))
    assert fam.view.frame is frame
    assert builds == [fam.view]


def _runs(frame):
    """A frame's runs of tied crossings, in order, each as a set of pairs."""
    lows, highs, tied = frame
    runs = [set()]
    for low, high, more in zip(lows, highs, tied):
        runs[-1].add((low, high))
        if not more:
            runs.append(set())
    return runs[:-1]


def check_frames(fam):
    """The view's frame against a sort of (key, i, j) tuples, and the
    split DP's mirror frame against the frame of the mirror image, run by
    run: the order inside a run of tied crossings differs."""
    rows = oracles.crossing_rows(fam.view)
    n = len(rows)
    edges = sorted((rows[i][j], i, j) for i in range(n) for j in range(i + 1, n))
    lows, highs, tied = fam.view.frame
    assert list(zip(lows, highs)) == [(i, j) for _, i, j in edges]
    assert tied == [a[0] == b[0] for a, b in zip(edges, edges[1:])] + [False]
    mirror = arrangement._mirror(fam.view.frame, n)
    assert list(map(len, mirror)) == [len(edges)] * 3
    assert _runs(mirror) == _runs(reflect_y(fam).view.frame)


@KERNELS
@given(pencil_families())
def test_frames_match_tuple_sort_and_mirror_image(fam):
    check_frames(fam)


@BENCH_FAMILIES
def test_frames_match_tuple_sort_and_mirror_image_on_bench_families(path):
    check_frames(parse_family(path.read_text()))


@KERNELS
@given(pencil_families(max_lines=40))
def test_concurrency_table_matches_point_grouping(fam):
    check_concurrency(fam)


@KERNELS
@given(pencil_families())
def test_cell_enumeration_matches_sector_walk(fam):
    check_cells(fam)


@KERNELS
@given(pencil_families())
def test_cell_enumeration_matches_vertex_scan(fam):
    # pencils put three or more lines through a vertex, where the witness
    # step is bounded by the bounding lines of the cells in two opposite
    # sectors
    check_vertex_scan(fam)


@pytest.mark.parametrize(
    "name", ["fig5", "fig6", "fig8", "F334", "F434", "F444", "F544"]
)
def test_cell_enumeration_matches_vertex_scan_on_bench_families(name):
    check_vertex_scan(parse_family((FAMILIES / f"{name}.txt").read_text()))


@KERNELS
@given(pencil_families(max_lines=8))
def test_convex_search_matches_exhaustive_scan(fam):
    check_convex_search(fam)


@KERNELS
@given(pencil_families())
def test_abscissa_bound_is_tight(fam):
    view = fam.view
    top = max(abs(point.x) for point, _ in oracles.vertex_items(fam))
    assert view.abscissa_bound() - Fraction(2, 1 << view.shift) < top <= view.abscissa_bound()


@KERNELS
@given(pencil_families())
def test_rim_crossings_are_the_extreme_vertices(fam):
    view = fam.view
    rows = oracles.crossing_rows(view)
    assert view.key_sentinel == max(abs(key) for row in rows for key in row) + 1
    points = [point for point, _ in oracles.vertex_items(fam)]
    for axis, coord in enumerate(("x", "y")):
        for pick in (min, max):
            pair = pick(view.rim, key=lambda pair: view.vertex_key(*pair)[axis])
            want = pick(getattr(point, coord) for point in points)
            assert getattr(view.vertex(*pair), coord) == want, (coord, pick)
    low = min(point.y for point, _ in oracles.vertex_items(_lift(fam)))
    assert 1 <= low < 2


def test_viewport_reaches_the_wrap_pair_vertex():
    # the lowest vertex, (0, 0), is the crossing of lines 0 and 3 only
    fam = LineFamily((Line(-2, 0), Line(-1, 5), Line(1, 5), Line(2, 0)))
    assert _auto_viewport(fam) == (-6, -1, 6, 11)
    assert _auto_viewport(fam) == oracles.viewport(fam)


@pytest.mark.parametrize(
    "use",
    [render_svg, lambda fam: contract(fam, Line(1, 2), Fraction(1, 4)), _lift],
    ids=["render_svg", "contract", "lift"],
)
def test_extreme_vertices_leave_the_crossing_table_unbuilt(use):
    fam = parse_family(F434_FILE.read_text())
    use(fam)
    assert "frame" not in vars(fam.view)


def _assert_frame_unbuilt(use):
    fam = parse_family(F434_FILE.read_text())
    with counted("frame") as frames, counted("census") as passes:
        use(fam)
    assert frames == []
    # no view runs the pass twice (construct_F runs it on its base families only)
    assert len(passes) == len(set(map(id, passes)))


@pytest.mark.parametrize(
    "use",
    [
        max_concurrency,
        concurrency_profile,
        longest_cup,
        longest_cap,
        lambda fam: verify_properties(fam, 4, 4, 3, check_unbounded=("left", "right")),
        lambda fam: construct_F(5, 5, 4),
    ],
    ids=[
        "max_concurrency",
        "concurrency_profile",
        "longest_cup",
        "longest_cap",
        "verify_properties",
        "construct_F_5_5_4",
    ],
)
def test_certification_leaves_the_frame_unbuilt(use):
    _assert_frame_unbuilt(use)


@pytest.mark.parametrize(
    "use",
    [
        lambda fam: has_k_cell_unbounded(fam, 4, "right"),
        render_svg,
        lambda fam: bounding_lines(fam, (1,) * len(fam)),
        lambda fam: classify_cell(fam, (1,) * len(fam)),
        lambda fam: render_svg(fam, RenderOptions(highlight=(1,) * len(fam))),
    ],
    ids=["has_k_cell_unbounded", "render_svg", "bounding_lines", "classify_cell", "render_svg_highlight"],
)
def test_kernels_off_the_chain_dp_leave_the_frame_unbuilt(use):
    _assert_frame_unbuilt(use)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize(
    "use", [find_unbounded_cell, has_k_cell_unbounded], ids=lambda use: use.__name__
)
def test_staircases_leave_the_frame_unbuilt(use, side):
    # the view keeps one n^2 table, the frame, and the staircases do not read it
    _assert_frame_unbuilt(lambda fam: use(fam, 3, side))


def test_census_runs_once_per_family():
    fam = parse_family(F434_FILE.read_text())
    with counted("census") as passes:
        verify_properties(fam, 4, 4, 3, check_unbounded=("left", "right"))
        for kernel in (max_concurrency, concurrency_profile, longest_cup, longest_cap):
            kernel(fam)
    assert passes == [fam.view]


def test_construct_F_runs_the_census_on_base_families_only():
    # its joins carry every other family's cup, cap and concurrency
    with counted("census") as passes:
        construct_F(6, 6, 4)
    bases = [construct_base(p, 4).view for p in range(3, 7)]
    assert sorted((view.scale, view.pairs) for view in passes) == sorted(
        (view.scale, view.pairs) for view in bases
    )


def test_thm12_runs_the_census_on_its_base_and_assembly_only():
    # the scaffold's root test and its core's joins prove its concurrency
    with counted("census") as passes:
        fam = construct_thm12(3, 6)
    assert sorted((view.scale, view.pairs) for view in passes) == sorted(
        (f.scale, f.pairs) for f in (construct_base(2, 3), fam)
    )


def test_single_line_kernels():
    fam = LineFamily((Line(2, 3),))
    check_staircases(fam)
    check_chains(fam)
    check_cells(fam)
    check_vertex_scan(fam)
    assert max_concurrency(fam).max_count == 1
    assert concurrency_profile(fam) == {}
    assert convex_position_cell(fam) is None
    assert largest_convex_subset(fam) == oracles.largest_convex_subset(fam)


@pytest.mark.parametrize("p, q", [(4, 3), (4, 4)])
def test_cell_enumeration_on_construct_F(p, q):
    check_cells(construct_F(p, q, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_F(3, 3, 4),
        lambda: construct_thm12(3, 6),
        lambda: LineFamily((Line(-1, 0), Line(1, 0))),
    ],
    ids=["F334", "thm12_3_6", "cross_at_0"],
)
def test_convex_search_on_constructed_families(build):
    # F334 and thm12(3, 6) have 8 lines each, with crossing keys of 30 and
    # 83 bits; the two lines crossing at x = 0 have the crossing key 0
    check_convex_search(build())


def test_find_n_convex_stops_at_the_cup_cap_bound(monkeypatch):
    def sweep(*args):
        raise AssertionError("swept an anchor past the cup+cap bound")

    fam = construct_F(4, 3, 4)
    monkeypatch.setattr(arrangement, "_sweep", sweep)
    assert longest_cup(fam).size + longest_cap(fam).size == 7
    assert find_n_convex(fam, 8) is None


def test_convex_search_reads_no_crossing_key_once_the_frame_is_built():
    fam = parse_family(F554_FILE.read_text())
    # built, their keys read, before the spy goes in: the census, which
    # the join rule reads, and the frame, which the split DP walks
    fam.view.census, fam.view.frame

    def spy(view, *args):
        raise AssertionError("computed a crossing key")

    with patch.object(IntegerView, "key", spy):
        assert largest_convex_subset(fam)[0] == 10
        assert find_n_convex(fam, 8) is not None
        assert find_n_convex(fam, 5) is not None
        assert len(sum(arrangement._convex_split(fam.view, 1, len(fam))[:2], ())) == 10


@pytest.mark.parametrize(
    "path, search, framed, mirrored",
    [
        # the root of F(p, q, l) is a join, and the join rule answers from
        # the census: n within the low cap and the high cup, n past the
        # cup+cap bound, and the largest subset, which meets the bound
        (F554_FILE, lambda fam: find_n_convex(fam, 5), False, False),
        (F434_FILE, lambda fam: find_n_convex(fam, 8), False, False),
        (F554_FILE, largest_convex_subset, False, False),
        # and the cell bounded by every line, past that bound
        (F554_FILE, convex_position_cell, False, False),
        (F554_FILE, is_convex_position, False, False),
        # the root of fig8 is no join: n within the longest cup is that
        # cup, and the largest subset is swept on both sides
        (FAMILIES / "fig8.txt", lambda fam: find_n_convex(fam, 3), True, False),
        (FAMILIES / "fig8.txt", largest_convex_subset, True, True),
    ],
    ids=["F554-n5", "F434-n8", "F554-largest", "F554-cell", "F554-is-convex", "fig8-n3", "fig8-largest"],
)
def test_convex_search_builds_the_mirror_only_when_it_sweeps(monkeypatch, path, search, framed, mirrored):
    mirror, built = arrangement._mirror, []

    def spy(frame, n):
        built.append(n)
        return mirror(frame, n)

    fam = parse_family(path.read_text())
    monkeypatch.setattr(arrangement, "_mirror", spy)
    search(fam)
    assert ("frame" in vars(fam.view)) == framed
    assert bool(built) == mirrored


def test_largest_convex_subset_of_F544_reaches_the_bound(capsys):
    assert cli_main(["search", str(F544_FILE), "--largest"]) == 0
    out = capsys.readouterr().out
    head = "largest convex position subset: 9 lines "
    assert out.startswith(head)
    witness = ast.literal_eval(out[len(head):])
    assert out == f"{head}{witness}\n"
    fam = parse_family(F544_FILE.read_text())
    assert longest_cup(fam).size + longest_cap(fam).size == 9
    check_convex_witness(fam, witness, 9)


@pytest.mark.parametrize("seed", range(4))
def test_split_dp_matches_the_walk_on_random_families(seed):
    rng = random.Random(seed)
    for trial in range(40):
        fam = random_family(rng, 2, 9, simple=trial % 2 == 0)
        check_split_against_walk(fam)
        if fam.view.root_join is None:
            # n lines within the longest chain are its first n, the cup's
            # when it is as long as the cap
            cup, cap = longest_cup(fam).witness, longest_cap(fam).witness
            chain = cup if len(cup) >= len(cap) else cap
            for n in range(2, len(chain) + 1):
                assert find_n_convex(fam, n) == chain[:n], n


@KERNELS
@given(pencil_families())
def test_split_dp_matches_the_walk_on_pencil_families(fam):
    check_split_against_walk(fam)


@BENCH_FAMILIES
def test_split_dp_matches_the_walk_on_bench_families(path):
    fam = parse_family(path.read_text())
    size, witness = largest_convex_subset(fam)
    check_convex_witness(fam, witness, size)
    # no subset beats the cup+cap bound, so a witness that meets it settles
    # the size; the walk needs 50 s to confirm that on F(6,5,4)
    bound = sum(oracles.tuple_sort_chain(fam, kind).size for kind in ("cup", "cap"))
    assert size == bound or size == oracles.walk_largest(fam)
    # the search for n lines agrees: it finds the largest size and no more
    assert find_n_convex(fam, size) is not None
    if size < len(fam):
        assert find_n_convex(fam, size + 1) is None


@pytest.fixture(scope="module")
def f544():
    return construct_F(5, 4, 4)


def test_kernels_on_construct_F_5_4_4(f544):
    check_staircases(f544)
    check_chains(f544)
    check_concurrency(f544)
