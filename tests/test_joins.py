"""The join tree and the rules that read it: the census's pencil leaves
and the convex search on a joined root, against the slicing split, the
heights at X0, the leaf row pass and the split DP."""

import collections
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given

from linecells import (
    Line,
    LineFamily,
    Point,
    arrangement,
    bounding_lines,
    classify_cell,
    construct_F,
    contract,
    convex_position_cell,
    find_n_convex,
    largest_convex_subset,
    parse_family,
    pencil,
)
from linecells import geometry
from linecells.geometry import IntegerView, _shift

import oracles
from test_kernels import (
    BENCH_FAMILIES,
    KERNELS,
    check_convex_witness,
    check_join_tree,
    leaf_passes,
    offset,
    pencil_families,
    random_join,
    random_part,
)

FAMILIES = Path(__file__).resolve().parents[1] / "bench" / "families"


def split_root_is_a_join(fam):
    """Whether the root split of fam, by the slicing oracle, passes the
    join test by the heights at X0."""
    n = len(fam)
    return n > 1 and oracles.join_order_by_heights(fam.pairs, 0, oracles.split(fam.pairs, 0, n), n)


# families whose root is no join, with the largest convex subset and the
# find_n_convex answer for n = 2, 3, ... that the split DP gives them, a
# chain's answer being the census's longest cup or cap: the figures, and
# random families of 8 to 12 lines
# (conftest.random_family(random.Random(36), 8, 12), roots that are joins
# skipped)
NO_JOIN_SEARCHES = {
    "fig5": (None, (4, (0, 4, 5, 9)), [(0, 4), (0, 4, 5), (0, 4, 5, 9)]),
    "fig6": (None, (4, (0, 5, 6, 11)), [(0, 5), (0, 5, 6), (0, 5, 6, 11)]),
    "fig8": (None, (4, (0, 7, 8, 15)), [(0, 7), (0, 7, 8), (0, 7, 8, 15)]),
    "random-1": (
        (60, ((-480, 0), (-108, -120), (-72, 180), (-15, 24), (-12, -84), (45, -150),
              (60, 60), (90, 90), (140, -60), (180, 240))),
        (7, (0, 1, 3, 4, 6, 7, 8)),
        [(2, 3), (2, 3, 6), (2, 3, 6, 7), (2, 3, 6, 7, 9), (0, 2, 3, 4, 5, 8), (0, 1, 3, 4, 6, 7, 8)],
    ),
    "random-2": (
        (60, ((-240, 105), (-150, 480), (-120, -210), (-90, 60), (-60, -90), (-40, -36),
              (30, 480), (60, 120), (120, -20), (140, 300), (180, 96))),
        (6, (0, 2, 3, 4, 6, 8)),
        [(2, 3), (2, 3, 6), (2, 3, 6, 9), (2, 3, 6, 9, 10), (2, 4, 5, 6, 8, 9)],
    ),
    "random-3": (
        (60, ((-90, 0), (-75, 0), (0, 360), (90, -20), (120, -96), (160, 480), (180, 0),
              (240, -240))),
        (6, (0, 1, 2, 4, 5, 7)),
        [(0, 1), (0, 1, 3), (0, 1, 3, 4), (2, 3, 5, 6, 7), (0, 1, 2, 4, 5, 7)],
    ),
    "random-4": (
        (30, ((-120, -42), (-105, 42), (-45, 30), (-15, -20), (20, 0), (30, 30), (48, 270),
              (70, -105), (90, -80))),
        (7, (0, 3, 4, 5, 6, 7, 8)),
        [(0, 1), (0, 1, 2), (0, 1, 2, 4), (0, 1, 2, 4, 7), (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8)],
    ),
    "random-5": (
        (60, ((-135, 108), (-120, 45), (-84, 80), (-72, 180), (36, -60), (60, 210), (105, -105),
              (240, -120))),
        (5, (0, 1, 4, 6, 7)),
        [(0, 1), (0, 1, 4), (0, 1, 4, 6), (0, 1, 4, 6, 7)],
    ),
    "random-6": (
        (60, ((-140, -300), (-60, -180), (-12, -180), (20, 15), (45, 120), (180, 60), (360, 90),
              (420, 20), (480, 60))),
        (6, (0, 1, 2, 3, 4, 5)),
        [(0, 1), (0, 1, 5), (0, 1, 5, 6), (0, 1, 5, 6, 7), (0, 1, 2, 3, 4, 5)],
    ),
}


@pytest.mark.parametrize("name", NO_JOIN_SEARCHES)
def test_search_on_a_root_that_is_no_join_is_pinned(name):
    stored, largest, found = NO_JOIN_SEARCHES[name]
    if stored is None:
        fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    else:
        fam = LineFamily.from_pairs(*stored)
    assert not split_root_is_a_join(fam)
    assert largest_convex_subset(fam) == largest
    answers = [find_n_convex(fam, n) for n in range(2, len(fam) + 1)]
    assert answers == found + [None] * (len(fam) - 1 - len(found))


# ------------------------------------------------------------------ tree


@KERNELS
@given(pencil_families())
def test_join_tree_matches_the_slicing_split_on_pencil_families(fam):
    check_join_tree(fam)


def test_join_tree_of_rising_gaps_is_a_path_built_without_recursion():
    # every gap larger than the last: each node's low part is the one
    # before it, a tree of depth n - 1, far past the recursion limit
    n = 5000
    fam = LineFamily.from_pairs(1, [(i * (i + 1) // 2, i % 7) for i in range(n)])
    joins = fam.view.joins
    assert joins.root == n - 2
    assert joins.low == [None, *range(n - 2)] and joins.high == [None] * (n - 1)
    assert joins.lo == [0] * (n - 1) and joins.hi == list(range(2, n + 1))


# ---------------------------------------------------------------- pencils


def check_pencil_leaf(fam):
    """The census of fam's lines, a pencil, written down without reading a
    row, is the row pass's."""
    n = len(fam)
    view = IntegerView(fam.scale, fam.pairs)
    assert leaf_passes(fam, lambda view: view._leaf(0, n, {})) == []
    assert view._leaf(0, n, {}) == view._census()
    assert view.census == view._census()


@pytest.mark.parametrize("count", range(3, 9))
def test_pencil_leaf_is_the_row_pass(count):
    rng = random.Random(count)
    for _ in range(5):
        apex = Point(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9))
        slopes = sorted(rng.sample(range(-20, 21), count))
        fam = pencil(apex, count, slopes)
        check_pencil_leaf(fam)
        # a contracted copy, as the leaves of F(p, q, l) are
        carrier = Line(Fraction(rng.randint(-8, 8), 3), rng.randint(-5, 5))
        check_pencil_leaf(contract(fam, carrier, Fraction(1, rng.randint(2, 50))))


@BENCH_FAMILIES
def test_every_leaf_of_a_bench_family_is_its_row_pass(path):
    # every node that fails its join test, leaf of the census or not, with
    # one memo for all of them, as the census keeps it
    fam = parse_family(path.read_text())
    view, joins, memo = fam.view, fam.view.joins, {}
    pencils = 0
    for g in range(len(fam) - 1):
        if not joins.joined[g]:
            lo, hi = joins.lo[g], joins.hi[g]
            # one pass over the leaf's own rows, at its own shift
            measured = IntegerView(fam.scale, fam.pairs[lo:hi])._census()
            assert view._leaf(lo, hi, memo) == offset(measured, lo), (lo, hi)
            pencils += len(set(view.steps[lo : hi - 1])) == 1
    assert pencils > 0


def census_leaves(joins):
    """The ranges (lo, hi) of the leaves of a join tree that the census
    reaches from the root through nodes whose join test holds."""
    todo, out = [joins.root], []
    while todo:
        g = todo.pop()
        if g is None:
            continue
        if joins.joined[g]:
            todo += joins.low[g], joins.high[g]
        else:
            out.append((joins.lo[g], joins.hi[g]))
    return out


def form_span(pairs):
    """The largest slope of the normal form of pairs, in slope order: their
    slope span over the gcd of their slopes' differences."""
    ms = [m - pairs[0][0] for m, _ in pairs]
    return ms[-1] // math.gcd(*ms)


def test_census_of_F_6_5_4_writes_its_pencil_leaves_down():
    fam = parse_family((FAMILIES / "F654.txt").read_text())
    leaf, form, leaves, measured = IntegerView._leaf, geometry._normal_form, [], []

    def leaf_spy(view, lo, hi, memo):
        leaves.append(hi - lo)
        return leaf(view, lo, hi, memo)

    def form_spy(pairs):
        measured.append(len(pairs))
        return form(pairs)

    with patch.object(IntegerView, "_leaf", leaf_spy), patch.object(geometry, "_normal_form", form_spy):
        passes = leaf_passes(fam, lambda view: view.census)
    # 35 leaves, 20 of them three-line pencils, which need no normal form;
    # the other 15 are copies of 5 forms, each read once
    assert len(leaves) == 35 and len(measured) == 15 and len(passes) == 5
    assert sorted(leaves) == sorted(measured + [3] * 20)


def test_census_reads_each_leaf_form_once_at_its_own_shift():
    # lines 1 and 2 cross line 0 at x = 1 and 1 + 2^-200: their keys at 64
    # and at 128 bits are equal, and the row pass reads them once, exact
    k = 1 << 200
    fam = LineFamily.from_pairs(1, [(0, 0), (1, -1), (k, -(k + 1))])
    assert fam.view.shift == 402
    assert leaf_passes(fam, lambda view: view._leaf(0, len(fam), {})) == [(0, 3, [402])]
    # F654's 15 measured leaves and F(8,8,4)'s 420, copies of 5 and 10
    # normal forms: one pass per form, at the form's shift, far below the
    # family's, and none at a pencil leaf
    for fam, counts in (
        (parse_family((FAMILIES / "F654.txt").read_text()), (35, 20, 5)),
        (construct_F(8, 8, 4), (924, 504, 10)),
    ):
        passes = leaf_passes(fam, lambda view: view.census)
        leaves = census_leaves(fam.view.joins)
        pencils = [(lo, hi) for lo, hi in leaves if len(set(fam.view.steps[lo : hi - 1])) == 1]
        measured = set(leaves) - set(pencils)
        forms = {}
        for lo, hi in sorted(measured):
            forms.setdefault(geometry._normal_form(fam.pairs[lo:hi]), (lo, hi))
        assert (len(leaves), len(pencils), len(passes)) == counts
        assert sorted((lo, hi) for lo, hi, _ in passes) == sorted(forms.values())
        for lo, hi, shifts in passes:
            assert shifts == [_shift(0, form_span(fam.pairs[lo:hi]))], (lo, hi)
            assert shifts[0] <= 18 < fam.view.shift, (lo, hi)


# ----------------------------------------------------------- convex rule


def check_convex_rule(fam):
    """The convex search on fam against the split DP (_convex_split): the
    same largest size and an n-subset exactly when n is at most that size,
    the witnesses of the largest subset, of 2 lines and of its size in
    convex position by the 2^n scan, and a cell bounded by every line, of
    the class that it reads, exactly when that size is n. Returns whether
    the join rule settled the largest subset without a frame."""
    n = len(fam)
    size, witness = largest_convex_subset(fam)
    settled = "frame" not in vars(fam.view)
    cell = convex_position_cell(fam)
    assert (cell is None) == (size < n or n < 2)
    if cell is not None:
        assert bounding_lines(fam, cell.signs) == frozenset(range(n))
        assert classify_cell(fam, cell.signs) == cell.bound_class
    # the split DP alone, on a view whose root is taken for no join
    with patch.object(IntegerView, "root_join", None):
        below, above, _ = arrangement._convex_split(IntegerView(fam.scale, fam.pairs), 1, n)
    assert size == len(below) + len(above)
    check_convex_witness(fam, witness, size)
    for k in range(2, min(n, size + 2) + 1):
        found = find_n_convex(fam, k)
        assert (found is None) == (k > size), k
        if found is not None and k in (2, size):
            check_convex_witness(fam, found, k)
    return settled


@pytest.mark.parametrize(
    "p, q, l",
    [
        (p, q, l)
        for l in (3, 4, 5)
        for p in range(3, 9)
        for q in range(3, 9)
        if p + q <= 12 and len(construct_F(p, q, l)) <= 360
    ],
    ids=str,
)
def test_join_rule_is_the_split_dp_on_recursive_families(p, q, l):
    fam = construct_F(p, q, l)
    assert check_convex_rule(fam)
    assert largest_convex_subset(fam)[0] == p + q


def random_joins(seed, count=60, nested=40):
    """count random joins of two random parts, then nested joins of two
    of those whose test holds, drawn from seed (random_join)."""
    rng = random.Random(seed)
    joins = []
    for _ in range(count):
        fam, holds = random_join(rng, random_part(rng), random_part(rng))
        if holds:
            joins.append(fam)
        yield fam
    for _ in range(nested):
        yield random_join(rng, *rng.sample(joins, 2))[0]


def test_join_rule_is_the_split_dp_on_random_joins():
    outcomes = collections.Counter()
    for fam in random_joins(236):
        outcomes[fam.view.root_join is not None, check_convex_rule(fam)] += 1
    # random parts seldom meet the rule: a root that is a join and still
    # takes the split DP, and one that is no join
    assert outcomes[True, False] >= 10 and outcomes[False, False] >= 10, outcomes


def test_join_rule_is_the_split_dp_on_random_joins_of_recursive_families():
    # F(a, b, l) joined below F(c, d, l) with a < c and b > d: the low cap
    # and the high cup, b + c lines, meet the cup+cap bound wherever the
    # join test holds
    rng = random.Random(237)
    outcomes = collections.Counter()
    for _ in range(60):
        a, b = rng.randint(2, 3), rng.randint(3, 4)
        c, d = rng.randint(a + 1, 4), rng.randint(2, b - 1)
        l = rng.randint(3, 4)
        fam, holds = random_join(rng, construct_F(a, b, l), construct_F(c, d, l))
        outcomes[holds] += 1
        assert check_convex_rule(fam) == holds
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes
