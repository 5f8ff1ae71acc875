"""Cups, caps and unbounded staircase cells.

A family S is a cup when the cell above every line of S is bounded by all
of them (the "top" cell touches each line in a positive-length segment); a
cap is the mirror notion for the cell below every line. Equivalently, in
the dual plane (m, c) the points of a cup form a strictly concave chain in
slope order and those of a cap a strictly convex one. is_cup/is_cap read
the n-1 crossings of slope neighbours and the longest-chain search the dual
characterization, both on the same crossing keys. The primal test, in cross
products, lives in tests/oracles.py, and the tests check both against it.

Longest chain: a chain of dual points in x-order is a strict cup exactly
when its edge slopes strictly decrease, and a strict cap when they
strictly increase, so when the crossing keys along it strictly rise or
fall. IntegerView.census finds the longest of each at the leaves of the
family's join tree, in one pass over each leaf's rows of keys, per line
the tail array of the longest increasing subsequence, and walks the tails
back to the witness of the DP that sorts the crossings by key
(tests/oracles.py); a pencil's chains are its first two lines, and a
join's chains follow from its parts'. The census,
cached on the view, builds no n^2 table, and reads each leaf's keys at
the leaf's own shift, where they are exact (IntegerView.census).

Unbounded cells admit a closed sign-vector form. In slope order, a cell
unbounded to the right must lie above a prefix of the lines and below the
rest (far right, higher slope means higher line), so its sign vector is
(+1)^r (-1)^(n-r) with 0 < r < n; unbounded to the left is the mirror
(-1)^r (+1)^(n-r). Scanning the n-1 staircases per side is exhaustive.
The right staircase r is the region between the upper envelope U of
lines 0..r-1 and the lower envelope L of lines r..n-1. U - L falls
strictly from left to right, so the cell is everything right of the one
abscissa where the envelopes meet, and its bounding lines are the pieces
of U and L beyond it. Both envelopes are persistent stacks: U for every
r is built by pushing lines in slope order, L by pushing them in reverse.
Walking both stacks left from +infinity, one piece at a time, finds where
they meet and lists the staircase's lines, so all n-1 staircases cost
O(n + total bounding lines) crossing keys, each computed on demand by
IntegerView.key, and no n^2 table. The left side is the right side of the
mirror image x -> -x: the lines in reverse order, their keys negated.

A family whose join tree's root (IntegerView.joins, the census's first
node) passes the join test (geometry.in_join_order) has no right
staircase of more than three lines, whatever its two parts are
(find_unbounded_cell), so the right-side check for k >= 4 is derived
there from the test the tree already holds.
The left side, k <= 3 and families whose root is no join, such as the
figures and the base families of two or more pencils, are measured by
the staircase walk.

The searches read the family's cached integer view (LineFamily.view),
whose exact crossing keys order the crossing abscissae X_ij, minus the
dual edge slopes, so the chain pass and the staircases share one key.
The cubic pair DP, the chain DP that sorted (key, i, j) tuples, the
per-staircase interval loop and the prefix/suffix scan of every line's
keys that they replaced are kept in tests/oracles.py as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt, lt
from typing import List, Literal, Optional, Tuple

from .arrangement import Cell
from .errors import at_least
from .geometry import LineFamily, Point

ChainKind = Literal["cup", "cap"]


@dataclass(frozen=True)
class ChainResult:
    size: int
    witness: Tuple[int, ...]
    kind: ChainKind


def _neighbours_run(family: LineFamily, compare) -> bool:
    """Whether compare holds from each crossing X_i,i+1 of slope neighbours
    to the next: the upper envelope holds every line exactly when they
    strictly rise (line i from X_i-1,i to X_i,i+1), the lower one exactly
    when they strictly fall."""
    keys = family.view.steps
    return all(map(compare, keys, keys[1:]))


def is_cup(family: LineFamily) -> bool:
    """True iff the cell above all lines is bounded by every one of them."""
    return _neighbours_run(family, lt)


def is_cap(family: LineFamily) -> bool:
    """True iff the cell below all lines is bounded by every one of them."""
    return _neighbours_run(family, gt)


def longest_cup(family: LineFamily) -> ChainResult:
    cup = family.view.census.cup
    return ChainResult(len(cup), cup, "cup")


def longest_cap(family: LineFamily) -> ChainResult:
    cap = family.view.census.cap
    return ChainResult(len(cap), cap, "cap")


def _push(top, t, cross, far):
    """The envelope stack top with line t pushed on its right end.

    t has the highest slope on an upper envelope built in slope order, or
    the lowest on a lower one built in reverse, so it is the envelope far to
    the right. A node is (line, key of its piece's left end, next node to
    the left). Lines whose piece shrinks to zero length leave the stack;
    the popped nodes stay shared with the earlier stacks.
    """
    while top is not None:
        key = cross(top[0], t)
        if key > top[1]:
            return (t, key, top)
        top = top[2]
    return (t, -far, None)


def _staircases(family: LineFamily, side: str) -> List[List[int]]:
    """Bounding lines of every staircase cell on one side: entry r lists,
    in index order, the lines that bound the staircase r (0 < r < n)."""
    view = family.view
    n = len(view.pairs)

    # the left side is the right side of the mirror image x -> -x, whose
    # line p is line n-1-p and whose crossing keys are the negated ones
    def cross(i, j):
        return view.key(i, j) if side == "right" else -view.key(n - 1 - i, n - 1 - j)

    far = view.key_sentinel
    # ups[r] is the upper envelope of lines 0..r-1, lows[r] the lower one
    # of lines r..n-1
    ups, lows = [None] * n, [None] * n
    top = None
    for t in range(n - 1):
        top = ups[t + 1] = _push(top, t, cross, far)
    top = None
    for t in range(n - 1, 0, -1):
        top = lows[t] = _push(top, t, cross, far)
    members = [[] for _ in range(n)]
    for r in range(1, n):
        up, low = ups[r], lows[r]
        above, below = [up[0]], [low[0]]
        # walk left until the two current lines cross at or right of both
        # pieces' left ends; otherwise the envelopes meet left of the larger
        # end, so step past it
        while True:
            key = cross(up[0], low[0])
            if key >= up[1] and key >= low[1]:
                break
            if up[1] >= low[1]:
                up = up[2]
                above.append(up[0])
            else:
                low = low[2]
                below.append(low[0])
        lines = above[::-1] + below
        if side == "right":
            members[r] = lines
        else:
            members[n - r] = [n - 1 - p for p in reversed(lines)]
    return members


def find_unbounded_cell(family: LineFamily, k: int, side: str) -> Optional[Cell]:
    """First staircase cell unbounded on the given side with >= k bounding
    lines, or None. side is "right" or "left".

    On the right, for k >= 4, a family whose join tree's root passes the
    join test (IntegerView.root_join) has none, and the staircases are not
    walked; everywhere else they are."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left': {side!r}")
    at_least("k", k, 2)
    n = len(family)
    view = family.view
    # A root that passes the join test bounds every right staircase by
    # three lines. Staircase r lies above line 0 and below line n-1, so
    # right of X0, where they cross. There each part, lines 0..a-1 and
    # a..n-1 for a = root_join, runs in slope order, so the envelope of
    # a run of one part is its last line (upper) or first (lower): the
    # upper envelope of lines 0..r-1 is line r-1, with line a-1 when r > a,
    # and the lower one of lines r..n-1 is line r, with line a when r < a.
    if side == "right" and k >= 4 and view.root_join is not None:
        return None
    members = _staircases(family, side)
    for r in range(1, n):
        if len(members[r]) < k:
            continue
        if side == "right":
            signs = (1,) * r + (-1,) * (n - r)
        else:
            signs = (-1,) * r + (1,) * (n - r)
        # the cell holds every far point between lines r-1 and r on its
        # side, and its two boundary rays run along those lines, so both
        # rays point that way
        bound_class = "unbounded_right" if side == "right" else "unbounded_left"
        witness = _far_witness(family, r, side)
        return Cell(signs, frozenset(members[r]), bound_class, witness)
    return None


def _far_witness(family: LineFamily, r: int, side: str) -> Point:
    # Beyond the last vertex the envelope order is slope order, so between
    # the two rail lines at a far enough abscissa we are inside the cell.
    view = family.view
    pick = max if side == "right" else min
    outermost = pick(view.rim, key=lambda pair: view.key(*pair))
    x = pick(Fraction(0), view.vertex(*outermost).x) + (1 if side == "right" else -1)
    (ma, ca), (mb, cb) = view.pairs[r - 1], view.pairs[r]
    return Point(x, ((ma + mb) * x + ca + cb) / (2 * view.scale))


def has_k_cell_unbounded(family: LineFamily, k: int, side: str) -> bool:
    """True iff some cell unbounded on the given side has >= k bounding lines.

    The answer is the staircase counts, or on the right for k >= 4 the
    root's join test (find_unbounded_cell); a hit adds O(n) to build its
    Cell.
    """
    return find_unbounded_cell(family, k, side) is not None
