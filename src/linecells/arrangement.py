"""Cells of a line arrangement over exact rationals.

A cell is an open region cut out by strict sign constraints, one per line:
sign vector sigma assigns each line +1 (cell above it) or -1 (below). The
boundary structure of the cell named by sigma is recovered one line at a
time: substituting line i's parametrization x -> (x, m_i*x + c_i) into the
other constraints leaves a 1-D system whose solution set is an open
x-interval. Line i bounds the cell iff that interval is nonempty (it then
automatically has positive length). A sign vector is feasible iff at least
one line has a nonempty interval.

Boundedness is read off the interval ends: each interval unbounded toward
+x (-x) contributes one boundary ray pointing right (left). A cell has
either zero rays (bounded) or exactly two; both right gives unbounded_right,
both left unbounded_left, one each unbounded_other (wedges, half-planes and
the top/bottom cells).

Everything here reads the family's cached integer view (LineFamily.view)
and answers "is line i's interval inside the cell nonempty?" one way: the
interval's ends are exact crossing keys X_ij, so the test is one integer
compare. The keys come from the view's one key table, the flat list
IntegerView.keys, whose row i is keys[i*n : i*n + n]. bounding_lines and
classify_cell take each line's ends from that row in _key_interval; the
convex-position fold (extend_on_keys) carries them line by line, so adding
a line costs O(k) compares. One walk over subsets (_convex_walk) runs the
fold for convex_position_cell and the searches in verify, which differ
only in its stop rules need and goal. The vertices come off the family's
sorted edge order (IntegerView.edge_order, the edges e = i*n + j by
keys[e], shared with the chain DPs): an edge alone at its key is a
two-line vertex, and a run of equal keys splits into the vertices on it.
The concurrency report and profile look only at those runs, and the
report builds a Point only for the first vertex at the maximum. Cell
enumeration reads every cell off the sectors around the vertices in
integers: sign vectors from one integer expression per vertex
and line, bounding sets and classes from the lines that form each sector
and which of their pieces are rays, told by each line's first and last
key on its row of keys. It builds one Fraction witness per cell and calls
neither the per-line intervals nor a Fraction side test. The cross-product
interval test, the Fraction stepper and the per-line grouping of the
crossing keys that these replaced are the references in tests/oracles.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice
from operator import eq, gt, lt
from typing import Dict, FrozenSet, Iterator, List, Literal, Optional, Sequence, Tuple

from .errors import InfeasibleSignVectorError
from .geometry import LineFamily, Point

SignVector = Tuple[int, ...]

BoundClass = Literal["bounded", "unbounded_left", "unbounded_right", "unbounded_other"]


@dataclass(frozen=True)
class Cell:
    """One cell: its sign vector, boundary data and an interior point."""

    signs: SignVector
    bounding: FrozenSet[int]
    bound_class: BoundClass
    witness_point: Point


@dataclass(frozen=True)
class ConcurrencyReport:
    """The largest number of lines through one point and the first such
    point in Point order."""

    max_count: int
    point: Optional[Point]


def _check_signs(family: LineFamily, signs: Sequence[int]) -> SignVector:
    signs = tuple(signs)
    if len(signs) != len(family):
        raise ValueError(f"sign vector length {len(signs)} != family size {len(family)}")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError(f"sign vector entries must be +1 or -1: {signs}")
    return signs


def _key_interval(view, i: int, signs: SignVector) -> Optional[Tuple[int, int]]:
    """Crossing keys (lo, hi) ending line i's open interval inside the cell
    named by signs, or None when that interval is empty.

    Line j confines line i to x > X_ij, giving a lower end, exactly when
    (j < i) == (signs[j] > 0): above a line of lower slope or below one of
    higher slope. Otherwise it gives an upper end. The keys order and group
    the abscissae exactly (IntegerView), so the interval is nonempty iff
    lo < hi. Infinite ends are -/+ view.key_sentinel.
    """
    far = view.key_sentinel
    lo, hi = -far, far
    n = len(signs)
    for j, (key, s) in enumerate(zip(view.keys[i * n : i * n + n], signs)):
        if j == i:
            continue
        if (j < i) == (s > 0):
            if key > lo:
                lo = key
        elif key < hi:
            hi = key
    return (lo, hi) if lo < hi else None


def _cell_intervals(family: LineFamily, signs: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """Line i -> its nonempty _key_interval in the cell named by signs.

    Raises InfeasibleSignVectorError when no point realizes the signs (the
    cell is empty exactly when every line's interval is).
    """
    signs = _check_signs(family, signs)
    view = family.view
    out = {i: iv for i in range(len(signs)) if (iv := _key_interval(view, i, signs))}
    if not out:
        raise InfeasibleSignVectorError(f"no cell has sign vector {signs}")
    return out


def bounding_lines(family: LineFamily, signs: Sequence[int]) -> FrozenSet[int]:
    """Indices of lines contributing a positive-length piece of the boundary."""
    return frozenset(_cell_intervals(family, signs))


def _bound_class(rays_right: int, rays_left: int) -> BoundClass:
    if rays_right == 0 and rays_left == 0:
        return "bounded"
    if rays_right == 2 and rays_left == 0:
        return "unbounded_right"
    if rays_left == 2 and rays_right == 0:
        return "unbounded_left"
    return "unbounded_other"


def classify_cell(family: LineFamily, signs: Sequence[int]) -> BoundClass:
    """Boundedness class from the directions of the cell's boundary rays."""
    ends = _cell_intervals(family, signs).values()
    far = family.view.key_sentinel
    return _bound_class(sum(hi == far for _, hi in ends), sum(lo == -far for lo, _ in ends))


def _tie_runs(keys, order):
    """(start, stop) slices of order, in order, that hold runs of more
    than one edge with equal key."""
    at = keys.__getitem__
    ties = compress(count(1), map(eq, map(at, order), map(at, islice(order, 1, None))))
    start = stop = None
    for t in ties:
        if t != stop:
            if start is not None:
                yield start, stop
            start = t - 1
        stop = t + 1
    if start is not None:
        yield start, stop


def _split_run(view, edges, n) -> List[Tuple[int, ...]]:
    """The vertices on one run of equal-key edges e = i*n + j, in (i, j)
    order, as incident lines in slope order, sorted as their Points sort.

    Two crossings on one line at one abscissa are one point, and every two
    lines through a vertex cross there, so each vertex is the clique of its
    lowest line: that line's edges in the run, met before any edge of a
    higher line of the vertex.
    """
    groups: Dict[int, List[int]] = {}
    seen = set()
    for e in edges:
        i, j = divmod(e, n)
        if i not in seen:
            groups.setdefault(i, [i]).append(j)
            seen.add(j)
    return sorted(map(tuple, groups.values()), key=lambda inc: view.vertex_key(*inc[:2])[1])


def _vertices(view) -> Iterator[Tuple[int, ...]]:
    """Incident lines of every vertex, in slope order, with the vertices
    in Point order (view.vertex_key).

    The edge order sorts crossings by abscissa, so a vertex is a single
    edge outside the runs of equal keys, and the runs split by _split_run.
    """
    keys, order = view.keys, view.edge_order
    n = len(view.pairs)
    done = 0
    for start, stop in _tie_runs(keys, order):
        for e in order[done:start]:
            yield divmod(e, n)
        yield from _split_run(view, order[start:stop], n)
        done = stop
    for e in order[done:]:
        yield divmod(e, n)


def _concurrent(view) -> List[Tuple[int, ...]]:
    """The vertices on three or more lines, in Point order: only runs of
    equal keys can hold one."""
    keys, order = view.keys, view.edge_order
    n = len(view.pairs)
    return [
        inc
        for start, stop in _tie_runs(keys, order)
        for inc in _split_run(view, order[start:stop], n)
        if len(inc) > 2
    ]


def _sector_witness(pairs, heights, a, b, top, scale, sx, sy) -> Point:
    """A point inside one sector at the vertex v = (a/b, top/(b*scale)):
    v + eps*(sx, sy/scale), with eps small enough that no line off v
    changes side between v and the result.

    heights[l] is b*scale times the vertex's height over line l (zero on
    the incident lines), and line l drifts by (sy - M_l*sx)/scale per unit
    step, so eps is half of min(1, |heights[l]| / (b*|sy - M_l*sx|)).
    """
    num, den = b, 1
    for (m, _), h in zip(pairs, heights):
        d = sy - m * sx
        if h and d and abs(h) * den < num * abs(d):
            num, den = abs(h), abs(d)
    eps = Fraction(num, 2 * den * b)
    return Point(Fraction(a, b) + eps * sx, Fraction(top, b * scale) + eps * Fraction(sy, scale))


def enumerate_cells(family: LineFamily) -> Tuple[Cell, ...]:
    """Every cell of the arrangement, sorted by sign vector.

    With at least two lines (so pairwise non-parallel) every cell has a
    vertex on its closure and every boundary piece ends at a vertex, so the
    sectors around the vertices give every cell and all of its boundary. A
    vertex on k lines i_1 < ... < i_k (slope order) has 2k sectors: right
    sector r lies above i_1..i_r and below the rest, left sector r below
    i_1..i_r and above the rest, plus the sectors above and below all k.
    Each sector is formed by two rays, and a cell's bounding set is the
    union of those pairs over its corner sectors. The piece of line u that
    leaves the vertex to the right (left) is a ray exactly when the vertex
    is u's last crossing that way, its largest (smallest) crossing key, and
    the cell's right and left rays give its class.

    Everything but one witness per cell is integer work on the family's
    view: O(n) per vertex for the other lines' sides and O(n) per sector for
    its sign vector, O(n^3) in all. A cell has one corner sector per
    vertex on its closure; its witness is stepped into the sector at the
    first of those vertices in Point order. A single line is handled
    directly.
    """
    n = len(family)
    if n == 1:
        c = family[0].c
        return tuple(
            Cell((sign,), frozenset({0}), "unbounded_other", Point(0, c + sign))
            for sign in (-1, 1)
        )
    view = family.view
    pairs = view.pairs
    keys = view.keys
    # line u's largest and smallest crossing keys: its row off the diagonal
    last, first = [], []
    for u in range(n):
        row = keys[u * n : u * n + u] + keys[u * n + u + 1 : u * n + n]
        last.append(max(row))
        first.append(min(row))
    # sign vector -> (witness, bounding lines, [right rays, left rays])
    found: Dict[SignVector, tuple] = {}
    for inc in _vertices(view):
        i, j = inc[0], inc[1]
        (mi, ci), (mj, cj) = pairs[i], pairs[j]
        # the vertex is (a/b, top/(b*scale)) with b > 0
        a, b = ci - cj, mj - mi
        top = mi * a + ci * b
        heights = [top - m * a - c * b for m, c in pairs]
        base = [1 if h > 0 else -1 for h in heights]
        key = keys[i * n + j]
        k = len(inc)
        # ray positions 0..k-1 go right along inc[0..k-1], k..2k-1 go left,
        # one unit of x per step and dy[r]/scale of y; sector p lies between
        # rays p and p + 1 (mod 2k)
        is_ray = [key == last[u] for u in inc] + [key == first[u] for u in inc]
        dy = [pairs[u][0] for u in inc]
        dy += [-m for m in dy]
        for p in range(2 * k):
            q = (p + 1) % (2 * k)
            signs = base[:]
            for t, u in enumerate(inc):
                signs[u] = 1 if (t <= p if p < k else t > p - k) else -1
            signs = tuple(signs)
            cell = found.get(signs)
            if cell is None:
                sx = (1 if p < k else -1) + (1 if q < k else -1)
                w = _sector_witness(pairs, heights, a, b, top, view.scale, sx, dy[p] + dy[q])
                cell = found[signs] = (w, set(), [0, 0])
            cell[1].update((inc[p % k], inc[q % k]))
            for r in (p, q):
                if is_ray[r]:
                    cell[2][r >= k] += 1
    return tuple(
        Cell(signs, frozenset(bounding), _bound_class(*rays), w)
        for signs, (w, bounding, rays) in sorted(found.items())
    )


def max_concurrency(family: LineFamily) -> ConcurrencyReport:
    """Largest number of family lines through a common point."""
    n = len(family)
    if n < 2:
        return ConcurrencyReport(n, None)
    view = family.view
    multi = _concurrent(view)
    top = max(map(len, multi), default=2)
    # with no three lines concurrent, every vertex is at the maximum
    first = next(_vertices(view) if top == 2 else (inc for inc in multi if len(inc) == top))
    return ConcurrencyReport(top, view.vertex(*first[:2]))


def concurrency_profile(family: LineFamily) -> Dict[int, int]:
    """Map from concurrency count (>= 2) to number of vertices attaining it."""
    n = len(family)
    if n < 2:
        return {}
    multi = _concurrent(family.view)
    # every edge off a vertex on three or more lines is a two-line vertex
    profile = Counter(map(len, multi))
    profile[2] = n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in map(len, multi))
    return {k: profile[k] for k in sorted(profile) if profile[k]}


KeyCell = Tuple[SignVector, Tuple[int, ...], Tuple[int, ...]]


def extend_on_keys(keys: Sequence[int], cells: Sequence[KeyCell], far: int) -> List[KeyCell]:
    """The cells bounded by every chosen line once line t joins them.

    t has a higher slope than every chosen line, and keys[a] is the
    crossing key of t with the a-th chosen line. Each cell is (signs, lo,
    hi): its sign vector over the chosen lines and, for the a-th one, the
    keys lo[a] < hi[a] that end that line's open interval inside the cell,
    with -far and far (IntegerView.key_sentinel) for infinite ends. The empty
    arrangement's one cell, ((), (), ()), starts the fold.

    A cell bounded by every line of the larger arrangement lies in one
    bounded by every line of the smaller, so the candidates are the old
    cells with either sign for t. Line t runs from its last crossing with a
    line the cell lies above to its first with one it lies below, for both
    signs. Below t, line a keeps only x > X_at, so keys[a] is its new lo;
    above t, x < X_at and keys[a] is its new hi. A candidate is kept when
    every interval stays nonempty: O(k) integer compares for k chosen
    lines. This is the interval test of _key_interval, carried line by
    line. t is the highest mask bit (bit i set means the cell lies above
    line i), so listing every -1 extension before every +1 one keeps cells
    sorted by mask.
    """
    below, above = [], []
    for signs, lo, hi in cells:
        lo_t = max((k for k, s in zip(keys, signs) if s > 0), default=-far)
        hi_t = min((k for k, s in zip(keys, signs) if s < 0), default=far)
        if lo_t >= hi_t:
            continue
        # lo[a] < hi[a] already, so only the new end needs checking
        if all(map(lt, keys, hi)):
            below.append((signs + (-1,), tuple(map(max, lo, keys)) + (lo_t,), hi + (hi_t,)))
        if all(map(gt, keys, lo)):
            above.append((signs + (1,), lo + (lo_t,), tuple(map(min, hi, keys)) + (hi_t,)))
    return below + above


def _convex_walk(family: LineFamily, need: int, goal: int):
    """(subset, its cells from extend_on_keys) for the best subset in convex
    position, or ((), ()) when none has need lines.

    Walks index prefixes depth-first in lexicographic order; convex position
    is inherited by subsets, so a prefix with no cell ends its subtree. The
    best is the first subset found with at least need lines and more than
    the best before it. A subtree is walked only if it can reach floor =
    max(need, len(best) + 1) lines, and a best of goal lines sets floor past
    the family size, ending the walk. The walk is exponential in general.
    """
    view = family.view
    keys = view.keys
    size = len(view.pairs)
    far = view.key_sentinel
    best = ((), ())
    floor = need

    def walk(prefix, cells):
        nonlocal best, floor
        k = len(prefix)
        for i in range(prefix[-1] + 1 if prefix else 0, size):
            # below prefix + (i,) lie at most k + size - i lines
            if k + size - i < floor:
                return
            row = i * size
            bounded = extend_on_keys([keys[row + j] for j in prefix], cells, far)
            if bounded:
                cand = prefix + (i,)
                if k + 1 >= floor:
                    best = (cand, bounded)
                    floor = size + 1 if k + 1 == goal else k + 2
                walk(cand, bounded)

    walk((), [((), (), ())])
    return best


def convex_position_cell(family: LineFamily) -> Optional[Cell]:
    """A cell bounded by every line of the family, or None.

    Of all such cells, the one with the smallest mask (bit i set means the
    cell lies above line i), so the witness is deterministic.
    """
    n = len(family)
    if n < 2:
        return None
    view = family.view
    far = view.key_sentinel
    _, cells = _convex_walk(family, n, n)
    if not cells:
        return None
    signs, lo, hi = cells[0]
    # step up or down off line 0 at x = a/b, the middle of its interval or
    # 1 past its one finite end; an end with key k is X_0j = p/q for any
    # j > 0 with that key (j = 0 is the diagonal, whose key is 0 too), and
    # keys[j] is X_0j's key, row 0 of the table
    pairs = view.pairs
    m0, c0 = pairs[0]
    keys = view.keys
    ends = []
    for key in (lo[0], hi[0]):
        if abs(key) != far:
            mj, cj = pairs[next(j for j in range(1, n) if keys[j] == key)]
            ends.append((c0 - cj, mj - m0))
    if len(ends) == 2:
        (p1, q1), (p2, q2) = ends
        a, b = p1 * q2 + p2 * q1, 2 * q1 * q2
    else:
        [(p, q)] = ends
        a, b = p + q if abs(hi[0]) == far else p - q, q
    top = m0 * a + c0 * b
    heights = [top - m * a - c * b for m, c in pairs]
    w = _sector_witness(pairs, heights, a, b, top, view.scale, 0, signs[0] * view.scale)
    rays = (sum(key == far for key in hi), sum(key == -far for key in lo))
    return Cell(signs, frozenset(range(n)), _bound_class(*rays), w)


def is_convex_position(family: LineFamily) -> bool:
    """True iff the family defines a cell bounded by all of its lines."""
    return convex_position_cell(family) is not None
