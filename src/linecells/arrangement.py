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

bounding_lines and classify_cell read those intervals off the exact
crossing keys in one pass over IntegerView.rows(), which keeps each
line's greatest left end and least right end (_pieces) and holds one row
at a time. The vertices come off the family's frame (IntegerView.frame,
the crossings sorted by key, shared with the split DP): a crossing tied
with neither neighbour is a two-line vertex, and a run of tied crossings
splits into the vertices on it. The concurrency report and profile need
no frame: they read IntegerView.census, and the report builds a Point
only for its first vertex. Cell enumeration sweeps the vertices in Point
order and reads every cell off their sectors: sign vectors as bit masks
carried along each line, bounding sets and classes from the lines that
form each sector and which of their pieces are rays (a count of the
crossings made on each line says which vertex is its first or last), and
one witness per cell.

Lines are in convex position when one cell is bounded by all of them.
The lines below that cell form a cup and the lines above it a cap, and
the cell's left and right vertices fix how the crossing keys along both
chains may run. One search (_convex_split) finds a largest subset in
convex position for convex_position_cell and for the searches in verify,
which pass it only the sizes need and goal. Where the family's root is a
join (IntegerView.root_join), the join rule answers from the census, and
builds no frame, whenever it settles the search. Elsewhere one DP over
the frame answers, anchored at each possible left vertex in turn and
pruned by the longest cup and cap the anchor leaves; when a longest
chain is the answer, its lines are the census's. The cross-product
interval test, the Fraction stepper, the per-line grouping of the
crossing keys, the cell enumeration that scans all n lines per vertex
and per cell, and the exponential walk over subsets that these replaced
are the references in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice
from typing import Dict, FrozenSet, Iterator, List, Literal, Optional, Sequence, Tuple

from .errors import InfeasibleSignVectorError
from .geometry import Frame, LineFamily, Point

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


def _pieces(family: LineFamily, signs: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """Line i -> (lo, hi) for every line i on the boundary of the cell
    named by signs: the keys of the crossings where its piece starts and
    ends, -key_sentinel (key_sentinel) for a ray to the left (right).

    One pass over the crossing rows keeps each line's greatest left end
    and least right end. For i < j, line i lies above line j left of
    X_ij, so line j gives line i a left end (x > X_ij) when the cell is
    below j and a right end otherwise, and line i gives line j a left end
    when the cell is above i. Line i bounds the cell exactly when lo < hi:
    exact keys are equal only at one abscissa, so ties need no care.

    Raises InfeasibleSignVectorError when no point realizes the signs (the
    cell is empty exactly when no line has a piece).
    """
    signs = _check_signs(family, signs)
    view = family.view
    n, far = len(signs), view.key_sentinel
    above = [s > 0 for s in signs]
    below = [s < 0 for s in signs]
    lo, hi = [-far] * n, [far] * n
    for i, row in enumerate(view.rows()):
        rest = slice(i + 1, n)
        lo[i] = max(lo[i], max(compress(row, below[rest]), default=-far))
        hi[i] = min(hi[i], min(compress(row, above[rest]), default=far))
        if above[i]:
            lo[rest] = map(max, lo[rest], row)
        else:
            hi[rest] = map(min, hi[rest], row)
    pieces = {i: ends for i, ends in enumerate(zip(lo, hi)) if ends[0] < ends[1]}
    if not pieces:
        raise InfeasibleSignVectorError(f"no cell has sign vector {signs}")
    return pieces


def bounding_lines(family: LineFamily, signs: Sequence[int]) -> FrozenSet[int]:
    """Indices of lines contributing a positive-length piece of the boundary."""
    return frozenset(_pieces(family, signs))


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
    far = family.view.key_sentinel
    ends = _pieces(family, signs).values()
    return _bound_class(sum(hi == far for _, hi in ends), sum(lo == -far for lo, _ in ends))


def _tie_runs(tied):
    """(start, stop) slices of a frame, in order, that hold runs of more
    than one crossing with equal key."""
    start = stop = None
    # t is the position of a crossing that ties with the one before it
    for t in compress(count(1), tied):
        if t != stop:
            if start is not None:
                yield start, stop
            start = t - 1
        stop = t + 1
    if start is not None:
        yield start, stop


def _split_run(view, lows, highs) -> List[Tuple[int, ...]]:
    """The vertices on one run of tied crossings, in (i, j) order, as
    incident lines in slope order, sorted as their Points sort.

    Two crossings on one line at one abscissa are one point, and every two
    lines through a vertex cross there, so each vertex is the clique of its
    lowest line: that line's crossings in the run, met before any crossing
    of a higher line of the vertex.
    """
    groups: Dict[int, List[int]] = {}
    seen = set()
    for i, j in zip(lows, highs):
        if i not in seen:
            groups.setdefault(i, [i]).append(j)
            seen.add(j)
    return sorted(map(tuple, groups.values()), key=lambda inc: view.height_key(*inc[:2]))


def _vertices(view) -> Iterator[Tuple[int, ...]]:
    """Incident lines of every vertex, in slope order, with the vertices
    in Point order (view.vertex_key).

    The frame sorts crossings by abscissa, so a vertex is one crossing
    outside the runs of tied ones, and the runs split by _split_run.
    """
    lows, highs, tied = view.frame
    done = 0
    for start, stop in _tie_runs(tied):
        yield from zip(lows[done:start], highs[done:start])
        yield from _split_run(view, lows[start:stop], highs[start:stop])
        done = stop
    yield from zip(lows[done:], highs[done:])


def _sector_witness(pairs, lines, a, b, top, scale, sx, sy) -> Point:
    """A point inside one sector at the vertex v = (a/b, top/(b*scale)):
    v + eps*(sx, sy/scale), with eps small enough that none of the given
    lines changes side between v and the result.

    b*scale times v's height over line l is h = top - M_l*a - C_l*b (zero
    on the lines through v), and line l drifts by (sy - M_l*sx)/scale per
    unit step, so eps is half of min(1, |h| / (b*|sy - M_l*sx|)).
    """
    num, den = b, 1
    for l in lines:
        m, c = pairs[l]
        h = top - m * a - c * b
        d = sy - m * sx
        if h and d and abs(h) * den < num * abs(d):
            num, den = abs(h), abs(d)
    x = Fraction(2 * den * a + num * sx, 2 * den * b)
    return Point(x, Fraction(2 * den * top + num * sy, 2 * den * b * scale))


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
    is u's last (first) crossing, which a count of the crossings swept on
    each line tells, and the cell's right and left rays give its class.

    Sign vectors are n-bit masks, bit n-1-l set above line l, which sort
    as the vectors do. The sweep takes the vertices in Point order, and
    along[u] is the mask of line u just left of its next vertex; with the
    incident bits cleared it gives the vertex's side of every other line,
    so a vertex costs O(k), not O(n). A cell's witness v + eps*s steps into
    its corner sector at its first vertex v, eps below the nearest crossing
    of any line with the line through v along s. Along s that crossing is
    with a line bounding the sector's cell, and along -s with one bounding
    the opposite sector's cell, so eps is read off those two bounding sets,
    complete after the sweep, not off all n lines. A single line is handled
    directly.
    """
    n = len(family)
    if n == 1:
        c = Fraction(family.pairs[0][1], family.scale)
        return tuple(
            Cell((sign,), frozenset({0}), "unbounded_other", Point(0, c + sign))
            for sign in (-1, 1)
        )
    view = family.view
    pairs = view.pairs
    # made[u]: line u's crossings at the vertices swept so far
    made = [0] * n
    bit = [1 << (n - 1 - u) for u in range(n)]
    # far left, line u lies above exactly the lines of higher slope
    along = [t - 1 for t in bit]
    # mask -> ((i, j, sx, sy, opposite mask), bounding lines, [right rays, left rays])
    found: Dict[int, tuple] = {}
    for inc in _vertices(view):
        k = len(inc)
        # below[t]: the bits of inc[0..t-1]
        below = list(accumulate((bit[u] for u in inc), initial=0))
        both = below[k]
        base = along[inc[0]] & ~both
        for u, lower in zip(inc, below):
            along[u] = base | lower
        # sector p < k lies above inc[0..p], sector k + p below them
        masks = [base | lower for lower in below[1:]]
        masks += [base | (both ^ lower) for lower in below[1:]]
        # ray positions 0..k-1 go right along inc[0..k-1], k..2k-1 go left,
        # one unit of x per step and dy[r]/scale of y; sector p lies between
        # rays p and p + 1 (mod 2k), and its opposite flips every incident bit.
        # Each incident line makes k - 1 of its n - 1 crossings here
        is_ray = [made[u] + k == n for u in inc] + [made[u] == 0 for u in inc]
        for u in inc:
            made[u] += k - 1
        dy = [pairs[u][0] for u in inc]
        dy += [-m for m in dy]
        for p, mask in enumerate(masks):
            q = (p + 1) % (2 * k)
            cell = found.get(mask)
            if cell is None:
                sx = (1 if p < k else -1) + (1 if q < k else -1)
                at = (inc[0], inc[1], sx, dy[p] + dy[q], mask ^ both)
                cell = found[mask] = (at, set(), [0, 0])
            cell[1].update((inc[p % k], inc[q % k]))
            for r in (p, q):
                if is_ray[r]:
                    cell[2][r >= k] += 1
    sign = {"0": -1, "1": 1}.__getitem__
    cells = []
    for mask in sorted(found):
        (i, j, sx, sy, opposite), bounding, rays = found[mask]
        (mi, ci), (mj, cj) = pairs[i], pairs[j]
        # the vertex is (a/b, top/(b*scale)) with b > 0
        a, b = ci - cj, mj - mi
        lines = bounding | found[opposite][1]
        w = _sector_witness(pairs, lines, a, b, mi * a + ci * b, view.scale, sx, sy)
        signs = tuple(map(sign, format(mask, f"0{n}b")))
        cells.append(Cell(signs, frozenset(bounding), _bound_class(*rays), w))
    return tuple(cells)


def max_concurrency(family: LineFamily) -> ConcurrencyReport:
    """Largest number of family lines through a common point."""
    view = family.view
    census = view.census
    # one line has no vertex: no groups and no first
    return ConcurrencyReport(max(census.groups, default=0) + 1, census.first and view.vertex(*census.first))


def concurrency_profile(family: LineFamily) -> Dict[int, int]:
    """Map from concurrency count (>= 2) to number of vertices attaining it."""
    # groups[t] counts the vertices on more than t lines
    groups = family.view.census.groups
    exact = {t + 1: v - groups.get(t + 1, 0) for t, v in groups.items()}
    return {k: v for k, v in exact.items() if v}


# a chain of lines as nested (line, rest) pairs, so that longer chains
# share their tails
Link = Optional[Tuple[int, "Link"]]


def _mirror(frame: Frame, n: int) -> Frame:
    """The frame of the mirror image x -> -x: its line v is line n-1-v and
    its keys are the negated ones, so it is the frame walked backwards
    (where a crossing ties with the one before it in the frame) and
    relabelled. It shares the frame's bools and makes no object per
    crossing."""
    lows, highs, tied = frame
    flip = list(range(n))[::-1]
    tied = [*islice(reversed(tied), 1, None), *tied[-1:]]
    return [*map(flip.__getitem__, reversed(highs))], [*map(flip.__getitem__, reversed(lows))], tied


def _chain(link: Link) -> Tuple[int, ...]:
    """The lines of a chain from its Link, its head first."""
    out = []
    while link is not None:
        out.append(link[0])
        link = link[1]
    return tuple(out)


def _bounds(frame: Frame, n: int):
    """The longest cup, the longest cap, and the anchor bounds, from one
    walk down the frame's edges in batches of equal key.

    The walk keeps, for each line x, the longest cup starting at x and the
    longest cap running down from x (its keys rising as the lines fall)
    over the keys above the current one. Before its batch, edge (a, b)
    reads the anchor bound of its left vertex: the longest cup from a plus
    the longest cap down from b over the keys above X_ab, which no cell
    anchored there can beat. Returns the sizes of the longest cup and cap
    and bound, where bound[p] is the bound of crossing p: a small int, so
    the list shares one object per value, not one per crossing.
    """
    lows, highs, tied = frame
    cup, cap = [1] * n, [1] * n
    bound = [0] * len(lows)
    grown = []
    for p in range(len(lows) - 1, -1, -1):
        x, y = lows[p], highs[p]
        bound[p] = cup[x] + cap[y]
        grown.append((x, y, cup[y], cap[x]))
        # edges of one key extend only chains over the keys above it
        if not tied[p - 1]:
            for x, y, u, v in grown:
                if u >= cup[x]:
                    cup[x] = u + 1
                if v >= cap[y]:
                    cap[y] = v + 1
            grown = []
    return max(cup), max(cap), bound


def _sweep(frame: Frame, n: int, p: int, stop: int):
    """(size, (cup, cap, class)) of the largest cell anchored at the left
    vertex of crossing p, (a, b) = (lows[p], highs[p]), found before the size
    reaches stop; the cup and cap are Links, the cup's read backwards.

    The cell lies above a cup C from a and below a cap D up to b, with
    every key of both above T = X_ab. Walking the edges above T in batches
    of equal key, cup[v] is the longest such cup ending at v and cap[v]
    the longest such cap starting at v, 0 until reached. Edge (x, y) first
    closes the bounded cell with right vertex (y, x), of size cup[y] +
    cap[x] from before the batch, then extends the cups through x to y and
    the caps through y down to x. After the walk, the cells unbounded to
    the right pair a cup ending at c with a cap from d, for c < d.
    """
    lows, highs, tied = frame
    a, b = lows[p], highs[p]
    cup, cap = [0] * n, [0] * n
    cupl: List[Link] = [None] * n
    capl: List[Link] = [None] * n
    cup[a] = cap[b] = 1
    cupl[a], capl[b] = (a, None), (b, None)
    best, found = 0, None
    grown = []
    while tied[p]:
        p += 1
    for p in range(p + 1, len(lows)):
        x, y = lows[p], highs[p]
        cy, px = cup[y], cap[x]
        if cy and px and cy + px > best:
            best, found = cy + px, (cupl[y], capl[x], "bounded")
            if best >= stop:
                return best, found
        cx, py = cup[x], cap[y]
        grow_cup = cx and cx >= cy
        grow_cap = py and py >= px
        if tied[p] or grown:
            # edges of one key extend only chains from before their batch
            grown.append((x, y, grow_cup and (y, cupl[x]), grow_cap and (x, capl[y]), cx, py))
            if tied[p]:
                continue
            for x, y, ul, vl, u, v in grown:
                if ul and u >= cup[y]:
                    cup[y], cupl[y] = u + 1, ul
                if vl and v >= cap[x]:
                    cap[x], capl[x] = v + 1, vl
            grown = []
        else:
            if grow_cup:
                cup[y], cupl[y] = cx + 1, (y, cupl[x])
            if grow_cap:
                cap[x], capl[x] = py + 1, (x, capl[y])
    # the longest cup ending left of each d, against the cap from d
    lead = lead_at = 0
    for d in range(n):
        if cap[d] and lead and lead + cap[d] > best:
            best, found = lead + cap[d], (cupl[lead_at], capl[d], "unbounded_right")
        if cup[d] > lead:
            lead, lead_at = cup[d], d
    return best, found


def _convex_split(view, need: int, goal: int):
    """(C, D, class) for a largest subset in convex position: the lines
    below a cell bounded by all of them (a cup), the lines above it (a
    cap), and the cell's class. The search stops once a subset has goal
    lines, and gives None when none has need lines.

    The lines below a cell bounded by all of them are a cup (the cell lies
    in their top cell and meets each of them along a segment) and the
    lines above it a cap, so no subset has more than the longest cup plus
    the longest cap, and nothing is sought past that bound.

    The join rule. Let the root of the family's join tree be a join
    (IntegerView.root_join), of the low lines before line a and the high
    ones from a on, and let D be the low part's longest cap and C the high
    part's longest cup, which the census derives on its way
    (IntegerView.join_parts). Then C and D are in convex position: the
    region Z above every line of C and below every line of D, open and
    convex, is a cell of their arrangement bounded by all of them. The
    join test puts every crossing inside a part strictly left of every
    low-high crossing, and left of where they cross, a low line lies
    above a high one, as its slope is lower. So left of the leftmost
    crossing x* of a line of D with a line of C, the lower envelope of D
    lies above the upper envelope of C, and Z holds the strip between
    them there. Each breakpoint of either envelope is a crossing inside a
    part, left of x*. C is a cup, so each of its lines is a piece of
    positive length of the upper envelope, between two breakpoints or
    from one to infinity, and meets the strip along a piece of positive
    length; so is each line of D on the lower envelope, D being a cap. So
    every line of C and D bounds Z. Far right every high line lies above
    every low one, so Z's two rays, along the envelopes, point left: Z is
    unbounded to the left. On a joined root the census gives the bound
    and C and D, and no frame is built when C and D have at least goal
    lines or meet the bound: on F(p, q, l), C has p lines and D q.

    The split DP, for every other family and search. S is in convex
    position exactly when it splits into a cup C and a cap D, either
    possibly empty, such that, with a = min C, b = max D, c = max C and
    d = min D: if a < b, every chain key lies above X_ab (the cell's left
    vertex); if c > d, every chain key lies below X_cd (its right vertex);
    and not both a > b and c < d. With D empty the cell is the top cell
    and with C empty the bottom one, so the census's longest cup and cap
    are candidates. The cells with a left vertex, bounded or unbounded to
    the right, come from a _sweep from their anchor (a, b), and those
    unbounded to the left from the same sweep on the mirror image.

    _bounds gives the sizes of the longest cup and cap and every anchor's
    bound. Nothing is swept (nor the mirror built) when a chain reaches
    goal or need exceeds cup + cap. Anchors go by descending bound, capped
    at goal, then frame position descending: key order on each side, and
    the shortest sweeps first, which often meet the bound at once. The
    search stops when no bound left beats the best size; a sweep is
    O(n^2), the search O(n^4).
    """
    if view.root_join is not None:
        census = view.census
        most = len(census.cup) + len(census.cap)
        if need > most:
            return None
        low_cap, high_cup = view.join_parts
        if len(low_cap) + len(high_cup) >= min(goal, most):
            return high_cup, low_cap, "unbounded_left"
    n = len(view.pairs)
    cup, cap, bound = _bounds(view.frame, n)
    best = max(cup, cap)
    top = min(goal, cup + cap)
    levels = range(top, max(need, best + 1) - 1, -1)
    if levels:
        frames = view.frame, _mirror(view.frame, n)
        bounds = bound, _bounds(frames[1], n)[2]
    anchored = None
    for level in levels:
        if level <= best:
            break
        # the top level takes every bound at or above it
        at = level.__le__ if level == top else level.__eq__
        anchors = [
            (p, f) for f, by_crossing in enumerate(bounds) for p in compress(count(), map(at, by_crossing))
        ]
        for p, f in sorted(anchors, reverse=True):
            size, found = _sweep(frames[f], n, p, level)
            if size > best:
                best, anchored = size, (f, found)
                if best >= level:
                    break
    if best < need:
        return None
    if anchored is None:
        # the top cell of the longest cup, or the bottom cell of the longest cap
        census = view.census
        return (census.cup, (), "unbounded_other") if cup >= cap else ((), census.cap, "unbounded_other")
    f, (low, high, bound_class) = anchored
    below, above = _chain(low)[::-1], _chain(high)
    if f:
        # the mirror's line v is line n - 1 - v, and its right the family's left
        below, above = (tuple(n - 1 - v for v in reversed(c)) for c in (below, above))
        bound_class = bound_class.replace("right", "left")
    return below, above, bound_class


def convex_position_cell(family: LineFamily) -> Optional[Cell]:
    """A cell bounded by every line of the family, or None.

    The cell lies above the cup and below the cap of the family's split
    (_convex_split with need and goal the family size).
    """
    n = len(family)
    if n < 2:
        return None
    view = family.view
    split = _convex_split(view, n, n)
    if split is None:
        return None
    below, _, bound_class = split
    signs = [-1] * n
    for i in below:
        signs[i] = 1
    signs = tuple(signs)
    # row 0 holds every crossing of line 0, keys(j) = key(0, j): its piece
    # starts at the last line, in key order, that the cell is below and ends
    # at the first one that it is above
    keys = [0, *next(view.rows())].__getitem__
    start = max((j for j in range(1, n) if signs[j] < 0), key=keys, default=None)
    end = min((j for j in range(1, n) if signs[j] > 0), key=keys, default=None)
    # step up or down off line 0 at x = a/b, the middle of its piece or 1
    # past its one finite end; the piece ends where line j > 0 crosses it,
    # at X_0j = p/q
    pairs = view.pairs
    m0, c0 = pairs[0]
    ends = [(c0 - pairs[j][1], pairs[j][0] - m0) for j in (start, end) if j is not None]
    if len(ends) == 2:
        (p1, q1), (p2, q2) = ends
        a, b = p1 * q2 + p2 * q1, 2 * q1 * q2
    else:
        [(p, q)] = ends
        a, b = p + q if end is None else p - q, q
    top = m0 * a + c0 * b
    w = _sector_witness(pairs, range(n), a, b, top, view.scale, 0, signs[0] * view.scale)
    return Cell(signs, frozenset(range(n)), bound_class, w)


def is_convex_position(family: LineFamily) -> bool:
    """True iff the family defines a cell bounded by all of its lines."""
    return convex_position_cell(family) is not None
