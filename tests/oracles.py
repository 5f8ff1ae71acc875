"""Slow reference kernels that the fast ones in linecells replaced.

Each runs straight from the family's Fractions or through the per-line
interval test in cross products (_line_interval), never through the cached
integer view's crossing keys, so the fast kernels can be checked against
them. bounding_lines, classify_cell, is_cup and is_cap here are the
references for the crossing-key versions in linecells, and every oracle
below that needs a cell's bounding set or class takes it from them.

The exceptions read crossing keys, since they are the references for
exact outputs, order and ties included, of kernels that read the keys
another way. They take them from crossing_rows, computed from the view's
integer pairs alone, never from the view's own key table:
tuple_sort_chain, the chain DP that sorted (key, i, j) tuples once per
call, for the DP that walks the view's cached edge order;
scan_staircases, the prefix/suffix scan of every line's keys, for the
staircases from two envelope stacks; row_grouped_vertices with the
crossing_counts behind counted_concurrency and counted_profile, which
grouped each line's keys, for the vertices read off the edge order;
scan_cells, the cell enumeration that takes each vertex's side of every
line and scans all n lines for each witness, on row_grouped_vertices,
for the sweep that carries sign vectors along the lines and steps each
witness short of two cells' bounding lines; and convex_walk, the
exponential walk over subsets that folds in one line at a time
(extend_on_keys), for the cup/cap-split DP of the convex-position search.
visible_span, the clip of one line to a box in Fractions, and
line_elements, which prints its ends as Points mapped to the canvas, are
the references for the SVG lines clipped and printed on the integer
pairs; clip_by_bounding_lines, the box cut in Fractions by a cell's
bounding lines, with area2, its shoelace area, is the reference for the
highlighted cell cut on the integer pairs, and canvas_point prints its
Points the same way.
join_order_by_heights, which compared every line's height at X0, read
off the family's integer pairs, is the reference for the join test on
the cached keys of slope neighbours' crossings (geometry.in_join_order),
and split, which sliced the slope gaps of each range, for the splits of
the join tree that one stack pass builds (IntegerView.joins).
contract, which maps each line by Fraction operations, is the reference
for the contraction that computes each line from the view's integer
pairs; it reads abscissa_bound, a bound on the crossings' |x| from the
view's key_sentinel, and picks the squeeze factor in Fractions, for the
exponent linecells' contract compares in integers.
construct_base, which built the pencils and the tangent line as Fraction
Lines, is the reference for the base family written as integer pairs.
construct_F_by_levels, which contracted, joined and keyed every family
of the recursion in full and certified each join by join_test on all of
its slope neighbours' keys, is the reference for construct_F's nodes of
carried lines, emitted once through composed integer maps; it calls
linecells' contract, _join and _certify through their module, so a test
that patches one of them patches this builder too.
parse_family, which read each literal by parse_ratio into a reduced pair
and checked each slope against the earlier ones as it went, is the
reference for the parse that reads each record by one regex, reduces
nothing and finds duplicate slopes in the sorted pairs.

intersect, orientation and side_of are the Fraction primitives that the
tests build families and points with. Their sign conventions:

* ``orientation(a, b, c)`` is the sign of the cross product (b-a) x (c-a):
  +1 when the walk a->b->c turns left (counterclockwise), -1 when it turns
  right, 0 when the three points are collinear.
* ``side_of(line, p)`` is the sign of ``p.y - (m*p.x + c)``: +1 strictly
  above the line, -1 strictly below, 0 on it. Equivalently it is
  ``orientation((0, c), (1, m + c), p)``.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, groupby
from math import lcm
from operator import gt, itemgetter, lt

from linecells import (
    Cell,
    ChainResult,
    DuplicateSlopeError,
    FamilyParseError,
    InfeasibleSignVectorError,
    Line,
    LineFamily,
    ParameterRangeError,
    Point,
)
from linecells import constructions
from linecells.geometry import in_join_order, parse_ratio


def intersect(a, b):
    """Intersection point of two non-parallel lines."""
    if a.m == b.m:
        raise ValueError(f"equal slopes: {a} and {b}")
    x = (b.c - a.c) / (a.m - b.m)
    return Point(x, a.y_at(x))


def orientation(a, b, c):
    """Sign of the signed area of the triangle a, b, c (CCW positive)."""
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (d > 0) - (d < 0)


def side_of(line, p):
    """+1 if p lies strictly above the line, -1 strictly below, 0 on it."""
    d = p.y - line.y_at(p.x)
    return (d > 0) - (d < 0)


def scaled_pairs(family):
    """The family's common-denominator integer (M, C) pairs."""
    scale = 1
    for line in family:
        scale = lcm(scale, line.m.denominator, line.c.denominator)
    return tuple((int(line.m * scale), int(line.c * scale)) for line in family)


def crossing_rows(view):
    """rows[i][j] is the key of X_ij, floor(X_ij * 2^shift), with 0 on the
    diagonal, computed from view.pairs alone: shift is twice the bit length
    of the integer slopes' spread, so that 2^shift is at least its square."""
    pairs = view.pairs
    shift = 2 * (pairs[-1][0] - pairs[0][0]).bit_length()
    return [
        [0 if i == j else (cj - ci) * (1 << shift) // (mi - mj) for j, (mj, cj) in enumerate(pairs)]
        for i, (mi, ci) in enumerate(pairs)
    ]


def _line_interval(scaled, i, signs):
    """Open x-interval of line i inside the cell named by signs.

    scaled holds the family's integer (M, C) pairs (scaled_pairs). Bounds
    are (num, den) pairs with den > 0 so comparisons stay in integer cross
    products; None stands for an infinite end. Returns None when the
    interval is empty.
    """
    mi, ci = scaled[i]
    lo = None
    hi = None
    for j, (mj, cj) in enumerate(scaled):
        if j == i:
            continue
        # height of line i over line j at abscissa x is (mi-mj)*x + (ci-cj)
        g = signs[j] * (mi - mj)
        s = signs[j] * (ci - cj)
        if g > 0:
            if lo is None or -s * lo[1] > lo[0] * g:
                lo = (-s, g)
        else:
            if hi is None or s * hi[1] < hi[0] * -g:
                hi = (s, -g)
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    return (lo, hi)


def _interval_x(lo, hi):
    """Some abscissa strictly inside the open interval (lo, hi)."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(hi[0], hi[1]) - 1
    if hi is None:
        return Fraction(lo[0], lo[1]) + 1
    return (Fraction(lo[0], lo[1]) + Fraction(hi[0], hi[1])) / 2


def _step_from(family, v, s, incident):
    """Point v + eps*s with eps small enough that no non-incident line's
    side changes between v and the result."""
    eps = Fraction(1)
    for j, line in enumerate(family):
        if j in incident:
            continue
        height = v.y - line.y_at(v.x)
        drift = s[1] - line.m * s[0]
        if drift != 0:
            bound = abs(height) / abs(drift)
            if bound < eps:
                eps = bound
    eps = eps / 2
    return Point(v.x + eps * s[0], v.y + eps * s[1])


def _intervals(family, signs):
    """Every line's interval (or None) in the cell named by signs; raises
    InfeasibleSignVectorError when all are empty."""
    scaled = scaled_pairs(family)
    out = [_line_interval(scaled, i, tuple(signs)) for i in range(len(family))]
    if all(iv is None for iv in out):
        raise InfeasibleSignVectorError(f"no cell has sign vector {tuple(signs)}")
    return out


def bounding_lines(family, signs):
    """The lines whose interval in the cell is nonempty."""
    return frozenset(i for i, iv in enumerate(_intervals(family, signs)) if iv is not None)


# a cell's class by its (right, left) ray counts; any other count is
# unbounded_other
RAY_CLASSES = {(0, 0): "bounded", (2, 0): "unbounded_right", (0, 2): "unbounded_left"}


def classify_cell(family, signs):
    """The cell's class from its rays: intervals with an infinite end."""
    ends = [iv for iv in _intervals(family, signs) if iv is not None]
    rays = (sum(hi is None for _, hi in ends), sum(lo is None for lo, _ in ends))
    return RAY_CLASSES.get(rays, "unbounded_other")


def is_cup(family):
    """The cell above every line is bounded by all of them."""
    return len(bounding_lines(family, (1,) * len(family))) == len(family)


def is_cap(family):
    """The cell below every line is bounded by all of them."""
    return len(bounding_lines(family, (-1,) * len(family))) == len(family)


def staircase_signs(n, r, side):
    if side == "right":
        return (1,) * r + (-1,) * (n - r)
    return (-1,) * r + (1,) * (n - r)


def staircase_members(family, side):
    """Cubic staircase scan: for each r in 1..n-1, the lines whose interval
    in the staircase cell r is nonempty."""
    scaled = scaled_pairs(family)
    n = len(family)
    out = {}
    for r in range(1, n):
        signs = staircase_signs(n, r, side)
        out[r] = [i for i in range(n) if _line_interval(scaled, i, signs) is not None]
    return out


def scan_staircases(family, side):
    """Bounding lines of every staircase cell on one side, from prefix and
    suffix extremes of each line's crossing keys: entry r lists, in index
    order, the lines that bound the staircase r (0 < r < n).

    For the right staircase r, line j confines line i to x > X_ij or to
    x < X_ij depending only on whether i < r and j < r: for i < r the
    interval is (max of X_ij over j < i or j >= r, min over i < j < r), and
    for i >= r it is (max over j < r or j > i, min over r <= j < i). The
    left side is the same scan on the negated keys.
    """
    view = family.view
    rows = crossing_rows(view)
    n = len(rows)
    if side == "left":
        rows = [[-key for key in row] for row in rows]
    far = view.key_sentinel
    members = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        head, tail = row[:i], row[i + 1 :]
        # staircases r > i: lo = max(head, tail[r-i-1:]), hi = min(tail[:r-i-1])
        before = max(head, default=-far)
        lows = list(accumulate(reversed(tail), max))
        lows.reverse()
        highs = accumulate(tail[:-1], min, initial=far)
        for r, (low, high) in enumerate(zip(lows, highs), i + 1):
            if before < high and low < high:
                members[r].append(i)
        # staircases r <= i: lo = max(head[:r], tail), hi = min(head[r:])
        after = max(tail, default=-far)
        lows = accumulate(head, max)
        highs = list(accumulate(reversed(head[1:]), min, initial=far))
        highs.reverse()
        for r, (low, high) in enumerate(zip(lows, highs), 1):
            if after < high and low < high:
                members[r].append(i)
    return members


def split(pairs, lo, hi):
    """The line a that lines lo..hi-1 of pairs, in slope order, hi - lo >=
    2, split before: the one after their largest slope gap, the first if
    several tie."""
    run = [pairs[i + 1][0] - pairs[i][0] for i in range(lo, hi - 1)]
    return lo + 1 + run.index(max(run))


def join_tree(pairs):
    """Every node of the join tree of pairs, as (lo, a, hi, holds) in
    rising a: lines lo..hi-1, split before line a (split), and whether the
    heights at X0 pass the join test there (join_order_by_heights)."""
    nodes, todo = [], [(0, len(pairs))]
    while todo:
        lo, hi = todo.pop()
        if hi - lo >= 2:
            a = split(pairs, lo, hi)
            nodes.append((lo, a, hi, join_order_by_heights(pairs, lo, a, hi)))
            todo += (lo, a), (a, hi)
    return sorted(nodes, key=itemgetter(1))


def root_join(pairs):
    """The line a that the root of pairs' join tree splits them before,
    when the join test holds there, else None."""
    n = len(pairs)
    a = n > 1 and split(pairs, 0, n)
    return a if a and join_order_by_heights(pairs, 0, a, n) else None


def join_order_by_heights(pairs, lo, a, hi):
    """The join test on lines lo..hi-1 of pairs, in slope order, split
    before line a: each part rises in slope order at X0, where lines lo and
    hi-1 cross. Line (m, c) is there m*(c_lo - c_hi-1) + c*(m_hi-1 - m_lo)
    over a positive denominator."""
    (m0, c0), (m1, c1) = pairs[lo], pairs[hi - 1]
    dc, dm = c0 - c1, m1 - m0
    at = [m * dc + c * dm for m, c in pairs[lo:hi]]
    k = a - lo
    return all(map(lt, at[:k], at[1:k])) and all(map(lt, at[k:], at[k + 1 :]))


def _orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def longest_chain(family, turn):
    """Cubic DP over ordered pairs of dual points: size and witness of the
    longest chain turning strictly by turn (-1 cups, +1 caps)."""
    pts = scaled_pairs(family)
    n = len(pts)
    if n == 1:
        return 1, (0,)
    length = [[2] * n for _ in range(n)]
    parent = [[-1] * n for _ in range(n)]
    for mid in range(n):
        for first in range(mid):
            base = length[first][mid]
            for last in range(mid + 1, n):
                if _orient(pts[first], pts[mid], pts[last]) == turn:
                    if base + 1 > length[mid][last]:
                        length[mid][last] = base + 1
                        parent[mid][last] = first
    best = 2
    best_edge = (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if length[i][j] > best:
                best = length[i][j]
                best_edge = (i, j)
    chain = [best_edge[1], best_edge[0]]
    i, j = best_edge
    while parent[i][j] >= 0:
        i, j = parent[i][j], i
        chain.append(i)
    chain.reverse()
    return best, tuple(chain)


def tuple_sort_chain(family, kind):
    """Longest subfamily whose dual points turn strictly one way: right
    (concave) for cups, left (convex) for caps."""
    rows = crossing_rows(family.view)
    n = len(rows)
    if n == 1:
        return ChainResult(1, (0,), kind)
    # ascending crossing key is descending dual slope: the cup order
    edges = sorted((rows[i][j], i, j) for i in range(n) for j in range(i + 1, n))
    if kind == "cap":
        edges.reverse()
    # best[i] is (size, chain) for the longest chain ending at point i, the
    # chain as nested (index, rest) pairs so that later updates share it
    best = [(1, (i, None)) for i in range(n)]
    for _, batch in groupby(edges, itemgetter(0)):
        # edges of equal slope extend only chains from before the batch
        grown = [(j, best[i]) for _, i, j in batch]
        for j, (size, chain) in grown:
            if size >= best[j][0]:
                best[j] = (size + 1, (j, chain))
    size, chain = max(best, key=itemgetter(0))
    witness = []
    while chain is not None:
        witness.append(chain[0])
        chain = chain[1]
    return ChainResult(size, tuple(reversed(witness)), kind)


def is_strict_chain(family, witness, turn):
    """Witness sorted, and every consecutive triple of its dual points
    turning strictly by turn."""
    pts = [(family[i].m, family[i].c) for i in witness]
    return list(witness) == sorted(set(witness)) and all(
        _orient(a, b, c) == turn for a, b, c in zip(pts, pts[1:], pts[2:])
    )


def vertex_items(family):
    """Sorted (vertex, incident lines) pairs from a dict of Fraction Points."""
    by_point = {}
    n = len(family)
    for i in range(n):
        for j in range(i + 1, n):
            by_point.setdefault(intersect(family[i], family[j]), set()).update((i, j))
    return tuple(sorted((p, tuple(sorted(inc))) for p, inc in by_point.items()))


def _angle_key(d):
    # Total angular order of rational direction vectors, CCW from +x axis.
    x, y = d
    if y > 0 or (y == 0 and x > 0):
        half = 0
    else:
        half = 1
        x, y = -x, -y
    if x > 0:
        return (half, 0, Fraction(y, x))
    if x == 0:
        return (half, 1, Fraction(0))
    return (half, 2, Fraction(y, x))


def enumerate_cells(family):
    """Every cell, sorted by sign vector, from Fraction sample points.

    Each vertex's angular sectors are stepped into with _step_from and the
    sign vector read with side_of; the first point found names the cell's
    witness, and the references bounding_lines/classify_cell give the rest.
    """
    if len(family) == 1:
        c = family[0].c
        return tuple(
            Cell((sign,), frozenset({0}), "unbounded_other", Point(0, c + sign))
            for sign in (-1, 1)
        )
    witnesses = {}
    for v, incident in vertex_items(family):
        dirs = []
        for i in incident:
            m = family[i].m
            dirs.append((Fraction(1), m))
            dirs.append((Fraction(-1), -m))
        dirs.sort(key=_angle_key)
        inc_set = frozenset(incident)
        for d_a, d_b in zip(dirs, dirs[1:] + dirs[:1]):
            s = (d_a[0] + d_b[0], d_a[1] + d_b[1])
            p = _step_from(family, v, s, inc_set)
            signs = tuple(side_of(line, p) for line in family)
            witnesses.setdefault(signs, p)
    return tuple(
        Cell(signs, bounding_lines(family, signs), classify_cell(family, signs), witnesses[signs])
        for signs in sorted(witnesses)
    )


def _scan_witness(pairs, heights, a, b, top, scale, sx, sy):
    """A point inside one sector at the vertex v = (a/b, top/(b*scale)):
    v + eps*(sx, sy/scale), with eps small enough that no line off v
    changes side between v and the result.

    heights[l] is b*scale times the vertex's height over line l (zero on
    the incident lines), and line l drifts by (sy - M_l*sx)/scale per unit
    step, so eps is half of min(1, |heights[l]| / (b*|sy - M_l*sx|)) over
    every line.
    """
    num, den = b, 1
    for (m, _), h in zip(pairs, heights):
        d = sy - m * sx
        if h and d and abs(h) * den < num * abs(d):
            num, den = abs(h), abs(d)
    eps = Fraction(num, 2 * den * b)
    return Point(Fraction(a, b) + eps * sx, Fraction(top, b * scale) + eps * Fraction(sy, scale))


def scan_cells(family):
    """Every cell, sorted by sign vector, from the sectors around the
    vertices of row_grouped_vertices, with an O(n) scan per vertex and per
    cell.

    Each vertex takes its side of every other line from one integer
    expression in the view's (M, C) pairs, and each of a k-line vertex's
    2k sectors copies that sign vector and sets its incident lines: right
    sector r above the first r + 1 incident lines, left sector r below
    them. The bounding set is the union of the two lines forming each
    corner sector, a sector side is a ray when the vertex holds its line's
    largest (right) or smallest (left) crossing key, and the witness is
    stepped into the cell's corner at its first vertex in Point order, its
    step kept below the first crossing with any of the n lines
    (_scan_witness).
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
    rows = crossing_rows(view)
    last = [max(row[:u] + row[u + 1 :]) for u, row in enumerate(rows)]
    first = [min(row[:u] + row[u + 1 :]) for u, row in enumerate(rows)]
    # sign vector -> (witness, bounding lines, [right rays, left rays])
    found = {}
    for inc in row_grouped_vertices(view):
        i, j = inc[0], inc[1]
        (mi, ci), (mj, cj) = pairs[i], pairs[j]
        # the vertex is (a/b, top/(b*scale)) with b > 0
        a, b = ci - cj, mj - mi
        top = mi * a + ci * b
        heights = [top - m * a - c * b for m, c in pairs]
        base = [1 if h > 0 else -1 for h in heights]
        key = rows[i][j]
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
                w = _scan_witness(pairs, heights, a, b, top, view.scale, sx, dy[p] + dy[q])
                cell = found[signs] = (w, set(), [0, 0])
            cell[1].update((inc[p % k], inc[q % k]))
            for r in (p, q):
                if is_ray[r]:
                    cell[2][r >= k] += 1
    return tuple(
        Cell(signs, frozenset(bounding), RAY_CLASSES.get(tuple(rays), "unbounded_other"), w)
        for signs, (w, bounding, rays) in sorted(found.items())
    )


def viewport(family):
    """The SVG auto viewport of a family of two or more lines: the box of
    its vertex_items Points, padded by a tenth of its larger side (at
    least 1/10)."""
    pts = [p for p, _ in vertex_items(family)]
    x0, x1 = min(p.x for p in pts), max(p.x for p in pts)
    y0, y1 = min(p.y for p in pts), max(p.y for p in pts)
    pad = max(x1 - x0, y1 - y0, Fraction(1)) / 10
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def concurrency(family):
    """(max count, sorted points at that count, profile) from vertex_items."""
    items = vertex_items(family)
    if not items:
        return len(family), (), {}
    top = max(len(inc) for _, inc in items)
    profile = {}
    for _, inc in items:
        profile[len(inc)] = profile.get(len(inc), 0) + 1
    return top, tuple(p for p, inc in items if len(inc) == top), profile


def row_grouped_vertices(view):
    """Incident lines of every vertex, in slope order, with the vertices
    sorted as their Points sort (by view.vertex_key).

    On line i a vertex is fixed by its crossing key, so the lines through it
    are those with one key. Each vertex is read off at its lowest-index
    line, the one that meets no earlier line there.
    """
    rows = crossing_rows(view)
    n = len(rows)
    keyed = []
    for i, row in enumerate(rows):
        earlier = set(row[:i])
        groups = {}
        for j in range(i + 1, n):
            if row[j] not in earlier:
                groups.setdefault(row[j], [i]).append(j)
        keyed.extend((view.vertex_key(i, inc[1]), tuple(inc)) for inc in groups.values())
    keyed.sort()
    return [inc for _, inc in keyed]


def crossing_counts(family):
    """Per line i, how many later lines cross it at each crossing key.

    A vertex on k lines counts k - 1 at its lowest-index line and less at
    each later one, down to 1 at the second-highest.
    """
    rows = crossing_rows(family.view)
    return [Counter(row[i + 1 :]) for i, row in enumerate(rows[:-1])]


def counted_concurrency(family):
    """(max count, first point at it, all points at it, in Point order),
    from the per-line crossing_counts."""
    if len(family) < 2:
        return len(family), None, ()
    counts = crossing_counts(family)
    top = max(max(c.values()) for c in counts)
    view = family.view
    rows = crossing_rows(view)
    tops = []
    for i, c in enumerate(counts):
        row = rows[i]
        # only a vertex's lowest-index line counts top; report each once
        for j in range(i + 1, len(row)):
            if c[row[j]] == top:
                tops.append((i, j))
                c[row[j]] = 0
    tops.sort(key=lambda ij: view.vertex_key(*ij))
    points = tuple(view.vertex(i, j) for i, j in tops)
    return top + 1, points[0], points


def counted_profile(family):
    """Concurrency count -> number of vertices, from crossing_counts."""
    if len(family) < 2:
        return {}
    # groups[t] counts (line, key) groups of size t; a vertex on k lines
    # makes one group of each size 1..k-1, so groups[t] counts the
    # vertices on more than t lines
    groups = Counter(t for c in crossing_counts(family) for t in c.values())
    return {
        t + 1: groups[t] - groups[t + 1]
        for t in sorted(groups)
        if groups[t] > groups[t + 1]
    }


def convex_position_cell(family):
    """Scan all 2^n sign vectors in mask order (bit i set: above line i) for
    the first whose every line interval is nonempty, as a Cell, or None."""
    n = len(family)
    if n < 2:
        return None
    scaled = scaled_pairs(family)
    for mask in range(1 << n):
        signs = tuple(1 if (mask >> i) & 1 else -1 for i in range(n))
        intervals = []
        for i in range(n):
            iv = _line_interval(scaled, i, signs)
            if iv is None:
                break
            intervals.append(iv)
        if len(intervals) < n:
            continue
        x0 = _interval_x(*intervals[0])
        boundary = Point(x0, family[0].y_at(x0))
        w = _step_from(family, boundary, (Fraction(0), Fraction(signs[0])), frozenset({0}))
        return Cell(signs, frozenset(range(n)), classify_cell(family, signs), w)
    return None


def find_n_convex(family, n):
    """First n-subset in lexicographic order whose subfamily the 2^n scan
    finds in convex position, or None."""
    for combo in combinations(range(len(family)), n):
        if convex_position_cell(LineFamily(tuple(family[i] for i in combo))):
            return combo
    return None


def largest_convex_subset(family):
    """(size, first witness) from find_n_convex, sizes downward."""
    for n in range(len(family), 1, -1):
        witness = find_n_convex(family, n)
        if witness is not None:
            return n, witness
    return 1, (0,)


def extend_on_keys(keys, cells, far):
    """The cells bounded by every chosen line once line t joins them.

    t has a higher slope than every chosen line, and keys[a] is the
    crossing key of t with the a-th chosen line. Each cell is (signs, lo,
    hi): its sign vector over the chosen lines and, for the a-th one, the
    keys lo[a] < hi[a] that end that line's open interval inside the cell,
    with -far and far for infinite ends. The empty arrangement's one cell,
    ((), (), ()), starts the fold.

    A cell bounded by every line of the larger arrangement lies in one
    bounded by every line of the smaller, so the candidates are the old
    cells with either sign for t. Line t runs from its last crossing with a
    line the cell lies above to its first with one it lies below, for both
    signs. Below t, line a keeps only x > X_at, so keys[a] is its new lo;
    above t, x < X_at and keys[a] is its new hi. A candidate is kept when
    every interval stays nonempty.
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


def convex_walk(family, need, goal):
    """The lexicographically first subset in convex position with at least
    need lines and more than any before it, walked until one has goal
    lines; () when none has need lines.

    Walks index prefixes depth-first in lexicographic order, folding in one
    line at a time with extend_on_keys; convex position is inherited by
    subsets, so a prefix with no cell ends its subtree, and a subtree too
    small to reach max(need, best + 1) lines is skipped. Exponential in
    general.
    """
    rows = crossing_rows(family.view)
    size = len(rows)
    far = max(abs(key) for row in rows for key in row) + 1
    best = ()
    floor = need

    def walk(prefix, cells):
        nonlocal best, floor
        k = len(prefix)
        for i in range(prefix[-1] + 1 if prefix else 0, size):
            # below prefix + (i,) lie at most k + size - i lines
            if k + size - i < floor:
                return
            bounded = extend_on_keys([rows[i][j] for j in prefix], cells, far)
            if bounded:
                cand = prefix + (i,)
                if k + 1 >= floor:
                    best = cand
                    floor = size + 1 if k + 1 == goal else k + 2
                walk(cand, bounded)

    walk((), [((), (), ())])
    return best


def walk_largest(family):
    """The size of a largest subset in convex position, by convex_walk
    stopped at the cup+cap bound of tuple_sort_chain."""
    goal = tuple_sort_chain(family, "cup").size + tuple_sort_chain(family, "cap").size
    return len(convex_walk(family, 1, goal))


def _cut(poly, line, sign):
    """The polygon clipped in Fractions by the closed side sign of line."""
    values = [sign * (p.y - line.y_at(p.x)) for p in poly]
    clipped = []
    for idx in range(len(poly)):
        cur, nxt = poly[idx], poly[(idx + 1) % len(poly)]
        vc, vn = values[idx], values[(idx + 1) % len(poly)]
        if vc * vn < 0:
            t = vc / (vc - vn)
            clipped.append(Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)))
        if vn >= 0:
            clipped.append(nxt)
    return clipped


def clip_cell(family, signs, box):
    """The box (x0, y0, x1, y1) cut down to the cell named by signs: the
    rectangle clipped in Fractions by the closed side of every line, one
    line after another."""
    x0, y0, x1, y1 = box
    poly = [Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]
    for line, sign in zip(family, signs):
        poly = _cut(poly, line, sign)
    return poly


def clip_by_bounding_lines(family, signs, box):
    """The box cut as clip_cell cuts it, by the cell's bounding lines only,
    in slope order: the same vertices that svg's _clip_cell finds on the
    integer pairs."""
    x0, y0, x1, y1 = box
    poly = [Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]
    for i in sorted(bounding_lines(family, signs)):
        poly = _cut(poly, family[i], signs[i])
    return poly


def area2(poly):
    """Twice the signed area of the polygon, by the shoelace formula."""
    return sum(
        (a.x * b.y - b.x * a.y for a, b in zip(poly, poly[1:] + poly[:1])), Fraction(0)
    )


def visible_span(line, box):
    """The x-range where the line runs inside the box (x0, y0, x1, y1), or
    None: where it meets the bottom and the top, cut to the sides; a range
    of one point is None."""
    x0, y0, x1, y1 = box
    if line.m == 0:
        if y0 <= line.c <= y1:
            return (x0, x1)
        return None
    a = (y0 - line.c) / line.m
    b = (y1 - line.c) / line.m
    if a > b:
        a, b = b, a
    lo = max(a, x0)
    hi = min(b, x1)
    if lo >= hi:
        return None
    return (lo, hi)


def canvas_point(p, box, width):
    """The Point p on the SVG canvas of the box at the given width, mapped in
    Fractions, each coordinate printed as float(Fraction) to 12 digits."""
    x0, y0, x1, y1 = box
    dx, dy = x1 - x0, y1 - y0
    height = width * dy / dx
    sx = (p.x - x0) / dx * width
    sy = (y1 - p.y) / dy * height
    return f"{float(sx):.12g}", f"{float(sy):.12g}"


def line_elements(family, box, width):
    """(x1, y1, x2, y2) of each visible line's SVG <line>, in slope order:
    the ends of visible_span as Points, through canvas_point."""
    out = []
    for line in family:
        span = visible_span(line, box)
        if span is not None:
            a, b = (Point(x, line.y_at(x)) for x in span)
            out.append(canvas_point(a, box, width) + canvas_point(b, box, width))
    return out


def abscissa_bound(view):
    """A bound on |x| over every crossing, read off the crossing keys.

    X_ij lies in [key, key + 1) / 2^shift, so key_sentinel / 2^shift
    is at least every |X_ij|.
    """
    return Fraction(view.key_sentinel, 1 << view.shift)


def contract(family, a, eps):
    """The bundle of linecells' contract, line by line in Fractions: the
    same anchor (px, py) and squeeze factor t, then m' = mu + t*m and
    c' = t^2*c + py - m'*px for each line."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ParameterRangeError(f"eps must be positive: {eps}")
    mu = a.m
    if mu != 0:
        px, py = (-1 - a.c) / mu, Fraction(-1)
    elif a.c < 0:
        px, py = Fraction(0), a.c
    else:
        px, py = Fraction(0), Fraction(-1)
    max_m = max(abs(line.m) for line in family)
    x_bound = abscissa_bound(family.view)
    reach = (1 + abs(mu) + max_m) * x_bound + max(abs(line.c) for line in family)
    bound = min(Fraction(1), eps / (2 * (1 + max_m)), min(-py, eps) / (2 * (1 + reach)))
    k = max(0, bound.denominator.bit_length() - bound.numerator.bit_length())
    t = Fraction(1, 1 << k) if Fraction(1, 1 << k) <= bound else Fraction(1, 2 << k)
    return LineFamily(
        tuple(
            Line(mu + t * line.m, t * t * line.c + py - (mu + t * line.m) * px)
            for line in family
        )
    )


def construct_base(p, l, epsilon_scale=1):
    """The lines of linecells' construct_base(p, l, epsilon_scale), built
    one Fraction Line at a time, uncertified: floor(p/2) pencils of l-1
    lines through (h, h^2), slopes 2h + delta*(2j - (l-2))/2, and for odd p
    the tangent at (p//2, (p//2)^2)."""
    clusters = p // 2
    delta = min(Fraction(epsilon_scale) / (4 * (l - 1) * (clusters + 1)), Fraction(1, l - 1))
    lines = []
    for h in range(clusters):
        for j in range(l - 1):
            s = 2 * h + delta * Fraction(2 * j - (l - 2), 2)
            lines.append(Line(s, h * h - s * h))
    if p % 2 == 1:
        lines.append(Line(2 * clusters, -(clusters * clusters)))
    return LineFamily(tuple(lines))


def parse_family(text):
    """The family of a family file as linecells.parse_family reads it,
    or its error: each literal read by parse_ratio into a reduced pair,
    each slope checked against the earlier ones as it is read."""
    name = None
    provenance = []
    records = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#!"):
            body = stripped[2:].strip()
            key, sep, value = body.partition("=")
            key = key.strip()
            if not sep or not key:
                raise FamilyParseError(f"malformed header {stripped!r}", lineno)
            if key == "name":
                name = value.strip()
            else:
                provenance.append((key, value.strip()))
            continue
        if stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise FamilyParseError(
                f"expected 'slope intercept', got {len(tokens)} fields", lineno
            )
        try:
            slope = parse_ratio(tokens[0])
            intercept = parse_ratio(tokens[1])
        except ValueError as exc:
            raise FamilyParseError(str(exc), lineno) from None
        # a reduced pair is its value
        if slope in seen:
            raise DuplicateSlopeError(
                f"line {lineno}: slope {Fraction(*slope)} already used at line {seen[slope]}"
            )
        seen[slope] = lineno
        records.append((slope, intercept))
    if not records:
        raise FamilyParseError("no line records")
    # the lcm of the reduced denominators, so the pairs share no factor with it
    s = lcm(*(den for pair in records for _, den in pair))
    pairs = sorted(
        (m * (s // m_den), c * (s // c_den)) for (m, m_den), (c, c_den) in records
    )
    return LineFamily.from_pairs(s, pairs, name, provenance or None)


def join_test(a):
    """construct_F's check on a low lines joined to the high ones: each part
    rises in slope order at X0, where lines 0 and n-1 cross (in_join_order,
    fed the largest key of steps inside the two parts joined)."""

    def holds(fam):
        inside = fam.view.steps[: a - 1] + fam.view.steps[a:]
        # two single lines always pass
        return not inside or in_join_order(fam.view, 0, len(fam), max(inside))

    return ("join order", holds, "is", True)


def construct_F_by_levels(p, q, l, scale, memo):
    """linecells' (p, q, l) recursive family built level by level: each
    level contracts both parts onto the carriers y = x + 2 and y = 2x + 2,
    joins them and certifies the join (join_test); memo holds every family
    built at this scale, by (p, q, l)."""
    eps = min(scale, Fraction(1)) / 4

    def build(p, q):
        if (p, q, l) in memo:
            return memo[p, q, l]
        if p == 1 or q == 1:
            fam = LineFamily.from_pairs(1, ((1, 0),))
        elif q == 2:
            fam = constructions.construct_base(p, l, scale)
        elif p == 2:
            fam = constructions.reflect_x(build(q, 2))
        else:
            low = constructions.contract(build(p - 1, q), Line(1, 2), eps)
            high = constructions.contract(build(p, q - 1), Line(2, 2), eps)
            fam = constructions._certify(
                f"F({p}, {q}, {l})", constructions._join(low, high), (join_test(len(low)),)
            )
        memo[p, q, l] = fam
        return fam

    return build(p, q)
