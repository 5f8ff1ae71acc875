"""Exact line geometry written apart from linecells, used to check its outputs.

Nothing here imports linecells: the checks must not share a code path with
the program they judge. Lines are (m, c) Fraction pairs for y = m*x + c,
kept in slope order, which is the order linecells indexes them in.

Cells are named by bit masks: bit j is set when the cell lies above line j.
The test for "line i bounds the cell" uses the edges of the arrangement:
walking along line i from far left, the side of line j flips exactly where
j crosses i, so each edge of line i (a piece between consecutive crossing
points) has a mask of the lines it lies above. Line i bounds the cell of a
subfamily S with mask A in a positive-length segment iff some edge of line
i agrees with A on S minus i. Convex position of S (a cell bounded by every
line of S) and the bounding sets of whole-family cells both follow from
this one test, without the per-line intervals linecells uses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm


def parse_family_text(text):
    """(lines in slope order, header dict) from the family file format."""
    header = {}
    lines = []
    for raw in text.splitlines():
        row = raw.strip()
        if not row:
            continue
        if row.startswith("#!"):
            key, _, value = row[2:].partition("=")
            header[key.strip()] = value.strip()
            continue
        if row.startswith("#"):
            continue
        m, c = row.split()
        lines.append((Fraction(m), Fraction(c)))
    lines.sort()
    for a, b in zip(lines, lines[1:]):
        if a[0] == b[0]:
            raise ValueError(f"two lines with slope {a[0]}")
    if not lines:
        raise ValueError("no lines")
    return lines, header


def format_family_text(lines):
    """Family file text for lines given as (m, c) Fractions."""
    return "".join(f"{m} {c}\n" for m, c in sorted(lines))


def _sign(v):
    return (v > 0) - (v < 0)


def orient(a, b, c):
    return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def integer_duals(lines):
    """Dual points (m, c) scaled by one positive integer to clear denominators."""
    scale = 1
    for m, c in lines:
        scale = lcm(scale, m.denominator, c.denominator)
    return [(int(m * scale), int(c * scale)) for m, c in lines]


def longest_chain(lines, turn):
    """Longest run of dual points, in slope order, whose every consecutive
    triple turns the given way: -1 (concave, a cup) or +1 (convex, a cap)."""
    pts = integer_duals(lines)
    n = len(pts)
    if n < 3:
        return n
    # ending[j][k]: longest chain whose last two points are j < k
    ending = [[2] * n for _ in range(n)]
    best = 2
    for k in range(n):
        for j in range(k):
            length = 2
            for i in range(j):
                if ending[i][j] >= length and orient(pts[i], pts[j], pts[k]) == turn:
                    length = ending[i][j] + 1
            ending[j][k] = length
            best = max(best, length)
    return best


def is_strict_chain(lines, indices, turn):
    if list(indices) != sorted(set(indices)):
        return False
    pts = integer_duals([lines[i] for i in indices])
    return all(orient(a, b, c) == turn for a, b, c in zip(pts, pts[1:], pts[2:]))


class Arrangement:
    """Vertices and edge masks of a family given in slope order."""

    def __init__(self, lines):
        self.lines = lines
        n = len(lines)
        self.vertices = {}
        crossings = [[] for _ in range(n)]
        for i in range(n):
            mi, ci = lines[i]
            for j in range(i + 1, n):
                mj, cj = lines[j]
                x = (cj - ci) / (mi - mj)
                self.vertices.setdefault((x, mi * x + ci), set()).update((i, j))
                crossings[i].append((x, j))
                crossings[j].append((x, i))
        self.edges = []
        for i in range(n):
            # far left, line i runs above exactly the lines of larger slope
            mask = sum(1 << j for j in range(i + 1, n))
            masks = [mask]
            row = sorted(crossings[i])
            for pos, (x, j) in enumerate(row):
                mask ^= 1 << j
                if pos + 1 == len(row) or row[pos + 1][0] != x:
                    masks.append(mask)
            self.edges.append(masks)

    def max_concurrency(self):
        return max(len(inc) for inc in self.vertices.values())

    def bounds(self, mask, i, within):
        """Does line i bound the cell with the given mask, taken in the
        subfamily whose bit set is `within`?"""
        others = within & ~(1 << i)
        want = mask & others
        return any(edge & others == want for edge in self.edges[i])

    def bounding(self, mask):
        full = (1 << len(self.lines)) - 1
        return frozenset(i for i in range(len(self.lines)) if self.bounds(mask, i, full))

    def in_convex_position(self, subset):
        """Some cell of the subfamily is bounded by every one of its lines."""
        if len(subset) < 3:
            return len(subset) == 2
        within = sum(1 << i for i in subset)
        first, rest = subset[0], subset[1:]
        others = within & ~(1 << first)
        for edge in {e & others for e in self.edges[first]}:
            # the edge of `first` borders one cell on each of its sides
            for mask in (edge, edge | (1 << first)):
                if all(self.bounds(mask, i, within) for i in rest):
                    return True
        return False

    def has_convex(self, size):
        return any(
            self.in_convex_position(s) for s in combinations(range(len(self.lines)), size)
        )

    def largest_convex(self):
        n = len(self.lines)
        for size in range(n, 2, -1):
            if self.has_convex(size):
                return size
        return 2

    def right_cell_sizes(self):
        """Bounding-line counts of the cells unbounded to the right: far to
        the right the lines stack in slope order, so these are the cells
        above the r lowest-slope lines and below the rest, 0 < r < n."""
        return [len(self.bounding((1 << r) - 1)) for r in range(1, len(self.lines))]

    def cell_count(self):
        n = len(self.lines)
        return 1 + n + sum(len(inc) - 1 for inc in self.vertices.values())


def side(line, x, y):
    m, c = line
    return _sign(y - (m * x + c))


def base_size(p, l):
    return (l - 1) * p // 2 if p % 2 == 0 else (l - 1) * (p - 1) // 2 + 1


def recursive_size(p, q, l):
    """Size of the recursive (p, q) family from its recurrence
    f(p, q) = f(p-1, q) + f(p, q-1) and the base families."""
    if p == 1 or q == 1:
        return 1
    if q == 2:
        return base_size(p, l)
    if p == 2:
        return base_size(q, l)
    return recursive_size(p - 1, q, l) + recursive_size(p, q - 1, l)


def thm12_size(l, n):
    """For even n, k = (n - 2) / 2: a scaffold of two mirrored (k, k)
    triple-free families, each scaffold line replaced by a (k, k) family."""
    k = (n - 2) // 2
    return 2 * recursive_size(k, k, 3) * recursive_size(k, k, l)


def lower_bound(l, n):
    """The paper's lower bound on ES_L(l, n), re-derived for even n >= 6."""
    k = (n - 2) // 2
    big = comb(2 * k - 2, k - 1)
    return (l - 1) * big * big - (l - 3) * comb(2 * k - 4, k - 2) * big
