"""Exact primitives: rationals, points, non-vertical lines, line families.

Everything downstream works over Q. Floats never enter a computation; they
are rejected at the constructors so a stray literal fails loudly instead of
silently poisoning an exact result.

A family is stored once, as integers: a scale S and pairs (M, C), one per
line y = (M*x + C) / S, with gcd(S, all M and C) = 1 (see LineFamily); its
Fraction Lines are derived on demand. The predicates work on
``LineFamily.view``, the crossing keys and tables of that form (see
IntegerView). This module alone knows the crossing-key formula. Each
family has one join tree, the Cartesian tree of its slope gaps, whose
nodes hold an order test on the cached keys of slope neighbours'
crossings (in_join_order, IntegerView.joins). The census walks it,
derives a join's answers from its parts', writes down the leaves that
are pencils and reads crossing rows only at the other leaves' normal
forms, once per form, each at its own shift, where distinct crossings
have distinct keys (IntegerView.census).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice
from math import gcd, lcm
from operator import eq, lt, neg, sub
from typing import Iterator, List, Optional, Tuple

from .errors import DuplicateSlopeError

Rat = Fraction

# (lows, highs, tied), as IntegerView.frame
Frame = Tuple[List[int], List[int], List[bool]]

_RAT_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text: str) -> Tuple[int, int]:
    """Parse an integer or a/b fraction literal into its reduced integer
    pair (num, den), den > 0.

    Accepts an optional leading sign on the numerator only; the denominator
    must be a positive decimal integer, all digits ASCII. Anything else
    (floats, any whitespace, signs on the denominator) raises ValueError.
    """
    m = _RAT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    if den is None:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def parse_rat(text: str) -> Rat:
    """Parse a literal as parse_ratio reads it into an exact rational."""
    return Fraction(*parse_ratio(text))


def format_rat(value: Rat) -> str:
    """Render a rational the way parse_rat reads it back."""
    return str(value)


def _as_rat(value) -> Rat:
    # A Fraction is kept as it is. Fraction(float) would succeed and quietly
    # encode binary rounding error as an exact value, so floats are banned.
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass Fraction, int or str")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Point:
    """A point of the rational plane."""

    x: Rat
    y: Rat

    def __post_init__(self):
        object.__setattr__(self, "x", _as_rat(self.x))
        object.__setattr__(self, "y", _as_rat(self.y))


@dataclass(frozen=True, order=True)
class Line:
    """The non-vertical line y = m*x + c. Ordering is by (m, c)."""

    m: Rat
    c: Rat

    def __post_init__(self):
        object.__setattr__(self, "m", _as_rat(self.m))
        object.__setattr__(self, "c", _as_rat(self.c))

    def y_at(self, x) -> Rat:
        return self.m * _as_rat(x) + self.c


@dataclass(frozen=True, init=False)
class LineFamily:
    """An immutable family of lines in nearly general position, stored as
    integers: line i is y = (M_i*x + C_i) / S for S = ``scale`` and
    (M_i, C_i) = ``pairs[i]``, sorted by slope. ``lines``, the Fraction
    Lines, are derived on first use. Slopes must be pairwise distinct
    (DuplicateSlopeError otherwise); three or more lines through a common
    point are permitted. ``name`` and ``provenance`` are carried for file
    round-trips; provenance is a tuple of (key, value) string pairs.

    gcd(S, all M_i and C_i) = 1 makes S the lcm L of the reduced
    denominators: each divides S, and S divides L*M_i, L*C_i and L*S, so L.
    The constructor computes S as L; from_pairs divides out the gcd.
    """

    scale: int
    pairs: Tuple[Tuple[int, int], ...]
    name: Optional[str] = None
    provenance: Optional[Tuple[Tuple[str, str], ...]] = None

    def __init__(self, lines, name=None, provenance=None):
        lines = tuple(lines)
        if not lines:
            raise ValueError("a family needs at least one line")
        s = lcm(*(v.denominator for line in lines for v in (line.m, line.c)))
        pairs = sorted(
            (line.m.numerator * (s // line.m.denominator),
             line.c.numerator * (s // line.c.denominator))
            for line in lines
        )
        for (m, _), (next_m, _) in zip(pairs, pairs[1:]):
            if m == next_m:
                raise DuplicateSlopeError(f"slope {Fraction(m, s)} appears twice")
        vars(self).update(vars(LineFamily.from_pairs(s, pairs, name, provenance)))

    @classmethod
    def from_pairs(cls, den: int, pairs, name=None, provenance=None) -> "LineFamily":
        """The lines y = (M*x + C) / den, den > 0, for the (M, C) of pairs in
        strictly rising M; den and the pairs are divided by their gcd."""
        pairs = tuple(pairs)
        ms = [m for m, _ in pairs]
        if not ms or not all(map(lt, ms, ms[1:])):
            raise ValueError("pairs must be non-empty, in strictly rising slope order")
        if den <= 0:
            raise ValueError(f"den must be positive: {den}")
        g = gcd(den, *chain.from_iterable(pairs))
        if g > 1:
            den, pairs = den // g, tuple((m // g, c // g) for m, c in pairs)
        provenance = None if provenance is None else tuple((str(k), str(v)) for k, v in provenance)
        family = cls.__new__(cls)
        vars(family).update(scale=den, pairs=pairs, name=name, provenance=provenance)
        return family

    @cached_property
    def lines(self) -> Tuple[Line, ...]:
        s = self.scale
        return tuple(Line(Fraction(m, s), Fraction(c, s)) for m, c in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Line]:
        return iter(self.lines)

    def __getitem__(self, i) -> Line:
        return self.lines[i]

    def slopes(self) -> Tuple[Rat, ...]:
        return tuple(line.m for line in self.lines)

    def with_meta(self, name=None, provenance=None) -> "LineFamily":
        """Same lines, new metadata."""
        return LineFamily.from_pairs(self.scale, self.pairs, name, provenance)

    @cached_property
    def view(self) -> "IntegerView":
        """The family's crossing keys and tables, built on first use."""
        return IntegerView(self.scale, self.pairs)


Census = namedtuple("Census", "cup cap groups first")

# The join tree of a family of n lines (IntegerView.joins): root is the
# node of all lines, None when n == 1, and the lists are indexed by node.
# Node g splits lines lo[g]..hi[g]-1 before line g + 1, at the slope gap
# between lines g and g + 1; low[g] and high[g] are the nodes of its two
# parts, None for a part of one line, and joined[g] its join test
# (in_join_order).
Joins = namedtuple("Joins", "root lo hi low high joined")


class IntegerView:
    """Crossing keys and tables of a family's integer form.

    It reads the family's ``scale`` S and ``pairs``: crossing abscissae,
    vertex order and orientation signs are unchanged by the common positive
    scale, so predicates need only integer arithmetic.

    Lines i and j cross at X_ij = (C_j - C_i) / (M_i - M_j), which is also
    minus the slope of the dual edge between them. Its denominator is at
    most D = M_max - M_min, so two different crossing abscissae differ by
    at least 1/D^2. With 2^shift >= D^2, floor(X_ij * 2^shift) therefore
    takes distinct values at distinct abscissae and keeps their order: an
    exact integer key for comparing and grouping crossings.

    ``key(i, j)`` computes one key, ``rows()`` the keys line by line.
    ``joins``, the join tree, splits the lines at their slope gaps and
    tests each split on ``steps``, once per family. ``census``, derived
    over the tree's joins, written down at its pencil leaves and read off
    the rows of the others' normal forms, is all that certification
    needs: the longest cup and cap and the concurrency; with
    ``join_parts`` it answers the convex search on a joined root. The
    staircases and the cell predicates read keys too. ``frame``, the one
    n^2 table, is the crossings sorted once by key, as their lines and
    whether the next one ties: the split DP and cell enumeration walk it.
    ``rim`` holds the n pairs whose crossings hold the extreme vertices:
    the slope neighbours, whose keys are ``steps``, and the wrap pair.
    ``key_sentinel`` is read off them. The tables are built on first use
    and live as long as the family does.
    """

    def __init__(self, scale: int, pairs: Tuple[Tuple[int, int], ...]):
        self.scale, self.pairs = scale, pairs
        self.shift = _shift(pairs[0][0], pairs[-1][0])

    def key(self, i: int, j: int) -> int:
        """The key of X_ij, floor(X_ij * 2^shift), for lines i != j."""
        return crossing_key(self.pairs[i], self.pairs[j], self.shift)

    def rows(self) -> Iterator[List[int]]:
        """Row i of the crossing keys, [key(i, j) for j > i], for each line
        i in turn: a pass over the rows holds one row at a time."""
        return _rows(self.pairs, self.shift)

    @cached_property
    def census(self) -> Census:
        """(cup, cap, groups, first): a longest cup and cap, as lines in
        slope order; groups[t], the number of vertices on more than t
        lines; and two lines through the first vertex, in Point order,
        where the most lines meet.

        The census walks the family's join tree (joins) from the root. A
        node splits a range lo..hi-1 of two or more lines, in slope order,
        before line a, at its largest slope gap M_a - M_(a-1), the first
        one if several tie. When its join test holds (in_join_order), the
        range's census is combined from its two parts'; otherwise the range
        is a leaf, and nothing below it is read. A single line is the
        census ((lo,), (lo,), {}, None). So a family whose root fails is
        one leaf, and only the leaves of a family of joins read crossing
        keys.

        The pencil rule. A leaf whose slope neighbours' keys steps[lo:hi-1]
        are all equal is a pencil: the crossings of line i with lines i - 1
        and i + 1 are at one abscissa on line i, so they are one point,
        and every line of the leaf passes through it. Its census is written
        down, not read off a row: one vertex on k = hi - lo lines gives
        groups {1: 1, ..., k - 1: 1}; all crossings share a key, so no
        chain has three lines, and the DP's first longest chain, like its
        first vertex, is (lo, lo + 1). Any other leaf is measured by one
        pass over the rows of its normal form (_census), below.

        The combine rules. The join test puts every crossing inside a part
        strictly left of every crossing of a low line i < a with a high
        line j >= a (in_join_order). Right of the former, each part's lines
        run in slope order and cross no more, so a high line j, steeper
        than every low line, meets them from the lowest up: X_ij rises
        with i, and for the same reason falls with j. No three lines meet
        at a low-high crossing, since two of them would be of one part.
        The census's witness is the DP that takes the crossings by key and
        lets a line adopt a predecessor only on a strict gain, the first
        line with a longest chain ending the witness
        (oracles.tuple_sort_chain). A cup takes the keys ascending: first
        every crossing inside a part, which is each part's own DP (a tie
        batch never mixes the parts, whose lines are disjoint), then the
        low-high ones, which update high lines only, from low lines whose
        chains are final. High line j, taking i ascending, adopts the
        first low line with a longest low cup, where the low witness ends,
        when that cup and j outnumber j's own chain. So every high line
        ends a chain of the larger of its own and len(low.cup) + 1 lines,
        and the witness ends at the first with the most. With low and high
        the parts' censuses, that is line a, with low.cup + (a,), when
        len(low.cup) + 1 > len(high.cup), or when the two are equal and
        line a's own chain is shorter, that is high.cup[-1] != a; otherwise
        it is high.cup. A cap takes the keys descending: the low-high crossings come first,
        when every chain has one line, and each high line takes line a - 1,
        the first it meets. That adds one to every high chain, which
        changes no choice of the high part's own DP. So the cap is low.cap
        when len(low.cap) >= len(high.cap) + 1 and (a - 1,) + high.cap
        otherwise. Each low row gains hi - a crossings met by no other
        line of the row, so groups is the sum of the parts' groups plus
        (a - lo) * (hi - a) at groups[1]. first is kept only where a vertex
        has three or more lines, which low-high crossings never have: it
        is the least, by vertex_key, of the parts' firsts among the parts
        with the largest group, so that of the leaves' firsts among the
        leaves with the largest group. When no vertex has three lines, the
        first vertex is extreme, and the census reads it off the rim. Either
        way the least key wins, and height_key is read only among the
        candidates that tie on it (_first).

        The leaf pass. Keys strictly rise along a cup and fall along a cap:
        per line, the pass keeps the tail array of the longest increasing
        subsequence (Fredman 1975), O(n) keys per chain size (_extend),
        and a walk back over the tails gives the witness (_walk); caps
        take the negated keys. For lines h < i < j in slope order, (M_j -
        M_h) X_hj = (M_i - M_h) X_hi + (M_j - M_i) X_ij with positive
        weights, so X_hj lies strictly between X_hi and X_ij when they
        differ, as its key does between theirs. Dropping i from a chain
        through h, i, j leaves one at a lower key: each tail strictly
        rises. A vertex on k lines meets its k - 1 lowest lines in a key
        group each, of sizes k - 1 down to 1, so groups of size t count the
        vertices on more than t lines.

        The normal form. With (M_i, C_i), i = 0..k-1, the pairs of a leaf
        that is no pencil, in slope order, the pass reads the integer pairs
        m_i = (M_i - M_0) / g and c_i = ((C_i - C_0)(M_1 - M_0) - (M_i -
        M_0)(C_1 - C_0)) / h, g and h the positive gcds of the two columns
        and h = 1 when every c_i is 0 (_normal_form). They are the image of
        the pairs under a map (M, C) -> (aM + b, cC + dM + e) with a, c > 0,
        here a = 1/g and c = (M_1 - M_0)/h, and any such map multiplies the
        columns' differences from line 0 by a and by ac: every image of a
        leaf has its normal form, as the contracted copies of a base family
        do (contract). Such a map keeps the census. Slopes keep their order,
        since a > 0. X_ij = (C_j - C_i) / (M_i - M_j) becomes (c X_ij - d) /
        a, which rises with X_ij, so the keys keep their order and their
        ties. The height at X_ij times the common positive scale, M_i X_ij
        + C_i, becomes c times it plus an affine function of X_ij, so at one
        abscissa heights keep their order too, and so do Points. So the
        form's census, its lines numbered from 0, is the leaf's with lo
        added to every line (_leaf). Within one walk the census keeps each
        form's census in a dict by the form, so each form is read once: the
        15 measured leaves of the stored F(6,5,4), whose pairs have 297
        bits, are copies of 5 forms of at most 13 bits, and the 1,584 of
        the generated F(9,9,4) of 12 forms of at most 17 bits.

        The pass reads the form's keys at the form's own shift, 2^shift at
        least the square of its slope span m_(k-1), so that distinct
        crossings of the form have distinct keys, as the family's do at its
        shift: a key that a row repeats is one vertex, and lines that reach
        line j at one key meet it at one point.
        """
        return self._derived[0]

    @cached_property
    def join_parts(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(cap, cup): the longest cap of the root join's low part and the
        longest cup of its high part, as the census derived them, or None
        when the root is no join (joins)."""
        return self._derived[1]

    @cached_property
    def _derived(self):
        """(census, join_parts), from one walk down the join tree."""
        n = len(self.pairs)
        joins = self.joins
        lo, hi, low, high, joined = joins.lo, joins.hi, joins.low, joins.high, joins.joined
        # groups and the leaves' firsts, as (largest group, first), are
        # gathered over the whole tree; memo holds the census of each
        # normal form measured; chains holds the (cup, cap) of the
        # subtrees done, low under high; todo holds the nodes to do, and
        # ~g for node g once its parts are done
        groups, firsts, parts, memo = [0] * (n + 1), [], None, {}
        # a family of one line has no node
        todo, chains = ([], [((0,), (0,))]) if joins.root is None else ([joins.root], [])
        while todo:
            g = todo.pop()
            if g < 0:
                g = ~g
                a = g + 1
                # a part of one line is a subtree of none
                high_cup, high_cap = ((a,), (a,)) if high[g] is None else chains.pop()
                low_cup, low_cap = ((g,), (g,)) if low[g] is None else chains.pop()
                chains.append(_joined(low_cup, low_cap, high_cup, high_cap, a))
                groups[1] += (a - lo[g]) * (hi[g] - a)
                if g == joins.root:
                    parts = low_cap, high_cup
            elif joined[g]:
                todo += ~g, *(part for part in (high[g], low[g]) if part is not None)
            else:
                leaf = self._leaf(lo[g], hi[g], memo)
                chains.append((leaf.cup, leaf.cap))
                for t, c in leaf.groups.items():
                    groups[t] += c
                if leaf.first:
                    firsts.append((max(leaf.groups), leaf.first))
        top = max(firsts, default=(0,))[0]
        # with no three lines concurrent, the first vertex is extreme
        first = self._first([pair for t, pair in firsts if t == top] or self.rim)
        [(cup, cap)] = chains
        return Census(cup, cap, {t: c for t, c in enumerate(groups) if c}, first), parts

    @cached_property
    def joins(self) -> "Joins":
        """The join tree (Joins): the Cartesian tree of the slope gaps,
        largest at the root and the first of ties above the rest, built by
        one pass with a stack of the nodes whose range is still open. Node
        g is closed by the first gap past it that is larger, which ends its
        range, and the nodes it closes in turn are each the next one's high
        part, the last its low part. The largest key of steps under each
        node comes up with it, so each join test reads one key more."""
        n = len(self.pairs)
        steps = self.steps
        # gap g, the slope gap M_(g+1) - M_g of neighbours, is node g's
        ms = [m for m, _ in self.pairs]
        gaps = [*map(sub, ms[1:], ms)]
        lo, hi, low, high = [0] * (n - 1), [n] * (n - 1), [None] * (n - 1), [None] * (n - 1)
        joined = [True] * (n - 1)
        # below every key: the largest step under a single line
        floor = min(steps, default=0) - 1
        # (gap, node, its lo, the largest step under its low part)
        stack = []
        # a last gap past every other closes every node left open
        past = ms[-1] - ms[0] + 1
        for g, gap in enumerate(chain(gaps, (past,))):
            # the node closed last and the largest step under it
            part, part_top = None, floor
            while stack and stack[-1][0] < gap:
                _, x, first, low_top = stack.pop()
                high[x], hi[x] = part, g + 1
                inside = low_top if low_top > part_top else part_top
                # two single lines always pass
                if inside > floor:
                    joined[x] = in_join_order(self, first, g + 1, inside)
                part = x
                part_top = inside if inside > steps[x] else steps[x]
            if g < n - 1:
                low[g] = part
                lo[g] = first = stack[-1][1] + 1 if stack else 0
                stack.append((gap, g, first, part_top))
        return Joins(part, lo, hi, low, high, joined)

    @property
    def root_join(self) -> Optional[int]:
        """The line a that the root of the join tree splits the family
        before, when its join test holds, else None."""
        root = self.joins.root
        return None if root is None or not self.joins.joined[root] else root + 1

    def _leaf(self, lo: int, hi: int, memo: dict) -> Census:
        """The census of lines lo..hi-1, a leaf of the join tree: written
        down when they are a pencil, else their normal form's, measured
        once per form in memo, with lo added to every line (census)."""
        run = self.steps[lo : hi - 1]
        if run.count(run[0]) == len(run):
            # equal abscissae on shared lines are one point
            return Census((lo, lo + 1), (lo, lo + 1), dict.fromkeys(range(1, hi - lo), 1), (lo, lo + 1))
        form = _normal_form(self.pairs[lo:hi])
        census = memo.get(form)
        if census is None:
            census = memo[form] = IntegerView(1, form)._census()
        cup, cap, groups, first = census
        first = first and (lo + first[0], lo + first[1])
        return Census(tuple([lo + k for k in cup]), tuple([lo + k for k in cap]), groups, first)

    @cached_property
    def steps(self) -> List[int]:
        """The keys of the slope neighbours' crossings, key(i, i + 1) for
        each i < n - 1: the join test, the rim's keys and the cup and cap
        tests read them."""
        ms, cs = [m for m, _ in self.pairs], [c << self.shift for _, c in self.pairs]
        return [(c1 - c0) // (m0 - m1) for m0, m1, c0, c1 in zip(ms, ms[1:], cs, cs[1:])]

    def _census(self) -> Census:
        """The census of the view's lines read off their keys; first is None
        unless some vertex has three or more lines."""
        n = len(self.pairs)
        cups, caps = [[] for _ in range(n)], [[] for _ in range(n)]
        groups, top, tops = [0] * (n + 1), 1, []
        for i, row in enumerate(self.rows()):
            _extend(cups, i, row)
            _extend(caps, i, [*map(neg, row)])
            distinct = len(set(row))
            # most rows repeat no key, and a set is cheaper than counting
            if distinct == len(row):
                groups[1] += len(row)
                continue
            # the keys met more than once, each equal to the next when sorted
            ordered = sorted(row)
            repeated = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
            counts = {x: row.count(x) for x in repeated}
            groups[1] += distinct - len(counts)
            for c in counts.values():
                groups[c] += 1
            most = max(counts.values())
            if most > top:
                top, tops = most, []
            if most == top:
                # line i meets each point once: its least key comes first
                x = min(k for k, c in counts.items() if c == most)
                tops.append((i, i + 1 + row.index(x)))
        first = self._first(tops)
        groups = {t: c for t, c in enumerate(groups) if c}
        cup = _walk(cups, self.key)
        cap = _walk(caps, lambda h, j: -self.key(h, j))
        return Census(cup, cap, groups, first)

    def _first(self, pairs) -> Optional[Tuple[int, int]]:
        """The pair of pairs whose crossing comes first in Point order, or
        None if there is none."""
        keys = [self.key(*pair) for pair in pairs]
        least = min(keys, default=None)
        tied = [pair for pair, key in zip(pairs, keys) if key == least]
        if len(tied) < 2:
            return tied[0] if tied else None
        return min(tied, key=lambda pair: self.height_key(*pair))

    @cached_property
    def frame(self) -> Frame:
        """(lows, highs, tied): the crossings X_ij, i < j, by ascending key,
        stably, so equal keys keep their (i, j) order. Crossing p is of
        lines lows[p] < highs[p], and tied[p] says whether crossing p + 1
        has the same key.

        The keys are read off rows(), in (i, j) order, and freed once tied
        is read off them: the frame keeps only the order.
        """
        n = len(self.pairs)
        keys = [*chain.from_iterable(self.rows())]
        # positions of the crossings in (i, j) order, sorted by key
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # each key against the next; the last with None, which no key equals
        ks = map(keys.__getitem__, order)
        after = chain(map(keys.__getitem__, islice(order, 1, None)), [None])
        tied = [*map(eq, ks, after)]
        # the keys, held by both iterators too, go before the lines are read
        del keys, ks, after
        # each line is one int object, shared by all of its crossings
        lines = list(range(n))
        lows = [*map([i for i in lines for _ in range(i + 1, n)].__getitem__, order)]
        highs = [*map([j for i in lines for j in lines[i + 1 :]].__getitem__, order)]
        return lows, highs, tied

    def vertex(self, i: int, j: int) -> Point:
        """The crossing of lines i and j as a Point."""
        (mi, ci), (mj, cj) = self.pairs[i], self.pairs[j]
        den = mi - mj
        return Point(Fraction(cj - ci, den), Fraction(mi * cj - mj * ci, den * self.scale))

    def height_key(self, i: int, j: int) -> int:
        """The key of the crossing's height times scale, which has the same
        denominator mi - mj as X_ij, so its floor key is exact the same way."""
        (mi, ci), (mj, cj) = self.pairs[i], self.pairs[j]
        return ((mi * cj - mj * ci) << self.shift) // (mi - mj)

    def vertex_key(self, i: int, j: int) -> Tuple[int, int]:
        """Integer key that orders crossings as their Points order."""
        return self.key(i, j), self.height_key(i, j)

    @cached_property
    def rim(self) -> Tuple[Tuple[int, int], ...]:
        """Slope neighbours (i, i + 1) and, once n > 2, the wrap pair
        (0, n - 1): every vertex extreme in some direction is a crossing of
        one of these n pairs (Atallah, J. Algorithms 1986).

        Beyond its last vertex in any direction, the lines run in cyclic
        slope order. A line whose slope lies between those of two lines
        meeting at an extreme vertex must pass through that vertex, or it
        would cross one of them beyond it. The wrap pair is needed: the
        lowest vertex of y = -2x, y = -x + 5, y = x + 5 and y = 2x is
        (0, 0), where only lines 0 and 3 cross.
        """
        n = len(self.pairs)
        wrap = ((0, n - 1),) if n > 2 else ()
        return tuple((i, i + 1) for i in range(n - 1)) + wrap

    @cached_property
    def key_sentinel(self) -> int:
        """max |key| + 1, an integer past every crossing key; the keys
        keep the abscissa order, so the largest |key| is at a rim pair:
        a slope neighbours' (steps) or the wrap pair's."""
        n = len(self.pairs)
        wrap = [self.key(0, n - 1)] if n > 2 else []
        return max(map(abs, self.steps + wrap), default=0) + 1


def _joined(low_cup, low_cap, high_cup, high_cap, a: int):
    """The (cup, cap) of a join, from its low part's, of the lines before
    line a, and its high part's (IntegerView.census)."""
    gain = len(low_cup) + 1 - len(high_cup)
    if gain > 0 or (gain == 0 and high_cup[-1] != a):
        cup = low_cup + (a,)
    else:
        cup = high_cup
    cap = low_cap if len(low_cap) >= len(high_cap) + 1 else (a - 1,) + high_cap
    return cup, cap


def in_join_order(view: IntegerView, lo: int, hi: int, inside: int) -> bool:
    """The join test on lines lo..hi-1 of view, in slope order, split in
    two parts that are not both single lines, given inside, the largest
    key of view.steps inside the parts: each part rises in slope order at
    X0, where lines lo and hi-1 cross. Two lines stand in slope order at
    X0 just when they cross strictly left of it, so a part rises there
    just when each crossing of slope neighbours inside it does: the test
    is one key, X0's, against inside.

    It holds just when every crossing inside a part lies strictly left of
    every crossing of a low and a high line, since X0 is a low-high
    crossing. Conversely, if each part rises at X0, then at the
    rightmost crossing x* inside a part, x* < X0, line lo is the lowest
    low line and line hi-1 the highest high one, and hi-1 is below lo:
    every high line is below every low line, so no low-high pair has
    crossed before X0. Each node of the join tree holds this test
    (IntegerView.joins), which the census derives a family's joins by,
    and find_unbounded_cell and the convex search read the root's;
    construct_F certifies each of its joins by it, at the split between
    its two bundles.
    """
    return inside < view.key(lo, hi - 1)


def _normal_form(pairs) -> Tuple[Tuple[int, int], ...]:
    """The pairs (M_i, C_i), i >= 0, of two or more lines in slope order,
    sent to (m_i, c_i) = ((M_i - M_0) / g, ((C_i - C_0)(M_1 - M_0) - (M_i -
    M_0)(C_1 - C_0)) / h) for g and h the gcds of the two columns, h = 1
    when every c_i is 0: the same pairs for every image of them under a
    map (M, C) -> (aM + b, cC + dM + e), a, c > 0 (IntegerView.census)."""
    (m0, c0), (m1, c1) = pairs[0], pairs[1]
    dm, dc = m1 - m0, c1 - c0
    ms = [m - m0 for m, _ in pairs]
    cs = [(c - c0) * dm - m * dc for m, (_, c) in zip(ms, pairs)]
    g, h = gcd(*ms), gcd(*cs) or 1
    return tuple([(m // g, c // h) for m, c in zip(ms, cs)])


def crossing_key(pi: Tuple[int, int], pj: Tuple[int, int], shift: int) -> int:
    """The key at 2^shift of the crossing of lines (M, C) = pi, pj (IntegerView.key)."""
    (mi, ci), (mj, cj) = pi, pj
    return ((cj - ci) << shift) // (mi - mj)


def _shift(m_lo: int, m_hi: int) -> int:
    """A shift with 2^shift >= D^2 for the slope span D = m_hi - m_lo:
    crossing keys at it are exact on lines whose slopes lie in the span."""
    return 2 * (m_hi - m_lo).bit_length()


def _rows(pairs, shift: int) -> Iterator[List[int]]:
    """Row i of the keys at 2^shift of the crossings of pairs, for each i."""
    ms = [m for m, _ in pairs]
    cs = [c << shift for _, c in pairs]
    for i, (mi, ci) in enumerate(zip(ms, cs)):
        yield [(cj - ci) // (mi - mj) for mj, cj in zip(ms[i + 1 :], cs[i + 1 :])]


def _extend(keys, i: int, row: List[int]) -> None:
    """Extend the chains ending at line i by each line j > i, X_ij in row:
    keys[j][s] is the least last key X_hj of a chain of s + 2 lines.
    A chain of s + 1 lines ends at i below X_ij, s = bisect_left(keys[i],
    X_ij); without i, by census's identity, it ends at j below X_ij, so
    keys[j] holds s keys below X_ij, and X_ij lengthens it or lowers
    keys[j][s]."""
    tail = keys[i]
    for t, x in zip(islice(keys, i + 1, None), row):
        s = bisect_left(tail, x)
        if s == len(t):
            t.append(x)
        elif x < t[s]:
            t[s] = x


def _walk(keys, key) -> Tuple[int, ...]:
    """The longest chain, in slope order, that _extend left, key(h, j)
    the key of X_hj that the tails hold: the first line j with a longest
    tail, then from keys[j][s] = x to the least h < j that reached j at
    size s with key x, key(h, j) == x and bisect_left(keys[h], x) == s.
    The tail entry is the least key of the lines that reach j at size s
    (census), and rows run in order and equal keys never replace, so the
    first of them set it: this is the witness of the DP that takes the
    crossings by key (oracles.tuple_sort_chain)."""
    j = max(range(len(keys)), key=lambda j: len(keys[j]))
    out = [j]
    for s in reversed(range(len(keys[j]))):
        x = keys[j][s]
        j = next(h for h in range(j) if key(h, j) == x and bisect_left(keys[h], x) == s)
        out.append(j)
    return tuple(reversed(out))
