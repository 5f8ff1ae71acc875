"""Shared helpers: seeded random families and independent oracles.

The oracles deliberately avoid the code paths they are used to check:
chain maxima come from exhaustive subset scans through the cross-product
is_cup/is_cap references in oracles.py, and concurrency comes from counting
collinear dual points.
"""

import itertools
import random
from fractions import Fraction

from linecells import Line, LineFamily, Point, constructions, max_concurrency

from oracles import is_cap, is_cup, orientation, side_of


def random_family(rng, min_lines=2, max_lines=8, span=9, denom=5, simple=False):
    """Family with distinct small-rational slopes; simple=True rejects any
    third line through an existing intersection point."""
    n = rng.randint(min_lines, max_lines)
    while True:
        seen = set()
        lines = []
        while len(lines) < n:
            m = Fraction(rng.randint(-span, span), rng.randint(1, denom))
            if m in seen:
                continue
            seen.add(m)
            c = Fraction(rng.randint(-span, span), rng.randint(1, denom))
            lines.append(Line(m, c))
        family = LineFamily(tuple(lines))
        if simple and n >= 3 and max_concurrency(family).max_count > 2:
            continue
        return family


def subfamily(family, indices):
    return LineFamily(tuple(family[i] for i in indices))


def brute_longest(family, predicate):
    """Largest subset size passing predicate (is_cup or is_cap), scanning
    sizes upward; cups and caps are hereditary so a size with no hit ends
    the scan."""
    best = 1
    for size in range(2, len(family) + 1):
        hit = False
        for combo in itertools.combinations(range(len(family)), size):
            if predicate(subfamily(family, combo)):
                hit = True
                break
        if not hit:
            return best
        best = size
    return best


def brute_longest_cup(family):
    return brute_longest(family, is_cup)


def brute_longest_cap(family):
    return brute_longest(family, is_cap)


def max_collinear_duals(family):
    """Largest number of collinear dual points, the concurrency oracle."""
    pts = [Point(line.m, line.c) for line in family]
    if len(pts) <= 2:
        return len(pts)
    best = 2
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            count = 2
            for k in range(j + 1, len(pts)):
                if orientation(pts[i], pts[j], pts[k]) == 0:
                    count += 1
            best = max(best, count)
    return best


def signs_at(family, point):
    """Sign vector of a point, or None if it sits on some line."""
    out = []
    for line in family:
        s = side_of(line, point)
        if s == 0:
            return None
        out.append(s)
    return tuple(out)


def random_point(rng, span=40, denom=7):
    return (
        Fraction(rng.randint(-span * denom, span * denom), denom),
        Fraction(rng.randint(-span * denom, span * denom), denom),
    )


def shift_high_bundles(monkeypatch, dx):
    """Patch constructions.contract so that every bundle contracted onto
    the high carrier y = 2x + 2 of F(p, q, l) built level by level
    (oracles.construct_F_by_levels) moves left by the integer dx: each of
    its lines y = m*x + c becomes y = m*(x + dx) + c."""
    contract = constructions.contract

    def shifted(family, a, eps):
        bundle = contract(family, a, eps)
        if a != Line(2, 2):
            return bundle
        return LineFamily.from_pairs(bundle.scale, [(m, c + dx * m) for m, c in bundle.pairs])

    monkeypatch.setattr(constructions, "contract", shifted)
