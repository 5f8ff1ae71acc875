"""Generators for the extremal families, built in integers.

The pieces fit together in three layers. construct_base places pencils of
l-1 nearly parallel lines at points (h, h^2) along the standard parabola,
slopes spread tightly around the tangent slope 2h; pencils contribute cup
links without ever forming a 3-cap, and concurrency tops out at the pencil
size. contract squeezes a whole family into a thin bundle that stands in
for a single line a: an affine map sends every slope into (a.m - eps,
a.m + eps) and gathers all internal intersections into a tiny disk below
the x-axis. The recursive and scaffold builders then replace each line of
a small arrangement by a contracted copy of a smaller family. Every layer
works on integer pairs (LineFamily.from_pairs): the base families and
figure10_family write theirs over one denominator, and contract takes its
squeeze exponent from integer comparisons, so no Line is built and no
Fraction is made per line or per level.

contract, the reflections and the shear preserve sign vectors exactly, so
nothing they build is re-checked. Each public generator instead certifies
its result once, through _certify, by measuring what no proof covers and
proving the rest from tests it runs:

- construct_base measures its concurrency, cup and cap lengths and its
  right-unbounded 4-cells (find_unbounded_cell derives these where the
  root is a join); construct_base_caps is its mirror.
- construct_F measures nothing: a test at each join, that each part is in
  slope order where the outermost two lines cross (in_join_order), proves
  the join's cup, cap and concurrency from its parts' and bounds its right
  staircases by three lines. It reads three keys of lines that each join
  carries, and the family is emitted once, through composed integer maps.
- The thm12 scaffold compares its two halves' roots, which proves its
  concurrency 2 (_thm12_scaffold); the prop32 scaffold is a recursive
  family moved by maps that keep sign vectors.
- Each assembly and figure10_family measure their concurrency and run
  the no-n-convex check (verify.find_n_convex).

No check is ever skipped; the first that fails raises ConstructionError
naming the generator, the check, the measured value and the bound. So
construct_thm12(l, n) for n >= 7 and construct_prop32(3, 4, parity),
whose assemblies have n lines in convex position, raise.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

from .arrangement import max_concurrency  # noqa: F401, bench/tracing.py wraps this name
from .chains import has_k_cell_unbounded, longest_cap, longest_cup
from .errors import ConstructionError, ParameterRangeError, at_least
from .geometry import Line, LineFamily, Point, Rat, _as_rat, _shift, crossing_key, format_rat
from .geometry import parse_rat
from .verify import find_n_convex, lower_bound_value


def _positive_rat(value, name: str) -> Rat:
    value = _as_rat(value)
    if value <= 0:
        raise ParameterRangeError(f"{name} must be positive: {value}")
    return value


def _thm12_kind(n: int) -> str:
    return f"thm12_{'even' if n % 2 == 0 else 'odd'}"


_RELATIONS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, "is": operator.is_}


def _certify(generator: str, family: LineFamily, checks) -> LineFamily:
    """Return family once every check holds.

    checks are (name, measure, relation, bound) tuples, run in order; the
    first whose measure(family) does not stand in relation to bound stops
    the run with a ConstructionError naming the generator, the check, the
    measured value and the bound.
    """
    for name, measure, relation, bound in checks:
        value = measure(family)
        if not _RELATIONS[relation](value, bound):
            want = "none" if bound is None else f"{relation} {bound}"
            raise ConstructionError(
                f"{generator} fails its {name} check: found {value}, want {want}"
            )
    return family


def _concurrency(relation: str, bound: int):
    return ("concurrency", lambda fam: max(fam.view.census.groups, default=0) + 1, relation, bound)


def _no_convex(n: int):
    """No n lines in convex position; a failure names the first witness."""

    def witness(family: LineFamily):
        return find_n_convex(family, n) if n <= len(family) else None

    return (f"no {n} in convex position", witness, "is", None)


def pencil(apex: Point, count: int, slopes: Sequence) -> LineFamily:
    """count concurrent lines through apex with the given distinct slopes.

    A primitive like contract: it writes no provenance. Only the pencil
    recipe of ConstructionSpec, apex (0, -1) and slopes 1..n, does."""
    slopes = tuple(_as_rat(s) for s in slopes)
    if count != len(slopes):
        raise ParameterRangeError(f"count {count} != number of slopes {len(slopes)}")
    at_least("count", count, 1)
    if not isinstance(apex, Point):
        apex = Point(*apex)
    return LineFamily(tuple(Line(m, apex.y - m * apex.x) for m in slopes))


def reflect_y(family: LineFamily) -> LineFamily:
    """Mirror through the y-axis: y = mx + c maps to y = -mx + c.

    Cups stay cups and caps stay caps; cells unbounded to the right map to
    cells unbounded to the left and vice versa.
    """
    return LineFamily.from_pairs(family.scale, [(-m, c) for m, c in reversed(family.pairs)])


def reflect_x(family: LineFamily) -> LineFamily:
    """Mirror through the x-axis: y = mx + c maps to y = -mx - c.

    Cups and caps swap; left/right unboundedness is preserved.
    """
    return LineFamily.from_pairs(family.scale, [(-m, -c) for m, c in reversed(family.pairs)])


def contract(family: LineFamily, a: Line, eps) -> LineFamily:
    """Squeeze family into a bundle that replaces the line a.

    The result G has all slopes in (a.m - eps, a.m + eps), every pairwise
    intersection of G below the x-axis, and all those intersections inside
    a disk of diameter at most eps. G is the image of family under
    (x, y) -> (t*x + px, t^2*y + mu*t*x + py), mu = a.m, py < 0, whose
    determinant t^3 > 0 keeps up and right: sign vectors, cups, caps,
    concurrency and left/right unbounded cells are preserved exactly.

    With |x| <= X and |y| <= Y at every vertex and R = (1 + |mu|)X + Y,
    t is the largest power of two at most 1, eps/(2(1 + max|m|)),
    -py/(2(1 + R)) and eps/(2(1 + R)). Then slopes move by less than eps,
    image vertices lie at heights at most tR + py < 0, and their bounding
    box is at most 2tX wide and 2t(Y + |mu|X) tall, so its diagonal is
    below 2tR < eps.

    All of it is integer. With the pairs (M_i, C_i) over s, M* and C* the
    largest |M_i| and |C_i|, X = K/2^h (the view's key_sentinel and shift),
    Y <= (M*X + C*)/s and mu = mn/md, 1 + R <= Q/(md*s*2^h) for Q =
    md*s*2^h + (md*s + |mn|*s + M*md)K + C*md*2^h. So t = 2^-k for the
    least k >= 0 with s*eps*2^k >= 2(s + M*) and md*s*2^h*e*2^k >= 2Q,
    e = min(-py, eps), each read off bit lengths (_clog).
    """
    eps = _positive_rat(eps, "eps")
    return _contract(family, a.m.as_integer_ratio(), a.c.as_integer_ratio(), eps.as_integer_ratio())


def _clog(a: int, b: int) -> int:
    """The least k >= 0 with b * 2^k >= a, for b > 0, read off bit lengths."""
    k = max(0, a.bit_length() - b.bit_length())
    return k + ((b << k) < a)


def _reach(family: LineFamily):
    """What _squeeze reads of family: scale, largest |M| and |C|, shift, key_sentinel."""
    pairs, view = family.pairs, family.view
    big_m = max(abs(pairs[0][0]), abs(pairs[-1][0]))
    return family.scale, big_m, max([abs(c) for _, c in pairs]), view.shift, view.key_sentinel


def _squeeze(part, mu, nu, eps):
    """contract's map of part, a family or a _Node, onto y = mu*x + nu, for
    mu, nu and eps as integer ratios (numerator, positive denominator): (den,
    a, b, c, d, e) sends (M, C) over part's scale to (aM + b, cM + dC + e)."""
    (mn, md), (nn, nd), (en, ed) = mu, nu, eps
    # the anchor (px, py) = (xn/xd, yn/yd), xd, yd > 0: where the carrier
    # meets y = -1, or a flat one below the axis x = 0, else (0, -1)
    xn, xd, yn, yd = 0, 1, -1, 1
    if mn:
        xn, xd = (nd + nn) * md * (-1 if mn > 0 else 1), nd * abs(mn)
    elif nn < 0:
        yn, yd = nn, nd
    s, big_m, big_c, h, far = part.reach if isinstance(part, _Node) else _reach(part)
    e_n, e_d = (-yn, yd) if -yn * ed < en * yd else (en, ed)
    reach = (md * (s + big_c) << h) + (md * (s + big_m) + abs(mn) * s) * far
    k = max(_clog(2 * (s + big_m) * ed, s * en), _clog(2 * reach * e_d, (md * s << h) * e_n))
    # with t = 1/2^k, the line y = (M*x + C)/s maps to m' = mu + M/(s*2^k)
    # and c' = C/(s*4^k) + py - m'*px, both over md*xd*yd*s*4^k
    m_base, m_step = mn * s << k, xd * yd << k
    c_mul, c_step = md * xd * yd, xn * yd << k
    c_base = (yn * md * xd * s << 2 * k) - m_base * c_step
    return c_mul * s << 2 * k, md * m_step, m_base * m_step, -md * c_step, c_mul, c_base


def _contract(family: LineFamily, mu, nu, eps) -> LineFamily:
    """contract onto y = mu*x + nu for mu, nu and eps as integer ratios."""
    den, a, b, c, d, e = _squeeze(family, mu, nu, eps)
    return LineFamily.from_pairs(den, [(a * m + b, c * m + d * y + e) for m, y in family.pairs])


def construct_base(p: int, l: int, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent, no (p+1)-cup, no 3-cap and no 4-cell
    unbounded to the right. Size (l-1)p/2 for even p, (l-1)(p-1)/2 + 1 odd.

    floor(p/2) pencils sit at (h, h^2) with slopes packed around 2h; two
    lines of one pencil followed by two of the next always turn downward,
    so pencils chain into cups but never into caps. For odd p one extra
    line tangent to the parabola at (m, m^2) extends the longest cup by
    one: it outslopes every pencil and passes below the last apex.

    The spread delta is at most 1/(l-1), so delta*(l-2) < 1 and the slope
    windows of two pencils, 2 apart, never touch. The family is built once
    and certified to have concurrency exactly l-1 and longest cup exactly p.
    """
    spec = ConstructionSpec("base_pq2", p=p, l=l, epsilon_scale=epsilon_scale)
    clusters = p // 2
    delta = min(spec.epsilon_scale / (4 * (l - 1) * (clusters + 1)), Fraction(1, l - 1))
    dn, dd = delta.as_integer_ratio()
    # over 2dd, pencil line j at h has slope M = 4h*dd + dn(2j - l + 2)
    # and passes through (h, h^2)
    slopes = [(h, 4 * h * dd + dn * (2 * j - l + 2)) for h in range(clusters) for j in range(l - 1)]
    pairs = [(m, 2 * dd * h * h - h * m) for h, m in slopes]
    if p % 2 == 1:
        pairs.append((4 * clusters * dd, -2 * dd * clusters * clusters))
    checks = (
        _concurrency("==", l - 1),
        ("longest cup", lambda fam: longest_cup(fam).size, "==", p),
        ("longest cap", lambda fam: longest_cap(fam).size, "<=", 2),
        ("right-unbounded 4-cell", lambda fam: has_k_cell_unbounded(fam, 4, "right"), "==", False),
    )
    fam = _certify(f"construct_base({p}, {l})", LineFamily.from_pairs(2 * dd, pairs), checks)
    return fam.with_meta(provenance=spec.provenance())


def construct_base_caps(q: int, l: int, epsilon_scale=1) -> LineFamily:
    """Mirror base: no l concurrent, no 3-cup, no (q+1)-cap, no 4-cell
    unbounded to the right. reflect_x swaps the certified base's cups and
    caps and keeps its left/right unboundedness, so nothing is re-checked."""
    spec = ConstructionSpec("base_2q", q=q, l=l, epsilon_scale=epsilon_scale)
    fam = reflect_x(construct_base(q, l, spec.epsilon_scale))
    return fam.with_meta(provenance=spec.provenance())


# construct_F's node of a family: reach, what _squeeze reads (_reach); lines,
# its lines 0 and n - 1 and the slope neighbours crossing leftmost and then
# rightmost; basis, (u, d) for u and (0, d) spanning its pairs' differences;
# parts, a leaf's family, else (node, map) for its low and high part, the map
# (a, b, c, d, e, k) taking (M, C) to ((aM + b)/2^k, (cM + dC + e)/2^k)
_Node = namedtuple("_Node", "reach lines basis parts")
Memo = Dict[Tuple[int, int, int], _Node]

# F(p, q, l)'s carriers y = x + 2 and y = 2x + 2, as (slope, intercept) ratios
_F_CARRIERS = (((1, 1), (2, 1)), ((2, 1), (2, 1)))


def _join(*families: LineFamily) -> LineFamily:
    """The lines of families, whose slopes rise from one to the next, as
    one family: their pairs rescaled to the lcm of their scales."""
    scale = lcm(*(fam.scale for fam in families))
    pairs = []
    for fam in families:
        k = scale // fam.scale
        pairs.extend((m * k, c * k) for m, c in fam.pairs)
    return LineFamily.from_pairs(scale, pairs)


def _span(basis, vector):
    """(u, d) for u and (0, d) spanning the lattice of basis and vector."""
    ((a, b), d), (x, y) = basis, vector
    while x:
        q = a // x
        (a, b), (x, y) = (x, y), (a - q * x, b - q * y)
    d = gcd(d, y)
    return (a, b % d if d else b), d


def _leaf(family: LineFamily) -> _Node:
    pairs, steps = family.pairs, family.view.steps
    i, j = (steps.index(f(steps)) if steps else 0 for f in (min, max))
    basis = reduce(_span, [(m - pairs[0][0], c - pairs[0][1]) for m, c in pairs], ((0, 0), 0))
    lines = (pairs[0], pairs[-1], *pairs[i : i + 2], *pairs[j : j + 2])
    return _Node(_reach(family), lines, basis, family)


def _join_node(name: str, low: _Node, high: _Node, eps) -> _Node:
    """low and high contracted, joined and certified by its join test (construct_F)."""
    squeezed = []
    for part, (mu, nu) in zip((low, high), _F_CARRIERS):
        den, a, b, c, d, e = _squeeze(part, mu, nu, eps)
        (u, v), w = part.basis
        # the images of the lines, then of the basis: with line 0's, these span all
        image = [(a * m + b, c * m + d * y + e) for m, y in part.lines]
        image += [(a * u, c * u + d * v), (0, d * w)]
        g = gcd(den, *image[0], *image[-2], *image[-1])
        squeezed.append((part, den // g, g, (a, b, c, d, e), image))
    scale = lcm(squeezed[0][1], squeezed[1][1])
    parts, images = [], []
    for part, s, g, coef, image in squeezed:
        r = scale // s
        parts.append((part, (*[x * r for x in coef], g.bit_length() - 1)))
        images.append([(m // g * r, y // g * r) for m, y in image])
    (first, below, *lo), (above, last, *hi) = images
    wrap, top, h = (first, last), (below, above), _shift(first[0], last[0])
    keys = [crossing_key(*pair, h) for pair in (wrap, top, lo[:2], lo[2:4], hi[2:4])]
    _certify(name, max(keys[3:]) < keys[0], (("join order", bool, "is", True),))
    far = max(map(abs, keys[:3])) + 1
    reach = (scale, max(abs(first[0]), abs(last[0])), max(abs(y) for _, y in (*wrap, *top)), h, far)
    cross = (above[0] - first[0], above[1] - first[1])
    basis = reduce(_span, [*lo[4:], *hi[4:], cross], ((0, 0), 0))
    return _Node(reach, (*wrap, *lo[:2], *top), basis, tuple(parts))


def _emit(root: _Node) -> LineFamily:
    """root's family: each leaf's pairs under the maps composed down to it."""
    pairs, todo = [], [(root, (1, 0, 0, 1, 0, 0))]
    while todo:
        node, (a, b, c, d, e, k) = todo.pop()
        if isinstance(node.parts, LineFamily):
            pairs += [((a * m + b) >> k, (c * m + d * y + e) >> k) for m, y in node.parts.pairs]
            continue
        # the high part is pushed first, so the low lines come out first
        for part, (a2, b2, c2, d2, e2, k2) in reversed(node.parts):
            ab = (a * a2, a * b2 + (b << k2), c * a2 + d * c2, d * d2, c * b2 + d * e2 + (e << k2))
            todo.append((part, (*ab, k + k2)))
    return LineFamily.from_pairs(root.reach[0], pairs)


def _construct_F(p: int, q: int, l: int, scale: Rat, memo: Memo) -> LineFamily:
    """The (p, q, l) recursive family, certified by its joins (construct_F);
    memo holds the nodes one generator call has built at this scale."""
    # slope windows of half-width at most 1/4 around 1 and 2 stay disjoint
    eps = (min(scale, Fraction(1)) / 4).as_integer_ratio()

    def build(p: int, q: int) -> _Node:
        if (p, q, l) in memo:
            return memo[p, q, l]
        # p == 1 or q == 1 collapses to a single line: two lines already
        # form both a 2-cup and a 2-cap
        if p == 1 or q == 1:
            node = _leaf(LineFamily.from_pairs(1, ((1, 0),)))
        elif q == 2:
            node = _leaf(construct_base(p, l, scale))
        elif p == 2:
            node = _leaf(reflect_x(build(q, 2).parts))
        else:
            node = _join_node(f"F({p}, {q}, {l})", build(p - 1, q), build(p, q - 1), eps)
        memo[p, q, l] = node
        return node

    return _emit(build(p, q))


def construct_F(p: int, q: int, l: int, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent, no (p+1)-cup, no (q+1)-cap and no
    4-cell unbounded to the right.

    The carriers y = x + 2 and y = 2x + 2 are replaced by contracted copies of
    the (p-1, q) and the (p, q-1) family, whose vertices contract puts near
    (-3, -1) and (-3/2, -1), left of the carriers' crossing (0, 2). With the a
    low lines first in slope order and X0 where lines 0 and n-1 cross, each
    join checks that each part is in slope order at X0, just when every
    crossing inside a part lies strictly left of every low-high crossing
    (geometry.in_join_order). Crossings rise along a cup, so it takes at most
    one high line after low ones, and a cap at most one low line before high
    ones; no three lines meet at a low-high crossing. Hence the cup is
    max(cup_low + 1, cup_high), the cap max(cap_low, cap_high + 1) and the
    concurrency max(conc_low, conc_high, 2).

    The same order bounds the right staircases, whatever the two parts.
    Staircase r lies above line 0 and below line n-1, so right of X0, where
    each part is in slope order and the envelope of a run of one part is one
    line: it is bounded by at most lines r-1, r and a-1 (r > a) or a (r < a).
    By induction from the certified base families (for p = 2 their mirror,
    which keeps left and right), F(p, q, l) has no right-unbounded 4-cell and
    nothing is left to measure; verify derives its right check for k >= 4 the
    same way (chains.find_unbounded_cell).

    Each level is built once, as a node (_Node) of what the next reads, and
    each base line's composed map, integers over a power of two, is applied
    once (_emit). A join's scale is the lcm of its parts': a prime dividing
    every rescaled pair would divide a reduced part. Contraction sends X to
    tX + px, |tX| < eps/2 <= 1/8, keeping the order of a part's steps, so a join's
    largest step is its bridge (a-1, a) and its least the low part's (near -3,
    the high part's near -3/2): its test compares three keys, and key_sentinel
    is read off its least step, bridge and wrap pair. A contracted part's
    intercepts rise with slope, c' = t^2 y(-px/t) + const with -px/t right of
    every vertex, so the largest |C| is at line 0, a-1, a or n-1. A contraction
    divides out the gcd of den and the images of line 0 and of the pairs'
    difference basis, which span every image: a power of two, as an odd prime
    dividing them divides s, every M and every C (either carrier's map).
    """
    spec = ConstructionSpec("recursive_pq", p=p, q=q, l=l, epsilon_scale=epsilon_scale)
    fam = _construct_F(p, q, l, spec.epsilon_scale, {})
    return fam.with_meta(provenance=spec.provenance())


def _lift(family: LineFamily) -> LineFamily:
    """Translate family up by a whole number so every vertex sits at
    height 1 or more, reading the lowest height off the rim's keys."""
    view = family.view
    low = min((view.height_key(i, j) for i, j in view.rim), default=0)
    up = (1 - low // (view.scale << view.shift)) * family.scale
    return LineFamily.from_pairs(family.scale, [(m, c + up) for m, c in family.pairs])


def _shear_lift(family: LineFamily) -> LineFamily:
    """Shear slopes positive and then translate all vertices above the axis.

    The shear (x, y) -> (x, y + Mx) adds M to every slope and leaves each
    point's side of each line unchanged, so cells, cups, caps, concurrency
    and left/right unboundedness all survive; the lift is a translation.
    """
    shear = family.scale - family.pairs[0][0]  # the lowest slope moves to 1
    return _lift(LineFamily.from_pairs(family.scale, [(m + shear, c) for m, c in family.pairs]))


def _assemble(scaffold: LineFamily, pieces, eps0: Rat) -> LineFamily:
    """Replace scaffold line i by a contracted copy of pieces[i], keeping
    slope windows disjoint. The assembly is not yet certified: its
    generator runs its concurrency and no-n-convex checks."""
    s, pairs = scaffold.scale, scaffold.pairs
    ms = [m for m, _ in pairs]
    # the windows stay apart, and each on its carrier's side of zero
    gaps = (Fraction(b - a, 4 * s) for a, b in zip(ms, ms[1:]))
    eps = min(eps0, Fraction(min(map(abs, ms)), 2 * s), *gaps).as_integer_ratio()
    parts = (_contract(f, (m, s), (c, s), eps) for f, (m, c) in zip(pieces, pairs))
    return _join(*parts)


def _prop32_scaffold(k: int, scale: Rat, memo: Memo) -> LineFamily:
    """Positive-slope copy of the (k, k) triple-free family with all
    intersections above the axis and no 4-cell unbounded to the left.

    The (k, k, 3) family has no right-unbounded 4-cell (construct_F's
    proof), reflect_y makes that a missing left-unbounded one, and the
    shear and the lift keep sign vectors, so nothing here is measured."""
    return _shear_lift(reflect_y(_construct_F(k, k, 3, scale, memo)))


def construct_prop32(l: int, k: int, parity: str, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent lines and no n = 2k+2 (even) or 2k+1
    (odd) lines in convex position.

    Every unbounded n-cell of the scaffold opens to the right, and a
    right-opening cell survives replacing lines by bundles only if it was
    already bounded by too many lines; bounded n-cells die because each
    bundle is collapsed far below the scaffold's vertices.
    """
    spec = ConstructionSpec(f"prop32_{parity}", l=l, k=k, epsilon_scale=epsilon_scale)
    scale = spec.epsilon_scale
    memo: Memo = {}
    scaffold = _prop32_scaffold(k, scale, memo)
    big = _construct_F(k, k, l, scale, memo)
    if parity == "even":
        n = 2 * k + 2
        pieces = [big] * len(scaffold)
    else:
        n = 2 * k + 1
        pieces = [big] + [_construct_F(k - 1, k, l, scale, memo)] * (len(scaffold) - 1)
    fam = _certify(
        f"construct_prop32({l}, {k}, {parity!r})",
        _assemble(scaffold, pieces, scale / 4),
        (_concurrency("<=", l - 1), _no_convex(n)),
    )
    return fam.with_meta(provenance=spec.provenance())


def _thm12_scaffold(k: int, scale: Rat, memo: Memo) -> LineFamily:
    """Two mirrored copies of the (k, k) triple-free family, one bundled
    around slope -1 and one around +1, every intersection above the axis.

    contract puts each half's internal vertices below the axis, and the
    root test checks that every cross vertex lies above it: falling line i
    and rising line j cross above the axis exactly when j's root -C_j/M_j
    lies left of i's root -C_i/M_i, compared by cross-multiplying. Two of
    any three lines through a point share a half, so the point lies below
    the axis, where no cross vertex lies: all its lines come from one
    half. The scaffold's concurrency is then its halves', that of the
    (k, k, 3) family: 2 (construct_F's proof).
    """
    core = _construct_F(k, k, 3, scale, memo)
    eps = Fraction(1, 8)
    rising = contract(core, Line(Fraction(1), Fraction(4)), eps)
    falling = contract(reflect_y(core), Line(Fraction(-1), Fraction(4)), eps)
    half = len(falling)

    def crossed(fam: LineFamily) -> bool:
        # the largest -C/|M| of each half, by cross-multiplying: the
        # rightmost rising root and minus the leftmost falling root
        (an, ad), (bn, bd) = (
            reduce(lambda a, b: b if b[0] * a[1] > a[0] * b[1] else a, [(-c, abs(m)) for m, c in part])
            for part in (fam.pairs[half:], fam.pairs[:half])
        )
        return an * bd + bn * ad >= 0

    fam = _certify(
        f"double scaffold for k={k}",
        _join(falling, rising),
        (("cross vertices below the axis", crossed, "is", False),),
    )
    return _lift(reflect_x(fam))


def construct_thm12(l: int, n: int, epsilon_scale=1) -> LineFamily:
    """Family of at least lower_bound_value(l, n) lines, fewer than l
    concurrent, with no n lines in convex position."""
    spec = ConstructionSpec(_thm12_kind(n), l=l, n=n, epsilon_scale=epsilon_scale)
    scale = spec.epsilon_scale
    k = (n - 1) // 2
    memo: Memo = {}
    scaffold = _thm12_scaffold(k, scale, memo)
    half = len(scaffold) // 2
    big = _construct_F(k, k, l, scale, memo)
    big_mirror = reflect_y(big)
    if n % 2 == 0:
        pieces = [big_mirror] * half + [big] * half
    else:
        small = _construct_F(k - 1, k, l, scale, memo)
        small_mirror = reflect_y(small)
        pieces = [big_mirror] + [small_mirror] * (half - 1)
        pieces += [big] + [small] * (half - 1)
    fam = _certify(
        f"construct_thm12({l}, {n})",
        _assemble(scaffold, pieces, scale / 4),
        (_concurrency("<=", l - 1), ("size", len, ">=", lower_bound_value(l, n)), _no_convex(n)),
    )
    return fam.with_meta(provenance=spec.provenance())


def figure10_family(l: int, epsilon_scale=1) -> LineFamily:
    """2l lines with concurrency exactly l-1 and no 5 in convex position.

    Two fans of l-1 lines through (-4, 0) and (4, 0) with slopes spread
    around 3/4 and -3/4, plus one steep pair through (0, -eta) just below
    fan-apex height. The steep pair closes a 4-gon with one line of each
    fan but dives below an apex before any fifth line can join, and the
    central cell under both fans is a cap of at most four lines.

    The spread delta = min(epsilon_scale, 2)/(8(l-1)) keeps each fan's
    slopes within 1/8 of +-3/4, so all 2l slopes are distinct; the family
    is built once and certified.
    """
    spec = ConstructionSpec("figure10", l=l, epsilon_scale=epsilon_scale)
    delta = min(spec.epsilon_scale, Fraction(2)) / (8 * (l - 1))
    dn, dd = delta.as_integer_ratio()
    # over 12dd, fan slope j is M = 9dd + 6dn(2j - l + 2), its line passes
    # through (-4, 0) and its mirror through (4, 0); eta = delta/3 is 4dn
    ms = [9 * dd + 6 * dn * (2 * j - l + 2) for j in range(l - 1)]
    pairs = [(-36 * dd, -4 * dn), *[(-m, 4 * m) for m in reversed(ms)]]
    pairs += [*[(m, 4 * m) for m in ms], (36 * dd, -4 * dn)]
    fam = _certify(
        f"figure10_family({l})",
        LineFamily.from_pairs(12 * dd, pairs),
        (_concurrency("==", l - 1), _no_convex(5)),
    )
    return fam.with_meta(provenance=spec.provenance())


@dataclass(frozen=True)
class ConstructionSpec:
    """Serializable recipe naming a generator, its parameters and the
    slope spread scale it passes on.

    Every generator starts by building its spec, which alone checks the
    parameters: each one its kind's recipe lists must be given and in
    range, any other must be left unset, and the pencil, which has no
    slope spread, takes only the default scale 1. Every generator stamps
    spec.provenance() on the family it returns, so from_provenance of a
    family's header rebuilds that family.
    """

    kind: str
    p: Optional[int] = None
    q: Optional[int] = None
    l: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    epsilon_scale: Rat = Fraction(1)

    def __post_init__(self):
        object.__setattr__(
            self, "epsilon_scale", _positive_rat(self.epsilon_scale, "epsilon_scale")
        )
        if self.kind not in _RECIPES:
            raise ParameterRangeError(f"unknown construction kind: {self.kind!r}")
        lows = _RECIPES[self.kind][0]
        for name in ("p", "q", "l", "k", "n"):
            value = getattr(self, name)
            if name not in lows:
                if value is not None:
                    raise ParameterRangeError(f"kind {self.kind!r} takes no {name}: {value}")
            elif value is None:
                raise ParameterRangeError(f"kind {self.kind!r} needs parameter {name}")
            else:
                at_least(name, value, lows[name])
        if self.kind == "pencil" and self.epsilon_scale != 1:
            raise ParameterRangeError(
                f"kind 'pencil' takes no epsilon_scale: {format_rat(self.epsilon_scale)}"
            )
        if self.kind.startswith("thm12") and self.kind != _thm12_kind(self.n):
            raise ParameterRangeError(f"kind {self.kind!r} does not match n={self.n}")

    def provenance(self) -> Tuple[Tuple[str, str], ...]:
        pairs = [("kind", self.kind)]
        for name in ("p", "q", "l", "k", "n"):
            value = getattr(self, name)
            if value is not None:
                pairs.append((name, str(value)))
        if self.epsilon_scale != 1:
            pairs.append(("epsilon_scale", format_rat(self.epsilon_scale)))
        return tuple(pairs)

    @classmethod
    def from_provenance(cls, pairs) -> Optional["ConstructionSpec"]:
        kind = None
        params = {}
        for key, value in pairs:
            if key == "kind":
                kind = value
            elif key in ("p", "q", "l", "k", "n"):
                params[key] = int(value)
            elif key == "epsilon_scale":
                params[key] = parse_rat(value)
        if kind is None:
            return None
        return cls(kind=kind, **params)

    def build(self) -> LineFamily:
        """Run the generator; the family carries this recipe's provenance."""
        return _RECIPES[self.kind][1](self)


# kind -> (least value of each required parameter, generator call)
_RECIPES = {
    "pencil": (
        {"n": 1},
        lambda s: pencil(Point(0, -1), s.n, range(1, s.n + 1)).with_meta(
            provenance=s.provenance()
        ),
    ),
    "base_pq2": ({"p": 2, "l": 3}, lambda s: construct_base(s.p, s.l, s.epsilon_scale)),
    "base_2q": ({"q": 2, "l": 3}, lambda s: construct_base_caps(s.q, s.l, s.epsilon_scale)),
    "recursive_pq": (
        {"p": 2, "q": 2, "l": 3},
        lambda s: construct_F(s.p, s.q, s.l, s.epsilon_scale),
    ),
    "prop32_even": (
        {"l": 3, "k": 2},
        lambda s: construct_prop32(s.l, s.k, "even", s.epsilon_scale),
    ),
    "prop32_odd": (
        {"l": 3, "k": 2},
        lambda s: construct_prop32(s.l, s.k, "odd", s.epsilon_scale),
    ),
    "thm12_even": ({"l": 3, "n": 5}, lambda s: construct_thm12(s.l, s.n, s.epsilon_scale)),
    "thm12_odd": ({"l": 3, "n": 5}, lambda s: construct_thm12(s.l, s.n, s.epsilon_scale)),
    "figure10": ({"l": 3}, lambda s: figure10_family(s.l, s.epsilon_scale)),
}
KINDS = tuple(_RECIPES)
