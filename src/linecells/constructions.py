"""Generators for the extremal families.

The pieces fit together in three layers. construct_base places pencils of
l-1 nearly parallel lines at points (h, h^2) along the standard parabola,
slopes spread tightly around the tangent slope 2h; pencils contribute cup
links without ever forming a 3-cap, and concurrency tops out at the pencil
size. contract squeezes a whole family into a thin bundle that stands in
for a single line a: an affine map sends every slope into (a.m - eps,
a.m + eps) and gathers all internal intersections into a tiny disk below
the x-axis. The recursive and scaffold builders then replace each line of
a small arrangement by a contracted copy of a smaller family.

Every generator re-checks its own output (concurrency, chain lengths,
unbounded cells, and where affordable an exhaustive convex-position scan)
and retries with a halved spread on failure, so a returned family always
satisfies its contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .arrangement import max_concurrency
from .chains import has_k_cell_unbounded, longest_cap, longest_cup
from .errors import ConstructionError, ParameterRangeError
from .geometry import Line, LineFamily, Point, Rat, _as_rat, intersect
from .verify import find_n_convex, lower_bound_value

MAX_RETRIES = 64

# exhaustive convex-position self-checks are capped at this many subsets
CONVEX_BUDGET = 200_000

KINDS = (
    "pencil",
    "base_pq2",
    "base_2q",
    "recursive_pq",
    "prop32_even",
    "prop32_odd",
    "thm12_even",
    "thm12_odd",
    "figure10",
)


def _positive_rat(value, name: str) -> Rat:
    value = _as_rat(value)
    if value <= 0:
        raise ParameterRangeError(f"{name} must be positive: {value}")
    return value


def pencil(apex: Point, count: int, slopes: Sequence) -> LineFamily:
    """count concurrent lines through apex with the given distinct slopes."""
    slopes = tuple(_as_rat(s) for s in slopes)
    if count != len(slopes):
        raise ParameterRangeError(f"count {count} != number of slopes {len(slopes)}")
    if count < 1:
        raise ParameterRangeError(f"count must be >= 1: {count}")
    if not isinstance(apex, Point):
        apex = Point(*apex)
    fam = LineFamily(tuple(Line(m, apex.y - m * apex.x) for m in slopes))
    return fam.with_meta(provenance=(("kind", "pencil"), ("n", str(count))))


def reflect_y(family: LineFamily) -> LineFamily:
    """Mirror through the y-axis: y = mx + c maps to y = -mx + c.

    Cups stay cups and caps stay caps; cells unbounded to the right map to
    cells unbounded to the left and vice versa.
    """
    return LineFamily(tuple(Line(-line.m, line.c) for line in family))


def reflect_x(family: LineFamily) -> LineFamily:
    """Mirror through the x-axis: y = mx + c maps to y = -mx - c.

    Cups and caps swap; left/right unboundedness is preserved.
    """
    return LineFamily(tuple(Line(-line.m, -line.c) for line in family))


def _signature(family: LineFamily):
    # invariants of any affine map with positive determinant that fixes the
    # up and right directions; used to confirm a contraction changed nothing
    return (
        len(family),
        max_concurrency(family).max_count,
        longest_cup(family).size,
        longest_cap(family).size,
        has_k_cell_unbounded(family, 4, "right"),
        has_k_cell_unbounded(family, 4, "left"),
    )


def contract(family: LineFamily, a: Line, eps) -> LineFamily:
    """Squeeze family into a bundle that replaces the line a.

    The result G has all slopes in (a.m - eps, a.m + eps), every pairwise
    intersection of G below the x-axis, and all those intersections inside
    a disk of diameter at most eps. Cup/cap lengths, concurrency and
    unbounded 4-cells are preserved. Never raises for valid input: the
    squeeze factor is halved until every condition holds.
    """
    eps = _positive_rat(eps, "eps")
    if a.m != 0:
        anchor = Point((Fraction(-1) - a.c) / a.m, Fraction(-1))
    elif a.c < 0:
        anchor = Point(Fraction(0), a.c)
    else:
        # horizontal carrier above the axis has no on-line anchor below it;
        # fall back to a point under the carrier
        anchor = Point(Fraction(0), Fraction(-1))
    return _contract_at(family, anchor, a.m, eps)


def _contract_at(family: LineFamily, anchor: Point, mu: Rat, eps: Rat) -> LineFamily:
    px, py = anchor.x, anchor.y
    if py >= 0:
        raise ConstructionError(f"contraction anchor must lie below the axis: {anchor}")
    max_m = max(abs(line.m) for line in family)
    t = min(Fraction(1), eps / (2 * (1 + max_m)))
    vertices = [p for p, _ in family.view.vertex_items] if len(family) > 1 else []
    if vertices:
        reach = max(abs(v.y) + abs(mu) * abs(v.x) for v in vertices)
        t = min(t, -py / (2 * (1 + reach)))
    want = _signature(family)
    for _ in range(MAX_RETRIES):
        g = LineFamily(
            tuple(
                Line(mu + t * line.m, t * t * line.c + py - (mu + t * line.m) * px)
                for line in family
            )
        )
        if _contract_ok(g, mu, eps, want):
            return g
        t = t / 2
    raise ConstructionError("contraction did not stabilize")


def _contract_ok(g: LineFamily, mu: Rat, eps: Rat, want) -> bool:
    if any(abs(line.m - mu) >= eps for line in g):
        return False
    if len(g) > 1:
        pts = [p for p, _ in g.view.vertex_items]
        if max(p.y for p in pts) >= 0:
            return False
        dx = max(p.x for p in pts) - min(p.x for p in pts)
        dy = max(p.y for p in pts) - min(p.y for p in pts)
        if dx * dx + dy * dy > eps * eps:
            return False
    return _signature(g) == want


def construct_base(p: int, l: int, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent, no (p+1)-cup, no 3-cap and no 4-cell
    unbounded to the right. Size (l-1)p/2 for even p, (l-1)(p-1)/2 + 1 odd.

    floor(p/2) pencils sit at (h, h^2) with slopes packed around 2h; two
    lines of one pencil followed by two of the next always turn downward,
    so pencils chain into cups but never into caps. For odd p one extra
    line tangent to the parabola at (m, m^2) extends the longest cup by
    one: it outslopes every pencil and passes below the last apex.
    """
    if p < 2:
        raise ParameterRangeError(f"p must be >= 2: {p}")
    if l < 3:
        raise ParameterRangeError(f"l must be >= 3: {l}")
    clusters = p // 2
    delta = _positive_rat(epsilon_scale, "epsilon_scale") / (4 * (l - 1) * (clusters + 1))
    for _ in range(MAX_RETRIES):
        lines = []
        for h in range(clusters):
            for j in range(l - 1):
                s = 2 * h + delta * Fraction(2 * j - (l - 2), 2)
                lines.append(Line(s, h * h - s * h))
        if p % 2 == 1:
            lines.append(Line(2 * clusters, -(clusters * clusters)))
        fam = LineFamily(tuple(lines))
        if (
            max_concurrency(fam).max_count == l - 1
            and longest_cup(fam).size == p
            and longest_cap(fam).size <= 2
            and not has_k_cell_unbounded(fam, 4, "right")
        ):
            return fam.with_meta(
                provenance=(("kind", "base_pq2"), ("p", str(p)), ("l", str(l)))
            )
        delta = delta / 2
    raise ConstructionError(f"base family for p={p}, l={l} did not stabilize")


def construct_base_caps(q: int, l: int, epsilon_scale=1) -> LineFamily:
    """Mirror base: no l concurrent, no 3-cup, no (q+1)-cap, no 4-cell
    unbounded to the right."""
    fam = reflect_x(construct_base(q, l, epsilon_scale))
    if has_k_cell_unbounded(fam, 4, "right") or longest_cup(fam).size > 2:
        raise ConstructionError(f"cap base for q={q}, l={l} failed its checks")
    return fam.with_meta(provenance=(("kind", "base_2q"), ("q", str(q)), ("l", str(l))))


def _no_n_convex(family: LineFamily, n: int) -> Optional[bool]:
    """True if checked and absent, False if found, None if over budget."""
    if n > len(family):
        return True
    if comb(len(family), n) > CONVEX_BUDGET:
        return None
    return find_n_convex(family, n) is None


Memo = Dict[Tuple[int, int, int], LineFamily]


def _construct_F_raw(p: int, q: int, l: int, scale: Rat, memo: Memo) -> LineFamily:
    """The (p, q, l) recursive family. memo holds the subfamilies already
    built at this scale; it belongs to one public generator call, so no
    family outlives that call."""
    key = (p, q, l)
    if key not in memo:
        memo[key] = _build_F_raw(p, q, l, scale, memo)
    return memo[key]


def _build_F_raw(p: int, q: int, l: int, scale: Rat, memo: Memo) -> LineFamily:
    # p == 1 or q == 1 collapses to a single line: two lines already form
    # both a 2-cup and a 2-cap
    if p == 1 or q == 1:
        return LineFamily((Line(Fraction(1), Fraction(0)),))
    if q == 2:
        return construct_base(p, l, scale)
    if p == 2:
        return construct_base_caps(q, l, scale)
    carrier_cups = Line(Fraction(1), Fraction(2))
    carrier_caps = Line(Fraction(2), Fraction(2))
    eps = scale / 4
    for _ in range(MAX_RETRIES):
        low = contract(_construct_F_raw(p - 1, q, l, scale, memo), carrier_cups, eps)
        high = contract(_construct_F_raw(p, q - 1, l, scale, memo), carrier_caps, eps)
        fam = LineFamily(low.lines + high.lines)
        if (
            max_concurrency(fam).max_count < l
            and longest_cup(fam).size <= p
            and longest_cap(fam).size <= q
            and not has_k_cell_unbounded(fam, 4, "right")
        ):
            return fam
        eps = eps / 2
    raise ConstructionError(f"recursion for p={p}, q={q}, l={l} did not stabilize")


def construct_F(p: int, q: int, l: int, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent, no (p+1)-cup, no (q+1)-cap and no
    4-cell unbounded to the right.

    Two carriers of positive slope meet above the x-axis; the lower-slope
    one is replaced by a contracted copy of the (p-1, q) family and the
    other by a (p, q-1) copy. A cup through both bundles uses the low
    bundle as its tail, where at most one more line can extend it, and
    symmetrically for caps, which gives the additive size recurrence.
    """
    if p < 2 or q < 2:
        raise ParameterRangeError(f"p and q must be >= 2: p={p} q={q}")
    if l < 3:
        raise ParameterRangeError(f"l must be >= 3: {l}")
    scale = _positive_rat(epsilon_scale, "epsilon_scale")
    fam = _construct_F_raw(p, q, l, scale, {})
    return fam.with_meta(
        provenance=(
            ("kind", "recursive_pq"),
            ("p", str(p)),
            ("q", str(q)),
            ("l", str(l)),
        )
    )


def _shear_lift(family: LineFamily) -> LineFamily:
    """Shear slopes positive and then translate all vertices above the axis.

    The shear (x, y) -> (x, y + Mx) adds M to every slope and leaves each
    point's side of each line unchanged, so cells, cups, caps, concurrency
    and left/right unboundedness all survive; the lift is a translation.
    """
    m_min = min(line.m for line in family)
    shift = 1 - m_min
    sheared = LineFamily(tuple(Line(line.m + shift, line.c) for line in family))
    if len(sheared) > 1:
        low = min(p.y for p, _ in sheared.view.vertex_items)
    else:
        low = Fraction(0)
    lift = 1 - low
    return LineFamily(tuple(Line(line.m, line.c + lift) for line in sheared))


def _scaffold_gaps(scaffold: LineFamily) -> Rat:
    slopes = [line.m for line in scaffold]
    return min(b - a for a, b in zip(slopes, slopes[1:]))


def _assemble(scaffold: LineFamily, pieces, l: int, n: int, eps0: Rat) -> LineFamily:
    """Replace scaffold line i by a contracted copy of pieces[i], keeping
    slope windows disjoint, then re-check the assembly."""
    eps = eps0
    if len(scaffold) > 1:
        eps = min(eps, _scaffold_gaps(scaffold) / 4)
    # keep every slope window on its carrier's side of zero
    eps = min(eps, min(abs(line.m) for line in scaffold) / 2)
    for _ in range(MAX_RETRIES):
        lines = []
        for piece, carrier in zip(pieces, scaffold):
            lines.extend(contract(piece, carrier, eps).lines)
        fam = LineFamily(tuple(lines))
        convex = _no_n_convex(fam, n)
        if max_concurrency(fam).max_count < l and convex is not False:
            return fam
        eps = eps / 2
    raise ConstructionError(f"assembly for l={l}, n={n} did not stabilize")


def _prop32_scaffold(k: int, scale: Rat, memo: Memo) -> LineFamily:
    """Positive-slope copy of the (k, k) triple-free family with all
    intersections above the axis and no 4-cell unbounded to the left."""
    scaffold = _shear_lift(reflect_y(_construct_F_raw(k, k, 3, scale, memo)))
    if has_k_cell_unbounded(scaffold, 4, "left") or max_concurrency(scaffold).max_count > 2:
        raise ConstructionError(f"scaffold for k={k} failed its checks")
    return scaffold


def construct_prop32(l: int, k: int, parity: str, epsilon_scale=1) -> LineFamily:
    """Family with no l concurrent lines and no n = 2k+2 (even) or 2k+1
    (odd) lines in convex position.

    Every unbounded n-cell of the scaffold opens to the right, and a
    right-opening cell survives replacing lines by bundles only if it was
    already bounded by too many lines; bounded n-cells die because each
    bundle is collapsed far below the scaffold's vertices.
    """
    if l < 3:
        raise ParameterRangeError(f"l must be >= 3: {l}")
    if k < 2:
        raise ParameterRangeError(f"k must be >= 2: {k}")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd': {parity!r}")
    scale = _positive_rat(epsilon_scale, "epsilon_scale")
    memo: Memo = {}
    scaffold = _prop32_scaffold(k, scale, memo)
    if parity == "even":
        n = 2 * k + 2
        pieces = [_construct_F_raw(k, k, l, scale, memo) for _ in scaffold]
    else:
        n = 2 * k + 1
        pieces = [_construct_F_raw(k, k, l, scale, memo)]
        pieces += [_construct_F_raw(k - 1, k, l, scale, memo) for _ in range(len(scaffold) - 1)]
    fam = _assemble(scaffold, pieces, l, n, scale / 4)
    return fam.with_meta(
        provenance=(
            ("kind", f"prop32_{parity}"),
            ("l", str(l)),
            ("k", str(k)),
        )
    )


def _thm12_scaffold(k: int, scale: Rat, memo: Memo) -> LineFamily:
    """Two mirrored copies of the (k, k) triple-free family, one bundled
    around slope -1 and one around +1, every intersection above the axis.
    """
    core = _construct_F_raw(k, k, 3, scale, memo)
    mirrored = reflect_y(core)
    eps = Fraction(1, 8)
    for _ in range(MAX_RETRIES):
        rising = contract(core, Line(Fraction(1), Fraction(4)), eps)
        falling = contract(mirrored, Line(Fraction(-1), Fraction(4)), eps)
        fam = LineFamily(falling.lines + rising.lines)
        # bundle-internal vertices sit below the axis by construction; the
        # cross intersections must all stay above it near (0, 4)
        if _cross_above_axis(falling, rising) and max_concurrency(fam).max_count == 2:
            flipped = reflect_x(fam)
            low = min(p.y for p, _ in flipped.view.vertex_items)
            lifted = LineFamily(tuple(Line(line.m, line.c + 1 - low) for line in flipped))
            return lifted
        eps = eps / 2
    raise ConstructionError(f"double scaffold for k={k} did not stabilize")


def _cross_above_axis(left: LineFamily, right: LineFamily) -> bool:
    for a in left:
        for b in right:
            if intersect(a, b).y <= 0:
                return False
    return True


def construct_thm12(l: int, n: int, epsilon_scale=1) -> LineFamily:
    """Family of at least lower_bound_value(l, n) lines, fewer than l
    concurrent, with no n lines in convex position."""
    if l < 3:
        raise ParameterRangeError(f"l must be >= 3: {l}")
    if n < 5:
        raise ParameterRangeError(f"n must be >= 5: {n}")
    scale = _positive_rat(epsilon_scale, "epsilon_scale")
    if n % 2 == 0:
        k = (n - 2) // 2
    else:
        k = (n - 1) // 2
    memo: Memo = {}
    scaffold = _thm12_scaffold(k, scale, memo)
    half = len(scaffold) // 2
    big = _construct_F_raw(k, k, l, scale, memo)
    big_mirror = reflect_y(big)
    if n % 2 == 0:
        pieces = [big_mirror] * half + [big] * half
    else:
        small = _construct_F_raw(k - 1, k, l, scale, memo)
        small_mirror = reflect_y(small)
        pieces = [big_mirror] + [small_mirror] * (half - 1)
        pieces += [big] + [small] * (half - 1)
    fam = _assemble(scaffold, pieces, l, n, scale / 4)
    if len(fam) < lower_bound_value(l, n):
        raise ConstructionError(
            f"assembly for l={l}, n={n} came out too small: {len(fam)}"
        )
    return fam.with_meta(
        provenance=(
            ("kind", f"thm12_{'even' if n % 2 == 0 else 'odd'}"),
            ("l", str(l)),
            ("n", str(n)),
        )
    )


def figure10_family(l: int, epsilon_scale=1) -> LineFamily:
    """2l lines with concurrency exactly l-1 and no 5 in convex position.

    Two fans of l-1 lines through (-4, 0) and (4, 0) with slopes spread
    around 3/4 and -3/4, plus one steep pair through (0, -eta) just below
    fan-apex height. The steep pair closes a 4-gon with one line of each
    fan but dives below an apex before any fifth line can join, and the
    central cell under both fans is a cap of at most four lines.
    """
    if l < 3:
        raise ParameterRangeError(f"l must be >= 3: {l}")
    delta = _positive_rat(epsilon_scale, "epsilon_scale") / (8 * (l - 1))
    for _ in range(MAX_RETRIES):
        eta = delta / 3
        lines = []
        for j in range(l - 1):
            s = Fraction(3, 4) + delta * Fraction(2 * j - (l - 2), 2)
            lines.append(Line(s, 4 * s))
            lines.append(Line(-s, 4 * s))
        lines.append(Line(Fraction(3), -eta))
        lines.append(Line(Fraction(-3), -eta))
        fam = LineFamily(tuple(lines))
        if (
            len(fam) == 2 * l
            and max_concurrency(fam).max_count == l - 1
            and _no_n_convex(fam, 5) is True
        ):
            return fam.with_meta(provenance=(("kind", "figure10"), ("l", str(l))))
        delta = delta / 2
    raise ConstructionError(f"figure-10 family for l={l} did not stabilize")


@dataclass(frozen=True)
class ConstructionSpec:
    """Serializable recipe naming a generator and its parameters."""

    kind: str
    p: Optional[int] = None
    q: Optional[int] = None
    l: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterRangeError(f"unknown construction kind: {self.kind!r}")
        for name in _REQUIRED[self.kind]:
            if getattr(self, name) is None:
                raise ParameterRangeError(f"kind {self.kind!r} needs parameter {name}")
        if self.p is not None and self.p < 2:
            raise ParameterRangeError(f"p must be >= 2: {self.p}")
        if self.q is not None and self.q < 2:
            raise ParameterRangeError(f"q must be >= 2: {self.q}")
        if self.l is not None and self.l < 3:
            raise ParameterRangeError(f"l must be >= 3: {self.l}")
        if self.k is not None and self.k < 2:
            raise ParameterRangeError(f"k must be >= 2: {self.k}")
        if self.kind == "pencil" and self.n is not None and self.n < 1:
            raise ParameterRangeError(f"n must be >= 1: {self.n}")
        if self.kind.startswith("thm12"):
            if self.n < 5:
                raise ParameterRangeError(f"n must be >= 5: {self.n}")
            want_even = self.kind.endswith("even")
            if (self.n % 2 == 0) != want_even:
                raise ParameterRangeError(
                    f"kind {self.kind!r} does not match n={self.n}"
                )

    def provenance(self) -> Tuple[Tuple[str, str], ...]:
        pairs = [("kind", self.kind)]
        for name in ("p", "q", "l", "k", "n"):
            value = getattr(self, name)
            if value is not None:
                pairs.append((name, str(value)))
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
        if kind is None:
            return None
        return cls(kind=kind, **params)

    def build(self, epsilon_scale=1) -> LineFamily:
        if self.kind == "pencil":
            fam = pencil(
                Point(Fraction(0), Fraction(-1)),
                self.n,
                tuple(Fraction(i) for i in range(1, self.n + 1)),
            )
            return fam
        if self.kind == "base_pq2":
            return construct_base(self.p, self.l, epsilon_scale)
        if self.kind == "base_2q":
            return construct_base_caps(self.q, self.l, epsilon_scale)
        if self.kind == "recursive_pq":
            return construct_F(self.p, self.q, self.l, epsilon_scale)
        if self.kind in ("prop32_even", "prop32_odd"):
            return construct_prop32(self.l, self.k, self.kind.split("_")[1], epsilon_scale)
        if self.kind in ("thm12_even", "thm12_odd"):
            return construct_thm12(self.l, self.n, epsilon_scale)
        return figure10_family(self.l, epsilon_scale)


_REQUIRED = {
    "pencil": ("n",),
    "base_pq2": ("p", "l"),
    "base_2q": ("q", "l"),
    "recursive_pq": ("p", "q", "l"),
    "prop32_even": ("l", "k"),
    "prop32_odd": ("l", "k"),
    "thm12_even": ("l", "n"),
    "thm12_odd": ("l", "n"),
    "figure10": ("l",),
}
