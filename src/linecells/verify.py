"""Property checks, convex-position search and the bound formulas.

A VerifyReport holds the census answers `verify` prints and one (name,
holds) check per property. PASS is read off the checks, so a caller such
as `verify --no-convex` adds a check and decides nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence, Tuple

from .arrangement import ConcurrencyReport, _convex_split, max_concurrency
from .chains import ChainResult, has_k_cell_unbounded, longest_cap, longest_cup
from .errors import ParameterRangeError, at_least
from .geometry import LineFamily, Rat, _as_rat


def known_exact(l: int, n: int) -> Optional[int]:
    """Exact threshold for small n, None where only bounds are known."""
    at_least("l", l, 3)
    at_least("n", n, 2)
    if n == 2:
        return 2
    if n == 3:
        return l
    if n == 4:
        return l + 1
    return None


def lower_bound_value(l: int, n: int) -> int:
    """Size of the extremal construction: thresholds exceed this value."""
    at_least("l", l, 3)
    at_least("n", n, 5)
    k = (n - 1) // 2
    big = comb(2 * k - 2, k - 1)
    lead = big * big if n % 2 == 0 else (big + 1) * comb(2 * k - 3, k - 1)
    return (l - 1) * lead - (l - 3) * comb(2 * k - 4, k - 2) * big


def upper_bound_value(l: int, n: int, c=1) -> Rat:
    """c * (n + l - 1) * C(2n-4, n-2); c >= 1 is the absolute constant knob."""
    at_least("l", l, 3)
    at_least("n", n, 3)
    c = _as_rat(c)
    at_least("c", c, 1)
    return c * (n + l - 1) * comb(2 * n - 4, n - 2)


def f_L_bound(l: int, p: int, q: int, c=1) -> Rat:
    """c * (min(p-1, q-1) + l) * C(p+q-4, q-2)."""
    for name, v in (("l", l), ("p", p), ("q", q)):
        at_least(name, v, 3)
    c = _as_rat(c)
    at_least("c", c, 1)
    return c * (min(p - 1, q - 1) + l) * comb(p + q - 4, q - 2)


def _join_witness(family: LineFamily) -> Optional[Tuple[Tuple[int, ...], int]]:
    """(witness, bound) when the root of the family's join tree is a join:
    the low part's longest cap with the high part's longest cup, in slope
    order, which are in convex position (largest_convex_subset), and the
    family's longest cup plus longest cap. None when the root is no join."""
    view = family.view
    if view.root_join is None:
        return None
    cap, cup = view.join_parts
    census = view.census
    return cap + cup, len(census.cup) + len(census.cap)


def find_n_convex(family: LineFamily, n: int) -> Optional[Tuple[int, ...]]:
    """n lines in convex position, or None.

    On a family whose root is a join, the join rule (largest_convex_subset)
    answers from the census: None when n exceeds the longest cup plus the
    longest cap, and the first n lines of the low cap and the high cup
    when they have n or more. Otherwise the cup/cap-split DP
    (arrangement._convex_split) with need and goal both n: it returns None
    at once when n exceeds the longest cup plus the longest cap, and
    otherwise stops at the first split of n or more lines. Convex position
    passes to subsets, so the first n of its lines are the witness.
    """
    size = len(family)
    if not 2 <= n <= size:
        raise ParameterRangeError(f"need 2 <= n <= {size}: {n}")
    joined = _join_witness(family)
    if joined is not None:
        witness, bound = joined
        if n > bound:
            return None
        if n <= len(witness):
            return witness[:n]
    split = _convex_split(family.view, n, n)
    if split is None:
        return None
    below, above, _ = split
    return tuple(sorted(below + above)[:n])


def exists_n_convex(family: LineFamily, n: int) -> bool:
    """True iff some n lines of the family are in convex position.

    Unlike find_n_convex this tolerates n beyond the family size, where the
    answer is plainly False.
    """
    if n > len(family):
        return False
    return find_n_convex(family, n) is not None


def largest_convex_subset(family: LineFamily):
    """(size, witness indices) of a largest subset in convex position.

    The lines below a cell bounded by all of them are a cup (the cell lies
    in their top cell and meets each of them along a segment) and the
    lines above it a cap, so no subset has more than the longest cup plus
    the longest cap.

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
    every line of C and D bounds Z. When len(C) + len(D) is the longest
    cup plus the longest cap, which the census gives, C and D are a
    largest subset, and no frame is built: on F(p, q, l), C has p lines
    and D q. Any other family takes the cup/cap-split DP
    (arrangement._convex_split) with need 1 and goal the family size,
    which stops at the same bound.
    """
    joined = _join_witness(family)
    if joined is not None and len(joined[0]) == joined[1]:
        witness = joined[0]
        return (len(witness), witness)
    below, above, _ = _convex_split(family.view, 1, len(family))
    witness = tuple(sorted(below + above))
    return (len(witness), witness)


@dataclass(frozen=True)
class VerifyReport:
    """The census answers `verify` prints, and its (name, holds) checks."""

    family_size: int
    concurrency: ConcurrencyReport
    cup: ChainResult
    cap: ChainResult
    checks: Tuple[Tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_properties(
    family: LineFamily,
    l: int,
    p: int,
    q: int,
    check_unbounded: Sequence[str] = ("right",),
    k: int = 4,
) -> VerifyReport:
    """Check the defining properties: fewer than l concurrent, no (p+1)-cup,
    no (q+1)-cap, and no k-fold unbounded cell on each requested side, once
    per side, in the order the sides are first named."""
    at_least("l", l, 3)
    if p < 2 or q < 2:
        raise ParameterRangeError(f"p and q must be >= 2: p={p} q={q}")
    at_least("k", k, 2)
    sides = tuple(dict.fromkeys(check_unbounded))
    for side in sides:
        if side not in ("left", "right"):
            raise ValueError(f"check_unbounded entries must be 'left'/'right': {side!r}")
    conc = max_concurrency(family)
    cup = longest_cup(family)
    cap = longest_cap(family)
    checks = (
        (f"concurrency < {l}", conc.max_count < l),
        (f"longest cup <= {p}", cup.size <= p),
        (f"longest cap <= {q}", cap.size <= q),
        *(
            (f"no {k}-cell unbounded {side}", not has_k_cell_unbounded(family, k, side))
            for side in sides
        ),
    )
    return VerifyReport(len(family), conc, cup, cap, checks)


def format_report(report: VerifyReport) -> str:
    lines = [f"family size: {report.family_size}"]
    conc = report.concurrency
    if conc.point is None:
        lines.append(f"max concurrency: {conc.max_count}")
    else:
        lines.append(
            f"max concurrency: {conc.max_count} at ({conc.point.x}, {conc.point.y})"
        )
    lines.append(f"longest cup: {report.cup.size} lines {list(report.cup.witness)}")
    lines.append(f"longest cap: {report.cap.size} lines {list(report.cap.witness)}")
    for name, ok in report.checks:
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
