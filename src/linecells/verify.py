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


def find_n_convex(family: LineFamily, n: int) -> Optional[Tuple[int, ...]]:
    """n lines in convex position, or None.

    The convex-position search (arrangement._convex_split) with need and
    goal both n: None at once when n exceeds the longest cup plus the
    longest cap, and otherwise the first subset of n or more lines it
    finds, which on a joined root is the low cap and the high cup when
    they have n or more lines. Convex position passes to subsets, so the first n
    of its lines are the witness: the longest cup's or cap's first n when
    one has n lines.
    """
    size = len(family)
    if not 2 <= n <= size:
        raise ParameterRangeError(f"need 2 <= n <= {size}: {n}")
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

    The convex-position search (arrangement._convex_split) with need 1 and
    goal the family size, which stops at the longest cup plus the longest
    cap: on a joined root whose low cap and high cup meet that bound, they
    are the witness, read off the census with no frame built.
    """
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
