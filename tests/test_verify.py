import hashlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from linecells import (
    ConstructionSpec,
    Line,
    LineFamily,
    ParameterRangeError,
    Point,
    exists_n_convex,
    f_L_bound,
    find_n_convex,
    find_unbounded_cell,
    format_report,
    known_exact,
    largest_convex_subset,
    lower_bound_value,
    parse_family,
    pencil,
    upper_bound_value,
    verify_properties,
)
from linecells import chains


TRIANGLE = LineFamily((Line(1, 0), Line(-1, 0), Line(0, 1)))


def test_known_exact_small_n():
    for l in (3, 4, 5, 6):
        assert known_exact(l, 2) == 2
        assert known_exact(l, 3) == l
        assert known_exact(l, 4) == l + 1
        assert known_exact(l, 5) is None
        assert known_exact(l, 9) is None


def test_known_exact_validation():
    with pytest.raises(ParameterRangeError):
        known_exact(2, 3)
    with pytest.raises(ParameterRangeError):
        known_exact(3, 1)


def test_lower_bound_table():
    assert lower_bound_value(3, 6) == 8
    assert lower_bound_value(3, 5) == 6
    assert lower_bound_value(4, 5) == 7
    for l in (3, 4, 5, 6):
        assert lower_bound_value(l, 5) == l + 3


def test_upper_bound_values():
    assert upper_bound_value(3, 5) == 140
    assert upper_bound_value(3, 6) == 560
    assert upper_bound_value(3, 3) == 10
    assert upper_bound_value(3, 5, c=2) == 280


def test_f_L_bound():
    assert f_L_bound(3, 3, 3) == 10
    assert f_L_bound(3, 3, 3, c=3) == 30


def test_bound_validation():
    with pytest.raises(ParameterRangeError):
        lower_bound_value(3, 4)
    with pytest.raises(ParameterRangeError):
        upper_bound_value(3, 2)
    with pytest.raises(ParameterRangeError):
        f_L_bound(3, 2, 3)
    with pytest.raises(ParameterRangeError, match="l must be >= 3"):
        lower_bound_value(2, 5)
    with pytest.raises(ParameterRangeError, match="l must be >= 3"):
        upper_bound_value(2, 5)
    with pytest.raises(ParameterRangeError, match="c must be >= 1"):
        f_L_bound(3, 3, 3, c=0)


def test_find_n_convex_triangle():
    assert find_n_convex(TRIANGLE, 3) == (0, 1, 2)
    assert exists_n_convex(TRIANGLE, 2)
    # beyond the family size the existence question is vacuously false
    assert not exists_n_convex(TRIANGLE, 9)


def test_find_n_convex_validation():
    with pytest.raises(ParameterRangeError):
        find_n_convex(TRIANGLE, 4)
    with pytest.raises(ParameterRangeError):
        find_n_convex(TRIANGLE, 1)


def test_pencil_has_no_triple_in_convex_position():
    fam = pencil(Point(0, -1), 5, (1, 2, 3, 4, 5))
    assert find_n_convex(fam, 3) is None
    # any two lines are in convex position
    size, witness = largest_convex_subset(fam)
    assert size == 2 and len(witness) == 2 and witness == tuple(sorted(set(witness)))


def test_largest_convex_subset_single():
    assert largest_convex_subset(LineFamily((Line(1, 1),))) == (1, (0,))


def test_verify_properties_pass_and_fail():
    fam = pencil(Point(0, -1), 4, (1, 2, 3, 4))
    good = verify_properties(fam, l=5, p=2, q=2)
    assert good.passed
    assert all(ok for _, ok in good.checks)
    bad = verify_properties(fam, l=4, p=2, q=2)
    assert not bad.passed
    failed = [name for name, ok in bad.checks if not ok]
    assert failed == ["concurrency < 4"]


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"l": 2}, ParameterRangeError, "l must be >= 3"),
        ({"p": 1}, ParameterRangeError, "p and q must be >= 2"),
        ({"q": 1}, ParameterRangeError, "p and q must be >= 2"),
        ({"k": 1}, ParameterRangeError, "k must be >= 2"),
        ({"check_unbounded": ("up",)}, ValueError, "'left'/'right'"),
    ],
    ids=["l", "p", "q", "k", "side"],
)
def test_verify_properties_validation(kwargs, error, message):
    args = {"l": 3, "p": 2, "q": 2, **kwargs}
    with pytest.raises(error, match=message):
        verify_properties(TRIANGLE, **args)


# the exact text of every range message, one case per parameter each site
# checks; a case's id names the site
RANGE_MESSAGES = [
    pytest.param(lambda: known_exact(2, 5), "l must be >= 3: 2", id="known_exact-l"),
    pytest.param(lambda: known_exact(3, 1), "n must be >= 2: 1", id="known_exact-n"),
    pytest.param(lambda: lower_bound_value(2, 5), "l must be >= 3: 2", id="lower-l"),
    pytest.param(lambda: lower_bound_value(3, 4), "n must be >= 5: 4", id="lower-n"),
    pytest.param(lambda: upper_bound_value(2, 5), "l must be >= 3: 2", id="upper-l"),
    pytest.param(lambda: upper_bound_value(3, 2), "n must be >= 3: 2", id="upper-n"),
    pytest.param(lambda: upper_bound_value(3, 5, 0), "c must be >= 1: 0", id="upper-c"),
    pytest.param(
        lambda: upper_bound_value(3, 5, Fraction(1, 2)), "c must be >= 1: 1/2", id="upper-c-rat"
    ),
    pytest.param(lambda: f_L_bound(2, 2, 2), "l must be >= 3: 2", id="f_L-l"),
    pytest.param(lambda: f_L_bound(3, 2, 3), "p must be >= 3: 2", id="f_L-p"),
    pytest.param(lambda: f_L_bound(3, 3, 2), "q must be >= 3: 2", id="f_L-q"),
    pytest.param(lambda: f_L_bound(3, 3, 3, c="1/3"), "c must be >= 1: 1/3", id="f_L-c"),
    pytest.param(
        lambda: verify_properties(TRIANGLE, l=2, p=2, q=2), "l must be >= 3: 2", id="verify-l"
    ),
    pytest.param(
        lambda: verify_properties(TRIANGLE, l=3, p=1, q=2),
        "p and q must be >= 2: p=1 q=2",
        id="verify-pq",
    ),
    pytest.param(
        lambda: verify_properties(TRIANGLE, l=3, p=2, q=2, k=1), "k must be >= 2: 1", id="verify-k"
    ),
    pytest.param(
        lambda: find_unbounded_cell(TRIANGLE, 1, "right"), "k must be >= 2: 1", id="staircase-k"
    ),
    pytest.param(lambda: pencil(Point(0, 0), 0, ()), "count must be >= 1: 0", id="pencil-count"),
    pytest.param(
        lambda: ConstructionSpec("recursive_pq", p=1, q=2, l=3), "p must be >= 2: 1", id="spec-p"
    ),
    pytest.param(
        lambda: ConstructionSpec("recursive_pq", p=2, q=0, l=3), "q must be >= 2: 0", id="spec-q"
    ),
    pytest.param(lambda: ConstructionSpec("base_pq2", p=2, l=2), "l must be >= 3: 2", id="spec-l"),
    pytest.param(lambda: ConstructionSpec("prop32_odd", l=3, k=1), "k must be >= 2: 1", id="spec-k"),
    pytest.param(lambda: ConstructionSpec("pencil", n=0), "n must be >= 1: 0", id="spec-n"),
    pytest.param(
        lambda: ConstructionSpec("thm12_odd", l=3, n=3), "n must be >= 5: 3", id="spec-thm12-n"
    ),
    pytest.param(
        lambda: ConstructionSpec("pencil", n=2, epsilon_scale=0),
        "epsilon_scale must be positive: 0",
        id="spec-epsilon_scale",
    ),
]


@pytest.mark.parametrize("call, message", RANGE_MESSAGES)
def test_range_messages_are_pinned(call, message):
    with pytest.raises(ParameterRangeError) as info:
        call()
    assert str(info.value) == message


def test_verify_properties_unbounded_sides():
    fig2 = LineFamily(
        (Line(0, 0), Line(Fraction(1, 2), -2), Line(2, -10), Line(3, Fraction(-76, 5)))
    )
    report = verify_properties(fig2, l=3, p=4, q=4, check_unbounded=("right", "left"))
    by_name = dict(report.checks)
    assert by_name["no 4-cell unbounded right"] is False
    assert by_name["no 4-cell unbounded left"] is True


def test_verify_properties_checks_each_side_once_in_first_seen_order(monkeypatch):
    walks = []
    staircases = chains._staircases
    monkeypatch.setattr(
        chains, "_staircases", lambda fam, side: walks.append(side) or staircases(fam, side)
    )
    fam = pencil(Point(0, -1), 3, (1, 2, 3))
    sides = ("left", "right", "left", "right")
    report = verify_properties(fam, 4, 2, 2, check_unbounded=sides, k=2)
    assert [name for name, _ in report.checks][3:] == [
        "no 2-cell unbounded left",
        "no 2-cell unbounded right",
    ]
    assert walks == ["left", "right"]


def test_passed_follows_the_checks():
    report = verify_properties(pencil(Point(0, -1), 3, (1, 2, 3)), l=4, p=2, q=2)
    assert report.passed
    assert not replace(report, checks=report.checks + (("x", False),)).passed
    assert replace(report, checks=report.checks + (("x", True),)).passed


def test_format_report_shape():
    fam = pencil(Point(0, -1), 3, (1, 2, 3))
    report = verify_properties(fam, l=4, p=2, q=2)
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "family size: 3"
    assert lines[1].startswith("max concurrency: 3 at ")
    assert lines[-1] == "result: PASS"
    assert any(line == "check concurrency < 4: pass" for line in lines)


def test_format_report_of_a_single_line():
    report = verify_properties(LineFamily((Line(1, 1),)), l=3, p=2, q=2)
    lines = format_report(report).splitlines()
    assert lines[:4] == [
        "family size: 1",
        "max concurrency: 1",
        "longest cup: 1 lines [0]",
        "longest cap: 1 lines [0]",
    ]
    assert lines[-1] == "result: PASS"


FAMILIES = Path(__file__).resolve().parents[1] / "bench" / "families"

# sha256 of format_report on each bench family, both sides checked, with l,
# p and q from its header; a figure10 family has no 5 lines in convex
# position, so p = q = 4. Pinned while the census read every crossing key
# at the family's full width, so witnesses, concurrency point and verdicts
# stay byte for byte.
PINNED_REPORTS = {
    "F334": "9c1360f1ecc64a58e0bc947ffb9c48eb4f0ad700f9a1f598b6e6f9cd18c37fd1",
    "F434": "d318b469567d664fa750d5984efe7a22af01832f75728016a72f09f149cd6615",
    "F444": "2f6b95ad2a1c6c024a72f809641764ac1c794f84bfb052e00473e8fa585537fd",
    "F544": "6b0aa1e1fde6a2935f834d34137acbb1080e1f769bf74d5b85f60342a0b627ba",
    "F554": "e300e24c9c471b4d35f0a80b4019157ae5df03ccf62d12f9d04bb9dfd20664ae",
    "F654": "8df1164cdb4920698782725a58fa82f987e73ac0ee70982b948c2a6d973e7a23",
    "fig5": "0c5d09f263a48e2da9879207f527969f880912307ff0d194dbd7876d80e808ea",
    "fig6": "824c97d8e63e1750b8de4452c3b524aa3c204837f2e9f748c3b02d94800258c5",
    "fig8": "e5b9f0bf02f90370e466cfeb3137931142e638c957fccb50e197067064771b76",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verify_report_on_bench_families_is_pinned(name):
    fam = parse_family((FAMILIES / f"{name}.txt").read_text())
    meta = dict(fam.provenance)
    l, p, q = int(meta["l"]), int(meta.get("p", 4)), int(meta.get("q", 4))
    report = verify_properties(fam, l, p, q, check_unbounded=("left", "right"))
    assert hashlib.sha256(format_report(report).encode()).hexdigest() == PINNED_REPORTS[name]
    assert report.passed == all(ok for _, ok in report.checks)

