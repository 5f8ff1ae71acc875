"""Acceptance gate: each test is one numbered criterion, runs the full
check at its stated budget and prints a single pass line. Everything here
is exact arithmetic; the budgets are wall-clock ceilings."""

import random
import time
from fractions import Fraction
from math import comb

from linecells import (
    Line,
    LineFamily,
    Point,
    cli_main,
    concurrency_profile,
    construct_F,
    construct_thm12,
    contract,
    enumerate_cells,
    f_L_bound,
    figure10_family,
    find_n_convex,
    has_k_cell_unbounded,
    known_exact,
    largest_convex_subset,
    longest_cap,
    longest_cup,
    lower_bound_value,
    max_concurrency,
    parse_family,
    pencil,
    serialize_family,
    upper_bound_value,
    verify_properties,
)

from conftest import (
    brute_longest_cap,
    brute_longest_cup,
    max_collinear_duals,
    random_family,
    random_point,
    signs_at,
)
from oracles import intersect


def _pencil_family(l):
    return pencil(Point(0, -1), l - 1, tuple(range(1, l)))


def _pencil_plus_one(l):
    base = _pencil_family(l)
    return LineFamily(base.lines + (Line(l, 0),))


def _criterion_families():
    """Every family generated in criteria 1 through 4, for criterion 9."""
    fams = []
    for l in (3, 4, 5, 6):
        fams.append(_pencil_family(l))
        fams.append(_pencil_plus_one(l))
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            for l in (3, 4, 5):
                fams.append(construct_F(p, q, l))
    fams.append(construct_thm12(3, 6))
    fams.append(construct_thm12(3, 5))
    for l in (3, 4, 5):
        fams.append(figure10_family(l))
    return fams


def test_criterion_1_pencil_small_exact_values():
    for l in (3, 4, 5, 6):
        t0 = time.perf_counter()
        fam = _pencil_family(l)
        size, _ = largest_convex_subset(fam)
        assert size <= 2, f"pencil of {l - 1} lines has {size} in convex position"
        bigger = _pencil_plus_one(l)
        assert len(bigger) == l
        big_size, _ = largest_convex_subset(bigger)
        assert big_size <= 3, f"pencil plus one at l={l} has {big_size} convex"
        assert known_exact(l, 3) == (l - 1) + 1
        assert known_exact(l, 4) == l + 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"l={l} took {elapsed:.2f}s"
    print("criterion 1: PASS (pencil families realize the n=3,4 exact values)")


def test_criterion_2_proposition_31_suite():
    t0 = time.perf_counter()
    sizes = {}
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            for l in (3, 4, 5):
                fam = construct_F(p, q, l)
                sizes[(p, q, l)] = len(fam)
                report = verify_properties(fam, l=l, p=p, q=q)
                assert report.passed, f"F({p},{q},{l}) failed: {report.checks}"
                bound = Fraction(l - 1, 2) * comb(p + q - 2, q - 1) - Fraction(
                    l - 3, 2
                ) * comb(p + q - 4, q - 2)
                assert len(fam) >= bound, f"F({p},{q},{l}): {len(fam)} < {bound}"
    # the size recurrence where the recursive step applies
    for p in (3, 4):
        for q in (3, 4):
            for l in (3, 4, 5):
                assert (
                    sizes[(p, q, l)]
                    == sizes[(p - 1, q, l)] + sizes[(p, q - 1, l)]
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2: PASS (27 families verified in {elapsed:.1f}s)")


def test_criterion_3_theorem_12_witnesses():
    t0 = time.perf_counter()
    fam = construct_thm12(3, 6)
    assert len(fam) >= 8
    assert max_concurrency(fam).max_count <= 2
    assert find_n_convex(fam, 6) is None, "6 lines in convex position found"

    odd = construct_thm12(3, 5)
    assert len(odd) >= 6
    assert max_concurrency(odd).max_count <= 2
    assert find_n_convex(odd, 5) is None, "5 lines in convex position found"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"criterion 3: PASS (k=2 witnesses exhaustively checked in {elapsed:.1f}s)")


def test_criterion_4_figure10_suite():
    for l in (3, 4, 5):
        t0 = time.perf_counter()
        fam = figure10_family(l)
        assert len(fam) == 2 * l
        assert max_concurrency(fam).max_count == l - 1
        assert find_n_convex(fam, 5) is None, f"figure10({l}) has 5 convex"
        if l in (4, 5):
            assert 2 * l > lower_bound_value(l, 5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"figure10({l}) took {elapsed:.1f}s"
    print("criterion 4: PASS (2l lines, concurrency l-1, no 5 in convex position)")


def test_criterion_5_duality_oracles():
    t0 = time.perf_counter()
    rng = random.Random(20250816)
    for _ in range(200):
        fam = random_family(rng, min_lines=2, max_lines=8)
        assert longest_cup(fam).size == brute_longest_cup(fam)
        assert longest_cap(fam).size == brute_longest_cap(fam)
        assert max_concurrency(fam).max_count == max_collinear_duals(fam)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"criterion 5: PASS (200 families, DP == brute force, in {elapsed:.1f}s)")


def test_criterion_6_arrangement_correctness():
    t0 = time.perf_counter()
    rng = random.Random(1729)
    for _ in range(100):
        fam = random_family(rng, min_lines=2, max_lines=7, simple=True)
        n = len(fam)
        cells = enumerate_cells(fam)
        assert len(cells) == 1 + n + n * (n - 1) // 2
        by_signs = {cell.signs: cell for cell in cells}
        for cell in cells:
            assert signs_at(fam, cell.witness_point) == cell.signs
        hits = 0
        while hits < 10:
            signs = signs_at(fam, Point(*random_point(rng)))
            if signs is None:
                continue
            hits += 1
            assert signs in by_signs, f"sampled cell {signs} missing"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"criterion 6: PASS (100 simple families enumerated in {elapsed:.1f}s)")


def test_criterion_7_contraction_contract():
    t0 = time.perf_counter()
    rng = random.Random(60902)
    for _ in range(50):
        fam = random_family(rng, min_lines=2, max_lines=6)
        carrier = Line(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-6, 6), rng.choice((1, 2))),
        )
        eps = Fraction(1, rng.choice((3, 7, 12, 25)))
        g = contract(fam, carrier, eps)
        assert len(g) == len(fam)
        assert all(abs(line.m - carrier.m) < eps for line in g)
        pts = [
            intersect(g[i], g[j])
            for i in range(len(g))
            for j in range(i + 1, len(g))
        ]
        if pts:
            assert all(p.y < 0 for p in pts)
            dx = max(p.x for p in pts) - min(p.x for p in pts)
            dy = max(p.y for p in pts) - min(p.y for p in pts)
            assert dx * dx + dy * dy <= eps * eps
        assert concurrency_profile(g) == concurrency_profile(fam)
        assert longest_cup(g).size == longest_cup(fam).size
        assert longest_cap(g).size == longest_cap(fam).size
        for side in ("right", "left"):
            assert has_k_cell_unbounded(g, 4, side) == has_k_cell_unbounded(
                fam, 4, side
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"criterion 7: PASS (50 contractions satisfy (i)-(iii) in {elapsed:.1f}s)")


def test_criterion_8_bound_formulas():
    assert lower_bound_value(3, 6) == 8
    assert lower_bound_value(3, 5) == 6
    assert lower_bound_value(4, 5) == 7
    assert upper_bound_value(3, 5, c=1) == 140
    assert isinstance(lower_bound_value(3, 6), int)
    assert f_L_bound(3, 3, 3) == 10
    print("criterion 8: PASS (bound tables match hand-computed entries)")


def test_criterion_9_io_round_trip_and_cli(tmp_path, capsys):
    for fam in _criterion_families():
        text = serialize_family(fam)
        again = parse_family(text)
        assert again == fam
        assert serialize_family(again) == text

    # CLI contract: pencil of l concurrent lines is the counterexample at l
    pencil_path = tmp_path / "pencil5.txt"
    big = pencil(Point(0, -1), 5, (1, 2, 3, 4, 5))
    pencil_path.write_text(serialize_family(big))
    code = cli_main(
        ["verify", str(pencil_path), "--l", "5", "--p", "2", "--q", "2"]
    )
    assert code == 1
    code = cli_main(
        ["verify", str(pencil_path), "--l", "6", "--p", "2", "--q", "2"]
    )
    assert code == 0
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("zebra stripes\n")
    code = cli_main(["verify", str(garbage), "--l", "3", "--p", "2", "--q", "2"])
    assert code == 2
    capsys.readouterr()
    print("criterion 9: PASS (bit-exact round trips; CLI exit codes honored)")
