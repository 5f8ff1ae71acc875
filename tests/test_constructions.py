import ast
import collections
import gc
import hashlib
import itertools
import math
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linecells import (
    ConstructionError,
    ConstructionSpec,
    KINDS,
    Line,
    LineFamily,
    ParameterRangeError,
    Point,
    concurrency_profile,
    construct_F,
    construct_base,
    construct_base_caps,
    construct_prop32,
    construct_thm12,
    contract,
    exists_n_convex,
    figure10_family,
    find_n_convex,
    has_k_cell_unbounded,
    longest_cap,
    longest_cup,
    lower_bound_value,
    max_concurrency,
    parse_family,
    pencil,
    reflect_x,
    reflect_y,
    serialize_family,
    verify_properties,
)
from linecells import constructions

import oracles
from conftest import random_family, shift_high_bundles, subfamily

BENCH_FAMILIES = Path(__file__).resolve().parents[1] / "bench" / "families"


def test_pencil_basics():
    fam = pencil(Point(0, -1), 3, (1, 2, 3))
    assert len(fam) == 3
    assert max_concurrency(fam).point == Point(0, -1)
    with pytest.raises(ParameterRangeError):
        pencil(Point(0, 0), 2, (1, 2, 3))
    with pytest.raises(ParameterRangeError):
        pencil(Point(0, 0), 0, ())


def test_reflections_are_involutions():
    rng = random.Random(77)
    fam = random_family(rng, max_lines=5)
    assert reflect_y(reflect_y(fam)).lines == fam.lines
    assert reflect_x(reflect_x(fam)).lines == fam.lines


def test_reflect_x_swaps_cups_and_caps():
    fam = LineFamily((Line(-1, -1), Line(0, 0), Line(1, -1)))
    assert longest_cup(fam).size == 3
    assert longest_cap(reflect_x(fam)).size == 3
    assert longest_cup(reflect_x(fam)).size == 2


def test_base_sizes():
    for l in (3, 4, 5):
        assert len(construct_base(2, l)) == l - 1
        assert len(construct_base(3, l)) == l
    assert len(construct_base(7, 4)) == 10


def test_base_properties():
    fam = construct_base(5, 4)
    assert max_concurrency(fam).max_count == 3
    assert longest_cup(fam).size == 5
    assert longest_cap(fam).size == 2
    assert not has_k_cell_unbounded(fam, 4, "right")


def test_base_caps_mirror():
    fam = construct_base_caps(4, 3)
    assert longest_cap(fam).size == 4
    assert longest_cup(fam).size == 2
    assert not has_k_cell_unbounded(fam, 4, "right")


def test_base_validation():
    with pytest.raises(ParameterRangeError):
        construct_base(1, 3)
    with pytest.raises(ParameterRangeError):
        construct_base(3, 2)


def test_recursive_sizes():
    for l in (3, 4, 5):
        assert len(construct_F(3, 3, l)) == 2 * l
        assert len(construct_F(4, 3, l)) == 4 * l - 2
        assert len(construct_F(4, 4, l)) == 8 * l - 4
    assert len(construct_F(5, 5, 3)) == 70


def test_recursive_passes_verification():
    fam = construct_F(3, 4, 4)
    report = verify_properties(fam, l=4, p=3, q=4)
    assert report.passed


def test_epsilon_scale_knob():
    fam = construct_F(3, 3, 3, epsilon_scale=Fraction(1, 7))
    assert len(fam) == 6
    assert verify_properties(fam, l=3, p=3, q=3).passed


def test_contract_fixture():
    rng = random.Random(3141)
    fam = random_family(rng, min_lines=3, max_lines=5)
    carrier = Line(Fraction(3, 2), 4)
    eps = Fraction(1, 10)
    g = contract(fam, carrier, eps)
    assert len(g) == len(fam)
    assert all(abs(line.m - carrier.m) < eps for line in g)
    assert concurrency_profile(g) == concurrency_profile(fam)
    assert longest_cup(g).size == longest_cup(fam).size
    assert longest_cap(g).size == longest_cap(fam).size


def test_contract_single_line():
    g = contract(LineFamily((Line(9, 9),)), Line(0, -5), Fraction(1, 2))
    assert len(g) == 1
    assert abs(g[0].m) < Fraction(1, 2)


def test_contract_rejects_bad_eps():
    with pytest.raises(ParameterRangeError):
        contract(LineFamily((Line(1, 0),)), Line(0, -1), 0)


def test_contract_keeps_a_bound_that_is_a_power_of_two():
    # y = x + 1 onto y = -1 with eps = 1: the bound -py/(2(1 + R)), R = 3,
    # is 1/8 itself, so t is 1/8, not 1/16
    fam, carrier = LineFamily.from_pairs(1, [(1, 1)]), Line(0, -1)
    g = contract(fam, carrier, 1)
    assert g.lines == oracles.contract(fam, carrier, 1).lines
    assert g[0].m == Fraction(1, 8)


def test_contract_reads_no_vertex_table():
    # the frame is the view's one n^2 table; contract needs only the pairs
    # and the rim, so it builds the frame on neither view
    fam = construct_F(4, 4, 4)
    assert "frame" not in fam.view.__dict__
    g = contract(fam, Line(Fraction(3, 2), 4), Fraction(1, 10))
    assert "frame" not in fam.view.__dict__
    assert "frame" not in g.view.__dict__


@pytest.mark.parametrize(
    "build",
    [lambda: construct_F(6, 5, 4), lambda: construct_prop32(3, 3, "even")],
    ids=["F654", "prop32_3_3_even"],
)
def test_recursive_builders_make_no_lines(monkeypatch, build):
    # Every family, the base families too, is made from integer pairs and
    # leaves its lines unbuilt, and serializing the one returned prints its
    # pairs without building them
    made, given, paired = [0], [], []
    post_init, init = Line.__post_init__, LineFamily.__init__
    from_pairs = LineFamily.from_pairs.__func__

    def counted_post_init(line):
        made[0] += 1
        post_init(line)

    def counted_init(family, lines, *args, **kwargs):
        lines = tuple(lines)
        given.append(len(lines))
        init(family, lines, *args, **kwargs)

    def kept_from_pairs(cls, *args, **kwargs):
        paired.append(from_pairs(cls, *args, **kwargs))
        return paired[-1]

    monkeypatch.setattr(Line, "__post_init__", counted_post_init)
    monkeypatch.setattr(LineFamily, "__init__", counted_init)
    monkeypatch.setattr(LineFamily, "from_pairs", classmethod(kept_from_pairs))
    fam = build()
    assert (made[0], given) == (0, [])
    assert [f for f in paired if "lines" in vars(f)] == []
    assert fam in paired
    serialize_family(fam)
    assert made[0] == 0
    assert "lines" not in vars(fam)


# sha256 of serialize_family, recorded while contract still mapped each line
# in Fraction operations (oracles.contract): the integer contraction must
# reproduce every generated family byte for byte
PINNED_DIGESTS = {
    "F554": (
        lambda: construct_F(5, 5, 4),
        "2f31317ac1bc2c1bb1d1f9a01adeb822da0b3315bb0a3176f14ffa7fa8c7873a",
    ),
    "F444_scale_1_3": (
        lambda: construct_F(4, 4, 4, epsilon_scale=Fraction(1, 3)),
        "258501a205d51df19c57bdbbfaf57f2e3ae6fd131f914911c0050f8a8eee3eb6",
    ),
    "prop32_3_3_even": (
        lambda: construct_prop32(3, 3, "even"),
        "59bdd21e4324eccf76937a4da2abe9c5969b745cf064aecc6e479498de3ac434",
    ),
    "prop32_4_3_odd": (
        lambda: construct_prop32(4, 3, "odd"),
        "20add37d230ee1e071c63451901d26a2acc2dc1143b64d2e6724b2edd475b22d",
    ),
    "thm12_3_6": (
        lambda: construct_thm12(3, 6),
        "f3979070885869cc7a7389050857ea28e547802d56fc1b21f47b3b1bb1ed79b7",
    ),
    "thm12_3_5": (
        lambda: construct_thm12(3, 5),
        "00c3f76f20380f0b75838e234403b0967db18f469b1bcbbd91209ecbd15a8a10",
    ),
    # recorded while the base families and figure10 were still built from
    # Fraction Lines (oracles.construct_base), and construct_F's squeeze
    # bound was taken in Fractions
    "base_5_4": (
        lambda: construct_base(5, 4),
        "6e6e1b074741d58979a2b55cfac4d736e35f70b41133c45f2a7b2546ccec0a5c",
    ),
    "base_4_4_scale_1_3": (
        lambda: construct_base(4, 4, epsilon_scale=Fraction(1, 3)),
        "dbfa3b72e858b92cca0c8075d076ddf81a969be259b3e754934a588d1deab239",
    ),
    "base_caps_4_3_scale_7_2": (
        lambda: construct_base_caps(4, 3, epsilon_scale=Fraction(7, 2)),
        "439a83c2b4a2aa3af4fea03f3d52fa74db5cecb2355ec2be9abe214ea1709fee",
    ),
    "F334_scale_3": (
        lambda: construct_F(3, 3, 4, epsilon_scale=3),
        "2969d3f4dab130e3180f380ec84ab06cb3462453dba3bafed85bda7dda36149a",
    ),
    "figure10_6": (
        lambda: figure10_family(6),
        "692b3eb62bbc0b27f983e519bcf0e94a31d82f216c3d90d72b8e1b1890744436",
    ),
    "figure10_3_scale_100": (
        lambda: figure10_family(3, epsilon_scale=100),
        "f6074c236d427c4bd3747813dba202a2d745d3457f3279869657608aa026725c",
    ),
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_generated_family_is_byte_identical(name):
    build, digest = PINNED_DIGESTS[name]
    assert hashlib.sha256(serialize_family(build()).encode()).hexdigest() == digest


def test_construct_F_builds_each_base_family_once(monkeypatch):
    # F(2, q) is F(q, 2) mirrored, so both sides share one base family
    built = []
    base = constructions.construct_base

    def counted_base(p, *args):
        built.append(p)
        return base(p, *args)

    monkeypatch.setattr(constructions, "construct_base", counted_base)
    fam = construct_F(5, 5, 4)
    assert sorted(built) == [3, 4, 5]
    assert hashlib.sha256(serialize_family(fam).encode()).hexdigest() == PINNED_DIGESTS["F554"][1]


def test_construct_F_measures_right_cells_on_base_families_only(monkeypatch):
    # the joins bound every other family's right staircases (construct_F)
    sizes = sorted(len(construct_base(p, 4)) for p in (3, 4, 5))
    measured = []
    has_cell = constructions.has_k_cell_unbounded

    def counted(fam, *args):
        measured.append(len(fam))
        return has_cell(fam, *args)

    monkeypatch.setattr(constructions, "has_k_cell_unbounded", counted)
    construct_F(5, 5, 4)
    assert sorted(measured) == sizes


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("l", range(3, 7))
def test_construct_F_is_the_level_by_level_family_byte_for_byte(l, scale):
    # every F(p, q, l) with 2 <= p, q <= 8 and p + q <= 14, 46 of them for
    # each l and scale: the nodes' carried lines decide each exponent and
    # join as the whole families did (construct_F)
    memo, count = {}, 0
    for p, q in itertools.product(range(2, 9), repeat=2):
        if p + q <= 14:
            fam = construct_F(p, q, l, epsilon_scale=scale)
            levels = oracles.construct_F_by_levels(p, q, l, Fraction(scale), memo)
            assert serialize_family(fam) == serialize_family(levels.with_meta(provenance=fam.provenance))
            count += 1
    assert count == 46


@pytest.mark.parametrize("scale", [1, Fraction(1, 3), 3], ids=str)
@pytest.mark.parametrize("l", [3, 4, 5])
def test_construct_F_nodes_carry_exactly_what_the_level_families_hold(l, scale):
    # each node's reach (reduced scale included), lines and basis against
    # the family the level-by-level builder made at that (p, q)
    nodes, levels = {}, {}
    constructions._construct_F(7, 7, l, Fraction(scale), nodes)
    oracles.construct_F_by_levels(7, 7, l, Fraction(scale), levels)
    assert nodes.keys() == levels.keys()
    for fam, node in ((levels[key], nodes[key]) for key in nodes):
        pairs, steps = fam.pairs, fam.view.steps
        assert node.reach == constructions._reach(fam)
        first, last, *lines = node.lines
        assert (first, last) == (pairs[0], pairs[-1])
        for (i, j), step in zip((lines[:2], lines[2:]), (min(steps), max(steps))):
            at = pairs.index(i)
            assert pairs[at + 1] == j and steps[at] == step
        # the basis spans the pairs' differences: it holds each of them,
        # and, checked up to 40 lines, its determinant is the gcd of their
        # 2x2 minors
        (a, b), d = node.basis
        diffs = [(m - first[0], c - first[1]) for m, c in pairs]
        for x, y in diffs:
            assert x % a == 0 and (y - x // a * b) % d == 0
        if len(diffs) <= 40:
            minors = [x * v - y * u for (x, y), (u, v) in itertools.combinations(diffs, 2)]
            assert abs(a) * d == math.gcd(*minors)


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize(
    "build",
    [
        lambda p: construct_F(p, p, 4),
        lambda p: oracles.construct_F_by_levels(p, p, 4, Fraction(1), {}),
    ],
    ids=["nodes", "levels"],
)
def test_uncontracted_bundles_fail_the_first_join(monkeypatch, build, p):
    # with the exponent forced to 0 the bundles are not squeezed, they
    # overlap, and the first join built, F(3, 3, 4), must refuse them
    monkeypatch.setattr(constructions, "_clog", lambda a, b: 0)
    with pytest.raises(ConstructionError, match=re.escape("F(3, 3, 4) fails its join order check")):
        build(p)


def test_construct_F_contracts_and_joins_no_family(monkeypatch):
    # bench/tracing.py looks these names up on the module
    for name in ("contract", "max_concurrency", "longest_cup", "longest_cap", "has_k_cell_unbounded"):
        assert callable(getattr(constructions, name))
    bases = [construct_base(p, 4) for p in range(3, 9)]
    allowed = {(f.scale, f.pairs) for base in bases for f in (base, reflect_x(base))}
    calls, built = [], []
    for name in ("contract", "_contract", "_join"):
        monkeypatch.setattr(constructions, name, lambda *args, name=name: calls.append(name))
    from_pairs = LineFamily.from_pairs.__func__

    def spied(cls, *args, **kwargs):
        built.append(from_pairs(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(LineFamily, "from_pairs", classmethod(spied))
    fam = construct_F(8, 8, 4)
    assert calls == []
    assert {(f.scale, f.pairs) for f in built} - allowed == {(fam.scale, fam.pairs)}
    # the memo holds nodes, and of families only the leaves' base families
    memo = {}
    constructions._construct_F(8, 8, 4, Fraction(1), memo)
    leaves = [node.parts for node in memo.values() if isinstance(node.parts, LineFamily)]
    assert {(f.scale, f.pairs) for f in leaves} == allowed
    assert len(leaves) == len(allowed) and len(memo) == len(leaves) + 36


def test_construct_F_coordinate_bits():
    # 128 bits is what the retrying contraction reached; the closed form stays within it
    fam = construct_F(6, 5, 4)
    bits = max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for line in fam
        for v in (line.m, line.c)
    )
    assert bits <= 128


CERTIFIED_GENERATORS = (
    lambda: construct_F(4, 4, 4),
    lambda: construct_prop32(4, 2, "even"),
    lambda: construct_thm12(4, 6),
)


@pytest.mark.parametrize("build", CERTIFIED_GENERATORS)
def test_certification_is_never_silent(monkeypatch, build):
    if build is CERTIFIED_GENERATORS[0]:
        # construct_F's joins prove its contract: a join whose bundles
        # overlap, here left uncontracted, must fail the order test
        # (test_join_order_is_what_bounds_the_chains)
        monkeypatch.setattr(constructions, "_clog", lambda a, b: 0)
        check = "join order"
    else:
        # a pencil of l lines breaks the "fewer than l concurrent" contract
        monkeypatch.setattr(
            constructions, "_construct_F",
            lambda p, q, l, scale, memo: pencil(Point(0, -1), l, range(1, l + 1)),
        )
        check = "concurrency"
    with pytest.raises(ConstructionError, match=check):
        build()


def test_join_order_is_what_bounds_the_chains(monkeypatch):
    # with the high bundle shifted left by 3 and the order test switched
    # off, the joins of F(4, 4, 4) build a 6-cup and a 6-cap
    shift_high_bundles(monkeypatch, 3)
    monkeypatch.setattr(oracles, "join_test", lambda a: ("join order", lambda fam: True, "is", True))
    fam = oracles.construct_F_by_levels(4, 4, 4, Fraction(1), {})
    assert (longest_cup(fam).size, longest_cap(fam).size) == (6, 6)


def right_cell(fam):
    """The most lines bounding one right-unbounded cell, by the cubic scan."""
    return max(map(len, oracles.staircase_members(fam, "right").values()))


@pytest.mark.parametrize("p, lines", [(3, 4), (4, 10), (5, 14)])
def test_join_order_is_what_bounds_the_right_staircases(monkeypatch, p, lines):
    # the overlapping joins of the shifted bundles, unchecked, open right
    # cells that no join passing the order test can have
    shift_high_bundles(monkeypatch, 3)
    monkeypatch.setattr(oracles, "join_test", lambda a: ("join order", lambda fam: True, "is", True))
    assert right_cell(oracles.construct_F_by_levels(p, p, 4, Fraction(1), {})) == lines


def random_part(rng):
    """A random family of 1 to 8 lines, or a pencil of 1 to 6."""
    if rng.random() < 0.3:
        count = rng.randint(1, 6)
        apex = Point(rng.randint(-5, 5), rng.randint(-5, 5))
        return pencil(apex, count, rng.sample(range(-9, 10), count))
    return random_family(rng, min_lines=1)


def test_any_join_in_order_has_no_right_4_cell():
    # construct_F's proof uses only the join order, not what the parts are
    rng = random.Random(27)
    largest = 0
    for _ in range(60):
        eps = Fraction(1, rng.randint(4, 1000))
        low = contract(random_part(rng), Line(1, 2), eps)
        high = contract(random_part(rng), Line(2, 2), eps)
        fam = constructions._join(low, high)
        assert oracles.join_test(len(low))[1](fam)
        largest = max(largest, right_cell(fam))
    assert largest == 3
    # nor where the carriers lie: any two with rising slopes, each bundle
    # narrower than a quarter of their slope gap
    outcomes = collections.Counter()
    for _ in range(80):
        m_low, m_high = (Fraction(m, 4) for m in sorted(rng.sample(range(-12, 13), 2)))
        eps = (m_high - m_low) / rng.randint(5, 100)
        low = contract(random_part(rng), Line(m_low, rng.randint(-9, 9)), eps)
        high = contract(random_part(rng), Line(m_high, rng.randint(-9, 9)), eps)
        fam = constructions._join(low, high)
        holds = oracles.join_test(len(low))[1](fam)
        assert holds is crossing_order(fam, len(low))
        if holds:
            check_join(low, high, fam)
        outcomes[holds] += 1
    assert outcomes == {True: 25, False: 55}


def shifted(bundle, dx, dy):
    """The bundle moved left by dx and up by dy: y = m*(x + dx) + c + dy."""
    d = dx.denominator
    s = bundle.scale * d
    return LineFamily.from_pairs(
        s, [(m * d, c * d + dx.numerator * m + dy * s) for m, c in bundle.pairs]
    )


def crossings(fam, pairs):
    """The abscissae, in Fractions, where the pairs of lines of fam cross."""
    lines = fam.lines
    return [(lines[i].c - lines[j].c) / (lines[j].m - lines[i].m) for i, j in pairs]


def crossing_order(fam, a):
    """Whether, in Fractions, every crossing of two of the first a lines or
    of two others lies strictly left of every crossing of a first and
    another line."""
    n = len(fam)
    inside = crossings(fam, itertools.combinations(range(a), 2))
    inside += crossings(fam, itertools.combinations(range(a, n), 2))
    across = min(crossings(fam, itertools.product(range(a), range(a, n))))
    return all(x < across for x in inside)


def test_join_order_reads_every_crossing():
    memo = {}
    oracles.construct_F_by_levels(4, 4, 4, Fraction(1), memo)
    low = contract(memo[3, 4, 4], Line(1, 2), Fraction(1, 4))
    high = contract(memo[4, 3, 4], Line(2, 2), Fraction(1, 4))
    # the low bundle moved right by 2 and up by 2: its crossings pass the
    # high bundle's, and both stay left of every low-high crossing
    crossed = shifted(low, Fraction(-2), 2)
    # a pencil split in two meets at X0, where the test ties and refuses
    joins = [(crossed, high), (pencil(Point(0, 1), 2, (1, 2)), pencil(Point(0, 1), 2, (3, 4)))]
    for dx in (Fraction(k, 8) for k in range(-16, 25)):
        for dy in (0, 1):
            joins += [(shifted(low, dx, dy), high), (low, shifted(high, dx, dy))]
    seen = set()
    for a, b in joins:
        fam = constructions._join(a, b)
        order = crossing_order(fam, len(a))
        assert oracles.join_test(len(a))[1](fam) is order
        seen.add(order)
    assert seen == {True, False}
    fam, a = constructions._join(crossed, high), len(crossed)
    low_low = crossings(fam, itertools.combinations(range(a), 2))
    high_high = crossings(fam, itertools.combinations(range(a, len(fam)), 2))
    assert min(low_low) > max(high_high) and crossing_order(fam, a)
    check_join(crossed, high, fam)


def chain_figures(fam):
    return longest_cup(fam).size, longest_cap(fam).size, max_concurrency(fam).max_count


def check_join(low, high, fam):
    """fam, the join of low and high, has by the census the cup
    max(cup_low + 1, cup_high), the cap max(cap_low, cap_high + 1) and the
    concurrency max(conc_low, conc_high, 2) of its two bundles, and no
    right-unbounded cell of more than 3 lines. Returns its figures."""
    cup_low, cap_low, conc_low = chain_figures(low)
    cup_high, cap_high, conc_high = chain_figures(high)
    figures = chain_figures(fam)
    assert figures == (
        max(cup_low + 1, cup_high),
        max(cap_low, cap_high + 1),
        max(conc_low, conc_high, 2),
    )
    # construct_F proves no join has a right-unbounded 4-cell
    assert max(map(len, oracles.scan_staircases(fam, "right"))) <= 3
    return figures


def check_join_rule(p, q, l, scale):
    """Each join of F(p, q, l) at this scale keeps the join rule of its two
    bundles (check_join) within the contract. Returns the number of joins."""
    memo = {}
    oracles.construct_F_by_levels(p, q, l, Fraction(scale), memo)
    joins = [(a, b) for a, b, _ in memo if a >= 3 and b >= 3]
    for a, b in joins:
        cup, cap, conc = check_join(memo[a - 1, b, l], memo[a, b - 1, l], memo[a, b, l])
        assert cup <= a and cap <= b and conc < l, (a, b)
    return len(joins)


@pytest.mark.parametrize("scale", [1, Fraction(1, 3), 3], ids=str)
def test_join_rule_matches_the_census(scale):
    assert check_join_rule(6, 6, 4, scale) == 16


@settings(max_examples=15, deadline=None)
@given(
    st.integers(3, 5),
    st.integers(3, 5),
    st.integers(3, 6),
    st.fractions(Fraction(1, 100), 100, max_denominator=100),
)
def test_join_rule_matches_the_census_at_random(p, q, l, scale):
    assert check_join_rule(p, q, l, scale) == (p - 2) * (q - 2)


def test_prop32_sizes():
    assert len(construct_prop32(3, 2, "even")) == 4
    assert len(construct_prop32(4, 2, "even")) == 6
    assert len(construct_prop32(3, 2, "odd")) == 3
    fam = construct_prop32(4, 2, "even")
    assert max_concurrency(fam).max_count < 4
    assert not exists_n_convex(fam, 6)


def test_prop32_validation():
    with pytest.raises(ValueError):
        construct_prop32(3, 2, "both")
    with pytest.raises(ParameterRangeError):
        construct_prop32(3, 1, "even")


def test_thm12_small_cases():
    for (l, n, size) in ((3, 5, 6), (3, 6, 8), (4, 5, 8)):
        fam = construct_thm12(l, n)
        assert len(fam) == size
        assert len(fam) >= lower_bound_value(l, n)
        assert max_concurrency(fam).max_count < l
        assert not exists_n_convex(fam, n)


@pytest.mark.xfail(
    strict=True,
    raises=ConstructionError,
    reason="the thm12(3, 7) assembly has 7 lines in convex position, so its "
    "certification raises",
)
def test_thm12_3_7_has_no_7_in_convex_position():
    assert find_n_convex(construct_thm12(3, 7), 7) is None


def check_convex_position_failure(monkeypatch, build, n):
    """build raises on its no-n-convex check, and the error names n lines
    of the searched family that the 2^n scan finds in convex position."""
    searched = []

    def spy(family, size):
        searched.append(family)
        return find_n_convex(family, size)

    monkeypatch.setattr(constructions, "find_n_convex", spy)
    with pytest.raises(ConstructionError, match=f"no {n} in convex position") as info:
        build()
    witness = ast.literal_eval(re.search(r"found (\(.*?\))", str(info.value)).group(1))
    assert len(witness) == n and list(witness) == sorted(set(witness))
    assert oracles.convex_position_cell(subfamily(searched[-1], witness)) is not None


@pytest.mark.parametrize("l", [3, 4])
def test_thm12_n7_fails_its_convex_position_check(monkeypatch, l):
    check_convex_position_failure(monkeypatch, lambda: construct_thm12(l, 7), 7)


def test_prop32_3_4_odd_fails_its_convex_position_check(monkeypatch):
    # 210 lines with a 10-cup: the assembly is broken at k = 4, and the
    # cup alone settles the check
    check_convex_position_failure(monkeypatch, lambda: construct_prop32(3, 4, "odd"), 9)


def test_prop32_3_4_even_fails_its_convex_position_check(monkeypatch):
    # 400 lines, whose first witness is the 10 lines
    # (0, 1, 4, 10, 80, 110, 136, 140, 162, 180)
    check_convex_position_failure(monkeypatch, lambda: construct_prop32(3, 4, "even"), 10)


def test_thm12_scaffold_checks_its_cross_vertices(monkeypatch):
    # every bundle 10 lower puts the falling/rising crossings near (0, -6)
    def lowered(family, a, eps):
        return LineFamily(tuple(Line(line.m, line.c - 10) for line in contract(family, a, eps)))

    monkeypatch.setattr(constructions, "contract", lowered)
    with pytest.raises(ConstructionError, match="cross vertices below the axis"):
        construct_thm12(3, 6)


def cross_heights(falling, rising):
    return [f.y_at((r.c - f.c) / (f.m - r.m)) for f in falling for r in rising]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("drop", [0, 3, 4, 10, "lowest"])
def test_thm12_scaffold_root_test_matches_its_cross_vertices(monkeypatch, k, drop):
    # the scaffold compares the lines' roots; it must fail exactly when some
    # falling line meets some rising line at or below the axis. "lowest"
    # lowers every bundle by the height of the lowest such vertex, which
    # puts it on the axis where the core is a base family (k = 2)
    def lowered(family, a, eps):
        return LineFamily(tuple(Line(line.m, line.c - drop) for line in contract(family, a, eps)))

    join, joined = constructions._join, []

    def kept_join(*families):
        joined.append(families)
        return join(*families)

    monkeypatch.setattr(constructions, "_join", kept_join)
    if drop == "lowest":
        constructions._thm12_scaffold(k, Fraction(1), {})
        drop = min(cross_heights(*joined[-1]))
    monkeypatch.setattr(constructions, "contract", lowered)
    try:
        constructions._thm12_scaffold(k, Fraction(1), {})
        failed = False
    except ConstructionError as exc:
        assert "cross vertices below the axis" in str(exc)
        failed = True
    assert failed == (min(cross_heights(*joined[-1])) <= 0)


def test_every_assembly_runs_its_convex_position_check(monkeypatch):
    # C(28, 7) subsets: the largest check an assembly of this size makes
    calls = []

    def spy(family, n):
        calls.append((len(family), n))
        return None

    monkeypatch.setattr(constructions, "find_n_convex", spy)
    fam = construct_prop32(4, 3, "odd")
    assert len(fam) == 28
    assert (28, 7) in calls


def test_thm12_validation():
    with pytest.raises(ParameterRangeError):
        construct_thm12(2, 6)
    with pytest.raises(ParameterRangeError):
        construct_thm12(3, 4)


def test_figure10_counts():
    for l in (3, 4):
        fam = figure10_family(l)
        assert len(fam) == 2 * l
        assert max_concurrency(fam).max_count == l - 1
        assert not exists_n_convex(fam, 5)


def test_figure10_builds_past_the_convex_budget():
    # 32 lines, C(32, 5) = 201376 subsets: the 5-convex check runs in full
    fam = figure10_family(16)
    assert len(fam) == 32
    assert max_concurrency(fam).max_count == 15


@pytest.mark.parametrize("l", [3, 4, 5, 6])
@pytest.mark.parametrize("scale", [Fraction(1, 1000), 1, 10, 1000])
def test_figure10_contract_at_every_scale(l, scale):
    fam = figure10_family(l, scale)
    assert len(fam) == 2 * l
    assert max_concurrency(fam).max_count == l - 1
    assert not exists_n_convex(fam, 5)


def test_construction_spec_round_trip():
    for spec in (
        ConstructionSpec(kind="recursive_pq", p=3, q=4, l=5),
        ConstructionSpec(kind="recursive_pq", p=3, q=3, l=4, epsilon_scale=Fraction(1, 3)),
    ):
        pairs = spec.provenance()
        assert ("kind", "recursive_pq") in pairs
        assert ConstructionSpec.from_provenance(pairs) == spec
        # the family's header rebuilds the same family
        fam = spec.build()
        rebuilt = ConstructionSpec.from_provenance(fam.provenance).build()
        assert (rebuilt.lines, rebuilt.provenance) == (fam.lines, fam.provenance)
    assert ConstructionSpec.from_provenance((("note", "x"),)) is None


def test_construction_spec_validation():
    with pytest.raises(ParameterRangeError):
        ConstructionSpec(kind="nope")
    with pytest.raises(ParameterRangeError):
        ConstructionSpec(kind="recursive_pq", p=3, q=4)
    with pytest.raises(ParameterRangeError):
        ConstructionSpec(kind="thm12_even", l=3, n=5)
    with pytest.raises(ParameterRangeError):
        ConstructionSpec(kind="base_pq2", p=1, l=3)


@pytest.mark.parametrize(
    "params",
    [
        dict(kind="figure10", l=3, p=5),
        dict(kind="recursive_pq", p=3, q=3, l=4, k=2),
        dict(kind="thm12_even", l=3, n=6, q=2),
        dict(kind="pencil", n=4, epsilon_scale=Fraction(1, 3)),
    ],
    ids=["figure10-p", "recursive_pq-k", "thm12-q", "pencil-scale"],
)
def test_construction_spec_rejects_what_its_kind_does_not_take(params):
    with pytest.raises(ParameterRangeError, match="takes no"):
        ConstructionSpec(**params)


@pytest.mark.parametrize("path", sorted(BENCH_FAMILIES.glob("*.txt")), ids=lambda path: path.stem)
def test_bench_family_headers_rebuild_through_from_provenance(path):
    # the stored files keep the lines of the generator that wrote them, so
    # only the size and the header must come back
    fam = parse_family(path.read_text())
    rebuilt = ConstructionSpec.from_provenance(fam.provenance).build()
    assert (len(rebuilt), rebuilt.provenance) == (len(fam), fam.provenance)


def test_construction_spec_build_matches_direct():
    spec = ConstructionSpec(kind="base_pq2", p=3, l=4)
    assert spec.build().lines == construct_base(3, 4).lines
    spec = ConstructionSpec(kind="pencil", n=4)
    fam = spec.build()
    assert len(fam) == 4
    assert max_concurrency(fam).max_count == 4


# the smallest direct call of each generator, at a given epsilon_scale
DIRECT_CALLS = {
    "base_pq2": lambda scale: construct_base(2, 3, scale),
    "base_2q": lambda scale: construct_base_caps(2, 3, scale),
    "recursive_pq": lambda scale: construct_F(3, 3, 4, epsilon_scale=scale),
    "prop32_even": lambda scale: construct_prop32(3, 2, "even", scale),
    "prop32_odd": lambda scale: construct_prop32(3, 2, "odd", scale),
    "thm12_even": lambda scale: construct_thm12(3, 6, scale),
    "thm12_odd": lambda scale: construct_thm12(3, 5, scale),
    "figure10": lambda scale: figure10_family(3, scale),
}


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)], ids=["scale1", "scale1_3"])
@pytest.mark.parametrize("kind", sorted(DIRECT_CALLS))
def test_every_generators_header_rebuilds_it(kind, scale):
    fam = DIRECT_CALLS[kind](scale)
    assert dict(fam.provenance)["kind"] == kind
    rebuilt = ConstructionSpec.from_provenance(fam.provenance).build()
    assert (rebuilt.lines, rebuilt.provenance) == (fam.lines, fam.provenance)


def test_only_the_pencil_recipe_writes_a_header():
    assert set(DIRECT_CALLS) == set(KINDS) - {"pencil"}
    fam = ConstructionSpec(kind="pencil", n=3).build()
    assert fam.provenance == (("kind", "pencil"), ("n", "3"))
    rebuilt = ConstructionSpec.from_provenance(fam.provenance).build()
    assert (rebuilt.lines, rebuilt.provenance) == (fam.lines, fam.provenance)
    assert fam.lines == pencil(Point(0, -1), 3, [1, 2, 3]).lines
    assert pencil(Point(0, -1), 3, [1, 2, 3]).provenance is None
    assert pencil(Point(0, 0), 3, [1, 2, 3]).provenance is None


def test_provenance_tags_present():
    fam = construct_F(3, 3, 3)
    assert dict(fam.provenance)["kind"] == "recursive_pq"
    fam = figure10_family(3)
    assert dict(fam.provenance)["kind"] == "figure10"
    spec = ConstructionSpec.from_provenance(fam.provenance)
    assert spec.kind == "figure10" and spec.l == 3


def test_kinds_name_every_generator():
    assert set(KINDS) == {
        "pencil",
        "base_pq2",
        "base_2q",
        "recursive_pq",
        "prop32_even",
        "prop32_odd",
        "thm12_even",
        "thm12_odd",
        "figure10",
    }



def test_construct_F_keeps_no_family_alive():
    # the returned family shares its Line objects with the one built inside,
    # so a Line still alive after the caller drops the family was pinned
    fam = construct_F(4, 4, 4, epsilon_scale=Fraction(1, 3))
    refs = [weakref.ref(line) for line in fam]
    del fam
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
