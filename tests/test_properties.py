"""Property-based checks of the exact-arithmetic invariants."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linecells import (
    Line,
    LineFamily,
    Point,
    construct_base,
    contract,
    enumerate_cells,
    has_k_cell_unbounded,
    is_convex_position,
    is_cup,
    longest_cap,
    longest_cup,
    max_concurrency,
    parse_family,
    reflect_y,
    serialize_family,
)

from conftest import (
    brute_longest_cap,
    brute_longest_cup,
    max_collinear_duals,
    signs_at,
    subfamily,
)
import oracles
from oracles import orientation, side_of

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)

LOOSE = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def families(draw, min_lines=2, max_lines=5):
    n = draw(st.integers(min_lines, max_lines))
    slopes = draw(
        st.lists(rationals, min_size=n, max_size=n, unique=True)
    )
    intercepts = draw(st.lists(rationals, min_size=n, max_size=n))
    return LineFamily(tuple(Line(m, c) for m, c in zip(slopes, intercepts)))


@LOOSE
@given(families())
def test_serialize_parse_round_trip(fam):
    text = serialize_family(fam)
    assert parse_family(text) == fam
    # each coordinate, printed from the integer pairs, reads as str(Fraction)
    assert text.splitlines() == [f"{line.m} {line.c}" for line in fam]


@LOOSE
@given(families(), rationals, rationals, rationals)
def test_side_of_is_shear_invariant(fam, shear, px, py):
    # (x, y) -> (x, y + shear*x) maps y = mx + c to y = (m+shear)x + c
    for line in fam:
        moved = Line(line.m + shear, line.c)
        assert side_of(line, Point(px, py)) == side_of(
            moved, Point(px, py + shear * px)
        )


@LOOSE
@given(families(min_lines=3, max_lines=5))
def test_concurrency_equals_collinear_duals(fam):
    assert max_concurrency(fam).max_count == max_collinear_duals(fam)


@LOOSE
@given(families(max_lines=5))
def test_chain_dp_matches_brute_force(fam):
    assert longest_cup(fam).size == brute_longest_cup(fam)
    assert longest_cap(fam).size == brute_longest_cap(fam)


@LOOSE
@given(families(min_lines=3, max_lines=5))
def test_cups_are_hereditary(fam):
    witness = longest_cup(fam).witness
    cup = subfamily(fam, witness)
    for size in range(1, len(cup) + 1):
        for combo in itertools.combinations(range(len(cup)), size):
            assert is_cup(subfamily(cup, combo))


@LOOSE
@given(families(min_lines=3, max_lines=5))
def test_convex_position_is_hereditary(fam):
    if not is_convex_position(fam):
        return
    for combo in itertools.combinations(range(len(fam)), len(fam) - 1):
        assert is_convex_position(subfamily(fam, combo))


@LOOSE
@given(families(max_lines=5))
def test_cell_witnesses_validate(fam):
    for cell in enumerate_cells(fam):
        assert signs_at(fam, cell.witness_point) == cell.signs


@LOOSE
@given(families(max_lines=5))
def test_reflect_y_swaps_unbounded_sides(fam):
    mirrored = reflect_y(fam)
    for k in (2, 3, 4):
        assert has_k_cell_unbounded(fam, k, "right") == has_k_cell_unbounded(
            mirrored, k, "left"
        )
        assert has_k_cell_unbounded(fam, k, "left") == has_k_cell_unbounded(
            mirrored, k, "right"
        )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    families(max_lines=4),
    st.fractions(min_value=Fraction(1, 40), max_value=1, max_denominator=40),
)
def test_contract_preserves_chain_structure(fam, eps):
    carrier = Line(Fraction(1), Fraction(2))
    g = contract(fam, carrier, eps)
    assert len(g) == len(fam)
    assert all(abs(line.m - carrier.m) < eps for line in g)
    assert longest_cup(g).size == longest_cup(fam).size
    assert longest_cap(g).size == longest_cap(fam).size
    assert max_concurrency(g).max_count == max_concurrency(fam).max_count


@st.composite
def concurrent_families(draw):
    """A pencil of at least two lines through a random point, with the
    remaining slopes given random intercepts."""
    px, py = draw(rationals), draw(rationals)
    slopes = draw(st.lists(rationals, min_size=2, max_size=6, unique=True))
    size = draw(st.integers(2, len(slopes)))
    lines = [Line(m, py - m * px) for m in slopes[:size]]
    lines += [Line(m, draw(rationals)) for m in slopes[size:]]
    return LineFamily(tuple(lines))


# one carrier strategy per anchor of contract: sloped, flat below the axis,
# flat on or above it
CARRIERS = {
    "sloped": st.builds(Line, rationals.filter(bool), rationals),
    "flat_below": st.builds(
        Line, st.just(0), st.fractions(min_value=-10, max_value=Fraction(-1, 6), max_denominator=6)
    ),
    "flat_above": st.builds(
        Line, st.just(0), st.fractions(min_value=0, max_value=10, max_denominator=6)
    ),
}


@pytest.mark.parametrize("anchor", CARRIERS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    fam=st.one_of(families(min_lines=1, max_lines=6), concurrent_families()),
    eps=st.one_of(
        st.sampled_from((Fraction(1, 4), Fraction(1, 1000), Fraction(1), Fraction(7))),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6),
    ),
)
def test_contract_matches_fraction_oracle(anchor, data, fam, eps):
    carrier = data.draw(CARRIERS[anchor])
    assert contract(fam, carrier, eps).lines == oracles.contract(fam, carrier, eps).lines


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    p=st.integers(2, 9),
    l=st.integers(3, 7),
    scale=st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6),
)
def test_base_family_matches_the_line_built_oracle(p, l, scale):
    # the base family's pairs, written over one denominator, are the
    # canonical form of the Fraction Lines it was once built from
    fam, lines = construct_base(p, l, scale), oracles.construct_base(p, l, scale)
    assert (fam.scale, fam.pairs) == (lines.scale, lines.pairs)


@st.composite
def scaled_pairs(draw, min_lines=1):
    """(den, pairs) for from_pairs: M strictly rising, and a factor of den
    shared with every coordinate."""
    n = draw(st.integers(min_lines, 6))
    ms = sorted(draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True)))
    cs = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    shared = draw(st.integers(1, 12))
    den = shared * draw(st.integers(1, 30))
    return den, [(shared * m, shared * c) for m, c in zip(ms, cs)]


@st.composite
def sheared_pairs(draw):
    """The pairs the shear of constructions._shear_lift makes, M - M_0 + S
    over S, where M - M_0, every C and S share a factor g that M_0 does
    not: the pairs have gcd g with S only after the shear."""
    g = draw(st.integers(2, 6))
    den = g * draw(st.integers(1, 10))
    m0 = draw(st.integers(-30, 30).filter(lambda m: m % g))
    steps = draw(st.lists(st.integers(1, 20), max_size=5, unique=True))
    ms = [m0] + [m0 + g * k for k in sorted(steps)]
    cs = draw(st.lists(st.integers(-20, 20), min_size=len(ms), max_size=len(ms)))
    return den, [(m - m0 + den, g * c) for m, c in zip(ms, cs)]


@LOOSE
@given(st.one_of(scaled_pairs(), sheared_pairs()))
def test_from_pairs_matches_the_public_constructor(case):
    den, pairs = case
    fam = LineFamily.from_pairs(den, pairs)
    public = LineFamily(tuple(Line(Fraction(m, den), Fraction(c, den)) for m, c in pairs))
    assert (fam.scale, fam.pairs) == (public.scale, public.pairs)
    assert fam.lines == public.lines
    assert serialize_family(fam) == serialize_family(public)
    assert math.gcd(fam.scale, *itertools.chain.from_iterable(fam.pairs)) == 1


@LOOSE
@given(scaled_pairs(min_lines=2), st.data())
def test_from_pairs_rejects_slopes_that_do_not_rise(case, data):
    den, pairs = case
    i = data.draw(st.integers(0, len(pairs) - 2))
    if data.draw(st.booleans()):
        pairs[i + 1] = (pairs[i][0], pairs[i + 1][1])
    else:
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
    with pytest.raises(ValueError):
        LineFamily.from_pairs(den, pairs)


@pytest.mark.parametrize("den", [-1, 0, -6])
def test_from_pairs_rejects_a_denominator_that_is_not_positive(den):
    # a negative den would flip every slope against the rising pairs, and
    # den = 0 would build lines that divide by zero
    with pytest.raises(ValueError, match=f"den must be positive: {den}"):
        LineFamily.from_pairs(den, [(1, 0), (2, 5)])


@LOOSE
@given(st.lists(rationals, min_size=6, max_size=6))
def test_orientation_antisymmetry(vals):
    a, b, c = Point(vals[0], vals[1]), Point(vals[2], vals[3]), Point(vals[4], vals[5])
    assert orientation(a, b, c) == -orientation(b, a, c)
    assert orientation(a, b, c) == orientation(b, c, a)
