import ast
import gc
import hashlib
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

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
from conftest import random_family, subfamily

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
    # Only the base families take Lines, through the public constructor;
    # every family made from integer pairs leaves its lines unbuilt, and
    # serializing the one returned prints its pairs without building them
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
    assert made[0] == sum(given) > 0
    assert [f for f in paired if "lines" in vars(f)] == []
    assert fam in paired
    serialize_family(fam)
    assert made[0] == sum(given)
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
    lambda: construct_F(3, 3, 4),
    lambda: construct_prop32(4, 2, "even"),
    lambda: construct_thm12(4, 6),
)


@pytest.mark.parametrize("build", CERTIFIED_GENERATORS)
def test_certification_is_never_silent(monkeypatch, build):
    # a pencil of l lines breaks the "fewer than l concurrent" contract
    monkeypatch.setattr(
        constructions, "_construct_F_raw",
        lambda p, q, l, scale, memo: pencil(Point(0, -1), l, range(1, l + 1)),
    )
    with pytest.raises(ConstructionError, match="concurrency"):
        build()


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


def test_thm12_scaffold_checks_its_cross_vertices(monkeypatch):
    # every bundle 10 lower puts the falling/rising crossings near (0, -6)
    def lowered(family, a, eps):
        return LineFamily(tuple(Line(line.m, line.c - 10) for line in contract(family, a, eps)))

    monkeypatch.setattr(constructions, "contract", lowered)
    with pytest.raises(ConstructionError, match="cross vertices below the axis"):
        construct_thm12(3, 6)


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
