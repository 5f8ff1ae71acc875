import random
from fractions import Fraction

import pytest

from linecells import (
    DuplicateSlopeError,
    FamilyParseError,
    Line,
    LineFamily,
    construct_F,
    parse_family,
    serialize_family,
)

from conftest import random_family

SAMPLE = """\
#! name=demo
#! kind=pencil
#! n=2
# a comment that should vanish
1 0

1/2 -3/4
"""


def test_parse_sample():
    fam = parse_family(SAMPLE)
    assert fam.name == "demo"
    assert fam.provenance == (("kind", "pencil"), ("n", "2"))
    assert fam.lines == (Line(Fraction(1, 2), Fraction(-3, 4)), Line(1, 0))


def test_round_trip_is_bit_exact():
    fam = parse_family(SAMPLE)
    text = serialize_family(fam)
    again = parse_family(text)
    assert again == fam
    assert serialize_family(again) == text
    assert "# a comment" not in text


def test_round_trip_without_metadata():
    fam = LineFamily((Line(2, 3), Line(-1, Fraction(5, 7))))
    assert parse_family(serialize_family(fam)) == fam


def test_round_trip_random_families():
    rng = random.Random(5150)
    for _ in range(20):
        fam = random_family(rng)
        assert parse_family(serialize_family(fam)) == fam


def test_round_trip_construction_provenance():
    fam = construct_F(3, 3, 3)
    again = parse_family(serialize_family(fam))
    assert again.provenance == fam.provenance
    assert again == fam


def test_error_bad_arity():
    with pytest.raises(FamilyParseError) as err:
        parse_family("1 2 3\n")
    assert "line 1" in str(err.value)
    assert err.value.lineno == 1


def test_error_bad_literal():
    with pytest.raises(FamilyParseError) as err:
        parse_family("1 0\n2.5 0\n")
    assert err.value.lineno == 2
    # 1 2 in Arabic-Indic digits is not the line y = x + 2
    with pytest.raises(FamilyParseError) as err:
        parse_family("\u0661 \u0662\n")
    assert err.value.lineno == 1


def test_error_duplicate_slope_mentions_lines():
    with pytest.raises(DuplicateSlopeError) as err:
        parse_family("1/2 0\n# x\n2/4 9\n")
    assert "line 3" in str(err.value)
    assert "line 1" in str(err.value)


def test_error_malformed_header():
    with pytest.raises(FamilyParseError) as err:
        parse_family("#! justakey\n1 0\n")
    assert err.value.lineno == 1


def test_error_empty_input():
    with pytest.raises(FamilyParseError):
        parse_family("# only a comment\n")
    with pytest.raises(FamilyParseError):
        parse_family("")


def test_serialized_shape():
    fam = LineFamily((Line(1, 2),)).with_meta(name="one", provenance=(("k", "v"),))
    text = serialize_family(fam)
    assert text == "#! name=one\n#! k=v\n1 2\n"
