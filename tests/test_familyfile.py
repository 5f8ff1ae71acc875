import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
import oracles

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


@pytest.mark.parametrize(
    "name,provenance,message",
    [
        # a line break ends the header, and parse reads the rest as a line record
        ("two\nlines", None, "name 'two\\nlines' has a line break"),
        # parse strips a header's key and value
        (" padded ", None, "name ' padded ' has a line break or outer whitespace"),
        (None, (("k", "two\nlines"),), "provenance k 'two\\nlines' has a line break"),
        (None, (("k", " padded "),), "provenance k ' padded ' has a line break or outer"),
        # parse splits a header at its first "="
        (None, (("a=b", "v"),), "provenance key 'a=b' cannot be read back as one"),
        # parse reads the key "name" as the family's name
        (None, (("name", "v"),), "provenance key 'name' cannot be read back as one"),
    ],
    ids=["name-break", "name-padded", "value-break", "value-padded", "key-equals", "key-name"],
)
def test_serialize_refuses_metadata_that_does_not_read_back(name, provenance, message):
    fam = LineFamily((Line(1, 2),)).with_meta(name=name, provenance=provenance)
    with pytest.raises(ValueError) as err:
        serialize_family(fam)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "text,message",
    [
        ("1/2 0\n# x\n2/4 9\n", "line 3: slope 1/2 already used at line 1"),
        ("0 1\n-0/3 2\n", "line 2: slope 0 already used at line 1"),
        ("-3/6 1\n+1/2 0\n-2/4 5\n", "line 3: slope -1/2 already used at line 1"),
    ],
)
def test_duplicate_slopes_compare_reduced_values(text, message):
    with pytest.raises(DuplicateSlopeError) as err:
        parse_family(text)
    assert str(err.value) == message


def test_signed_unreduced_literals_read_reduced():
    fam = parse_family("+3/6 -0/7\n-4/2 +10/4\n")
    assert (fam.scale, fam.pairs) == (2, ((-4, 5), (1, 0)))
    assert fam == LineFamily((Line(Fraction(1, 2), 0), Line(-2, Fraction(5, 2))))


@pytest.mark.parametrize("text", ["1 0\n1/0 2\n", "1 0\n2 1/0\n"])
def test_zero_denominator_names_its_line(text):
    with pytest.raises(FamilyParseError) as err:
        parse_family(text)
    assert err.value.lineno == 2
    assert str(err.value) == "line 2: zero denominator: '1/0'"


small = st.fractions(min_value=-10, max_value=10, max_denominator=12)
words = st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(lambda key: key != "name")


@st.composite
def spelled_families(draw):
    """(text, lines, name, provenance): a family file that spells each
    coordinate unreduced, with or without a sign, in shuffled order."""

    def spell(value):
        k = draw(st.integers(1, 6))
        num, den = value.numerator * k, value.denominator * k
        sign = draw(st.sampled_from(["", "+", "-"])) if num == 0 else ""
        if num > 0 and draw(st.booleans()):
            sign = "+"
        if den == 1 and draw(st.booleans()):
            return f"{sign}{num}"
        return f"{sign}{num}/{den}"

    n = draw(st.integers(1, 7))
    slopes = draw(st.lists(small, min_size=n, max_size=n, unique=True))
    intercepts = draw(st.lists(small, min_size=n, max_size=n))
    lines = [Line(m, c) for m, c in zip(slopes, intercepts)]
    name = draw(st.one_of(st.none(), words))
    provenance = draw(st.lists(st.tuples(words, words), max_size=3))
    rows = [f"#! name={name}"] if name is not None else []
    rows += [f"#! {key}={value}" for key, value in provenance]
    rows += [f"{spell(line.m)} {spell(line.c)}" for line in draw(st.permutations(lines))]
    return "\n".join(rows) + "\n", lines, name, tuple(provenance) or None


@settings(max_examples=100, deadline=None)
@given(spelled_families())
def test_parse_matches_the_family_of_the_same_fractions(case):
    text, lines, name, provenance = case
    fam = parse_family(text)
    public = LineFamily(lines, name=name, provenance=provenance)
    assert (fam.scale, fam.pairs, fam.name, fam.provenance) == (
        public.scale, public.pairs, public.name, public.provenance
    )


def outcome(parse, text):
    """What parse makes of text: the family's (scale, pairs, name,
    provenance), or its error's class, message and lineno."""
    try:
        fam = parse(text)
    except (DuplicateSlopeError, FamilyParseError) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return fam.scale, fam.pairs, fam.name, fam.provenance


# literals that parse_ratio rejects: underscores, non-ASCII digits, signed
# denominators, zero denominators, decimals
BAD_LITERALS = ["1_0", "\u0661", "1/-2", "1/+2", "1/0", "-3/00", "2.5", "1/", "/2", "+-1", "x"]
# literals it reads, some unreduced, signed or with a zero numerator, from
# few values, so that slopes repeat
GOOD_LITERALS = ["+3/6", "1/2", "2/4", "-0/3", "0", "+0", "-1", "-2/2", "3", "06/2", "7/5", "14/10"]
# separators between fields: splitlines also ends a line at "\x0c"
SEPARATORS = [" ", "  ", "\t", "\xa0", "\x0c", " \t "]


@st.composite
def family_files(draw):
    """A family file, valid or not: records of two fields, whose slopes
    now and then repeat, and up to three rows more anywhere among them:
    headers, malformed headers, comments, blank rows, or records of one to
    three fields from GOOD_LITERALS and BAD_LITERALS; rows padded, fields
    apart by one of SEPARATORS, and LF or CRLF line ends."""
    slope = st.one_of(st.sampled_from(GOOD_LITERALS), st.integers(-99, 99).map(str))
    rows = [[draw(slope), draw(st.sampled_from(GOOD_LITERALS))] for _ in range(draw(st.integers(0, 6)))]
    literal = st.sampled_from(GOOD_LITERALS + BAD_LITERALS)
    extra = st.one_of(
        st.sampled_from(["#! name=demo", "#! k = v", "# note", "", "#! justakey", "#! =v"]),
        st.lists(literal, min_size=2, max_size=2),
        st.lists(literal, min_size=1, max_size=3),
    )
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(extra))
    sep, text = draw(st.sampled_from(SEPARATORS)), ""
    for row in rows:
        if isinstance(row, list):
            row = sep.join(row)
        text += draw(st.sampled_from(["", " ", "\t"])) + row + draw(st.sampled_from(["\n", "\r\n"]))
    return text


@settings(max_examples=400, deadline=None)
@given(family_files())
def test_parse_matches_the_oracle(text):
    assert outcome(parse_family, text) == outcome(oracles.parse_family, text)


@pytest.mark.parametrize(
    "text",
    [
        # each literal that parse_ratio rejects, and three fields
        *(f"1 0\n{bad} 1\n" for bad in BAD_LITERALS),
        *(f"1 0\n2 {bad}\n" for bad in BAD_LITERALS),
        "1 0\n1 2 3\n",
        # signed and unreduced literals, and a negative zero
        "+3/6 1\n-0/3 2\n1/+2 0\n",
        "+3/6 1\n-0/3 2\n",
        # tab, NBSP and form feed separators, CRLF line ends
        "1\t0\r\n2\xa03\r\n",
        "1\x0c0\n",
        # headers between records
        "1 0\n#! name=a\n2 1\n#! k=v\n3 1\n",
        # a duplicate slope before a bad literal or a malformed header wins
        "1/2 0\n2/4 1\n2.5 0\n",
        "1/2 0\n2/4 1\n#! justakey\n",
        "1/2 0\n2/4 1\n1/0 0\n",
        # a bad literal or a malformed header before a duplicate slope wins
        "1/2 0\n2.5 0\n2/4 1\n",
        "1/2 0\n#! justakey\n2/4 1\n",
        "1/2 0\n1/0 0\n2/4 1\n",
        # the first repeat in file order wins, not the first slope repeated
        "1 0\n2 0\n2 1\n1 1\n",
        "1 0\n2 0\n4/2 1\n1 1\n",
    ],
)
def test_parse_matches_the_oracle_on_each_case(text):
    assert outcome(parse_family, text) == outcome(oracles.parse_family, text)


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("bench/families/*.txt")), ids=lambda p: p.stem)
def test_parse_matches_the_oracle_on_the_bench_families(path):
    text = path.read_text()
    assert outcome(parse_family, text) == outcome(oracles.parse_family, text)
