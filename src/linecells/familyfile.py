"""Plain-text family files.

One line record per row, "slope intercept", both exact rational literals.
Rows starting with "#!" carry metadata as key=value headers (the key
"name" names the family, anything else lands in provenance, order kept);
rows starting with a single "#" are comments and are dropped. serialize
followed by parse reproduces the family and its metadata exactly, or
serialize raises ValueError; comments do not survive the trip.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DuplicateSlopeError, FamilyParseError
from .geometry import LineFamily, parse_ratio

__all__ = ["parse_family", "serialize_family"]


def parse_family(text: str) -> LineFamily:
    name = None
    provenance = []
    records = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#!"):
            body = stripped[2:].strip()
            key, sep, value = body.partition("=")
            key = key.strip()
            if not sep or not key:
                raise FamilyParseError(f"malformed header {stripped!r}", lineno)
            if key == "name":
                name = value.strip()
            else:
                provenance.append((key, value.strip()))
            continue
        if stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise FamilyParseError(
                f"expected 'slope intercept', got {len(tokens)} fields", lineno
            )
        try:
            slope = parse_ratio(tokens[0])
            intercept = parse_ratio(tokens[1])
        except ValueError as exc:
            raise FamilyParseError(str(exc), lineno) from None
        # a reduced pair is its value
        if slope in seen:
            raise DuplicateSlopeError(
                f"line {lineno}: slope {_ratio(*slope)} already used at line {seen[slope]}"
            )
        seen[slope] = lineno
        records.append((slope, intercept))
    if not records:
        raise FamilyParseError("no line records")
    # the lcm of the reduced denominators, so the pairs share no factor with it
    s = lcm(*(den for pair in records for _, den in pair))
    pairs = sorted(
        (m * (s // m_den), c * (s // c_den)) for (m, m_den), (c, c_den) in records
    )
    return LineFamily.from_pairs(s, pairs, name, provenance or None)


def serialize_family(family: LineFamily) -> str:
    rows = []
    if family.name is not None:
        rows.append(f"#! name={_header('name', family.name)}")
    for key, value in family.provenance or ():
        if not key or "=" in key or key == "name":
            raise ValueError(f"provenance key {key!r} cannot be read back as one")
        rows.append(f"#! {_header('provenance key', key)}={_header(f'provenance {key}', value)}")
    s = family.scale
    for m, c in family.pairs:
        rows.append(f"{_ratio(m, s)} {_ratio(c, s)}")
    return "\n".join(rows) + "\n"


def _header(field: str, text: str) -> str:
    """text, if parse_family reads it back from a header unchanged."""
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"{field} {text!r} has a line break or outer whitespace")
    return text


def _ratio(num: int, den: int) -> str:
    """num/den, den > 0, as format_rat writes it."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
