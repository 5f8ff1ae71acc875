"""Plain-text family files.

One line record per row, "slope intercept", both exact rational literals.
Rows starting with "#!" carry metadata as key=value headers (the key
"name" names the family, anything else lands in provenance, order kept);
rows starting with a single "#" are comments and are dropped. serialize
followed by parse reproduces the family and its metadata exactly, or
serialize raises ValueError; comments do not survive the trip.

parse_family reads each record by one regex (_RECORD), parse_ratio's
grammar for two literals, and reduces none. Its scale S is the lcm of the
denominators as written: S = k*L for L the lcm of the reduced ones, and the
pairs over S are k times those over L, which share no factor with L
(LineFamily). So gcd(S, every M and C) = k, and from_pairs's one gcd leaves
the family of the reduced literals. The first fault in file order is
raised: before a malformed header or a record that _RECORD rejects (a zero
denominator among them), the records above it are checked for a repeated
slope (_check_slopes), as they are when the sorted pairs repeat one.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .errors import DuplicateSlopeError, FamilyParseError
from .geometry import LineFamily, parse_ratio

__all__ = ["parse_family", "serialize_family"]

# two literals of parse_ratio's grammar; a zero denominator is no match
_RECORD = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\s+([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_family(text: str) -> LineFamily:
    name = None
    provenance = []
    # (lineno, m, m_den, c, c_den), numerators read; dens shares denominators
    records, dens = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#!"):
            key, sep, value = stripped[2:].partition("=")
            key = key.strip()
            if not sep or not key:
                _check_slopes(records)
                raise FamilyParseError(f"malformed header {stripped!r}", lineno)
            if key == "name":
                name = value.strip()
            else:
                provenance.append((key, value.strip()))
            continue
        if stripped.startswith("#"):
            continue
        match = _RECORD.fullmatch(stripped)
        if match is None:
            _check_slopes(records)
            raise _record_error(stripped, lineno)
        m, m_den, c, c_den = match.groups()
        records.append((lineno, int(m), dens.setdefault(m_den, m_den), int(c), dens.setdefault(c_den, c_den)))
    if not records:
        raise FamilyParseError("no line records")
    dens = {den: int(den) for den in dens if den}
    s = lcm(*dens.values())
    factor = {den: s // d for den, d in dens.items()}
    factor[None] = s
    pairs = sorted([(m * factor[m_den], c * factor[c_den]) for _, m, m_den, c, c_den in records])
    try:
        return LineFamily.from_pairs(s, pairs, name, provenance or None)
    except ValueError:
        # sorted pairs over s > 0 fail only on a repeated slope
        _check_slopes(records)
        raise


def _check_slopes(records) -> None:
    """Raise DuplicateSlopeError at the first record whose slope an earlier
    one used."""
    seen = {}
    for lineno, m, m_den, _, _ in records:
        slope = _ratio(m, int(m_den or 1))
        if slope in seen:
            raise DuplicateSlopeError(f"line {lineno}: slope {slope} already used at line {seen[slope]}")
        seen[slope] = lineno


def _record_error(stripped: str, lineno: int) -> FamilyParseError:
    """The error for a record line that _RECORD rejects: a field count other
    than two, or a literal that parse_ratio rejects."""
    tokens = stripped.split()
    if len(tokens) != 2:
        return FamilyParseError(f"expected 'slope intercept', got {len(tokens)} fields", lineno)
    try:
        for token in tokens:
            parse_ratio(token)
    except ValueError as exc:
        return FamilyParseError(str(exc), lineno)


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
