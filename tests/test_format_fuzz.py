"""Fuzzing of the family text format: any text either raises FormatError or
parses to a family that format_family round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mosls import FormatError, format_family, parse_family

EDITS = ["", " ", "  ", "\n", "\n\n", "\t", "\r", "0", "1", "2", "9", "-1", "x", "1_0", "mosls v1"]


@st.composite
def mutated_family_texts(draw):
    """A well-formed family file of order <= 9 with up to four small edits."""
    q, r, count = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = q * r
    square = st.lists(st.lists(st.integers(1, n), min_size=n, max_size=n), min_size=n, max_size=n)
    lines = ["mosls v1", f"order {n} type {q} {r} count {count}"]
    for k in range(count):
        if k:
            lines.append("")
        lines.extend(" ".join(map(str, row)) for row in draw(square))
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:pos] + draw(st.sampled_from(EDITS)) + text[pos + cut :]
    return text


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_family_texts(), st.text(max_size=200)))
def test_parse_family_raises_format_error_or_round_trips(text):
    try:
        fam = parse_family(text)
    except FormatError:
        return
    assert parse_family(format_family(fam)) == fam
