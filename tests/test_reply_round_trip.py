"""Round-trip properties for the two ``F<n>: …`` reply formats: facts and
omissions drawn as records, rendered by ``response_builders`` as a
cooperative model would reply, and parsed back, come back as drawn.

Drawn text is what these formats can carry: one line, no code fence,
no surrounding whitespace and not empty. Within that it mixes the
formats' own separators and keywords into arbitrary text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.datamodel import ContentCategory, Fact, Omission
from factgap.pipeline import parsers

from response_builders import facts_response, omissions_response

# str.splitlines breaks a line at each of these, and at Zl and Zp.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85"
KEYWORDS = ("|", ":", " | ", "F0:", "F1", "OMITTED: NONE", "NONE", "medical", "`")
IN_A_LINE = st.characters(
    blacklist_categories=("Cs", "Zl", "Zp"), blacklist_characters=LINE_BREAKS
)

one_line = st.lists(
    st.one_of(st.sampled_from(KEYWORDS), st.text(IN_A_LINE, max_size=6)),
    min_size=1,
    max_size=6,
).map("".join)
carried = one_line.filter(lambda text: text and text == text.strip() and "```" not in text)


@st.composite
def fact_lists(draw):
    texts = draw(st.lists(carried, min_size=1, max_size=8))
    categories = st.sampled_from(list(ContentCategory))
    return [
        Fact(fact_id=f"F{i}", text=text, content_category=draw(categories))
        for i, text in enumerate(texts)
    ]


@st.composite
def omission_lists(draw):
    n_facts = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, n_facts - 1), unique=True, max_size=n_facts))
    omissions = [Omission(fact_id=f"F{i}", explanation=draw(carried)) for i in ids]
    return [f"F{i}" for i in range(n_facts)], omissions


def parse_reply(reply, parse, *args):
    return parse(parsers.extract_last_fenced_block(reply), *args)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(facts=fact_lists())
def test_facts_round_trip_through_their_reply(facts):
    assert parse_reply(facts_response(facts), parsers.parse_facts) == facts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn=omission_lists())
def test_omissions_round_trip_through_their_reply(drawn):
    fact_ids, omissions = drawn
    reply = omissions_response(omissions)
    assert parse_reply(reply, parsers.parse_omissions, fact_ids) == omissions
