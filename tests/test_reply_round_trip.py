"""Round-trip properties for the line-per-record reply formats: facts,
omissions and differentials drawn as records, rendered by
``response_builders`` as a cooperative model would reply, and parsed
back, come back as drawn.

The first two properties draw only text these formats can carry: one
line, no code fence, no surrounding whitespace and not empty. Within
that it mixes the formats' own separators and keywords into arbitrary
text. The last three draw text from all of Unicode, separators included,
and keep whatever the record admits: a record must refuse any text that
its reply line cannot carry back.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.datamodel import (
    MAX_DDX_ENTRIES,
    ContentCategory,
    DdxSource,
    Diagnosis,
    DifferentialDiagnosis,
    Fact,
    Likelihood,
    Omission,
)
from factgap.pipeline import parsers

from response_builders import ddx_response, facts_response, omissions_response

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


# Every code point, lone surrogates too, and the separators of every format.
ANY_CHARACTER = st.characters(exclude_categories=())
SEPARATORS = (*LINE_BREAKS, "\r\n", "\u2028", "\u2029", " ", "\t", "```")
any_text = st.lists(
    st.one_of(st.sampled_from(KEYWORDS + SEPARATORS), st.text(ANY_CHARACTER, max_size=6)),
    min_size=1,
    max_size=4,
).map("".join)


def admitted(build, drawn, min_size=0):
    """Lists of the records ``build`` makes of ``drawn`` values, keeping
    each record that admits its value, at least ``min_size`` of them."""

    def keep(values):
        records = []
        for value in values:
            try:
                records.append(build(value))
            except ValueError:
                pass
        return records

    return st.lists(drawn, min_size=4, max_size=8).map(keep).filter(lambda r: len(r) >= min_size)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn=admitted(lambda text: Fact("F0", text, "medical"), any_text, min_size=1))
def test_any_text_a_fact_admits_round_trips_through_its_reply(drawn):
    facts = [replace(fact, fact_id=f"F{i}") for i, fact in enumerate(drawn)]
    assert parse_reply(facts_response(facts), parsers.parse_facts) == facts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn=admitted(lambda text: Omission("F0", text), any_text))
def test_any_text_an_omission_admits_round_trips_through_its_reply(drawn):
    omissions = [replace(omission, fact_id=f"F{i}") for i, omission in enumerate(drawn)]
    fact_ids = [f"F{i}" for i in range(len(omissions) + 1)]
    reply = omissions_response(omissions)
    assert parse_reply(reply, parsers.parse_omissions, fact_ids) == omissions


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    drawn=admitted(
        lambda entry: Diagnosis(1, *entry),
        st.tuples(any_text, st.sampled_from(list(Likelihood)), any_text),
        min_size=1,
    )
)
def test_any_text_a_diagnosis_admits_round_trips_through_its_reply(drawn):
    # A differential admits names that differ only in case, and gaps
    # between ranks, which parse_ddx refuses and ddx_response cannot write;
    # neither is drawn.
    entries, names = [], set()
    for diagnosis in drawn:
        if diagnosis.name.lower() not in names and len(entries) < MAX_DDX_ENTRIES:
            names.add(diagnosis.name.lower())
            entries.append(replace(diagnosis, rank=len(entries) + 1))
    ddx = DifferentialDiagnosis("enc-1", DdxSource.FROM_CHAT, entries)
    reply = ddx_response([(d.name, d.likelihood.value, d.explanation) for d in entries])
    assert parse_reply(reply, parsers.parse_ddx, "enc-1", DdxSource.FROM_CHAT) == ddx
