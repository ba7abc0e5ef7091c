"""Round-trip properties for the line-per-record reply formats: facts,
omissions and differentials drawn as records, rendered by
``response_builders`` as a cooperative model would reply, and parsed
back, come back as drawn.

The first two properties draw only text these formats can carry: one
line, no code fence, no surrounding whitespace and not empty. Within
that it mixes the formats' own separators and keywords into arbitrary
text. The other five draw text from all of Unicode, separators included,
and keep whatever the record admits: a record must refuse any text that
its reply line cannot carry back. The differential property also draws
free ranks and names that repeat in another case, and keeps the
differentials that ``DifferentialDiagnosis`` admits. The next three draw
replies that are sectioned rather than one line per record: evidence
clusterings for one to three diagnoses, the importance of each fact, and
summaries whose sections hold any text, over one or more lines, that
``Summary`` admits, each section starting below its header or on its
header line. The last draws a truncation cut within a transcript
of any length.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factgap.datamodel import (
    MAX_DDX_ENTRIES,
    SECTION_TITLES,
    SUMMARY_SECTIONS,
    ContentCategory,
    DdxSource,
    Diagnosis,
    DifferentialDiagnosis,
    EvidenceClustering,
    Fact,
    Importance,
    Likelihood,
    Omission,
    Polarity,
    SubCluster,
    Summary,
    replace,
)
from factgap.pipeline import parsers

from response_builders import (
    GROUP_ORDER,
    categorize_response,
    clusters_response,
    ddx_response,
    facts_response,
    omissions_response,
    summary_response,
    truncate_response,
)

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
# The properties that draw from it report only the first failure they
# find: with SubCluster's label check removed, the clustering property
# took 317 s and 624 MB to report every distinct failure, 36 s the first.
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


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(drawn=admitted(lambda text: Fact("F0", text, "medical"), any_text, min_size=1))
def test_any_text_a_fact_admits_round_trips_through_its_reply(drawn):
    facts = [replace(fact, fact_id=f"F{i}") for i, fact in enumerate(drawn)]
    assert parse_reply(facts_response(facts), parsers.parse_facts) == facts


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(drawn=admitted(lambda text: Omission("F0", text), any_text))
def test_any_text_an_omission_admits_round_trips_through_its_reply(drawn):
    omissions = [replace(omission, fact_id=f"F{i}") for i, omission in enumerate(drawn)]
    fact_ids = [f"F{i}" for i in range(len(omissions) + 1)]
    reply = omissions_response(omissions)
    assert parse_reply(reply, parsers.parse_omissions, fact_ids) == omissions


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(
    drawn=admitted(
        lambda entry: Diagnosis(1, *entry),
        st.tuples(any_text, st.sampled_from(list(Likelihood)), any_text),
        min_size=1,
    )
)
def test_any_text_a_diagnosis_admits_round_trips_through_its_reply(drawn):
    # Ranked 1..n and named apart in any case, as every differential is;
    # the next property draws other ranks and names.
    entries, names = [], set()
    for diagnosis in drawn:
        if diagnosis.name.lower() not in names and len(entries) < MAX_DDX_ENTRIES:
            names.add(diagnosis.name.lower())
            entries.append(replace(diagnosis, rank=len(entries) + 1))
    ddx = DifferentialDiagnosis("enc-1", DdxSource.FROM_CHAT, entries)
    reply = ddx_response([(d.name, d.likelihood.value, d.explanation) for d in entries])
    assert parse_reply(reply, parsers.parse_ddx, "enc-1", DdxSource.FROM_CHAT) == ddx


# Names that repeat one another in another case.
CASED_NAMES = ("Flu", "flu", "FLU", "Cold", "cold")


@st.composite
def free_differentials(draw):
    """The differential of entries drawn with free ranks, three in four
    their position, and free names, often another entry's in another case;
    None when DifferentialDiagnosis refuses them."""
    diagnoses = draw(
        admitted(
            lambda entry: Diagnosis(1, *entry),
            st.tuples(
                st.one_of(st.sampled_from(CASED_NAMES), carried, any_text),
                st.sampled_from(list(Likelihood)),
                st.one_of(carried, any_text),
            ),
            min_size=1,
        )
    )
    ranks = [
        position if draw(st.integers(0, 3)) else draw(st.integers(0, MAX_DDX_ENTRIES + 1))
        for position in range(1, len(diagnoses) + 1)
    ]
    try:
        entries = [replace(d, rank=rank) for d, rank in zip(diagnoses, ranks)]
        return DifferentialDiagnosis("enc-1", DdxSource.FROM_CHAT, entries)
    except ValueError:
        return None


@settings(derandomize=True, max_examples=100, deadline=None, report_multiple_bugs=False)
@given(ddx=free_differentials())
def test_any_differential_a_record_admits_round_trips_through_its_reply(ddx):
    assume(ddx is not None)
    reply = ddx_response([(d.name, d.likelihood.value, d.explanation) for d in ddx.entries])
    assert parse_reply(reply, parsers.parse_ddx, "enc-1", DdxSource.FROM_CHAT) == ddx


DIAGNOSIS_NAMES = ("Anemia", "Heart failure", "Flu")


@st.composite
def clusterings(draw):
    """Fact ids F0..F(n-1) and, per diagnosis, the subclusters
    ``SubCluster`` admits of drawn groups, labels and distinct member ids,
    listed in the order the reply's group headings come."""
    n_facts = draw(st.integers(1, 12))
    names = draw(st.lists(st.sampled_from(DIAGNOSIS_NAMES), min_size=1, unique=True))
    polarity = draw(st.sampled_from(list(Polarity)))
    drawn = st.tuples(
        st.sampled_from(GROUP_ORDER),
        st.one_of(carried, any_text),
        st.lists(st.integers(0, n_facts - 1), min_size=1, max_size=n_facts, unique=True),
    )
    result = []
    for name in names:
        subclusters = draw(
            admitted(lambda s: SubCluster(s[0], s[1], [f"F{i}" for i in s[2]]), drawn)
        )
        subclusters.sort(key=lambda subcluster: GROUP_ORDER.index(subcluster.group))
        result.append(EvidenceClustering(name, polarity, subclusters))
    return [f"F{i}" for i in range(n_facts)], result


@settings(derandomize=True, max_examples=100, deadline=None, report_multiple_bugs=False)
@given(drawn=clusterings())
def test_any_clustering_a_subcluster_admits_round_trips_through_its_reply(drawn):
    fact_ids, clustered = drawn
    names = [c.diagnosis_name for c in clustered]
    reply = clusters_response(names, clustered)
    polarity = clustered[0].polarity
    assert parse_reply(reply, parsers.parse_clusters, names, fact_ids, polarity) == clustered


@settings(derandomize=True, max_examples=100, deadline=None)
@given(importances=st.lists(st.sampled_from(list(Importance)), min_size=1, max_size=12))
def test_importance_buckets_round_trip_through_their_reply(importances):
    facts = [
        Fact(f"F{i}", f"fact {i}", "medical", importance)
        for i, importance in enumerate(importances)
    ]
    uncategorized = [replace(fact, importance=None) for fact in facts]
    reply = categorize_response(facts)
    assert parse_reply(reply, parsers.parse_categorization, uncategorized) == facts


# Text that a summary section cannot carry as it is: the empty marker in
# any case, and every section header.
SUMMARY_KEYWORDS = ("NONE", "None", *(f"{title}:" for title in SECTION_TITLES.values()))


@st.composite
def summaries(draw):
    """The summary of three drawn sections, each empty, one piece of any
    text or lines of pieces; None when Summary refuses them."""
    piece = st.one_of(st.sampled_from(SUMMARY_KEYWORDS), carried, any_text)
    section = st.one_of(
        st.just(""), any_text, st.lists(piece, min_size=1, max_size=3).map("\n".join)
    )
    texts = draw(st.tuples(section, section, section))
    try:
        return Summary("enc-1", dict(zip(SUMMARY_SECTIONS, texts)))
    except ValueError:
        return None


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(summary=summaries(), inline=st.booleans())
def test_any_summary_a_record_admits_round_trips_through_its_reply(summary, inline):
    assume(summary is not None)
    reply = summary_response(summary.sections)
    if inline:
        # A section may start on its header line. No section holds a line
        # that starts with a header, so each match is the header itself.
        for title in SECTION_TITLES.values():
            reply = reply.replace(f"\n{title}:\n", f"\n{title}: ")
    assert parse_reply(reply, parsers.parse_summary, "enc-1") == summary


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn=st.integers(1, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_truncation_cut_round_trips_through_its_reply(drawn):
    n_turns, cut = drawn
    assert parse_reply(truncate_response(cut), parsers.parse_truncation, n_turns) == cut
    with pytest.raises(parsers.ParseError, match=f"^turn number {n_turns} is outside the"):
        parse_reply(truncate_response(n_turns), parsers.parse_truncation, n_turns)
