"""Property tests: every reply parser, given any text, either returns a
value or raises ParseError, so a malformed reply always gets its repair
round instead of escaping as some other exception.

Half the texts are a well-formed reply in the parser's format with a few
random edits (lines inserted, deleted, duplicated or swapped, spans
replaced), so examples get past the first checks and reach the deeper
ones; the other half are fragments of the reply formats (headers, fact
ids, ranks, separators, categories) mixed with arbitrary Unicode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.datamodel import ContentCategory, DdxSource, Fact, Polarity
from factgap.pipeline import parsers
from factgap.pipeline.parsers import ParseError

FRAGMENTS = (
    "\n",
    " ",
    ":",
    "|",
    ",",
    ".",
    "-",
    "```",
    "```text\n",
    "LAST_SUBJECTIVE_TURN:",
    "CHIEF COMPLAINT:",
    "HISTORY OF PRESENT ILLNESS:",
    "PAST SOCIAL HISTORY:",
    "NONE",
    "OMITTED: NONE",
    "F0",
    "F1",
    "F2",
    "F01",
    "F9",
    "F٣",
    "F²",
    "0",
    "1",
    "2.",
    "1. ",
    "11",
    " | ",
    "medical",
    "care_access_or_sdoh",
    "non_medical",
    "probable",
    "possible",
    "unlikely",
    "CRITICAL:",
    "IMPORTANT:",
    "OTHER:",
    "DIAGNOSIS: Flu",
    "DIAGNOSIS: Cold",
    "DIAGNOSIS:",
    "SYMPTOMS:",
    "TESTS:",
    "TREATMENTS:",
    "SOCIAL DETERMINANT OF HEALTH:",
    "SOCIAL DETERMINATE OF HEALTH:",
    "- ",
    "- fever: F0, F1",
    "cough",
    "Flu",
)

pieces = st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4))
texts = st.lists(pieces, max_size=40).map("".join)

# Well-formed replies per parser, as they stand inside the fenced block
# (or, for extract_last_fenced_block, the whole reply). The second of each
# is an edge of its format, such as a summary one deleted line away from
# having every section empty, or a differential one duplicated line past
# the maximum number of entries.
WELL_FORMED = {
    "extract_last_fenced_block": (
        "Here it is:\n```text\nF0: fever | medical\n```\nDone.",
        "```\n```\n```text\nNONE\n```",
    ),
    "parse_truncation": ("LAST_SUBJECTIVE_TURN: 3", "LAST_SUBJECTIVE_TURN: 11"),
    "parse_summary": (
        "CHIEF COMPLAINT: cough\nHISTORY OF PRESENT ILLNESS:\nFever for three days.\n"
        "PAST SOCIAL HISTORY: NONE",
        "CHIEF COMPLAINT: NONE\nHISTORY OF PRESENT ILLNESS: NONE\nPAST SOCIAL HISTORY:\n"
        "Lives alone.",
    ),
    "parse_facts": (
        "F0: fever for three days | medical\nF1: lives alone | care_access_or_sdoh\n"
        "F2: likes jazz | non_medical",
        "F0: x | medical",
    ),
    "parse_ddx": (
        "1. Flu | probable | fever\n2. Cold | possible | cough",
        "\n".join(f"{rank}. D{rank} | unlikely | r" for rank in range(1, 11)),
    ),
    "parse_omissions": ("F0: the fever is missing\nF2: jazz is missing", "OMITTED: NONE"),
    "parse_categorization": (
        "CRITICAL: F0\nIMPORTANT: F1, F2\nOTHER: NONE",
        "CRITICAL: NONE\nIMPORTANT:\nF0\nF1\nOTHER: F2",
    ),
    "parse_clusters": (
        "DIAGNOSIS: Flu\nSYMPTOMS:\n- fever: F0\nTESTS: NONE\nTREATMENTS: NONE\n"
        "SOCIAL DETERMINANT OF HEALTH:\n- access: F1, F2\nOTHER: NONE\n"
        "DIAGNOSIS: Cold\nSYMPTOMS: - cough: F1\nTESTS: NONE\nTREATMENTS: NONE\n"
        "SOCIAL DETERMINATE OF HEALTH: NONE\nOTHER: NONE",
        "DIAGNOSIS: Cold\nSYMPTOMS: NONE\nTESTS: NONE\nTREATMENTS: NONE\n"
        "SOCIAL DETERMINANT OF HEALTH: NONE\nOTHER: - m: F0\n"
        "DIAGNOSIS: Flu\nSYMPTOMS: NONE\nTESTS: NONE\nTREATMENTS: NONE\n"
        "SOCIAL DETERMINANT OF HEALTH: NONE\nOTHER: NONE",
    ),
}


@st.composite
def edited(draw, text):
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("insert", "delete", "duplicate", "swap", "replace")))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(texts))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            a = draw(st.integers(0, len(line)))
            b = draw(st.integers(a, len(line)))
            lines[i] = line[:a] + draw(pieces) + line[b:]
    return "\n".join(lines)


FACTS = [
    Fact(fact_id=f"F{i}", text=f"fact {i}", content_category=ContentCategory.MEDICAL)
    for i in range(3)
]
FACT_IDS = [fact.fact_id for fact in FACTS]

PARSERS = {
    "extract_last_fenced_block": parsers.extract_last_fenced_block,
    "parse_truncation": lambda text: parsers.parse_truncation(text, 12),
    "parse_summary": lambda text: parsers.parse_summary(text, "enc-1"),
    "parse_facts": parsers.parse_facts,
    "parse_ddx": lambda text: parsers.parse_ddx(text, "enc-1", DdxSource.FROM_CHAT),
    "parse_omissions": lambda text: parsers.parse_omissions(text, FACT_IDS),
    "parse_categorization": lambda text: parsers.parse_categorization(text, FACTS),
    "parse_clusters": lambda text: parsers.parse_clusters(
        text, ["Flu", "Cold"], FACT_IDS, Polarity.SUPPORTING
    ),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_returns_or_raises_parse_error(name, data):
    reply = st.sampled_from(WELL_FORMED[name]).flatmap(edited)
    text = data.draw(st.one_of(reply, texts))
    try:
        PARSERS[name](text)
    except ParseError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_well_formed_replies_parse(name):
    for reply in WELL_FORMED[name]:
        PARSERS[name](reply)
