import logging
import re

import pytest

from factgap import datamodel
from factgap.config import ModelsConfig, RunConfig, ThresholdsConfig
from factgap.datamodel import (
    ContentCategory,
    DdxSource,
    Fact,
    Importance,
    Likelihood,
    Polarity,
)
from factgap.gateway import ChatMessage, GenerationRequest, GatewayMode, LlmGateway
from factgap.pipeline import parsers, templates
from factgap.pipeline.parsers import ParseError
from factgap.pipeline.stages import (
    STAGES,
    StageContext,
    StageError,
    StageInputs,
    run_stage,
    stage_truncate,
)
from factgap.datamodel import Dialogue, Speaker, Turn

from response_builders import METRIC_MODEL, SUMMARY_MODEL
from scripted_backend import ScriptedBackend


def exactly(message):
    """A ``match=`` pattern for the whole message: a repair request quotes
    it, so a changed word changes that request's fingerprint."""
    return f"^{re.escape(message)}$"


def test_templates_render_strictly():
    text = templates.render("truncate", dialogue_numbered="0 [doctor] hi")
    assert "0 [doctor] hi" in text
    assert "LAST_SUBJECTIVE_TURN" in text
    with pytest.raises(ValueError, match="missing"):
        templates.render("truncate")
    with pytest.raises(ValueError, match="extra"):
        templates.render("truncate", dialogue_numbered="x", bogus="y")
    with pytest.raises(ValueError, match="unknown template"):
        templates.render("nonexistent")


def test_templates_all_load_and_demand_a_fenced_block():
    placeholder_values = {
        "truncate": {"dialogue_numbered": "d"},
        "summary": {"dialogue": "d"},
        "facts": {"dialogue": "d"},
        "ddx": {"context": "c"},
        "omissions": {"facts": "f", "summary": "s"},
        "categorize": {"facts": "f"},
        "cluster": {"polarity_word": "supports", "diagnoses": "- a", "facts": "f"},
    }
    assert set(placeholder_values) == set(templates.TEMPLATE_NAMES)
    for name, values in placeholder_values.items():
        text = templates.render(name, **values)
        assert "fenced code block" in text


def test_build_request_single_user_message():
    request = templates.build_request(METRIC_MODEL, "ddx", 512, context="info")
    assert request.model_id == METRIC_MODEL
    assert len(request.messages) == 1
    assert request.messages[0].role == "user"
    assert "info" in request.messages[0].content
    assert request.max_tokens == 512


def test_extract_last_fenced_block():
    text = "preamble\n```\nfirst\n```\nmiddle\n```json\nsecond\n```\ntrailer"
    assert parsers.extract_last_fenced_block(text) == "second"
    with pytest.raises(ParseError, match="no fenced code block"):
        parsers.extract_last_fenced_block("no block here")


def test_parse_truncation():
    assert parsers.parse_truncation("LAST_SUBJECTIVE_TURN: 7", 10) == 7
    assert parsers.parse_truncation("LAST_SUBJECTIVE_TURN: 0", 10) == 0
    with pytest.raises(
        ParseError, match=exactly("turn number 10 is outside the transcript range 0..9")
    ):
        parsers.parse_truncation("LAST_SUBJECTIVE_TURN: 10", 10)
    with pytest.raises(ParseError, match="does not match"):
        parsers.parse_truncation("TURN: 3", 10)
    with pytest.raises(ParseError, match="exactly one"):
        parsers.parse_truncation("LAST_SUBJECTIVE_TURN: 3\nextra", 10)


def test_parse_summary_happy_and_none_sections():
    block = (
        "CHIEF COMPLAINT:\nHeadache.\n"
        "HISTORY OF PRESENT ILLNESS:\nTwo days of pain.\nWorse at night.\n"
        "PAST SOCIAL HISTORY:\nNONE"
    )
    summary = parsers.parse_summary(block, "e1")
    assert summary.sections["chief_complaint"] == "Headache."
    assert summary.sections["history_of_present_illness"] == "Two days of pain.\nWorse at night."
    assert summary.sections["past_social_history"] == ""
    # Text on the header line keeps its first character with no space after the colon.
    inline = "CHIEF COMPLAINT:Fever\nHISTORY OF PRESENT ILLNESS:NONE\nPAST SOCIAL HISTORY:NONE"
    assert parsers.parse_summary(inline, "e1").sections["chief_complaint"] == "Fever"


def test_parse_summary_errors():
    with pytest.raises(
        ParseError,
        match=exactly("expected the header CHIEF COMPLAINT: exactly once, found it 0 times"),
    ):
        parsers.parse_summary("HISTORY OF PRESENT ILLNESS:\nx\nPAST SOCIAL HISTORY:\ny", "e1")
    block_out_of_order = (
        "HISTORY OF PRESENT ILLNESS:\nx\nCHIEF COMPLAINT:\ny\nPAST SOCIAL HISTORY:\nz"
    )
    with pytest.raises(ParseError, match=exactly("summary section headers are out of order")):
        parsers.parse_summary(block_out_of_order, "e1")
    all_none = (
        "CHIEF COMPLAINT:\nNONE\nHISTORY OF PRESENT ILLNESS:\nNONE\nPAST SOCIAL HISTORY:\nNONE"
    )
    with pytest.raises(ParseError, match="every section is empty"):
        parsers.parse_summary(all_none, "e1")


def test_parse_facts_happy_path():
    block = "F0: Has a cough | medical\nF1: Lives alone | non_medical"
    facts = parsers.parse_facts(block)
    assert [f.fact_id for f in facts] == ["F0", "F1"]
    assert facts[0].content_category is ContentCategory.MEDICAL
    assert facts[0].importance is None


def test_parse_facts_keeps_pipes_in_text():
    facts = parsers.parse_facts("F0: BP was 120/80 | stable reading | medical")
    assert facts[0].text == "BP was 120/80 | stable reading"


def test_parse_facts_errors():
    with pytest.raises(ParseError, match="contiguous"):
        parsers.parse_facts("F0: a | medical\nF2: b | medical")
    with pytest.raises(ParseError, match="contiguous"):
        parsers.parse_facts("F1: a | medical")
    with pytest.raises(ParseError, match="unknown content category"):
        parsers.parse_facts("F0: a | clinical")
    with pytest.raises(ParseError, match="no F<number>"):
        parsers.parse_facts("just some text")
    with pytest.raises(ParseError, match="empty"):
        parsers.parse_facts("")


def test_parse_ddx_happy_path():
    block = (
        "1. Anemia | probable | Low hemoglobin.\n"
        "2. Hypothyroidism | possible | Fatigue fits.\n"
        "3. Heart failure | unlikely | Normal echo."
    )
    ddx = parsers.parse_ddx(block, "e1", DdxSource.FROM_CHAT)
    assert [d.name for d in ddx.entries] == ["Anemia", "Hypothyroidism", "Heart failure"]
    assert ddx.entries[0].likelihood is Likelihood.PROBABLE
    assert ddx.top_non_probable().name == "Hypothyroidism"


def test_parse_ddx_errors():
    with pytest.raises(ParseError, match="unknown likelihood 'definite'"):
        parsers.parse_ddx("1. Anemia | definite | x", "e1", DdxSource.FROM_CHAT)
    with pytest.raises(ParseError, match="ranks must start at 1"):
        parsers.parse_ddx("2. Anemia | probable | x", "e1", DdxSource.FROM_CHAT)
    eleven = "\n".join(f"{i + 1}. Dx{i} | possible | x" for i in range(11))
    with pytest.raises(ParseError, match="11 entries exceeds the maximum of 10"):
        parsers.parse_ddx(eleven, "e1", DdxSource.FROM_CHAT)
    with pytest.raises(ParseError, match="three .-separated fields"):
        parsers.parse_ddx("1. Anemia | probable", "e1", DdxSource.FROM_CHAT)
    with pytest.raises(ParseError, match="more than once"):
        parsers.parse_ddx(
            "1. Anemia | probable | x\n2. anemia | possible | y", "e1", DdxSource.FROM_CHAT
        )


def test_parse_ddx_reports_any_other_refusal_of_a_diagnosis(monkeypatch):
    def refuse(diagnosis):
        raise ValueError(f"diagnosis {diagnosis.name!r} is refused")

    monkeypatch.setattr(datamodel.Diagnosis, "check", refuse)
    with pytest.raises(ParseError, match=exactly("diagnosis 'Anemia' is refused")):
        parsers.parse_ddx("1. Anemia | probable | x", "e1", DdxSource.FROM_CHAT)


def test_parse_omissions():
    assert parsers.parse_omissions("OMITTED: NONE", ["F0"]) == []
    result = parsers.parse_omissions("F0: missing entirely", ["F0", "F1"])
    assert result[0].fact_id == "F0"
    with pytest.raises(ParseError, match="unknown fact F9"):
        parsers.parse_omissions("F9: gone", ["F0"])
    with pytest.raises(ParseError, match="more than once"):
        parsers.parse_omissions("F0: gone\nF0: again", ["F0"])
    with pytest.raises(ParseError, match="only line"):
        parsers.parse_omissions("F0: gone\nOMITTED: NONE", ["F0"])
    with pytest.raises(ParseError, match="empty"):
        parsers.parse_omissions("", ["F0"])


def test_fact_and_omission_parsers_report_a_record_refusal_as_a_parse_error():
    # A code fence cannot reach them through a fenced reply, but a parser
    # called on its own still answers with ParseError, never ValueError.
    with pytest.raises(
        ParseError, match=exactly("fact F0: text 'a```b' cannot be carried on one reply line")
    ):
        parsers.parse_facts("F0: a```b | medical")
    with pytest.raises(
        ParseError,
        match=exactly("omission F0: explanation 'a```b' cannot be carried on one reply line"),
    ):
        parsers.parse_omissions("F0: a```b", ["F0"])


def make_facts(n):
    return [
        Fact(fact_id=f"F{i}", text=f"fact {i}", content_category=ContentCategory.MEDICAL)
        for i in range(n)
    ]


def test_parse_categorization():
    facts = make_facts(4)
    block = "CRITICAL:\nF0\nIMPORTANT:\nF1, F2\nOTHER:\nF3"
    categorized = parsers.parse_categorization(block, facts)
    assert categorized[0].importance is Importance.CRITICAL
    assert categorized[1].importance is Importance.IMPORTANT
    assert categorized[3].importance is Importance.OTHER
    inline = "CRITICAL: NONE\nIMPORTANT: F0, F1, F2, F3\nOTHER: NONE"
    categorized = parsers.parse_categorization(inline, facts)
    assert all(f.importance is Importance.IMPORTANT for f in categorized)
    unspaced = "CRITICAL:F0\nIMPORTANT:F1,F2\nOTHER:F3"
    categorized = parsers.parse_categorization(unspaced, facts)
    assert categorized[0].importance is Importance.CRITICAL
    assert categorized[3].importance is Importance.OTHER


def test_parse_categorization_errors():
    facts = make_facts(2)
    with pytest.raises(ParseError, match="missing from the categorization"):
        parsers.parse_categorization("CRITICAL:\nF0\nIMPORTANT:\nNONE\nOTHER:\nNONE", facts)
    with pytest.raises(ParseError, match="more than one section"):
        parsers.parse_categorization("CRITICAL:\nF0\nIMPORTANT:\nF0, F1\nOTHER:\nNONE", facts)
    with pytest.raises(ParseError, match="unknown fact ids"):
        parsers.parse_categorization("CRITICAL:\nF0, F7\nIMPORTANT:\nF1\nOTHER:\nNONE", facts)
    with pytest.raises(
        ParseError, match=exactly("expected the section IMPORTANT: exactly once, found it 0 times")
    ):
        parsers.parse_categorization("CRITICAL:\nF0\nOTHER:\nF1", facts)
    with pytest.raises(ParseError, match=exactly("importance sections are out of order")):
        parsers.parse_categorization("IMPORTANT:\nF1\nCRITICAL:\nF0\nOTHER:\nNONE", facts)


CLUSTER_BLOCK = """DIAGNOSIS: Anemia
SYMPTOMS:
- Fatigue from low oxygen delivery: F1, F2
TESTS:
- Low hemoglobin: F0
TREATMENTS:
NONE
SOCIAL DETERMINANT OF HEALTH:
NONE
OTHER:
NONE
DIAGNOSIS: Heart failure
SYMPTOMS:
NONE
TESTS:
NONE
TREATMENTS:
NONE
SOCIAL DETERMINATE OF HEALTH:
NONE
OTHER:
NONE"""


def test_parse_clusters_happy_path():
    clusters = parsers.parse_clusters(
        CLUSTER_BLOCK,
        ["Anemia", "Heart failure"],
        ["F0", "F1", "F2"],
        Polarity.SUPPORTING,
    )
    assert len(clusters) == 2
    anemia = clusters[0]
    assert anemia.diagnosis_name == "Anemia"
    assert len(anemia.subclusters) == 2
    assert anemia.subclusters[0].fact_ids == ("F1", "F2")
    # The misspelled heading is accepted and the section is empty.
    assert clusters[1].subclusters == ()


def test_parse_clusters_errors():
    names = ["Anemia", "Heart failure"]
    known = ["F0", "F1", "F2"]
    with pytest.raises(ParseError, match="do not match the requested"):
        parsers.parse_clusters(CLUSTER_BLOCK, ["Anemia"], known, Polarity.SUPPORTING)
    missing_group = CLUSTER_BLOCK.replace("TREATMENTS:\nNONE\nSOCIAL DETERMINANT", "SOCIAL DETERMINANT", 1)
    with pytest.raises(
        ParseError,
        match=exactly(
            "diagnosis 'Anemia': expected the heading for group treatments exactly once, "
            "found it 0 times"
        ),
    ):
        parsers.parse_clusters(missing_group, names, known, Polarity.SUPPORTING)
    empty_group = CLUSTER_BLOCK.replace("TREATMENTS:\nNONE\n", "TREATMENTS:\n", 1)
    with pytest.raises(
        ParseError,
        match=exactly("diagnosis 'Anemia', group TREATMENTS: write NONE or subcluster lines"),
    ):
        parsers.parse_clusters(empty_group, names, known, Polarity.SUPPORTING)
    dup = CLUSTER_BLOCK.replace("F1, F2", "F1, F1")
    with pytest.raises(ParseError, match="more than once"):
        parsers.parse_clusters(dup, names, known, Polarity.SUPPORTING)
    unknown = CLUSTER_BLOCK.replace("F1, F2", "F1, F9")
    with pytest.raises(ParseError, match="unknown fact ids"):
        parsers.parse_clusters(unknown, names, known, Polarity.SUPPORTING)
    junk = "thinking...\n" + CLUSTER_BLOCK
    with pytest.raises(ParseError, match="before the first DIAGNOSIS"):
        parsers.parse_clusters(junk, names, known, Polarity.SUPPORTING)
    no_mechanism = CLUSTER_BLOCK.replace("- Low hemoglobin: F0", "-  :F0")
    with pytest.raises(ParseError, match="no mechanism"):
        parsers.parse_clusters(no_mechanism, names, known, Polarity.SUPPORTING)


def test_parse_clusters_quotes_the_subclusters_repeated_member_refusal():
    # SubCluster refuses repeated members; its refusal comes before the
    # parser's unknown-member check, with the subcluster named first.
    names = ["Anemia", "Heart failure"]
    repeated = CLUSTER_BLOCK.replace("F1, F2", "F2, F9, F02, F9")
    with pytest.raises(
        ParseError,
        match=exactly(
            "diagnosis 'Anemia', subcluster 'Fatigue from low oxygen delivery': "
            "fact ids ['F2', 'F9'] are listed more than once"
        ),
    ):
        parsers.parse_clusters(repeated, names, ["F0", "F1", "F2"], Polarity.SUPPORTING)


def make_context(backend, repair_budget=1):
    config = RunConfig(
        models=ModelsConfig(summary=SUMMARY_MODEL, metric=METRIC_MODEL),
        mode=GatewayMode.LIVE,
        thresholds=ThresholdsConfig(repair_budget=repair_budget),
    )
    gateway = LlmGateway(backend=backend)
    return StageContext(gateway=gateway, config=config)


def simple_request():
    return GenerationRequest(
        model_id=METRIC_MODEL, messages=(ChatMessage(role="user", content="go"),)
    )


def test_run_stage_first_try(tmp_path):
    ctx = make_context(ScriptedBackend(generate_responses=["```\nLAST_SUBJECTIVE_TURN: 1\n```"]))
    out = run_stage(ctx, "truncate", simple_request(), lambda b: parsers.parse_truncation(b, 5))
    assert out.value == 1
    assert out.attempts == 1


class RequestRecordingBackend(ScriptedBackend):
    def __init__(self, generate_responses):
        super().__init__(generate_responses=generate_responses)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


def test_run_stage_repairs_once_then_succeeds():
    backend = RequestRecordingBackend(
        ["no block at all", "```\nLAST_SUBJECTIVE_TURN: 2\n```"]
    )
    ctx = make_context(backend)
    out = run_stage(ctx, "truncate", simple_request(), lambda b: parsers.parse_truncation(b, 5))
    assert out.value == 2
    assert out.attempts == 2
    assert len(backend.requests) == 2
    repair = backend.requests[1]
    assert len(repair.messages) == 3
    assert repair.messages[1].role == "assistant"
    assert repair.messages[1].content == "no block at all"
    assert "no fenced code block" in repair.messages[2].content


def test_run_stage_terminal_after_budget():
    backend = RequestRecordingBackend(["bad", "still bad", "never used"])
    ctx = make_context(backend)
    with pytest.raises(StageError) as err:
        run_stage(ctx, "truncate", simple_request(), lambda b: parsers.parse_truncation(b, 5))
    assert err.value.attempts == 2
    assert len(backend.requests) == 2
    assert "no fenced code block" in err.value.message
    assert err.value.stage == "truncate"


def test_run_stage_zero_budget():
    backend = RequestRecordingBackend(["bad", "unused"])
    ctx = make_context(backend, repair_budget=0)
    with pytest.raises(StageError) as err:
        run_stage(ctx, "truncate", simple_request(), lambda b: parsers.parse_truncation(b, 5))
    assert err.value.attempts == 1
    assert len(backend.requests) == 1


def test_run_stage_extends_each_repair_and_fails_on_the_last_request(caplog):
    backend = RequestRecordingBackend(["bad 1", "bad 2", "bad 3", "never used"])
    ctx = make_context(backend, repair_budget=2)
    with caplog.at_level(logging.INFO, logger="factgap.pipeline.stages"):
        with pytest.raises(StageError) as err:
            run_stage(
                ctx, "truncate", simple_request(), lambda b: parsers.parse_truncation(b, 5)
            )
    requests = backend.requests
    assert [len(request.messages) for request in requests] == [1, 3, 5]
    for before, after in zip(requests, requests[1:]):
        assert after.messages[: len(before.messages)] == before.messages
    assert [m.content for m in requests[2].messages if m.role == "assistant"] == [
        "bad 1",
        "bad 2",
    ]
    assert err.value.attempts == 3
    assert err.value.fingerprint == requests[2].fingerprint
    assert err.value.message == "the reply contains no fenced code block"
    rejected = [r.getMessage() for r in caplog.records if "rejected" in r.getMessage()]
    assert rejected == [
        "stage truncate attempt 1 rejected: the reply contains no fenced code block",
        "stage truncate attempt 2 rejected: the reply contains no fenced code block",
    ]


def parse_ddx(block):
    return parsers.parse_ddx(block, "e1", DdxSource.FROM_CHAT)


# Rules the records hold, not their parsers: (parser, the reply's block,
# the message a repair request quotes, a block the parser accepts).
RECORD_RULES = {
    "blank_fact_text": (
        parsers.parse_facts,
        "F0:  | medical",
        "fact F0: empty text",
        "F0: a | medical",
    ),
    "blank_explanation": (
        lambda block: parsers.parse_omissions(block, ["F0"]),
        "F0:",
        "omission F0: empty explanation",
        "OMITTED: NONE",
    ),
    "blank_condition": (
        parse_ddx,
        "1.  | probable | x",
        "diagnosis name must be non-empty",
        "1. Flu | probable | x",
    ),
    "rank_gap": (
        parse_ddx,
        "1. Flu | probable | x\n3. Cold | possible | y",
        "ddx e1: ranks must start at 1 and increase by 1; entry 2 has rank 3",
        "1. Flu | probable | x",
    ),
    "condition_repeated_in_another_case": (
        parse_ddx,
        "1. Flu | probable | x\n2. flu | possible | y",
        "ddx e1: condition 'flu' appears more than once",
        "1. Flu | probable | x",
    ),
    "eleven_conditions": (
        parse_ddx,
        "\n".join(f"{rank}. Condition {rank} | possible | x" for rank in range(1, 12)),
        "ddx e1: 11 entries exceeds the maximum of 10",
        "1. Flu | probable | x",
    ),
}


@pytest.mark.parametrize("case", RECORD_RULES)
def test_a_rule_a_record_holds_is_a_parse_error_that_earns_a_repair(case):
    parse, block, message, accepted = RECORD_RULES[case]
    with pytest.raises(ParseError, match=exactly(message)):
        parse(block)
    backend = RequestRecordingBackend([f"```\n{block}\n```", f"```\n{accepted}\n```"])
    out = run_stage(make_context(backend), "extract_facts", simple_request(), parse)
    assert out.value == parse(accepted)
    assert out.attempts == 2
    assert f"violated the required format: {message}. " in backend.requests[1].messages[2].content


def make_dialogue(n=4):
    return Dialogue(
        encounter_id="e1",
        turns=tuple(
            Turn(
                index=i,
                speaker=Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT,
                text=f"line {i}",
            )
            for i in range(n)
        ),
    )


def test_stage_truncate_end_to_end():
    ctx = make_context(ScriptedBackend(generate_responses=["```\nLAST_SUBJECTIVE_TURN: 2\n```"]))
    out = stage_truncate(ctx, make_dialogue(4))
    assert out.stage == "truncate"
    assert out.value == 2


def test_stage_ddx_and_cluster_roundtrip():
    ddx_reply = "```\n1. Anemia | probable | fits\n2. Flu | possible | maybe\n```"
    cluster_reply = (
        "```\nDIAGNOSIS: Anemia\nSYMPTOMS:\n- Fatigue: F0\nTESTS:\nNONE\nTREATMENTS:\nNONE\n"
        "SOCIAL DETERMINANT OF HEALTH:\nNONE\nOTHER:\nNONE\n"
        "DIAGNOSIS: Flu\nSYMPTOMS:\nNONE\nTESTS:\nNONE\nTREATMENTS:\nNONE\n"
        "SOCIAL DETERMINANT OF HEALTH:\nNONE\nOTHER:\nNONE\n```"
    )
    ctx = make_context(ScriptedBackend(generate_responses=[ddx_reply, cluster_reply]))
    rows = {stage.name: stage for stage in STAGES}
    dialogue = make_dialogue(4)
    inputs = StageInputs(ctx, dialogue)
    inputs.accept("truncate", dialogue)
    inputs.accept("extract_facts", make_facts(1))
    ddx_out = rows["ddx_chat"].run(inputs)
    assert ddx_out.stage == "ddx_chat"
    inputs.accept("ddx_chat", ddx_out)
    cluster_out = rows["cluster_supporting"].run(inputs)
    assert cluster_out.stage == "cluster_supporting"
    assert cluster_out.value[0].subclusters[0].fact_ids == ("F0",)
