import json
import re
from collections.abc import Mapping
from dataclasses import field
from enum import Enum
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import pytest

import factgap.cli  # noqa: F401  (imports every module that defines a Record type)
from factgap.config import BackendConfig, ModelsConfig, RunConfig, ThresholdsConfig
from factgap.datamodel import (
    MARGIN_EPSILON,
    ClusterGroup,
    CompletionMargin,
    ContentCategory,
    DdxSource,
    Diagnosis,
    DifferentialDiagnosis,
    Dialogue,
    EvidenceClustering,
    Fact,
    FactScore,
    FrozenInstanceError,
    Importance,
    JsonRecord,
    Likelihood,
    Omission,
    OmissionReport,
    Polarity,
    Record,
    ScoredOmission,
    SourceTag,
    Speaker,
    SubCluster,
    Summary,
    Turn,
    _field_types,
    _return_type,
    fact_id_index,
    parse_fact_id,
    replace,
    validate_encounter_bundle,
)
from factgap.baselines import CorrelationResult, CorrelationRow, MetricVector, RougeScore
from factgap.dataset import (
    Corpus,
    Encounter,
    EncounterResult,
    FailureMarker,
    ManifestEntry,
    Provenance,
    RunManifest,
    SkipMarker,
)
from factgap.gateway import (
    Aggregation,
    ChatMessage,
    GatewayMode,
    GenerationRequest,
    LlmGateway,
    ScoreRequest,
)
from factgap.pipeline.stages import Stage, StageContext, StageOutput
from factgap.scoring import MarginPlan, PolarityMode

from scripted_backend import ScriptedBackend


def make_dialogue(n_turns=4, encounter_id="enc-1"):
    turns = tuple(
        Turn(index=i, speaker=Speaker.DOCTOR if i % 2 == 0 else Speaker.PATIENT, text=f"line {i}")
        for i in range(n_turns)
    )
    return Dialogue(encounter_id=encounter_id, turns=turns)


def test_parse_fact_id_normalizes():
    assert parse_fact_id("F14") == "F14"
    assert parse_fact_id(" F14: ") == "F14"
    assert parse_fact_id("F007") == "F7"
    assert fact_id_index("F14") == 14


@pytest.mark.parametrize(
    # A superscript two, a fullwidth one and an Arabic-Indic three: str.isdigit
    # takes them all, and int() takes the last two.
    "bad", ["", "14", "F", "Fx", "G3", "F1.5", "fact F1 and F2", "F\u00b2", "F\uff11", "F\u0663"]
)
def test_parse_fact_id_rejects_malformed(bad):
    with pytest.raises(ValueError, match=f"^malformed fact id {re.escape(repr(bad))}$"):
        parse_fact_id(bad)


def test_dialogue_requires_contiguous_indices():
    turns = (
        Turn(index=0, speaker=Speaker.DOCTOR, text="hi"),
        Turn(index=2, speaker=Speaker.PATIENT, text="hello"),
    )
    with pytest.raises(ValueError, match="contiguous"):
        Dialogue(encounter_id="enc-1", turns=turns)


def test_dialogue_rejects_empty():
    with pytest.raises(ValueError):
        Dialogue(encounter_id="enc-1", turns=())
    with pytest.raises(ValueError):
        Turn(index=0, speaker=Speaker.DOCTOR, text="   ")


def test_dialogue_text_renders_speaker_tags():
    d = make_dialogue(2)
    assert d.text() == "[doctor] line 0\n[patient] line 1"
    assert d.numbered_text().splitlines()[1] == "1 [patient] line 1"


def test_dialogue_prefix_truncates_and_tags():
    d = make_dialogue(6)
    cut = d.prefix(3)
    assert len(cut.turns) == 4
    assert cut.source_tag.value == "truncated"
    with pytest.raises(ValueError):
        d.prefix(6)
    with pytest.raises(ValueError):
        d.prefix(-1)


def test_dialogue_json_round_trip():
    d = make_dialogue(3)
    again = Dialogue.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
    assert again == d


def test_summary_fills_missing_sections_and_validates():
    s = Summary(encounter_id="enc-1", sections={"chief_complaint": "headache"})
    assert s.sections["past_social_history"] == ""
    assert s.text() == "CHIEF COMPLAINT:\nheadache"
    with pytest.raises(ValueError, match="every section is empty"):
        Summary(encounter_id="enc-1", sections={"chief_complaint": "  "})
    with pytest.raises(ValueError, match="unknown sections"):
        Summary(encounter_id="enc-1", sections={"assessment": "x"})


def test_summary_round_trip():
    s = Summary(
        encounter_id="enc-1",
        sections={"chief_complaint": "a", "history_of_present_illness": "b"},
        generator_tag="m1",
    )
    assert Summary.from_json_dict(s.to_json_dict()) == s


def test_fact_normalizes_and_round_trips():
    f = Fact(fact_id="F03:", text="x", content_category="medical")
    assert f.fact_id == "F3"
    assert f.importance is None
    f2 = f.with_importance(Importance.CRITICAL)
    assert f2.importance is Importance.CRITICAL
    assert Fact.from_json_dict(f2.to_json_dict()) == f2
    with pytest.raises(ValueError):
        Fact(fact_id="F1", text=" ", content_category=ContentCategory.MEDICAL)


def test_ddx_invariants():
    entries = tuple(
        Diagnosis(rank=i + 1, name=f"dx{i}", likelihood=Likelihood.POSSIBLE) for i in range(11)
    )
    with pytest.raises(ValueError, match="exceeds the maximum"):
        DifferentialDiagnosis(encounter_id="e", source="from_chat", entries=entries)
    with pytest.raises(ValueError, match="ranks"):
        DifferentialDiagnosis(
            encounter_id="e",
            source="from_chat",
            entries=(
                Diagnosis(rank=2, name="a", likelihood=Likelihood.PROBABLE),
                Diagnosis(rank=1, name="b", likelihood=Likelihood.POSSIBLE),
            ),
        )


@pytest.mark.parametrize(
    ("entries", "message"),
    [
        ((("Flu", 1), ("Cold", 3)), "ranks must start at 1 and increase by 1; entry 2 has rank 3"),
        ((("Flu", 1), ("flu", 2)), "condition 'flu' appears more than once"),
    ],
    ids=["rank_gap", "name_repeated_in_another_case"],
)
def test_ddx_refuses_what_no_reply_can_carry(entries, message):
    # ddx_response numbers entries 1, 2, ... and parse_ddx refuses a name
    # twice in any case, so neither differential could round-trip.
    with pytest.raises(ValueError, match=f"^ddx e: {re.escape(message)}$"):
        DifferentialDiagnosis(
            "e",
            DdxSource.FROM_CHAT,
            [Diagnosis(rank, name, Likelihood.POSSIBLE) for name, rank in entries],
        )


def test_ddx_top_non_probable_scans_in_rank_order():
    ddx = DifferentialDiagnosis(
        encounter_id="e",
        source=DdxSource.FROM_CHAT,
        entries=(
            Diagnosis(rank=1, name="a", likelihood=Likelihood.PROBABLE),
            Diagnosis(rank=2, name="b", likelihood=Likelihood.PROBABLE),
            Diagnosis(rank=3, name="c", likelihood=Likelihood.POSSIBLE),
            Diagnosis(rank=4, name="d", likelihood=Likelihood.UNLIKELY),
        ),
    )
    assert ddx.top().name == "a"
    assert ddx.top_non_probable().name == "c"
    all_probable = DifferentialDiagnosis(
        encounter_id="e",
        source="from_summary",
        entries=(Diagnosis(rank=1, name="a", likelihood=Likelihood.PROBABLE),),
    )
    assert all_probable.top_non_probable() is None


# Text that one line of a model reply cannot carry back intact.
NOT_ONE_LINE = (" a", "a ", "a\nb", "a\r\nb", "a\u2028b", "a\u2029b", "a\x85b", "a\x1cb", "a```b")


@pytest.mark.parametrize("text", NOT_ONE_LINE)
def test_reply_line_records_refuse_text_a_reply_line_cannot_carry(text):
    with pytest.raises(ValueError, match="cannot be carried on one reply line"):
        Fact(fact_id="F0", text=text, content_category="medical")
    with pytest.raises(ValueError, match="cannot be carried on one reply line"):
        Omission(fact_id="F0", explanation=text)
    with pytest.raises(ValueError, match="cannot be carried on one reply line"):
        Diagnosis(rank=1, name=text, likelihood="probable")
    with pytest.raises(ValueError, match="cannot be carried on one reply line"):
        Diagnosis(rank=1, name="a", likelihood="probable", explanation=text)


@pytest.mark.parametrize("label", (*NOT_ONE_LINE, "a:b"))
def test_subcluster_refuses_a_label_its_reply_line_cannot_carry(label):
    # "- a:b: F0" would parse back as mechanism "a" with fact id "b: F0".
    with pytest.raises(ValueError, match=re.escape(f"mechanism_label {label!r} cannot be")):
        SubCluster(group="symptoms", mechanism_label=label, fact_ids=("F0",))


def test_diagnosis_fields_refuse_the_reply_separator():
    with pytest.raises(ValueError, match=re.escape("diagnosis 1: name 'A | B' cannot be")):
        Diagnosis(1, "A | B", "probable", "x")
    with pytest.raises(ValueError, match=re.escape("diagnosis 2: explanation 'x|y' cannot be")):
        Diagnosis(2, "A", "probable", "x|y")
    # Elsewhere the separator is plain text, and a diagnosis may go unexplained.
    assert Fact(fact_id="F0", text="a | b", content_category="medical").text == "a | b"
    assert Omission(fact_id="F0", explanation="a | b").explanation == "a | b"
    assert Diagnosis(1, "a", "probable").explanation == ""


def test_a_stored_omission_with_a_line_break_is_refused_on_decode():
    data = Omission(fact_id="F2", explanation="swelling").to_json_dict()
    data["explanation"] = "the new ankle\nswelling"
    with pytest.raises(ValueError, match=re.escape("Omission: omission F2: explanation")):
        Omission.from_json_dict(data)


def test_subcluster_refuses_repeated_members():
    with pytest.raises(ValueError, match=r"^fact ids \['F1'\] are listed more than once$"):
        SubCluster(group="treatments", mechanism_label="adherence", fact_ids=("F1", "F01"))
    with pytest.raises(ValueError):
        SubCluster(group=ClusterGroup.TESTS, mechanism_label=" ", fact_ids=("F1",))
    with pytest.raises(ValueError):
        SubCluster(group=ClusterGroup.TESTS, mechanism_label="x", fact_ids=())


def test_fact_score_invariants():
    fs = FactScore(fact_id="F1", importance_weight=0.5, uniqueness_weights=(0.5, 1.0))
    assert fs.combined == 1.0
    assert FactScore(fact_id="F1", importance_weight=0.5, uniqueness_weights=()).combined == 0.5
    with pytest.raises(ValueError, match="not one of"):
        FactScore(fact_id="F1", importance_weight=0.3, uniqueness_weights=())
    with pytest.raises(ValueError, match="outside"):
        FactScore(fact_id="F1", importance_weight=0.5, uniqueness_weights=(2.0,))


def test_completion_margin_checks_its_own_arithmetic():
    m = CompletionMargin(l_c0=-1.0, l_c1=-3.0, l_s0=-2.0, l_s1=-3.0)
    assert m.ratio == 2.0
    undefined = CompletionMargin(l_c0=-1.0, l_c1=-3.0, l_s0=-2.0, l_s1=-2.0)
    assert undefined.ratio is None
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^l_s0 is not finite"):
            CompletionMargin(l_c0=-1.0, l_c1=-3.0, l_s0=bad, l_s1=-3.0)
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            CompletionMargin(l_c0=-1.0, l_c1=-3.0, l_s0=-2.0, l_s1=-3.0, epsilon=bad)


def test_margin_round_trip_none_ratio():
    m = CompletionMargin(l_c0=-1.0, l_c1=-1.0, l_s0=-2.0, l_s1=-2.0)
    assert CompletionMargin.from_json_dict(m.to_json_dict()) == m


def make_report_parts():
    o = Omission(fact_id="F1", explanation="missing entirely")
    s = FactScore(fact_id="F1", importance_weight=1.0, uniqueness_weights=())
    return o, s


def test_omission_report_consistency():
    o, s = make_report_parts()
    r = OmissionReport(encounter_id="enc-1", omissions=((o, s),))
    assert (r.omission_count, r.cumulative_weight) == (1, 1.0)
    assert OmissionReport.from_json_dict(r.to_json_dict()) == r
    s_other = FactScore(fact_id="F2", importance_weight=1.0, uniqueness_weights=())
    with pytest.raises(ValueError, match="paired"):
        OmissionReport(encounter_id="enc-1", omissions=((o, s_other),))


def test_empty_report_is_zero():
    r = OmissionReport(encounter_id="enc-1", omissions=())
    assert (r.omission_count, r.cumulative_weight) == (0, 0.0)


def test_bundle_warnings():
    clusters = [
        EvidenceClustering(
            diagnosis_name="dx",
            polarity=Polarity.SUPPORTING,
            subclusters=(
                SubCluster(group=ClusterGroup.SYMPTOMS, mechanism_label="NONE", fact_ids=("F1",)),
            ),
        ),
        EvidenceClustering(
            diagnosis_name="dx",
            polarity=Polarity.REFUTING,
            subclusters=(
                SubCluster(group=ClusterGroup.TREATMENTS, mechanism_label="m", fact_ids=("F1",)),
            ),
        ),
    ]
    warnings = validate_encounter_bundle(clusters)
    assert any('mechanism label "NONE"' in w for w in warnings)
    assert any("both supports and refutes" in w for w in warnings)


def sample_records():
    """One instance of every record type, with no field at its default."""
    dialogue = make_dialogue(3).prefix(1)
    diagnosis = Diagnosis(
        rank=1, name="migraine", likelihood=Likelihood.PROBABLE, explanation="aura"
    )
    subcluster = SubCluster(
        group=ClusterGroup.SYMPTOMS, mechanism_label="vascular", fact_ids=("F0",)
    )
    omission = Omission(fact_id="F0", explanation="missing entirely")
    score = FactScore(fact_id="F0", importance_weight=1.0, uniqueness_weights=(1.0,))
    margin = CompletionMargin(l_c0=-1.0, l_c1=-3.0, l_s0=-2.0, l_s1=-3.0, epsilon=1e-6)
    provenance = Provenance(original_encounter_id="enc-0", cut_turn_index=1)
    encounter = Encounter(dialogue=dialogue, reference_note="note", provenance=provenance)
    entry = ManifestEntry(encounter_id="enc-1", status="failed", reason="boom", stage="summarize")
    message = ChatMessage(role="user", content="hi")
    return {
        Turn: dialogue.turns[0],
        Dialogue: dialogue,
        Summary: Summary(
            encounter_id="enc-1", sections={"chief_complaint": "a"}, generator_tag="m1"
        ),
        Fact: Fact(
            fact_id="F0", text="x", content_category="medical", importance=Importance.CRITICAL
        ),
        Diagnosis: diagnosis,
        DifferentialDiagnosis: DifferentialDiagnosis(
            encounter_id="enc-1", source=DdxSource.FROM_CHAT, entries=(diagnosis,)
        ),
        SubCluster: subcluster,
        EvidenceClustering: EvidenceClustering(
            diagnosis_name="migraine", polarity=Polarity.SUPPORTING, subclusters=(subcluster,)
        ),
        Omission: omission,
        FactScore: score,
        CompletionMargin: margin,
        OmissionReport: OmissionReport(
            encounter_id="enc-1", omissions=((omission, score),), margin=margin
        ),
        Provenance: provenance,
        Encounter: encounter,
        Corpus: Corpus(name="c", encounters=(encounter,)),
        SkipMarker: SkipMarker(encounter_id="enc-1", reason="too short", cut_turn_index=3),
        FailureMarker: FailureMarker(
            encounter_id="enc-1", stage="summarize", message="boom", fingerprint="ab", attempts=2
        ),
        ManifestEntry: entry,
        RunManifest: RunManifest(
            corpus_path="corpus.json",
            out_dir="out",
            mode="replay",
            models={"summary": "s", "metric": "m", "margin": None},
            started_at="2024-01-01T00:00:00+00:00",
            finished_at="2024-01-01T00:01:00+00:00",
            encounters=(entry,),
        ),
        CorrelationRow: CorrelationRow(
            metric_name="rouge1",
            n=3,
            spearman_r=0.5,
            spearman_p=0.6,
            pearson_r=0.7,
            pearson_p=0.8,
        ),
        ChatMessage: message,
        GenerationRequest: GenerationRequest(model_id="m", messages=(message,), max_tokens=8),
        ScoreRequest: ScoreRequest(model_id="m", prefix="p", continuation="c"),
    }


def config_records():
    """One instance of every run config type, with no field at its default.

    Kept apart from sample_records: a config key's absence can be an
    error or not depending on other keys (backend.kind http needs
    base_url, record mode needs a cassette).
    """
    models = ModelsConfig(summary="s", metric="m", margin="g")
    backend = BackendConfig(
        kind="http", path=Path("/c/r.jsonl"), base_url="u", api_key_env="K", timeout=5.0
    )
    thresholds = ThresholdsConfig(min_truncated_turns=2, repair_budget=3, margin_epsilon=1e-6)
    return {
        ModelsConfig: models,
        BackendConfig: backend,
        ThresholdsConfig: thresholds,
        RunConfig: RunConfig(
            models=models,
            backend=backend,
            cassette=Path("/c/cassette.jsonl"),
            mode=GatewayMode.RECORD,
            thresholds=thresholds,
            uniqueness_polarity=PolarityMode.SUPPORTING_ONLY,
            aggregation=Aggregation.SUM,
            max_gen_tokens=7,
        ),
    }


RECORD_KEYS = {
    Turn: {"index", "speaker", "text"},
    Dialogue: {"schema_version", "encounter_id", "source_tag", "turns"},
    Summary: {"schema_version", "encounter_id", "generator_tag", "sections"},
    Fact: {"schema_version", "fact_id", "text", "content_category", "importance"},
    Diagnosis: {"rank", "name", "likelihood", "explanation"},
    DifferentialDiagnosis: {"schema_version", "encounter_id", "source", "entries"},
    SubCluster: {"group", "mechanism_label", "fact_ids"},
    EvidenceClustering: {"schema_version", "diagnosis_name", "polarity", "subclusters"},
    Omission: {"schema_version", "fact_id", "explanation"},
    FactScore: {"schema_version", "fact_id", "importance_weight", "uniqueness_weights", "combined"},
    CompletionMargin: {"schema_version", "l_c0", "l_c1", "l_s0", "l_s1", "ratio", "epsilon"},
    OmissionReport: {
        "schema_version",
        "encounter_id",
        "omissions",
        "omission_count",
        "cumulative_weight",
        "margin",
    },
    Provenance: {"original_encounter_id", "cut_turn_index"},
    Encounter: {"encounter_id", "dialogue", "reference_note", "provenance"},
    Corpus: {"schema_version", "name", "encounters"},
    SkipMarker: {"encounter_id", "reason", "cut_turn_index", "truncated_turns"},
    FailureMarker: {"encounter_id", "stage", "message", "fingerprint", "attempts"},
    ManifestEntry: {"encounter_id", "status", "reason", "stage"},
    RunManifest: {
        "schema_version",
        "corpus_path",
        "out_dir",
        "mode",
        "models",
        "started_at",
        "finished_at",
        "encounters",
        "counts",
    },
    CorrelationRow: {
        "metric_name",
        "n",
        "spearman_r",
        "spearman_p",
        "pearson_r",
        "pearson_p",
    },
    ModelsConfig: {"summary", "metric", "margin"},
    BackendConfig: {"kind", "path", "base_url", "api_key_env", "timeout"},
    ThresholdsConfig: {"min_truncated_turns", "repair_budget", "margin_epsilon"},
    RunConfig: {
        "models",
        "backend",
        "cassette",
        "mode",
        "thresholds",
        "uniqueness_polarity",
        "aggregation",
        "max_gen_tokens",
    },
    ChatMessage: {"role", "content"},
    GenerationRequest: {"model_id", "messages", "max_tokens"},
    ScoreRequest: {"model_id", "prefix", "continuation"},
}

# (type, key, default): keys that may be absent on decode.
OPTIONAL_KEYS = [
    (Dialogue, "source_tag", SourceTag.ORIGINAL),
    (Summary, "generator_tag", ""),
    (Diagnosis, "explanation", ""),
    (CompletionMargin, "epsilon", MARGIN_EPSILON),
    (Fact, "importance", None),
    (OmissionReport, "margin", None),
    (Encounter, "reference_note", None),
    (Encounter, "provenance", None),
    (ManifestEntry, "reason", ""),
    (ManifestEntry, "stage", ""),
    (GenerationRequest, "max_tokens", 1024),
]

# (type, key, a value other than the one derived from sample_records()):
# keys computed from the other fields, required on decode.
DERIVED_KEYS = [
    (Encounter, "encounter_id", "enc-other"),
    (RunManifest, "counts", {"ok": 1, "skipped": 0, "failed": 0}),
    (FactScore, "combined", 0.5),
    (CompletionMargin, "ratio", None),
    (OmissionReport, "omission_count", 2),
    (OmissionReport, "cumulative_weight", 0.9),
    (SkipMarker, "truncated_turns", 3),
]


def test_every_record_type_has_pinned_json_keys():
    assert set(JsonRecord.__subclasses__()) == set(RECORD_KEYS)
    for cls, record in {**sample_records(), **config_records()}.items():
        data = record.to_json_dict()
        assert set(data) == RECORD_KEYS[cls], cls.__name__
        assert cls.versioned == ("schema_version" in data), cls.__name__
        if cls.versioned:
            assert data["schema_version"] == "1"
        assert cls.from_json_dict(json.loads(json.dumps(data))) == record, cls.__name__


def test_codec_encodes_enums_tuples_and_nested_records_as_json():
    records = sample_records()
    assert records[Turn].to_json_dict() == {"index": 0, "speaker": "doctor", "text": "line 0"}
    report = records[OmissionReport].to_json_dict()
    assert report["omissions"] == [
        {
            "omission": records[Omission].to_json_dict(),
            "score": records[FactScore].to_json_dict(),
        }
    ]
    assert report["margin"]["ratio"] == 2.0
    assert records[FactScore].to_json_dict()["uniqueness_weights"] == [1.0]
    assert records[Encounter].to_json_dict()["encounter_id"] == "enc-1"
    assert records[Encounter].to_json_dict()["provenance"] == {
        "original_encounter_id": "enc-0",
        "cut_turn_index": 1,
    }
    decoded = OmissionReport.from_json_dict(report)
    ((omission, score),) = decoded.omissions
    assert decoded.omissions[0] == ScoredOmission(omission=omission, score=score)
    assert (omission, score) == (records[Omission], records[FactScore])
    empty = Fact(fact_id="F1", text="y", content_category=ContentCategory.NON_MEDICAL)
    assert empty.to_json_dict()["importance"] is None
    assert Fact.from_json_dict(empty.to_json_dict()) == empty


@pytest.mark.parametrize(("cls", "key", "default"), OPTIONAL_KEYS)
def test_absent_optional_key_decodes_to_its_default(cls, key, default):
    record = sample_records()[cls]
    data = record.to_json_dict()
    assert getattr(record, key) != default
    del data[key]
    assert getattr(cls.from_json_dict(data), key) == default


def test_absent_required_key_is_a_value_error_naming_type_and_key():
    optional = {(cls, key) for cls, key, _ in OPTIONAL_KEYS}
    for cls, record in sample_records().items():
        for key in RECORD_KEYS[cls] - {"schema_version"}:
            if (cls, key) in optional:
                continue
            data = record.to_json_dict()
            del data[key]
            with pytest.raises(ValueError, match=f"{cls.__name__}: missing required key '{key}'"):
                cls.from_json_dict(data)


def test_derived_keys_list_every_derived_table():
    declared = {(cls, key) for cls in RECORD_KEYS for key in cls.derived}
    assert declared == {(cls, key) for cls, key, _ in DERIVED_KEYS}


@pytest.mark.parametrize(("cls", "key", "changed"), DERIVED_KEYS)
def test_derived_key_is_required_and_must_match_the_record(cls, key, changed):
    record = sample_records()[cls]
    data = record.to_json_dict()
    assert data[key] == getattr(record, key) != changed
    with pytest.raises(ValueError, match=f"^{cls.__name__}: missing required key '{key}'$"):
        cls.from_json_dict({name: value for name, value in data.items() if name != key})
    with pytest.raises(
        ValueError,
        match=(
            f"^{cls.__name__}: {key} {re.escape(repr(changed))} is not the "
            f"{re.escape(repr(data[key]))} derived from the record$"
        ),
    ):
        cls.from_json_dict({**data, key: changed})


def test_versioned_records_check_schema_version():
    for cls, record in sample_records().items():
        if not cls.versioned:
            continue
        data = record.to_json_dict()
        data["schema_version"] = "99"
        with pytest.raises(ValueError, match=f"{cls.__name__}: unsupported schema_version '99'"):
            cls.from_json_dict(data)
        del data["schema_version"]
        with pytest.raises(ValueError, match="unsupported schema_version None"):
            cls.from_json_dict(data)


def test_decode_refuses_a_non_object():
    with pytest.raises(ValueError, match="Turn: expected a JSON object, got list"):
        Dialogue.from_json_dict(
            {"schema_version": "1", "encounter_id": "e", "source_tag": "original", "turns": [[]]}
        )


def test_decode_refuses_unknown_keys():
    for cls, record in {**sample_records(), **config_records()}.items():
        data = record.to_json_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match=rf"^{cls.__name__}: unknown keys \['surprise'\]$"):
            cls.from_json_dict(data)


def test_decode_turns_a_wrong_json_type_into_a_value_error_naming_the_type():
    records = sample_records()
    turn = records[Turn].to_json_dict()
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match="^Turn: "):
            Turn.from_json_dict({**turn, "index": bad})
    with pytest.raises(ValueError, match="^Turn: "):
        Turn.from_json_dict({**turn, "text": 5})
    report = records[OmissionReport].to_json_dict()
    with pytest.raises(ValueError, match="^OmissionReport: "):
        OmissionReport.from_json_dict({**report, "omissions": 5})
    score = records[FactScore].to_json_dict()
    for key in ("importance_weight", "combined"):
        with pytest.raises(ValueError, match="^FactScore: expected a number, got bool$"):
            FactScore.from_json_dict({**score, key: True})


def test_every_str_field_refuses_a_number():
    for cls, record in {**sample_records(), **config_records()}.items():
        for name, hint in get_type_hints(cls).items():
            if hint not in (str, Optional[str]):
                continue
            data = {**record.to_json_dict(), name: 5}
            with pytest.raises(ValueError, match=f"^{cls.__name__}: expected a string, got int$"):
                cls.from_json_dict(data)


def test_every_str_field_refuses_text_that_utf8_cannot_encode():
    for cls, record in {**sample_records(), **config_records()}.items():
        for name, hint in get_type_hints(cls).items():
            if hint not in (str, Optional[str]):
                continue
            data = {**record.to_json_dict(), name: "caf\u00e9 \ud83d"}
            with pytest.raises(ValueError, match=f"^{cls.__name__}: {name} is not valid UTF-8: "):
                cls.from_json_dict(data)
    turn = sample_records()[Turn].to_json_dict()
    assert Turn.from_json_dict({**turn, "text": "caf\u00e9"}).text == "caf\u00e9"


def test_every_mapping_value_decodes_by_its_declared_type():
    refused = (5, "expected a string, got int$"), ("x\ud83d", "{} is not valid UTF-8: ")
    checked = []
    for cls, record in {**sample_records(), **config_records()}.items():
        for name, hint in get_type_hints(cls).items():
            if get_origin(hint) is not Mapping:
                continue
            data = record.to_json_dict()
            # The last key: a summary's check stops at its first non-empty section.
            key = list(data[name])[-1]
            for bad, message in refused:
                with pytest.raises(ValueError, match=f"^{cls.__name__}: {message.format(name)}"):
                    cls.from_json_dict({**data, name: {**data[name], key: bad}})
            checked.append(cls)
    assert checked == [Summary, RunManifest]


def test_construction_converts_enum_values_and_lists_to_the_declared_types():
    for cls, record in {**sample_records(), **config_records()}.items():
        loose = {}
        for name in cls._layout.names:
            value = getattr(record, name)
            if isinstance(value, Enum):
                value = value.value
            elif type(value) is tuple:
                value = list(value)
            loose[name] = value
        rebuilt = cls(**loose)
        assert rebuilt == record, cls.__name__
        for name in loose:
            assert type(getattr(rebuilt, name)) is type(getattr(record, name)), (cls, name)


def test_a_nested_decode_error_names_each_enclosing_type():
    corpus = sample_records()[Corpus].to_json_dict()
    corpus["encounters"][0]["dialogue"]["turns"][0]["speaker"] = "nurse"
    with pytest.raises(
        ValueError, match="^Corpus: Encounter: Dialogue: Turn: 'nurse' is not a valid Speaker$"
    ):
        Corpus.from_json_dict(corpus)


def test_encounter_refuses_an_outer_id_that_differs_from_the_dialogue():
    encounter = sample_records()[Encounter]
    data = encounter.to_json_dict()
    assert Encounter.from_json_dict(data) == encounter
    data["encounter_id"] = "enc-other"
    with pytest.raises(
        ValueError,
        match="^Encounter: encounter_id 'enc-other' is not the 'enc-1' derived from the record$",
    ):
        Encounter.from_json_dict(data)


def package_record_types(cls=Record):
    """Every Record subclass the package defines, but JsonRecord, which
    has no fields of its own."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("factgap.") and sub is not JsonRecord:
            yield sub
        yield from package_record_types(sub)


RECORD_TYPES = sorted(set(package_record_types()), key=lambda cls: cls.__qualname__)


def every_record():
    """One instance of every Record type in the package."""
    records = {**sample_records(), **config_records()}
    return {
        **records,
        EncounterResult: EncounterResult(
            encounter_id="enc-1", status="ok", report=records[OmissionReport]
        ),
        RougeScore: RougeScore(precision=0.5, recall=0.25, f1=1 / 3),
        CorrelationResult: CorrelationResult(method="pearson", statistic=0.5, p_value=0.2, n=4),
        MetricVector: MetricVector(name="m", values={"enc-1": 1.0, "enc-2": 2.0}),
        MarginPlan: MarginPlan(target="a", chat_alternative="b", summary_alternative="c"),
        StageOutput: StageOutput(
            stage="summarize", value=None, raw_text="x", fingerprint="ab", attempts=1
        ),
        StageContext: StageContext(
            gateway=LlmGateway(backend=ScriptedBackend()), config=records[RunConfig]
        ),
        Stage: Stage(name="s", needs=("t",), run=len, artifact="s.json", payload=None, label="l"),
    }


def test_every_record_type_has_a_sample():
    assert set(every_record()) == set(RECORD_TYPES)


def served_named_tuples(hint):
    """The NamedTuples that the codec of a field of type ``hint`` serves."""
    if isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "_fields"):
        yield hint
        for field_hint in get_type_hints(hint).values():
            yield from served_named_tuples(field_hint)
    for arg in get_args(hint):
        yield from served_named_tuples(arg)


def test_the_codec_resolves_field_types_as_get_type_hints_does():
    json_records = [cls for cls in RECORD_TYPES if issubclass(cls, JsonRecord)]
    named_tuples = {
        named_tuple
        for cls in json_records
        for hint in get_type_hints(cls).values()
        for named_tuple in served_named_tuples(hint)
    }
    assert {cls.__module__ for cls in json_records} == {
        "factgap.datamodel", "factgap.dataset", "factgap.config", "factgap.gateway",
        "factgap.baselines",
    }
    assert ScoredOmission in named_tuples
    for cls in [*json_records, *named_tuples]:
        names = cls._fields if cls in named_tuples else cls._layout.names
        hints = get_type_hints(cls)
        assert _field_types(cls, names) == {name: hints[name] for name in names}, cls
        for name in getattr(cls, "derived", ()):
            fget = getattr(cls, name).fget
            assert _return_type(fget) == get_type_hints(fget)["return"], (cls, name)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__qualname__)
def test_record_base_supplies_the_methods_of_every_record_type(cls):
    # A method of its own, or one generated by @dataclass, costs import time.
    shared = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}
    assert not shared & set(cls.__dict__)

    record = every_record()[cls]
    names = list(cls._layout.names)
    values = [getattr(record, name) for name in names]
    by_position = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    assert by_position == by_name == record
    assert replace(record) == record
    try:
        expected = hash(record)
    except TypeError:  # a Mapping field
        pass
    else:
        assert hash(by_position) == hash(by_name) == expected

    with pytest.raises(FrozenInstanceError):
        setattr(record, names[0], values[0])
    with pytest.raises(FrozenInstanceError):
        delattr(record, names[0])
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({shown})"

    required = [name for name in names if name not in cls._layout.defaults]
    if required:
        given = {name: value for name, value in zip(names, values) if name != required[-1]}
        message = f"missing required arguments {required[-1:]}"
        with pytest.raises(TypeError, match=re.escape(message)):
            cls(**given)
    with pytest.raises(TypeError, match="unexpected keyword arguments"):
        cls(*values, unknown=1)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, values[0])
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})


def test_record_fills_defaults_and_calls_post_init():
    class Sample(Record):
        name: str
        count: int = 2

        def __post_init__(self) -> None:
            object.__setattr__(self, "name", self.name.strip())

    first, second = Sample(" ab"), Sample(name="ab")
    assert first == second
    assert (first.name, first.count) == ("ab", 2)
    shown = repr(Sample("a", count=3))
    assert shown.endswith("<locals>.Sample(name='a', count=3)")
    assert Sample("a") != Sample("b") and Sample("a") != ("a", 2)


@pytest.mark.parametrize(
    "option",
    [{"default_factory": list}, {"init": False}, {"compare": False}, {"repr": False}],
    ids=["default_factory", "init", "compare", "repr"],
)
def test_record_refuses_a_field_option_other_than_a_plain_default(option):
    with pytest.raises(TypeError, match=r"Sample\.tags: Record fields take plain defaults"):

        class Sample(Record):
            name: str
            tags: list = field(**option)
