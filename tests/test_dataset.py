import csv
import datetime

import pytest

from factgap.datamodel import OmissionReport, Speaker
from factgap.dataset import (
    Corpus,
    Encounter,
    EncounterResult,
    FailureMarker,
    ManifestEntry,
    RunManifest,
    SkipMarker,
    load_corpus,
    parse_tagged_dialogue,
    read_outcome,
    save_corpus,
    utc_now_iso,
)
from factgap.jsonutil import read_json, write_json


TAGGED = """[doctor] Hello, what brings you in?
[patient] My knee hurts.
It started last week.
[nurse] Vitals are stable.
[doctor] Let's take a look."""


def test_parse_tagged_dialogue():
    dialogue = parse_tagged_dialogue("e1", TAGGED)
    assert [t.speaker for t in dialogue.turns] == [
        Speaker.DOCTOR,
        Speaker.PATIENT,
        Speaker.OTHER,
        Speaker.DOCTOR,
    ]
    # The untagged line joins the previous turn.
    assert dialogue.turns[1].text == "My knee hurts. It started last week."
    assert [t.index for t in dialogue.turns] == [0, 1, 2, 3]


def test_parse_tagged_dialogue_synonyms_and_errors():
    dialogue = parse_tagged_dialogue("e1", "[clinician] hi\n[provider] again\n[patient] hello")
    assert [t.speaker for t in dialogue.turns] == [
        Speaker.DOCTOR,
        Speaker.DOCTOR,
        Speaker.PATIENT,
    ]
    with pytest.raises(ValueError, match="does not start with"):
        parse_tagged_dialogue("e1", "untagged opener\n[doctor] hi")
    with pytest.raises(ValueError, match="unterminated"):
        parse_tagged_dialogue("e1", "[doctor hi")
    with pytest.raises(ValueError, match="empty dialogue"):
        parse_tagged_dialogue("e1", "")
    with pytest.raises(ValueError, match="no text"):
        parse_tagged_dialogue("e1", "[doctor]\n[patient] hi")


def make_corpus():
    d1 = parse_tagged_dialogue("e1", "[doctor] hi\n[patient] hello there")
    d2 = parse_tagged_dialogue("e2", "[doctor] welcome\n[patient] thanks")
    return Corpus(
        name="demo",
        encounters=(
            Encounter(dialogue=d1, reference_note="note one"),
            Encounter(dialogue=d2),
        ),
    )


def test_corpus_accessors_and_validation():
    corpus = make_corpus()
    assert len(corpus) == 2
    assert corpus.get("e2").reference_note is None
    with pytest.raises(KeyError):
        corpus.get("e9")
    sub = corpus.subset(["e2"])
    assert [e.encounter_id for e in sub.encounters] == ["e2"]
    with pytest.raises(ValueError, match=r"^corpus demo has no encounters \['e9'\]$"):
        corpus.subset(["e1", "e9"])
    dup = corpus.encounters[0]
    with pytest.raises(ValueError, match="duplicate encounter id"):
        Corpus(name="demo", encounters=(dup, dup))
    with pytest.raises(ValueError, match="no encounters"):
        Corpus(name="demo", encounters=())


def test_corpus_json_roundtrip(tmp_path):
    corpus = make_corpus()
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    with pytest.raises(FileExistsError, match="force"):
        save_corpus(corpus, path)
    save_corpus(corpus, path, force=True)


def test_corpus_schema_version_check(tmp_path):
    corpus = make_corpus()
    data = corpus.to_json_dict()
    data["schema_version"] = "99"
    with pytest.raises(ValueError, match="schema_version"):
        Corpus.from_json_dict(data)


def test_load_csv_corpus(tmp_path):
    path = tmp_path / "visits.csv"
    path.write_text(
        "encounter_id,dialogue,note\n"
        'v1,"[doctor] hi\n[patient] my head hurts",Follow up in a week.\n'
        'v2,"[doctor] hello\n[patient] all good",\n',
        encoding="utf-8",
    )
    corpus = load_corpus(path)
    assert corpus.name == "visits"
    assert corpus.get("v1").reference_note == "Follow up in a week."
    assert corpus.get("v2").reference_note is None
    assert corpus.get("v1").dialogue.turns[1].text == "my head hurts"


def test_load_csv_corpus_reads_a_file_with_a_byte_order_mark(tmp_path):
    # As Excel's "CSV UTF-8" export writes it: a BOM and CRLF line ends.
    path = tmp_path / "excel.csv"
    path.write_bytes(
        "\ufeffencounter_id,dialogue,note\r\nv1,\"[doctor] hi\n[patient] ok\",Fine.\r\n".encode()
    )
    corpus = load_corpus(path)
    assert [encounter.encounter_id for encounter in corpus.encounters] == ["v1"]
    assert corpus.get("v1").reference_note == "Fine."


def test_load_csv_corpus_errors(tmp_path):
    bad_cols = tmp_path / "bad.csv"
    bad_cols.write_text("id,text\na,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="must have columns"):
        load_corpus(bad_cols)
    blank_id = tmp_path / "blank.csv"
    blank_id.write_text('encounter_id,dialogue\n,"[doctor] hi"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="blank encounter_id"):
        load_corpus(blank_id)
    long_cell = tmp_path / "long.csv"
    cell = "[doctor] " + "x" * csv.field_size_limit()
    long_cell.write_text(
        f'encounter_id,dialogue\ne1,"[doctor] hi"\ne2,"{cell}"\n', encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"long\.csv:3: field larger than field limit"):
        load_corpus(long_cell)
    with pytest.raises(ValueError, match="unsupported corpus extension"):
        load_corpus(tmp_path / "corpus.txt")


@pytest.mark.parametrize(
    "tail, bad",
    [
        (b"caf\xff\n", "byte 0xff (invalid start byte)"),
        (b"caf\xe2\x82", "bytes 0xe2 0x82 (unexpected end of data)"),
    ],
    ids=["invalid_byte", "truncated_at_end"],
)
def test_a_csv_decode_error_names_the_line_and_bytes_not_an_offset(tmp_path, tail, bad):
    # The bytes sit about 30,000 bytes in, several of the 8 KiB chunks the
    # file is decoded in; the codec's own "position N" counts from the
    # start of the chunk, not of the file.
    rows = b"".join(b"enc-%d,[doctor] hello there\n" % i for i in range(2000))
    path = tmp_path / "corpus.csv"
    path.write_bytes(b"encounter_id,dialogue\n" + rows + b"enc-cafe,[doctor] " + tail)
    with pytest.raises(ValueError) as caught:
        load_corpus(path)
    assert str(caught.value) == f"{path}:2002: 'utf-8' codec can't decode {bad}"


def make_manifest(*entries):
    return RunManifest(
        corpus_path="corpus.json",
        out_dir="out",
        mode="replay",
        models={"summary": "s", "metric": "m", "margin": None},
        started_at="2024-01-01T00:00:00+00:00",
        finished_at="2024-01-01T00:01:00+00:00",
        encounters=entries,
    )


def test_run_manifest_roundtrip(tmp_path):
    manifest = make_manifest(
        ManifestEntry("e1", "ok"),
        ManifestEntry("e2", "skipped", reason="too short"),
        ManifestEntry("e3", "failed", reason="boom", stage="summarize"),
    )
    with pytest.raises(ValueError, match="unknown status"):
        ManifestEntry("e4", "exploded")
    assert manifest.counts == {"ok": 1, "skipped": 1, "failed": 1}
    path = tmp_path / "manifest.json"
    write_json(path, manifest.to_json_dict())
    assert read_json(path)["counts"] == {"ok": 1, "skipped": 1, "failed": 1}
    loaded = RunManifest.from_json_dict(read_json(path))
    assert loaded.encounters == manifest.encounters
    assert loaded.finished_at == manifest.finished_at
    assert loaded == manifest


def test_utc_now_iso_is_the_isoformat_of_now_in_utc():
    before = datetime.datetime.now(tz=datetime.timezone.utc).replace(microsecond=0)
    stamp = utc_now_iso()
    after = datetime.datetime.now(tz=datetime.timezone.utc)
    parsed = datetime.datetime.fromisoformat(stamp)
    assert stamp == parsed.isoformat(timespec="seconds")
    assert parsed.utcoffset() == datetime.timedelta(0)
    assert before <= parsed <= after


@pytest.mark.parametrize(
    ("damage", "message"),
    [
        (lambda data: data.pop("mode"), "^RunManifest: missing required key 'mode'$"),
        (
            lambda data: data["encounters"][0].pop("status"),
            "^RunManifest: ManifestEntry: missing required key 'status'$",
        ),
        pytest.param(
            lambda data: data["encounters"][0].update(status="exploded"),
            "^RunManifest: ManifestEntry: unknown status 'exploded'$",
            # the id keeps this case's name from before entry errors named their type
            id="<lambda>-^RunManifest: unknown status 'exploded'$",
        ),
        (
            lambda data: data["counts"].update(ok=2),
            r"^RunManifest: counts \{.*\} is not the \{.*\} derived from the record$",
        ),
    ],
)
def test_run_manifest_read_errors_name_the_manifest(damage, message):
    data = make_manifest(ManifestEntry("e1", "ok")).to_json_dict()
    damage(data)
    with pytest.raises(ValueError, match=message):
        RunManifest.from_json_dict(data)


def write_markers(enc_dir, *names):
    markers = {
        "report.json": OmissionReport(encounter_id="e1", omissions=()),
        "skip.json": SkipMarker("e1", "too short", cut_turn_index=3),
        "failure.json": FailureMarker("e1", "summarize", "boom", "ab", 2),
    }
    enc_dir.mkdir(exist_ok=True)
    for name in names:
        write_json(enc_dir / name, markers[name].to_json_dict())


def test_read_outcome_takes_report_then_skip_then_failure(tmp_path):
    enc_dir = tmp_path / "e1"
    write_markers(enc_dir, "report.json", "skip.json", "failure.json")
    result = read_outcome(enc_dir)
    assert (result.status, result.report.omission_count) == ("ok", 0)
    (enc_dir / "report.json").unlink()
    assert read_outcome(enc_dir) == EncounterResult("e1", "skipped", reason="too short")
    (enc_dir / "skip.json").unlink()
    assert read_outcome(enc_dir) == EncounterResult("e1", "failed", "boom", "summarize")
    (enc_dir / "failure.json").unlink()
    assert read_outcome(enc_dir) == EncounterResult(
        "e1", "failed", "no outcome marker in the encounter directory"
    )


def test_read_outcome_prefixes_a_decode_error_with_the_marker_path(tmp_path):
    enc_dir = tmp_path / "e1"
    enc_dir.mkdir()
    write_json(enc_dir / "skip.json", {"encounter_id": "e1", "reason": 5})
    with pytest.raises(ValueError, match="skip.json: SkipMarker: expected a string, got int$"):
        read_outcome(enc_dir)
