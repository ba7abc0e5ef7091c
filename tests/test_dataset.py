import pytest

from factgap.datamodel import Speaker
from factgap.dataset import (
    Corpus,
    Encounter,
    RunManifest,
    load_corpus,
    parse_tagged_dialogue,
    save_corpus,
)


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
    with pytest.raises(KeyError):
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


def test_load_csv_corpus_errors(tmp_path):
    bad_cols = tmp_path / "bad.csv"
    bad_cols.write_text("id,text\na,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="must have columns"):
        load_corpus(bad_cols)
    blank_id = tmp_path / "blank.csv"
    blank_id.write_text('encounter_id,dialogue\n,"[doctor] hi"\n', encoding="utf-8")
    with pytest.raises(ValueError, match="blank encounter_id"):
        load_corpus(blank_id)
    with pytest.raises(ValueError, match="unsupported corpus extension"):
        load_corpus(tmp_path / "corpus.txt")


def test_run_manifest_roundtrip(tmp_path):
    manifest = RunManifest(
        corpus_path="corpus.json",
        out_dir="out",
        mode="replay",
        models={"summary": "s", "metric": "m", "margin": None},
    )
    manifest.record("e1", "ok")
    manifest.record("e2", "skipped", reason="too short")
    manifest.record("e3", "failed", reason="boom", stage="summarize")
    with pytest.raises(ValueError, match="unknown status"):
        manifest.record("e4", "exploded")
    manifest.finish()
    assert manifest.counts() == {"ok": 1, "skipped": 1, "failed": 1}
    path = tmp_path / "manifest.json"
    manifest.write(path)
    loaded = RunManifest.read(path)
    assert loaded.encounters == manifest.encounters
    assert loaded.finished_at == manifest.finished_at
