import json
import re
import shutil
import threading
from pathlib import Path

import pytest

from factgap.cli import main
from factgap.config import ModelsConfig, RunConfig, ThresholdsConfig
from factgap.datamodel import Polarity, replace
from factgap.dataset import Corpus, Encounter, RunManifest, parse_tagged_dialogue
from factgap.gateway import GatewayMode, LlmGateway
from factgap.jsonutil import read_json, write_json
from factgap.pipeline import runner
from factgap.pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, run_corpus, run_encounter

from corpus_fixtures import (
    EDWARD_DDX_CHAT,
    EDWARD_DIALOGUE,
    EDWARD_SUMMARY_SECTIONS,
)
from response_builders import (
    MARGIN_MODEL,
    METRIC_MODEL,
    SUMMARY_MODEL,
    categorize_response,
    clusters_response,
    ddx_response,
    facts_response,
    omissions_response,
    polarity_clusterings,
    summary_response,
    truncate_response,
)
from scoring_fixtures import EDWARD_CLUSTERS, EDWARD_FACTS, EDWARD_OMISSIONS
from scripted_backend import ScriptedBackend
from test_stage_graph import subtree_bytes


REPLAY_CONFIG = Path(__file__).parent / "fixtures" / "replay_config.json"
EDWARD_DDX_NAMES = [name for name, _, _ in EDWARD_DDX_CHAT]


def edward_encounter():
    dialogue = parse_tagged_dialogue("enc-edward", EDWARD_DIALOGUE)
    return Encounter(dialogue=dialogue, reference_note="Assessment: likely amlodipine edema.")


def edward_generate_responses(with_margin=False):
    responses = [
        truncate_response(7),
        summary_response(EDWARD_SUMMARY_SECTIONS),
        facts_response(EDWARD_FACTS),
        ddx_response(EDWARD_DDX_CHAT),
        omissions_response(EDWARD_OMISSIONS),
        categorize_response(EDWARD_FACTS),
        clusters_response(
            EDWARD_DDX_NAMES, polarity_clusterings(EDWARD_CLUSTERS, Polarity.SUPPORTING)
        ),
        clusters_response(EDWARD_DDX_NAMES, []),
    ]
    if with_margin:
        responses.append(ddx_response(EDWARD_DDX_CHAT))
    return responses


def make_config(margin=False, mode=GatewayMode.LIVE, cassette=None):
    return RunConfig(
        models=ModelsConfig(
            summary=SUMMARY_MODEL,
            metric=METRIC_MODEL,
            margin=MARGIN_MODEL if margin else None,
        ),
        mode=mode,
        cassette=cassette,
        thresholds=ThresholdsConfig(),
    )


def live_gateway(generate_responses, score_responses=()):
    backend = ScriptedBackend(
        generate_responses=generate_responses, score_responses=score_responses
    )
    return LlmGateway(backend=backend)


def read_artifact(out_dir, encounter_id, name):
    with open(out_dir / ENCOUNTERS_SUBDIR / encounter_id / name, encoding="utf-8") as handle:
        return json.load(handle)


def test_run_encounter_ok(tmp_path):
    gateway = live_gateway(edward_generate_responses())
    result = run_encounter(make_config(), gateway, edward_encounter(), tmp_path)

    assert result.status == "ok"
    assert result.report.omission_count == 1
    assert result.report.cumulative_weight == pytest.approx(1.0)
    assert result.report.margin is None

    enc_dir = tmp_path / ENCOUNTERS_SUBDIR / "enc-edward"
    expected_files = {
        "dialogue.json",
        "reference.txt",
        "truncated.json",
        "summary.json",
        "ddx_chat.json",
        "omissions.json",
        "facts.json",
        "clusters_supporting.json",
        "clusters_refuting.json",
        "validation.json",
        "report.json",
        "stages.json",
    }
    assert {p.name for p in enc_dir.iterdir()} == expected_files

    truncated = read_artifact(tmp_path, "enc-edward", "truncated.json")
    assert len(truncated["turns"]) == 8
    assert truncated["source_tag"] == "truncated"

    report = read_artifact(tmp_path, "enc-edward", "report.json")
    assert report["omission_count"] == 1
    assert report["cumulative_weight"] == 1.0
    scored = report["omissions"][0]
    assert scored["score"]["fact_id"] == "F2"
    assert scored["score"]["importance_weight"] == 1.0
    assert scored["score"]["combined"] == 1.0

    validation = read_artifact(tmp_path, "enc-edward", "validation.json")
    assert validation["violations"] == []

    stages = read_artifact(tmp_path, "enc-edward", "stages.json")
    assert [s["stage"] for s in stages["stages"]] == [
        "truncate",
        "summarize",
        "extract_facts",
        "ddx_chat",
        "detect_omissions",
        "categorize",
        "cluster_supporting",
        "cluster_refuting",
    ]
    assert all(s["attempts"] == 1 for s in stages["stages"])


def test_run_encounter_alone_leaves_every_file_on_disk_when_it_returns(tmp_path, monkeypatch):
    written = []
    write_json = runner.write_json

    def recording(path, obj, atomic=True):
        written.append((path.name, threading.current_thread()))
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", recording)
    gateway = live_gateway(edward_generate_responses())
    result = run_encounter(make_config(), gateway, edward_encounter(), tmp_path)

    assert result.status == "ok"
    enc_dir = tmp_path / ENCOUNTERS_SUBDIR / "enc-edward"
    assert sorted(p.name for p in enc_dir.iterdir()) == sorted(
        [name for name, _ in written] + ["reference.txt"]
    )
    assert {thread for _, thread in written} == {threading.current_thread()}
    assert written[-1][0] == "report.json"


def test_run_encounter_repairs_cluster_line_without_mechanism(tmp_path):
    responses = edward_generate_responses()
    valid = responses[6]
    first_line = next(line for line in valid.splitlines() if line.startswith("- "))
    responses.insert(6, valid.replace(first_line, "-  :F0"))
    gateway = live_gateway(responses)
    result = run_encounter(make_config(), gateway, edward_encounter(), tmp_path)

    assert result.status == "ok"
    stages = read_artifact(tmp_path, "enc-edward", "stages.json")
    attempts = {s["stage"]: s["attempts"] for s in stages["stages"]}
    assert attempts["cluster_supporting"] == 2
    assert all(n == 1 for stage, n in attempts.items() if stage != "cluster_supporting")


class ScoreRecordingBackend(ScriptedBackend):
    def __init__(self, generate_responses, score_responses):
        super().__init__(generate_responses=generate_responses, score_responses=score_responses)
        self.score_requests = []

    def score(self, request):
        self.score_requests.append(request)
        return super().score(request)


def test_run_encounter_with_margin(tmp_path):
    backend = ScoreRecordingBackend(
        edward_generate_responses(with_margin=True),
        [[-1.0], [-3.0], [-2.0], [-3.0]],
    )
    gateway = LlmGateway(backend=backend)
    result = run_encounter(make_config(margin=True), gateway, edward_encounter(), tmp_path)

    assert result.status == "ok"
    margin = result.report.margin
    assert margin is not None
    assert (margin.l_c0, margin.l_c1, margin.l_s0, margin.l_s1) == (-1.0, -3.0, -2.0, -3.0)
    assert margin.ratio == pytest.approx(2.0)

    requests = backend.score_requests
    assert len(requests) == 4
    for request in requests:
        assert request.model_id == MARGIN_MODEL
        assert request.prefix.endswith("The patient most likely has")
    # Chat context first (both diagnoses), then the summary context.
    assert requests[0].prefix.startswith("[doctor]")
    assert requests[1].prefix == requests[0].prefix
    assert requests[2].prefix.startswith("CHIEF COMPLAINT")
    assert requests[3].prefix == requests[2].prefix
    assert requests[0].continuation == " Medication-induced edema."
    assert requests[1].continuation == " Venous insufficiency."
    assert requests[2].continuation == " Medication-induced edema."
    assert requests[3].continuation == " Venous insufficiency."

    ddx_summary = read_artifact(tmp_path, "enc-edward", "ddx_summary.json")
    assert ddx_summary["source"] == "from_summary"
    report = read_artifact(tmp_path, "enc-edward", "report.json")
    assert report["margin"]["ratio"] == 2.0


def test_run_encounter_skip(tmp_path):
    gateway = live_gateway([truncate_response(3)])
    result = run_encounter(make_config(), gateway, edward_encounter(), tmp_path)

    assert result.status == "skipped"
    assert "below the minimum of 6" in result.reason
    skip = read_artifact(tmp_path, "enc-edward", "skip.json")
    assert skip["cut_turn_index"] == 3
    assert skip["truncated_turns"] == 4
    enc_dir = tmp_path / ENCOUNTERS_SUBDIR / "enc-edward"
    assert not (enc_dir / "summary.json").exists()
    assert not (enc_dir / "report.json").exists()
    stages = read_artifact(tmp_path, "enc-edward", "stages.json")
    assert [s["stage"] for s in stages["stages"]] == ["truncate"]


def test_run_encounter_failure_writes_marker(tmp_path):
    bad_facts = "```\nF0: a | medical\nF2: b | medical\n```"
    gateway = live_gateway(
        [
            truncate_response(7),
            summary_response(EDWARD_SUMMARY_SECTIONS),
            bad_facts,
            bad_facts,
        ]
    )
    result = run_encounter(make_config(), gateway, edward_encounter(), tmp_path)

    assert result.status == "failed"
    assert result.stage == "extract_facts"
    assert "contiguous" in result.reason
    failure = read_artifact(tmp_path, "enc-edward", "failure.json")
    assert failure["stage"] == "extract_facts"
    assert failure["attempts"] == 2
    assert failure["fingerprint"]
    stages = read_artifact(tmp_path, "enc-edward", "stages.json")
    assert [s["stage"] for s in stages["stages"]] == ["truncate", "summarize"]
    assert not (tmp_path / ENCOUNTERS_SUBDIR / "enc-edward" / "report.json").exists()


class CountingBackend(ScriptedBackend):
    def __init__(self, generate_responses):
        super().__init__(generate_responses=generate_responses)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return super().complete(request)


def test_one_worker_stops_at_a_row_whose_artifact_cannot_be_encoded(tmp_path, monkeypatch):
    def unencodable(encounter_id, value):
        raise TypeError("cannot encode this row")

    stages = tuple(
        replace(stage, payload=unencodable) if stage.name == "ddx_chat" else stage
        for stage in runner.encounter_stages(make_config())
    )
    monkeypatch.setattr(runner, "encounter_stages", lambda config: stages)
    backend = CountingBackend(edward_generate_responses())
    result = run_encounter(make_config(), LlmGateway(backend=backend), edward_encounter(), tmp_path)

    assert (result.status, result.stage) == ("failed", "ddx_chat")
    failure = read_artifact(tmp_path, "enc-edward", "failure.json")
    assert failure["stage"] == "ddx_chat"
    assert "cannot encode this row" in failure["message"]
    enc_dir = tmp_path / ENCOUNTERS_SUBDIR / "enc-edward"
    assert {p.name for p in enc_dir.iterdir()} == {
        "dialogue.json",
        "reference.txt",
        "truncated.json",
        "summary.json",
        "stages.json",
        "failure.json",
    }
    stages_log = read_artifact(tmp_path, "enc-edward", "stages.json")
    assert [s["stage"] for s in stages_log["stages"]] == [
        "truncate",
        "summarize",
        "extract_facts",
        "ddx_chat",
    ]
    # truncate, summarize, extract_facts and ddx_chat; no later row starts.
    assert backend.calls == 4


def short_encounter():
    dialogue = parse_tagged_dialogue(
        "enc-short", "[doctor] hi\n[patient] hello\n[doctor] bye\n[patient] bye"
    )
    return Encounter(dialogue=dialogue)


def test_run_corpus_manifest_and_force(tmp_path):
    corpus = Corpus(name="mini", encounters=(edward_encounter(), short_encounter()))
    out_dir = tmp_path / "out"

    def fresh_gateway():
        return live_gateway(edward_generate_responses() + [truncate_response(1)])

    manifest, results = run_corpus(
        make_config(), fresh_gateway(), corpus, "corpus.json", out_dir
    )
    assert manifest.counts == {"ok": 1, "skipped": 1, "failed": 0}
    assert [r.status for r in results] == ["ok", "skipped"]
    assert (out_dir / MANIFEST_NAME).exists()
    saved = json.loads((out_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert saved["counts"] == {"ok": 1, "skipped": 1, "failed": 0}
    assert saved["models"]["margin"] is None

    with pytest.raises(FileExistsError, match="force"):
        run_corpus(make_config(), fresh_gateway(), corpus, "corpus.json", out_dir)
    manifest, _ = run_corpus(
        make_config(), fresh_gateway(), corpus, "corpus.json", out_dir, force=True
    )
    assert manifest.counts == {"ok": 1, "skipped": 1, "failed": 0}

    manifest, results = run_corpus(
        make_config(),
        live_gateway(edward_generate_responses()),
        corpus,
        "corpus.json",
        tmp_path / "out-only",
        only=["enc-edward"],
    )
    assert [r.encounter_id for r in results] == ["enc-edward"]


def test_run_corpus_only_force_keeps_other_encounters(tmp_path):
    corpus = Corpus(name="mini", encounters=(edward_encounter(), short_encounter()))
    out_dir = tmp_path / "out"
    encounters_dir = out_dir / ENCOUNTERS_SUBDIR
    run_corpus(
        make_config(),
        live_gateway(edward_generate_responses() + [truncate_response(1)]),
        corpus,
        "corpus.json",
        out_dir,
    )
    other = subtree_bytes(encounters_dir / "enc-short")
    assert other
    (encounters_dir / "enc-edward" / "stale.json").write_text("{}", encoding="utf-8")

    with pytest.raises(FileExistsError, match="force"):
        run_corpus(
            make_config(),
            live_gateway(edward_generate_responses()),
            corpus,
            "corpus.json",
            out_dir,
            only=["enc-edward"],
        )
    assert (encounters_dir / "enc-edward" / "stale.json").exists()

    manifest, results = run_corpus(
        make_config(),
        live_gateway(edward_generate_responses()),
        corpus,
        "corpus.json",
        out_dir,
        only=["enc-edward"],
        force=True,
    )
    assert [(r.encounter_id, r.status) for r in results] == [("enc-edward", "ok")]
    # The manifest lists the kept encounter too, with the outcome on disk.
    assert [(e.encounter_id, e.status) for e in manifest.encounters] == [
        ("enc-edward", "ok"),
        ("enc-short", "skipped"),
    ]
    assert "below the minimum" in manifest.encounters[1].reason
    assert RunManifest.from_json_dict(read_json(out_dir / MANIFEST_NAME)) == manifest
    assert subtree_bytes(encounters_dir / "enc-short") == other
    assert not (encounters_dir / "enc-edward" / "stale.json").exists()
    assert (encounters_dir / "enc-edward" / "report.json").exists()


@pytest.mark.parametrize("only", [None, ["enc-edward"]], ids=["all", "only"])
def test_a_forced_run_leaves_exactly_the_encounters_its_manifest_lists(tmp_path, capsys, only):
    corpus = Corpus(name="mini", encounters=(edward_encounter(), short_encounter()))
    out_dir = tmp_path / "out"
    encounters_dir = out_dir / ENCOUNTERS_SUBDIR
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "data.json").write_text("{}", encoding="utf-8")
    run_corpus(
        make_config(),
        live_gateway(edward_generate_responses() + [truncate_response(1)]),
        corpus,
        "corpus.json",
        out_dir,
    )
    # Strays that name no corpus encounter: a copied encounter, a file and a symlink.
    shutil.copytree(encounters_dir / "enc-edward", encounters_dir / "enc-old")
    (encounters_dir / "notes.txt").write_text("stray", encoding="utf-8")
    (encounters_dir / "enc-link").symlink_to(outside, target_is_directory=True)

    responses = edward_generate_responses() + ([] if only else [truncate_response(1)])
    manifest, _ = run_corpus(
        make_config(), live_gateway(responses), corpus, "corpus.json", out_dir, only=only, force=True
    )
    assert sorted(entry.name for entry in encounters_dir.iterdir()) == ["enc-edward", "enc-short"]
    assert (outside / "data.json").read_text(encoding="utf-8") == "{}"
    assert main(["report", "--run", str(out_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["encounter_id"] for e in payload["encounters"]] == ["enc-edward", "enc-short"]
    assert {status: payload["aggregate"][status] for status in manifest.counts} == manifest.counts


def test_a_kept_marker_that_cannot_be_read_stops_a_forced_run_before_it_deletes(tmp_path):
    corpus = Corpus(name="mini", encounters=(edward_encounter(), short_encounter()))
    out_dir = tmp_path / "out"
    encounters_dir = out_dir / ENCOUNTERS_SUBDIR
    run_corpus(
        make_config(),
        live_gateway(edward_generate_responses() + [truncate_response(1)]),
        corpus,
        "corpus.json",
        out_dir,
    )
    corrupt = encounters_dir / "enc-edward" / "report.json"
    corrupt.write_text("{", encoding="utf-8")
    (encounters_dir / "notes.txt").write_text("stray", encoding="utf-8")
    before = subtree_bytes(out_dir)

    with pytest.raises(ValueError, match=re.escape(str(corrupt))):
        run_corpus(
            make_config(),
            live_gateway([truncate_response(1)]),
            corpus,
            "corpus.json",
            out_dir,
            only=["enc-short"],
            force=True,
        )
    assert subtree_bytes(out_dir) == before


@pytest.mark.parametrize(
    "bad_id", ["..", ".", "../../sibling", pytest.param("x" * 256, id="256_bytes")]
)
def test_run_corpus_only_force_rejects_unsafe_ids_before_deleting(tmp_path, capsys, bad_id):
    # No Encounter takes such an id, so only a corpus file can hold one.
    data = Corpus(name="mini", encounters=(edward_encounter(), short_encounter())).to_json_dict()
    short = data["encounters"][1]
    short["encounter_id"] = short["dialogue"]["encounter_id"] = bad_id
    corpus = tmp_path / "corpus.json"
    write_json(corpus, data)
    out_dir = tmp_path / "out"
    kept = out_dir / ENCOUNTERS_SUBDIR / "enc-edward" / "report.json"
    kept.parent.mkdir(parents=True)
    kept.write_text("{}", encoding="utf-8")
    sibling = tmp_path / "sibling" / "data.json"
    sibling.parent.mkdir()
    sibling.write_text("{}", encoding="utf-8")

    argv = ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(corpus), "--out", str(out_dir)]
    code = main([*argv, "--only", bad_id, "--force"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {corpus}: ")
    assert "not filesystem-safe" in captured.err
    assert kept.read_text(encoding="utf-8") == "{}"
    assert sibling.read_text(encoding="utf-8") == "{}"


def test_record_then_replay_is_deterministic(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    corpus = Corpus(name="mini", encounters=(edward_encounter(),))

    record_config = make_config(
        margin=True, mode=GatewayMode.RECORD, cassette=str(cassette)
    )
    record_gateway = LlmGateway(
        backend=ScriptedBackend(
            generate_responses=edward_generate_responses(with_margin=True),
            score_responses=[[-1.0], [-3.0], [-2.0], [-3.0]],
        ),
        cassette_path=cassette,
    )
    manifest, results = run_corpus(
        record_config, record_gateway, corpus, "corpus.json", tmp_path / "recorded"
    )
    assert results[0].status == "ok"

    replay_config = make_config(
        margin=True, mode=GatewayMode.REPLAY, cassette=str(cassette)
    )
    replays = []
    for name in ("replay-a", "replay-b"):
        gateway = LlmGateway(cassette_path=cassette)
        manifest, results = run_corpus(
            replay_config, gateway, corpus, "corpus.json", tmp_path / name, workers=2
        )
        assert results[0].status == "ok"
        assert results[0].report.margin.ratio == pytest.approx(2.0)
        replays.append(subtree_bytes(tmp_path / name / ENCOUNTERS_SUBDIR))

    assert replays[0] == replays[1]
    assert replays[0] == subtree_bytes(tmp_path / "recorded" / ENCOUNTERS_SUBDIR)
