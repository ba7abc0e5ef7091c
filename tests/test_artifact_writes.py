"""How a run writes its artifacts: one ordered batch per encounter with
the outcome marker last, mode 0600 files, a bounded writer queue, and
write errors that stop the run before its manifest."""

import errno
import sys
import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from factgap.cli import main
from factgap.config import build_gateway, load_config
from factgap.dataset import OUTCOME_MARKERS, Corpus, load_corpus
from factgap.pipeline import runner
from factgap.pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, run_corpus

from test_acceptance import _replay_run_config

FIXTURES = Path(__file__).parent / "fixtures"
REPLAY_CONFIG = FIXTURES / "replay_config.json"
CORPUS = FIXTURES / "corpus.json"

# (config, corpus, encounters run) for a run that ends each way.
RUNS = {
    "ok": (REPLAY_CONFIG, CORPUS, None),
    "failed": (
        FIXTURES / "cassettes" / "malformed_facts_gapped.jsonl",
        CORPUS,
        ["enc-edward"],
    ),
    "skipped": (
        FIXTURES / "cassettes" / "truncation.jsonl",
        FIXTURES / "truncation_corpus.json",
        ["trunc-6"],
    ),
}


def fixture_run(out_dir, outcome, workers):
    config_source, corpus_path, only = RUNS[outcome]
    if config_source.suffix == ".json":
        config = load_config(config_source)
    else:
        config = _replay_run_config(config_source)
    corpus = load_corpus(corpus_path)
    return run_corpus(
        config, build_gateway(config), corpus, "corpus.json", out_dir, workers=workers, only=only
    )


def record_writes(monkeypatch):
    """Records (directory, name, atomic) for every ``write_json`` of the runner."""
    writes = []
    write_json = runner.write_json

    def recording(path, obj, atomic=True):
        writes.append((path.parent.name, path.name, atomic))
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", recording)
    return writes


@pytest.mark.parametrize("outcome", sorted(RUNS))
def test_each_encounter_writes_its_marker_last_and_only_it_atomically(
    tmp_path, monkeypatch, outcome
):
    orders = {}
    for workers in (1, 3):
        writes = record_writes(monkeypatch)
        out_dir = tmp_path / f"w{workers}"
        _, results = fixture_run(out_dir, outcome, workers)
        assert {r.status for r in results} == {outcome}
        assert writes[-1] == (out_dir.name, MANIFEST_NAME, True)

        by_encounter = defaultdict(list)
        for directory, name, atomic in writes[:-1]:
            by_encounter[directory].append((name, atomic))
        assert sorted(by_encounter) == sorted(r.encounter_id for r in results)
        for encounter_writes in by_encounter.values():
            names = [name for name, _ in encounter_writes]
            assert names[-1] in OUTCOME_MARKERS
            assert names[-2] == "stages.json"
            atomic = [atomic for _, atomic in encounter_writes]
            assert atomic == [False] * (len(names) - 1) + [True]
        orders[workers] = dict(by_encounter)
    # The same order at any worker count.
    assert orders[1] == orders[3]


@pytest.mark.parametrize("workers", [1, 3])
def test_every_file_of_a_run_is_private(tmp_path, workers):
    fixture_run(tmp_path, "ok", workers)
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert {path.name for path in files} >= {"manifest.json", "reference.txt", "report.json"}
    modes = {path: path.stat().st_mode & 0o777 for path in files}
    assert modes == dict.fromkeys(files, 0o600)


def rekeyed_fixture_corpus(copies):
    corpus = load_corpus(CORPUS)
    return Corpus(
        name=corpus.name,
        encounters=tuple(
            replace(
                encounter,
                dialogue=replace(encounter.dialogue, encounter_id=f"{encounter.encounter_id}-{k}"),
            )
            for k in range(copies)
            for encounter in corpus.encounters
        ),
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_no_more_than_four_batches_wait_for_the_writers(tmp_path, monkeypatch, workers):
    corpus = rekeyed_fixture_corpus(3)
    release = threading.Event()
    returned, written = [], []
    pending = []

    write_json = runner.write_json

    def blocking_write_json(path, obj, atomic=True):
        assert release.wait(timeout=60)
        write_json(path, obj, atomic=atomic)

    write_batch = runner._write_batch

    def counting_write_batch(root, batch):
        write_batch(root, batch)
        written.append(root.name)

    run_encounter = runner.run_encounter

    def counting_run_encounter(*args, **kwargs):
        result = run_encounter(*args, **kwargs)
        returned.append(result.encounter_id)
        # Batches finish writing before they give up their place.
        pending.append(len(returned) - len(written))
        return result

    monkeypatch.setattr(runner, "write_json", blocking_write_json)
    monkeypatch.setattr(runner, "_write_batch", counting_write_batch)
    monkeypatch.setattr(runner, "run_encounter", counting_run_encounter)

    config = load_config(REPLAY_CONFIG)
    outcome = {}

    def run():
        outcome["results"] = run_corpus(
            config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=workers
        )[1]

    thread = threading.Thread(target=run)
    # Frequent thread switches shake out a lost update of the writer's count.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread.start()
    try:
        deadline = time.monotonic() + 30
        while len(returned) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)
        # Writes are blocked: four batches wait, and the run waits with them.
        assert len(returned) == 4
        assert written == []
    finally:
        release.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert [r.status for r in outcome["results"]] == ["ok"] * len(corpus)
    assert max(pending) == 4
    assert sorted(written) == sorted(e.encounter_id for e in corpus.encounters)


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_failed_artifact_write_stops_the_run_before_its_manifest(
    tmp_path, monkeypatch, capsys, workers
):
    write_json = runner.write_json
    failing = tmp_path / "out" / ENCOUNTERS_SUBDIR / "enc-stephanie" / "facts.json"

    def full_disk_write_json(path, obj, atomic=True):
        if path == failing:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", full_disk_write_json)
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(tmp_path / "out"),
            "--workers",
            workers,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert str(failing) in captured.err
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()
    # The encounter's directory stops before its failed write: no marker.
    enc_dir = failing.parent
    assert not any((enc_dir / name).exists() for name in OUTCOME_MARKERS)
    assert not failing.exists()
