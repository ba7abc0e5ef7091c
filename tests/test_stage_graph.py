"""The encounter stage graph: the bytes it writes, how its model calls
overlap, and how it contains failures."""

import hashlib
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.config import ModelsConfig, RunConfig, build_gateway, load_config
from factgap.datamodel import (
    DdxSource,
    Diagnosis,
    Dialogue,
    DifferentialDiagnosis,
    Likelihood,
    Speaker,
    Summary,
    Turn,
    replace,
)
from factgap.dataset import load_corpus
from factgap.gateway import Cassette, GatewayError, GatewayMode, LlmGateway
from factgap.jsonutil import read_json
from factgap.pipeline import parsers
from factgap.pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, run_corpus
from factgap.pipeline.stages import MARGIN_SCORES, STAGE_ORDER, STAGES, StageContext, StageInputs
from factgap.scoring import completion_continuation, completion_prompt, margin_plan

from corpus_fixtures import MALFORMED_SCENARIOS
from test_acceptance import _replay_run_config

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 over the encounters/ tree of the fixture corpus replay (see
# tree_digest). Any change to an artifact's bytes changes it.
FIXTURE_TREE_SHA256 = "3b64f30bb7f106a8dfff5a16a7342a857f3734dae328272df30497f95b089064"


def subtree_bytes(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for name, data in sorted(subtree_bytes(root).items()):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


@pytest.mark.parametrize("workers", [1, 3])
def test_fixture_replay_tree_digest_is_pinned(tmp_path, workers):
    config = load_config(FIXTURES / "replay_config.json")
    # A replay config needs no backend: the cassette answers every call.
    assert config.backend is None
    corpus = load_corpus(FIXTURES / "corpus.json")
    # Frequent thread switches shake out ordering that depends on timing.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, results = run_corpus(
            config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=workers
        )
    finally:
        sys.setswitchinterval(interval)
    assert [r.status for r in results] == ["ok"] * len(corpus.encounters)
    assert tree_digest(tmp_path / ENCOUNTERS_SUBDIR) == FIXTURE_TREE_SHA256


@pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
def test_malformed_cassettes_fail_identically_at_any_worker_count(tmp_path, name):
    corpus = load_corpus(FIXTURES / "corpus.json").subset(["enc-edward"])
    config = _replay_run_config(FIXTURES / "cassettes" / f"malformed_{name}.jsonl")
    trees = []
    for workers in (1, 2):
        out_dir = tmp_path / f"workers-{workers}"
        _, results = run_corpus(
            config, build_gateway(config), corpus, "corpus.json", out_dir, workers=workers
        )
        assert results[0].status == "failed"
        assert results[0].stage == MALFORMED_SCENARIOS[name][1]
        trees.append(subtree_bytes(out_dir / ENCOUNTERS_SUBDIR))
    assert trees[0] == trees[1]
    assert {"failure.json", "stages.json"} <= {Path(p).name for p in trees[0]}


def test_skips_and_cassette_misses_are_identical_at_any_worker_count(tmp_path):
    # The truncation cassette holds only truncation replies: the short
    # dialogue is skipped and every other encounter misses the cassette
    # in the three stages after truncation at once.
    corpus = load_corpus(FIXTURES / "truncation_corpus.json")
    config = _replay_run_config(FIXTURES / "cassettes" / "truncation.jsonl")
    outcomes, trees = [], []
    for workers in (1, 2):
        out_dir = tmp_path / f"workers-{workers}"
        _, results = run_corpus(
            config, build_gateway(config), corpus, "corpus.json", out_dir, workers=workers
        )
        outcomes.append([(r.encounter_id, r.status, r.stage) for r in results])
        trees.append(subtree_bytes(out_dir / ENCOUNTERS_SUBDIR))
    assert outcomes[0] == outcomes[1]
    assert {status for _, status, _ in outcomes[0]} == {"skipped", "failed"}
    assert {stage for _, status, stage in outcomes[0] if status == "failed"} == {"summarize"}
    assert trees[0] == trees[1]


def test_stage_table_is_in_dependency_order():
    seen = set()
    for stage in STAGES:
        assert set(stage.needs) <= seen, stage.name
        assert stage.name not in seen
        seen.add(stage.name)
    assert STAGE_ORDER == tuple(stage.name for stage in STAGES)


def transitive_needs(stage):
    """The rows ``stage`` needs, directly or through another row."""
    rows = {row.name: row for row in STAGES}
    needed, pending = set(), list(stage.needs)
    while pending:
        name = pending.pop()
        if name not in needed:
            needed.add(name)
            pending.extend(rows[name].needs)
    return needed


def test_every_stage_row_reads_only_the_rows_it_needs(tmp_path, monkeypatch):
    # A row that read a stage outside its transitive needs would pass at
    # one worker, where every earlier row has finished, and race at more.
    config = load_config(FIXTURES / "replay_config.json")
    corpus = load_corpus(FIXTURES / "corpus.json")
    full = {}
    accept = StageInputs.accept

    def recording_accept(inputs, name, result):
        accept(inputs, name, result)
        full.setdefault(inputs.dialogue.encounter_id, {})[name] = inputs[name]

    monkeypatch.setattr(StageInputs, "accept", recording_accept)
    _, results = run_corpus(
        config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=1
    )
    monkeypatch.undo()
    assert [r.status for r in results] == ["ok"] * len(corpus.encounters)

    ctx = StageContext(build_gateway(config), config)
    for encounter in corpus.encounters:
        values = full[encounter.encounter_id]
        assert set(values) == set(STAGE_ORDER)
        for row in STAGES:
            inputs = StageInputs(ctx, encounter.dialogue)
            inputs.values.update((name, values[name]) for name in transitive_needs(row))
            inputs.accept(row.name, row.run(inputs))
            assert inputs[row.name] == values[row.name], (encounter.encounter_id, row.name)


def differentials(source):
    """Differentials of up to four entries with drawn likelihoods, named
    after their source and rank, so each diagnosis is told apart."""
    return st.lists(st.sampled_from(Likelihood), min_size=1, max_size=4).map(
        lambda likelihoods: DifferentialDiagnosis(
            "enc",
            source,
            [
                Diagnosis(rank, f"{source.value} {rank}", likelihood)
                for rank, likelihood in enumerate(likelihoods, start=1)
            ],
        )
    )


class ScoreRecorder:
    """A gateway that records each score request and answers -1.0."""

    def __init__(self):
        self.requests = []

    def score_continuation(self, model_id, prefix, continuation, aggregation):
        self.requests.append((model_id, prefix, continuation))
        return -1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(differentials(DdxSource.FROM_CHAT), differentials(DdxSource.FROM_SUMMARY))
def test_margin_score_rows_request_the_plans_diagnoses_under_each_context(chat, summary):
    gateway = ScoreRecorder()
    config = RunConfig(
        models=ModelsConfig(summary="s", metric="m", margin="margin-model"), cassette="c.jsonl"
    )
    truncated = Dialogue("enc", [Turn(0, Speaker.PATIENT, "my head hurts")])
    inputs = StageInputs(StageContext(gateway, config), truncated)
    inputs.values.update(
        truncate=truncated,
        summarize=Summary("enc", {"chief_complaint": "headache"}),
        ddx_chat=chat,
        ddx_summary=summary,
    )
    rows = [stage for stage in STAGES if stage.name in MARGIN_SCORES]
    assert [row.name for row in rows] == list(MARGIN_SCORES)
    scores = [row.run(inputs) for row in rows]

    plan = margin_plan(chat, summary)
    if plan is None:
        assert scores == [None] * 4
        assert gateway.requests == []
        return
    chat_prompt = completion_prompt("[patient] my head hurts")
    summary_prompt = completion_prompt("CHIEF COMPLAINT:\nheadache")
    assert scores == [-1.0] * 4
    assert gateway.requests == [
        ("margin-model", chat_prompt, completion_continuation(plan.target)),
        ("margin-model", chat_prompt, completion_continuation(plan.chat_alternative)),
        ("margin-model", summary_prompt, completion_continuation(plan.target)),
        ("margin-model", summary_prompt, completion_continuation(plan.summary_alternative)),
    ]


def fixture_stage_fingerprints(tmp_path):
    """Maps every generate fingerprint of the fixture replay to its
    (encounter id, stage)."""
    config = load_config(FIXTURES / "replay_config.json")
    corpus = load_corpus(FIXTURES / "corpus.json")
    run_corpus(config, build_gateway(config), corpus, "corpus.json", tmp_path)
    stages = {}
    for encounter in corpus.encounters:
        log = read_json(tmp_path / ENCOUNTERS_SUBDIR / encounter.encounter_id / "stages.json")
        for entry in log["stages"]:
            stages[entry["fingerprint"]] = (encounter.encounter_id, entry["stage"])
    return stages


class FixtureBackend:
    """Serves the fixture cassette by fingerprint, in any call order, and
    logs each call as (encounter id, stage); score calls as (None, "score")."""

    def __init__(self, stages):
        self.cassette = Cassette(FIXTURES / "cassettes" / "corpus.jsonl")
        self.stages = stages
        self.calls = []

    def complete(self, request):
        self.calls.append(self.stages[request.fingerprint])
        return self.cassette.get(request.fingerprint)["text"]

    def score(self, request):
        self.calls.append((None, "score"))
        return tuple(self.cassette.get(request.fingerprint)["logprobs"])


def live_run(out_dir, backend, workers, corpus=None):
    config = replace(load_config(FIXTURES / "replay_config.json"), mode=GatewayMode.LIVE)
    corpus = corpus or load_corpus(FIXTURES / "corpus.json")
    gateway = LlmGateway(backend=backend)
    return run_corpus(config, gateway, corpus, "corpus.json", out_dir, workers=workers)


def test_one_worker_calls_the_model_in_stage_order(tmp_path):
    backend = FixtureBackend(fixture_stage_fingerprints(tmp_path / "replay"))
    _, results = live_run(tmp_path / "live", backend, workers=1)
    assert [r.status for r in results] == ["ok", "ok", "ok"]

    expected = []
    for result in results:
        for name in STAGE_ORDER:
            if name in MARGIN_SCORES:
                expected.append((None, "score"))
            else:
                expected.append((result.encounter_id, name))
    assert backend.calls == expected


class BarrierBackend(FixtureBackend):
    """Holds each call at its stage's barrier until all the barrier's
    parties are in flight."""

    def __init__(self, stages, barriers):
        super().__init__(stages)
        self.barriers = barriers

    def complete(self, request):
        barrier = self.barriers.get(self.stages[request.fingerprint][1])
        if barrier is not None:
            barrier.wait()
        return super().complete(request)

    def score(self, request):
        self.barriers["score"].wait()
        return super().score(request)


def test_independent_calls_of_an_encounter_are_in_flight_together(tmp_path):
    stages = fixture_stage_fingerprints(tmp_path / "replay")
    replayed = subtree_bytes(tmp_path / "replay" / ENCOUNTERS_SUBDIR / "enc-edward")
    corpus = load_corpus(FIXTURES / "corpus.json").subset(["enc-edward"])
    after_truncate = threading.Barrier(3, timeout=10)
    # The eight calls that need only facts and both differentials, held
    # together: the stage pool alone bounds the calls in flight.
    last_calls = threading.Barrier(4 + len(MARGIN_SCORES), timeout=10)
    layouts = {
        "after_truncate": {
            "summarize": after_truncate,
            "extract_facts": after_truncate,
            "ddx_chat": after_truncate,
            "score": threading.Barrier(len(MARGIN_SCORES), timeout=10),
        },
        "last_calls": {
            "categorize": last_calls,
            "detect_omissions": last_calls,
            "cluster_supporting": last_calls,
            "cluster_refuting": last_calls,
            "score": last_calls,
        },
    }
    for name, barriers in layouts.items():
        backend = BarrierBackend(stages, barriers)
        _, results = live_run(tmp_path / name, backend, workers=2, corpus=corpus)

        assert results[0].status == "ok", (name, results[0].reason)
        assert not any(barrier.broken for barrier in backend.barriers.values())
        assert len(backend.calls) == 9 + len(MARGIN_SCORES)
        assert subtree_bytes(tmp_path / name / ENCOUNTERS_SUBDIR / "enc-edward") == replayed


class LateEarlyFailureBackend(FixtureBackend):
    """ddx_chat fails at once; summarize, an earlier row, fails only after
    ddx_chat has."""

    def __init__(self, stages):
        super().__init__(stages)
        self.ddx_failed = threading.Event()

    def complete(self, request):
        stage = self.stages[request.fingerprint][1]
        if stage == "ddx_chat":
            self.ddx_failed.set()
            raise GatewayError("ddx backend broke")
        if stage == "summarize":
            self.ddx_failed.wait(10)
            raise GatewayError("summary backend broke")
        return super().complete(request)


def test_earliest_failing_stage_decides_the_failure(tmp_path):
    backend = LateEarlyFailureBackend(fixture_stage_fingerprints(tmp_path / "replay"))
    corpus = load_corpus(FIXTURES / "corpus.json").subset(["enc-edward"])
    out_dir = tmp_path / "live"
    _, results = live_run(out_dir, backend, workers=2, corpus=corpus)

    assert backend.ddx_failed.is_set()
    assert (results[0].status, results[0].stage) == ("failed", "summarize")
    enc_dir = out_dir / ENCOUNTERS_SUBDIR / "enc-edward"
    assert read_json(enc_dir / "failure.json")["message"] == "summary backend broke"
    assert [s["stage"] for s in read_json(enc_dir / "stages.json")["stages"]] == ["truncate"]
    assert not (enc_dir / "ddx_chat.json").exists()


BROKEN_CLUSTER_LINE = "-  :F0"


class RaisingClusterBackend(FixtureBackend):
    """Answers one encounter's supporting-cluster call with a subcluster
    line whose mechanism is blank."""

    def __init__(self, stages, encounter_id):
        super().__init__(stages)
        self.target = (encounter_id, "cluster_supporting")

    def complete(self, request):
        text = super().complete(request)
        if self.stages[request.fingerprint] != self.target:
            return text
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("- "))
        lines[first] = BROKEN_CLUSTER_LINE
        return "\n".join(lines)


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_stage_exception_fails_only_its_encounter(tmp_path, workers, monkeypatch):
    # The parser turns a blank mechanism into a ParseError, which earns a
    # repair round; a parser defect that lets a plain ValueError escape
    # must still fail only its own encounter.
    parse_clusters = parsers.parse_clusters

    def defective_parse_clusters(block, *args):
        if BROKEN_CLUSTER_LINE in block.splitlines():
            raise ValueError("subcluster mechanism_label must be non-empty")
        return parse_clusters(block, *args)

    monkeypatch.setattr(parsers, "parse_clusters", defective_parse_clusters)
    backend = RaisingClusterBackend(fixture_stage_fingerprints(tmp_path / "replay"), "enc-martha")
    out_dir = tmp_path / "live"
    manifest, results = live_run(out_dir, backend, workers=workers)

    outcomes = {r.encounter_id: (r.status, r.stage) for r in results}
    assert outcomes == {
        "enc-martha": ("failed", "cluster_supporting"),
        "enc-stephanie": ("ok", ""),
        "enc-edward": ("ok", ""),
    }
    failure = read_json(out_dir / ENCOUNTERS_SUBDIR / "enc-martha" / "failure.json")
    assert failure["stage"] == "cluster_supporting"
    assert failure["message"].startswith("ValueError: ")
    assert read_json(out_dir / MANIFEST_NAME)["counts"] == {"ok": 2, "skipped": 0, "failed": 1}
