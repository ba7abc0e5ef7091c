"""The benchmark's own tests: generated encounters never share a model
request, and each workload's output check rejects a wrong output.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import simserver  # noqa: E402
import tracing  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def work():
    path = run.WORK_ROOT / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass


@pytest.fixture(scope="module")
def reports(work):
    return run.base_reports(work)


def _subdir(work, name):
    path = work / name
    path.mkdir()
    return path


def _fixture_replies():
    with open(run.ROOT / gen.FIXTURE_CASSETTE, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r["response"]["text"] for r in records if r["kind"] == "generate"]


def test_marked_replies_strip_back_to_the_fixture():
    replies = _fixture_replies()
    marked = [simserver.mark_reply(text, 42) for text in replies]
    assert all(gen.strip_markers(m) == t for m, t in zip(marked, replies))
    changed = [m for m, t in zip(marked, replies) if m != t]
    # One summary and one fact list per fixture encounter carry the marker.
    assert len(changed) == 6
    assert all(gen.find_marker(m) == 42 for m in changed)


def test_no_two_generated_encounters_share_a_request_fingerprint(work, reports):
    n = 12
    path = _subdir(work, "fingerprints")
    run.prepare_replay(path, SEED, reports, n=n)
    with open(path / "replay-cassette.jsonl", encoding="utf-8") as handle:
        fingerprints = [json.loads(line)["fingerprint"] for line in handle if line.strip()]
    assert len(fingerprints) == n * gen.CALLS_PER_ENCOUNTER
    assert len(set(fingerprints)) == len(fingerprints)


def test_replay_check_rejects_a_wrong_report(work, reports):
    path = _subdir(work, "replay")
    load = run.prepare_replay(path, SEED, reports, n=6)
    out = path / "out"
    result = run.worker_cli(load.argv(out), path / "result.json")
    assert load.check(out, result, []) == []

    encounters = sorted(p.name for p in (out / "encounters").iterdir())
    victim, donor = encounters[0], encounters[1]
    report_path = out / "encounters" / victim / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["cumulative_weight"] += 0.25
    report_path.write_text(json.dumps(report), encoding="utf-8")
    assert load.check(out, result, []) == [victim]

    (out / "encounters" / victim / "report.json").unlink()
    assert load.check(out, result, []) == [victim]

    # Another encounter's report under this id does not map back.
    shutil.copy(out / "encounters" / donor / "report.json", report_path)
    assert victim in load.check(out, result, [])

    assert set(load.check(out, dict(result, exit_code=2), [])) == set(encounters)


def test_live_check_rejects_wrong_model_traffic(work, reports):
    path = _subdir(work, "live")
    load = run.prepare_live(path, SEED, reports, n=6)
    try:
        out = path / "out"
        result = run.worker_cli(load.argv(out), path / "result.json")
        records = load.server.drain()
    finally:
        load.server.close()
    assert load.check(out, result, records) == []
    injected = sum(r["injected"] for r in records)
    assert injected == 3
    assert len(records) == 6 * gen.CALLS_PER_ENCOUNTER + injected

    dropped = records[1:]
    assert len(load.check(out, result, dropped)) == 1
    doubled = records + records[:1]
    assert len(load.check(out, result, doubled)) == 1
    refused = [dict(records[0], status=400)] + records[1:]
    assert len(load.check(out, result, refused)) == 1


def test_compare_check_rejects_wrong_rows(work, reports):
    path = _subdir(work, "compare")
    load = run.prepare_compare(path, SEED, reports, n=12)
    out = path / "out"
    load.fresh_dir(out)
    result = run.worker_cli(load.argv(out), path / "result.json")
    assert load.check(out, result, []) == []

    payload = json.loads(result["stdout"])
    payload["targets"][0]["rows"][2]["spearman_r"] += 1e-3
    wrong = dict(result, stdout=json.dumps(payload))
    assert len(load.check(out, wrong, [])) == 12

    payload = json.loads(result["stdout"])
    payload["targets"][1]["rows"][3]["metric_name"] = "rougeX"
    wrong = dict(result, stdout=json.dumps(payload))
    assert len(load.check(out, wrong, [])) == 12


def test_plain_rouge_matches_the_package():
    sys.path.insert(0, str(run.ROOT / "src"))
    from factgap.baselines import rouge_all

    fixture = gen.load_fixture_corpus(run.ROOT)
    notes = [e["reference_note"] for e in fixture["encounters"]]
    for candidate in notes:
        for reference in notes:
            ours = checks.rouge_f1(candidate, reference)
            theirs = rouge_all(candidate, reference)
            for name in checks.ROUGE_VARIANTS:
                assert ours[name] == pytest.approx(theirs[name].f1, abs=1e-12)


def test_metrics_of_a_missing_wrapped_name_are_dropped():
    assert not tracing.Tracer._patch("factgap.pipeline.parsers", "no_such_parser", lambda fn: fn)
    server = tracing.server_metrics([], 1)
    metrics, dropped = tracing.layer_metrics(
        [], {"parsers.parse_ddx"}, n_enc=1, n_commands=1, n_pairs=0, server=server, overhead_ratio=1.0
    )
    assert dropped == ["parsers.parse_ddx.ms_per_call"]
    assert "parsers.parse_ddx.ms_per_call" not in metrics
    assert set(metrics) | set(dropped) == set(tracing.PER_LAYER)
