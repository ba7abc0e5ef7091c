import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from factgap.cli import main
from factgap.datamodel import (
    Dialogue,
    DifferentialDiagnosis,
    EvidenceClustering,
    Fact,
    Omission,
    OmissionReport,
    Summary,
)
from factgap.dataset import Corpus
from factgap.gateway import Cassette, ChatMessage, GenerationRequest
from factgap.jsonutil import pretty_dumps, read_json, write_json

from loopback_server import Reply

FIXTURES = Path(__file__).parent / "fixtures"
REPLAY_CONFIG = FIXTURES / "replay_config.json"
CORPUS = FIXTURES / "corpus.json"
TRUNCATION_CORPUS = FIXTURES / "truncation_corpus.json"
EXTERNAL_CSV = FIXTURES / "external_metric.csv"
GOLDEN = FIXTURES / "golden"


def write_config(tmp_path: Path, cassette: Path) -> Path:
    path = tmp_path / "config.json"
    write_json(
        path,
        {
            "models": {
                "summary": "summarizer-v1",
                "metric": "metric-v1",
                "margin": "margin-v1",
            },
            "cassette": str(cassette),
            "mode": "replay",
        },
    )
    return path


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run") / "out"
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_run_replay_corpus(finished_run, capsys):
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(finished_run),
            "--force",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "enc-martha: ok, 5 omitted, weight 1.7" in captured.out
    assert "enc-stephanie: ok, 5 omitted, weight 1.8" in captured.out
    assert "enc-edward: ok, 1 omitted, weight 1" in captured.out
    assert "done: 3 ok, 0 skipped, 0 failed" in captured.out
    assert (finished_run / "manifest.json").exists()


def test_an_unexpected_error_exits_2_with_its_traceback(tmp_path, monkeypatch, capsys):
    def broken(path):
        raise TypeError("a fault in the package")

    monkeypatch.setattr("factgap.cli.load_config", broken)
    argv = ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(CORPUS)]
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("TypeError: a fault in the package\n")


def test_a_keyboard_interrupt_still_propagates_out_of_main(tmp_path, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr("factgap.cli.load_config", interrupted)
    argv = ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(CORPUS)]
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--out", str(tmp_path / "out")])


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process with the package on its path.

    A child process: the test process's logging and warning setup would
    catch what a command prints through the last-resort handler.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("workers", ["1", "3"])
def test_run_replay_writes_nothing_to_stderr(tmp_path, workers):
    # Dev mode prints a leaked file's ResourceWarning, a writer prints its
    # traceback, and Python 3.12 and later warn after a fork in a process
    # with threads: the writers must fork before the run starts any.
    # -W error cannot catch that warning, which comes after the fork and is
    # swallowed, so it is looked for on stderr.
    result = run_cli(
        *("-X", "dev", "-W", "always::DeprecationWarning", "-m", "factgap.cli"),
        *("run", "--config", str(REPLAY_CONFIG), "--corpus", str(CORPUS)),
        *("--out", str(tmp_path / "out"), "--workers", workers),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_importing_the_cli_loads_no_module_only_some_commands_need():
    # pickle: the artifact writers' pipes, only for run; multiprocessing:
    # no command; yaml: only .yaml configs; http.client: only a backend;
    # statistics: only report; datetime: none, the manifest's times come
    # from time; dataclasses and the inspect, ast and dis it loads: none,
    # records build their own field table.
    result = run_cli(
        "-c",
        "import sys, factgap.cli; print(sorted({'multiprocessing', 'pickle', 'yaml', "
        "'http.client', 'statistics', 'datetime', 'dataclasses', 'inspect', 'ast', 'dis'} "
        "& set(sys.modules)))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_run_loads_no_process_pool(tmp_path, workers):
    # The writers are forked by hand and fed over plain pipes.
    result = run_cli(
        "-c",
        "import sys\n"
        "from factgap.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted("
        "{'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
        *("run", "--config", str(REPLAY_CONFIG), "--corpus", str(CORPUS)),
        *("--out", str(tmp_path / "out"), "--workers", workers),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def live_config(
    tmp_path: Path, loopback, cassette: Path, sent: list, edit=lambda fingerprint, text: text
) -> Path:
    """A config that records to ``cassette``, whose backend is ``loopback``,
    which answers every chat completion from the fixture cassette, passed
    through ``edit``, and lists its fingerprint in ``sent``. No margin
    model, so every call is a chat completion."""
    recorded = Cassette(FIXTURES / "cassettes" / "corpus.jsonl")

    def answer(received):
        request = GenerationRequest(
            model_id=received.body["model"],
            messages=tuple(ChatMessage(**message) for message in received.body["messages"]),
            max_tokens=received.body["max_tokens"],
        )
        sent.append(request.fingerprint)
        text = edit(request.fingerprint, recorded.get(request.fingerprint)["text"])
        return Reply(payload={"choices": [{"message": {"content": text}}]})

    loopback.answer = answer
    config = tmp_path / "config.json"
    write_json(
        config,
        {
            "models": {"summary": "summarizer-v1", "metric": "metric-v1"},
            "backend": {"kind": "http", "base_url": loopback.url},
            "cassette": str(cassette),
            "mode": "record",
        },
    )
    return config


def test_live_run_sends_the_backend_every_request_the_cassette_holds(
    tmp_path, loopback, capsys
):
    cassette = tmp_path / "corpus.jsonl"
    shutil.copyfile(FIXTURES / "cassettes" / "corpus.jsonl", cassette)
    sent = []
    config = live_config(tmp_path, loopback, cassette, sent)
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(out)]
    assert main([*argv, "--mode", "live"]) == 0
    assert "done: 3 ok, 0 skipped, 0 failed" in capsys.readouterr().out
    called = [
        entry["fingerprint"]
        for enc_dir in sorted((out / "encounters").iterdir())
        for entry in read_json(enc_dir / "stages.json")["stages"]
    ]
    assert len(called) == 24
    assert sorted(sent) == sorted(called)
    # Live mode neither reads nor appends to the cassette.
    assert cassette.read_bytes() == (FIXTURES / "cassettes" / "corpus.jsonl").read_bytes()


def test_live_run_closes_its_backend_connections(tmp_path, loopback):
    # Dev mode reports a socket left open when it is collected.
    config = live_config(tmp_path, loopback, FIXTURES / "cassettes" / "corpus.jsonl", [])
    result = run_cli(
        "-X",
        "dev",
        "-m",
        "factgap.cli",
        "run",
        "--config",
        str(config),
        "--corpus",
        str(CORPUS),
        "--out",
        str(tmp_path / "out"),
        "--mode",
        "live",
    )
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr, result.stderr


# Half an emoji: JSON's "\ud83d" escape loads as it, and UTF-8 cannot encode it.
LONE_SURROGATE = "\ud83d"


def martha_summary_fingerprint(finished_run: Path) -> str:
    stages = read_json(finished_run / "encounters" / "enc-martha" / "stages.json")["stages"]
    return next(entry["fingerprint"] for entry in stages if entry["stage"] == "summarize")


def assert_only_martha_failed_at_summarize(out: Path, code: int, captured) -> None:
    assert code == 2, captured.err
    assert "done: 2 ok, 0 skipped, 1 failed" in captured.out
    assert "error:" not in captured.err
    failure = read_json(out / "encounters" / "enc-martha" / "failure.json")
    assert failure["stage"] == "summarize"
    assert "is not valid UTF-8" in failure["message"]
    for encounter_id in ("enc-stephanie", "enc-edward"):
        assert (out / "encounters" / encounter_id / "report.json").is_file()
    assert read_json(out / "manifest.json")["counts"] == {"failed": 1, "ok": 2, "skipped": 0}


def test_a_cassette_reply_utf8_cannot_encode_fails_only_its_encounter(
    finished_run, tmp_path, capsys
):
    bad = martha_summary_fingerprint(finished_run)
    lines = []
    for line in (FIXTURES / "cassettes" / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["fingerprint"] == bad:
            record["response"]["text"] += LONE_SURROGATE
        lines.append(json.dumps(record) + "\n")
    cassette = tmp_path / "surrogate.jsonl"
    cassette.write_text("".join(lines), encoding="ascii")
    assert "\\ud83d" in cassette.read_text(encoding="ascii")
    out = tmp_path / "out"
    argv = ["run", "--config", str(write_config(tmp_path, cassette)), "--corpus", str(CORPUS)]
    code = main([*argv, "--out", str(out)])
    assert_only_martha_failed_at_summarize(out, code, capsys.readouterr())


def test_a_cassette_score_that_is_not_finite_fails_only_its_encounter(tmp_path, capsys, caplog):
    lines = (FIXTURES / "cassettes" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    bad = next(record for record in records if record["kind"] == "score")
    assert "Martha" in bad["request"]["prefix"]
    bad["response"]["logprobs"][0] = float("nan")
    cassette = tmp_path / "nan.jsonl"
    cassette.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--config", str(write_config(tmp_path, cassette)), "--corpus", str(CORPUS)]
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert "done: 2 ok, 0 skipped, 1 failed" in captured.out
    failure = read_json(out / "encounters" / "enc-martha" / "failure.json")
    assert failure["stage"] == "margin_scores"
    assert failure["message"] == (
        f"reply to {bad['fingerprint'][:12]} is not a non-empty list of finite logprobs: [nan]"
    )
    assert "unexpected error" not in caplog.text


@pytest.mark.parametrize("mode", ["live", "record"])
def test_a_backend_reply_utf8_cannot_encode_fails_only_its_encounter(
    finished_run, tmp_path, loopback, capsys, mode
):
    bad = martha_summary_fingerprint(finished_run)
    sent = []
    cassette = tmp_path / "recorded.jsonl"
    config = live_config(
        tmp_path,
        loopback,
        cassette,
        sent,
        lambda fingerprint, text: text + LONE_SURROGATE if fingerprint == bad else text,
    )
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(out)]
    code = main([*argv, "--mode", mode])
    assert bad in sent
    assert_only_martha_failed_at_summarize(out, code, capsys.readouterr())
    if mode == "live":
        assert not cassette.exists()
    else:
        # Every other reply is recorded, and the cassette still loads.
        recorded = Cassette(cassette)
        assert recorded.get(bad) is None
        assert len(recorded) == len(set(sent)) - 1


def test_run_refuses_to_overwrite(finished_run, capsys):
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(finished_run),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "force" in captured.err


def test_report_text(finished_run, capsys):
    code = main(["report", "--run", str(finished_run)])
    captured = capsys.readouterr()
    assert code == 0
    assert "enc-edward: 1 omitted, weight 1, margin undefined" in captured.out
    assert "enc-martha: 5 omitted, weight 1.7, margin 2" in captured.out
    assert "enc-stephanie: 5 omitted, weight 1.8, margin 1" in captured.out
    # Weight-1 facts render with a bare integer score.
    assert "  F2 (Score: 1): the new ankle swelling is not in the summary" in captured.out
    assert "  F8 (Score: 1): the low hemoglobin result is not in the summary" in captured.out
    assert "  F4 (Score: 0.1): daughter moving back home is not in the summary" in captured.out
    assert "encounters: 3 ok, 0 skipped, 0 failed" in captured.out
    assert "margin ratio:" in captured.out
    assert "(2 of 3 defined)" in captured.out


def test_report_json(finished_run, capsys):
    code = main(["report", "--run", str(finished_run), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    by_id = {e["encounter_id"]: e for e in payload["encounters"]}
    assert by_id["enc-martha"]["omission_count"] == 5
    assert by_id["enc-martha"]["cumulative_weight"] == 1.7
    assert by_id["enc-martha"]["margin_ratio"] == 2.0
    assert by_id["enc-edward"]["margin_ratio"] is None
    aggregate = payload["aggregate"]
    assert aggregate["ok"] == 3
    assert aggregate["omission_count"]["mean"] == pytest.approx(11 / 3)
    assert aggregate["omission_weight"]["mean"] == pytest.approx(1.5)
    # The same bits on every Python version, not only to within rounding.
    assert aggregate["omission_weight"]["stdev"] == 0.43588989435406733
    assert aggregate["margin_ratio"]["defined"] == 2
    assert aggregate["margin_ratio"]["mean"] == pytest.approx(1.5)


def test_compare_text(finished_run, capsys):
    code = main(
        ["compare", "--run", str(finished_run), "--external", str(EXTERNAL_CSV)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "correlations against omission_count" in captured.out
    assert "correlations against omission_weight" in captured.out
    assert "correlations against margin_ratio: skipped" in captured.out
    for metric in ("rouge1", "rouge2", "rougeL", "rougeLsum", "bertscore"):
        assert metric in captured.out


def test_compare_json(finished_run, capsys):
    code = main(
        ["compare", "--run", str(finished_run), "--external", str(EXTERNAL_CSV), "--json"]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    targets = {t["target"]: t for t in payload["targets"]}
    assert set(targets) == {"omission_count", "omission_weight", "margin_ratio"}
    assert targets["margin_ratio"]["rows"] is None
    assert "need at least 3" in targets["margin_ratio"]["skipped_reason"]
    count_rows = {row["metric_name"]: row for row in targets["omission_count"]["rows"]}
    assert set(count_rows) == {"rouge1", "rouge2", "rougeL", "rougeLsum", "bertscore"}
    assert all(row["n"] == 3 for row in count_rows.values())
    for row in count_rows.values():
        assert -1.0 <= row["spearman_r"] <= 1.0
        assert 0.0 <= row["spearman_p"] <= 1.0


@pytest.mark.parametrize(
    ("argv", "golden"),
    [
        (["report"], "report.txt"),
        (["compare", "--external", str(EXTERNAL_CSV)], "compare_external.txt"),
        (["compare", "--use-stemmer"], "compare_stemmed.txt"),
        (["report", "--json"], "report.json"),
        (["compare", "--json"], "compare.json"),
    ],
)
def test_fixture_replay_output_matches_its_golden_byte_for_byte(
    finished_run, capsys, argv, golden
):
    code = main([*argv, "--run", str(finished_run)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_compare_external_must_cover_run(finished_run, tmp_path, capsys):
    partial = tmp_path / "partial.csv"
    partial.write_text("encounter_id,bertscore\nenc-martha,0.9\n", encoding="utf-8")
    code = main(["compare", "--run", str(finished_run), "--external", str(partial)])
    captured = capsys.readouterr()
    assert code == 2
    assert "no value for encounters" in captured.err
    assert "enc-edward" in captured.err and "enc-stephanie" in captured.err


def test_compare_external_extras_warned(finished_run, tmp_path, capsys):
    extended = tmp_path / "extended.csv"
    rows = EXTERNAL_CSV.read_text(encoding="utf-8").rstrip("\n")
    extended.write_text(rows + "\nenc-extra,0.5\n", encoding="utf-8")
    code = main(["compare", "--run", str(finished_run), "--external", str(extended)])
    captured = capsys.readouterr()
    assert code == 0
    assert "ignoring encounters not in the run" in captured.err
    assert "enc-extra" in captured.err


def test_run_skip_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, FIXTURES / "cassettes" / "truncation.jsonl")
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(config),
            "--corpus",
            str(TRUNCATION_CORPUS),
            "--out",
            str(out),
            "--only",
            "trunc-6",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "trunc-6: skipped" in captured.out
    assert "below the minimum of 6" in captured.out

    code = main(["report", "--run", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "trunc-6: skipped" in captured.out
    assert "encounters: 0 ok, 1 skipped, 0 failed" in captured.out


def test_run_failure_exit_code(tmp_path, capsys):
    config = write_config(
        tmp_path, FIXTURES / "cassettes" / "malformed_facts_gapped.jsonl"
    )
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(config),
            "--corpus",
            str(CORPUS),
            "--out",
            str(out),
            "--only",
            "enc-edward",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "enc-edward: failed at extract_facts" in captured.out
    assert "contiguous" in captured.out


def test_report_on_missing_run(tmp_path, capsys):
    code = main(["report", "--run", str(tmp_path / "nope")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def _reencoded(cls, data):
    return cls.from_json_dict(data).to_json_dict()


def _reencoded_list(key, cls):
    return lambda data: {**data, key: [_reencoded(cls, item) for item in data[key]]}


# Artifact name -> re-encoding of its JSON through the record codec.
ARTIFACT_CODECS = {
    "dialogue.json": lambda data: _reencoded(Dialogue, data),
    "truncated.json": lambda data: _reencoded(Dialogue, data),
    "summary.json": lambda data: _reencoded(Summary, data),
    "ddx_chat.json": lambda data: _reencoded(DifferentialDiagnosis, data),
    "ddx_summary.json": lambda data: _reencoded(DifferentialDiagnosis, data),
    "report.json": lambda data: _reencoded(OmissionReport, data),
    "facts.json": _reencoded_list("facts", Fact),
    "omissions.json": _reencoded_list("omissions", Omission),
    "clusters_supporting.json": _reencoded_list("clusters", EvidenceClustering),
    "clusters_refuting.json": _reencoded_list("clusters", EvidenceClustering),
}


def test_every_artifact_round_trips_through_the_codec(finished_run):
    checked = 0
    for path in sorted((finished_run / "encounters").glob("*/*.json")):
        if path.name in ("stages.json", "validation.json"):
            continue
        reencode = ARTIFACT_CODECS[path.name]
        assert pretty_dumps(reencode(read_json(path))) == path.read_text(encoding="utf-8"), path
        checked += 1
    assert checked == 3 * len(ARTIFACT_CODECS)
    for corpus in (CORPUS, TRUNCATION_CORPUS):
        reencoded = _reencoded(Corpus, read_json(corpus))
        assert pretty_dumps(reencoded) == corpus.read_text(encoding="utf-8")


def test_report_on_a_report_missing_a_key_is_an_error_not_a_traceback(
    finished_run, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    report_path = run / "encounters" / "enc-edward" / "report.json"
    report = read_json(report_path)
    del report["omission_count"]
    write_json(report_path, report)
    code = main(["report", "--run", str(run)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {report_path}: OmissionReport: missing required key 'omission_count'\n"
    )


def test_compare_on_a_summary_of_the_wrong_shape_names_the_file(
    finished_run, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    summary_path = run / "encounters" / "enc-edward" / "summary.json"
    summary = read_json(summary_path)
    summary["sections"] = 5
    write_json(summary_path, summary)
    code = main(["compare", "--run", str(run)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {summary_path}: Summary: ")


def test_compare_on_a_summary_with_a_numeric_section_names_the_file(
    finished_run, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    summary_path = run / "encounters" / "enc-edward" / "summary.json"
    summary = read_json(summary_path)
    # The last section: the summary's own check stops at its first non-empty one.
    summary["sections"]["past_social_history"] = 5
    write_json(summary_path, summary)
    code = main(["compare", "--run", str(run)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {summary_path}: Summary: expected a string, got int\n"


def _config_not_utf8(tmp_path, run):
    config = tmp_path / "config.json"
    config.write_bytes(REPLAY_CONFIG.read_bytes().replace(b"replay", b"replay\xff"))
    out = tmp_path / "out"
    return config, ["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(out)]


def _csv_corpus_not_utf8(tmp_path, run):
    # More than the 8 KiB the reader's file decodes at a time precede the byte.
    rows = b"".join(b"enc-%d,[doctor] hello\n" % i for i in range(600))
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(b"encounter_id,dialogue\n" + rows + b"enc-cafe,[doctor] caf\xff\n")
    out = tmp_path / "out"
    argv = ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(corpus), "--out", str(out)]
    return f"{corpus}:602", argv


def _external_csv_not_utf8(tmp_path, run):
    external = tmp_path / "external.csv"
    external.write_bytes(EXTERNAL_CSV.read_bytes() + b"enc-extra,0.5\xff\n")
    return f"{external}:5", ["compare", "--run", str(run), "--external", str(external)]


def _reference_not_utf8(tmp_path, run):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    reference = copy / "encounters" / "enc-edward" / "reference.txt"
    reference.write_bytes(reference.read_bytes() + b"\xff")
    return reference, ["compare", "--run", str(copy)]


def _summary_json_not_utf8(tmp_path, run):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    summary = copy / "encounters" / "enc-edward" / "summary.json"
    summary.write_bytes(summary.read_bytes().replace(b'"sections"', b'"sections\xff"', 1))
    return summary, ["compare", "--run", str(copy)]


# id -> a function of (tmp_path, finished run) giving the file with the byte
# 0xff, as the error names it, and the command that reads it.
NOT_UTF8 = {
    "json_config": _config_not_utf8,
    "csv_corpus": _csv_corpus_not_utf8,
    "external_csv": _external_csv_not_utf8,
    "reference_note": _reference_not_utf8,
    "json_artifact": _summary_json_not_utf8,
}


@pytest.mark.parametrize("case", NOT_UTF8)
def test_an_input_file_that_is_not_utf8_names_itself(case, finished_run, tmp_path, capsys):
    where, argv = NOT_UTF8[case](tmp_path, finished_run)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {where}: 'utf-8' codec can't decode byte 0xff ")
    assert captured.err.count("\n") == 1


def _replace_report(name, marker):
    def damage(enc_dir):
        (enc_dir / "report.json").unlink()
        write_json(enc_dir / name, marker)

    return damage


def _edit_report(**changes):
    def damage(enc_dir):
        path = enc_dir / "report.json"
        write_json(path, {**read_json(path), **changes})

    return damage


def _nan_margin_score(enc_dir):
    # Python's json writes and reads NaN. The ratio stays null, which a NaN
    # gap once passed for an undefined margin.
    path = enc_dir / "report.json"
    report = read_json(path)
    assert report["margin"]["ratio"] is None
    report["margin"]["l_s0"] = float("nan")
    write_json(path, report)


def _split_explanation(enc_dir):
    # An explanation that one reply line cannot carry is refused, not
    # printed split.
    path = enc_dir / "report.json"
    report = read_json(path)
    report["omissions"][0]["omission"]["explanation"] = "the new ankle\nswelling"
    write_json(path, report)


# id -> (damage to one encounter directory, the file it damages, text the
# error must contain)
RUN_DAMAGES = {
    "report_omissions_not_a_list": (_edit_report(omissions=5), "report.json", "OmissionReport: "),
    "report_margin_score_nan": (
        _nan_margin_score,
        "report.json",
        "OmissionReport: CompletionMargin: l_s0 is not finite: nan\n",
    ),
    "report_unknown_key": (_edit_report(surprise=1), "report.json", "unknown keys ['surprise']"),
    "report_explanation_split": (
        _split_explanation,
        "report.json",
        "explanation 'the new ankle\\nswelling' cannot be carried on one reply line\n",
    ),
    "skip_without_reason": (
        _replace_report("skip.json", {"encounter_id": "enc-edward"}),
        "skip.json",
        "SkipMarker: missing required key 'reason'\n",
    ),
    "failure_without_stage": (
        _replace_report("failure.json", {"encounter_id": "enc-edward", "message": "boom"}),
        "failure.json",
        "FailureMarker: missing required key 'stage'\n",
    ),
}


@pytest.mark.parametrize("case", RUN_DAMAGES)
def test_report_on_a_damaged_run_file_is_an_error_not_a_traceback(
    case, finished_run, tmp_path, capsys
):
    damage, name, expected = RUN_DAMAGES[case]
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    enc_dir = run / "encounters" / "enc-edward"
    damage(enc_dir)
    code = main(["report", "--run", str(run)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {enc_dir / name}: ")
    assert captured.err.count("\n") == 1
    assert expected in captured.err


def test_run_refuses_a_corpus_with_a_misspelled_key(tmp_path, capsys):
    data = read_json(CORPUS)
    encounter = data["encounters"][0]
    encounter["refrence_note"] = encounter.pop("reference_note")
    corpus = tmp_path / "corpus.json"
    write_json(corpus, data)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(corpus), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {corpus}: ")
    assert "refrence_note" in captured.err
    assert not out.exists()


def test_run_refuses_a_corpus_with_a_number_in_a_string_field(tmp_path, capsys):
    data = read_json(CORPUS)
    data["encounters"][0]["reference_note"] = 5
    corpus = tmp_path / "corpus.json"
    write_json(corpus, data)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(corpus), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {corpus}: Corpus: Encounter: expected a string, got int\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "field, where",
    [
        ("text", lambda encounter: encounter["dialogue"]["turns"][0]),
        ("reference_note", lambda encounter: encounter),
    ],
    ids=["turn", "reference_note"],
)
def test_run_refuses_corpus_text_that_utf8_cannot_encode(tmp_path, capsys, field, where):
    data = read_json(CORPUS)
    where(data["encounters"][0])[field] += LONE_SURROGATE
    corpus = tmp_path / "corpus.json"
    # json escapes the lone surrogate as \ud83d, which json.loads reads back.
    corpus.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(corpus), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {corpus}: Corpus: Encounter: ")
    assert f" {field} is not valid UTF-8: " in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_run_on_an_unparsable_yaml_config_is_an_error_naming_the_file(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("models: [unclosed\n", encoding="utf-8")
    code = main(
        ["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {config}: ")
    assert "Traceback" not in captured.err


def test_run_on_an_unparsable_json_config_is_an_error_naming_the_file(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"models": ', encoding="utf-8")
    code = main(
        ["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {config}: ")
    assert "Traceback" not in captured.err


# JSON spells them Infinity and NaN, YAML .inf and .nan; a YAML flow
# mapping is JSON with those spellings.
@pytest.mark.parametrize(
    "name, number",
    [
        ("config.json", "Infinity"),
        ("config.json", "NaN"),
        ("config.yaml", ".inf"),
        ("config.yaml", ".nan"),
    ],
)
@pytest.mark.parametrize(
    "section",
    [
        {"backend": {"kind": "http", "base_url": "http://127.0.0.1:9", "timeout": "NUMBER"}},
        {"thresholds": {"margin_epsilon": "NUMBER"}},
    ],
    ids=["timeout", "margin_epsilon"],
)
def test_run_refuses_a_config_number_that_is_not_finite(tmp_path, capsys, name, number, section):
    data = {**read_json(REPLAY_CONFIG), "cassette": str(FIXTURES / "cassettes" / "corpus.jsonl")}
    config = tmp_path / name
    config.write_text(json.dumps({**data, **section}).replace('"NUMBER"', number), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--corpus", str(CORPUS), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {config}: ")
    assert "must be positive and finite" in captured.err
    assert captured.err.count("\n") == 1
    assert not (out / "encounters").exists()


def test_run_in_live_mode_without_a_backend_is_refused(tmp_path, capsys):
    # Live mode reads no cassette, so the replay config's cassette is no backend.
    out = tmp_path / "out"
    argv = ["run", "--config", str(REPLAY_CONFIG), "--corpus", str(CORPUS), "--out", str(out)]
    code = main([*argv, "--mode", "live"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: mode live requires a backend\n"
    assert not out.exists()


def test_run_refuses_a_cassette_whose_fingerprint_is_a_list(tmp_path, capsys):
    lines = (FIXTURES / "cassettes" / "corpus.jsonl").read_text(encoding="utf-8")
    first, *rest = lines.splitlines(keepends=True)
    record = json.loads(first)
    record["fingerprint"] = [record["fingerprint"]]
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text("".join([json.dumps(record) + "\n", *rest]), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--config", str(write_config(tmp_path, cassette)), "--corpus", str(CORPUS)]
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {cassette}:1: cassette fingerprint is list, not a string\n"
    assert not out.exists()


def test_only_run_writes_a_manifest_of_the_whole_corpus(finished_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    full = read_json(run / "manifest.json")
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(run),
            "--only",
            "enc-edward",
            "--force",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    # The run's own lines count only the encounter it ran.
    assert "done: 1 ok, 0 skipped, 0 failed" in captured.out
    manifest = read_json(run / "manifest.json")
    assert manifest["encounters"] == full["encounters"]
    assert main(["report", "--run", str(run), "--json"]) == 0
    aggregate = json.loads(capsys.readouterr().out)["aggregate"]
    assert manifest["counts"] == {key: aggregate[key] for key in ("ok", "skipped", "failed")}
    assert manifest["counts"] == {"ok": 3, "skipped": 0, "failed": 0}


def test_only_with_an_unknown_id_is_an_error_that_deletes_nothing(finished_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(run),
            "--only",
            "enc-nobody",
            "--force",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: corpus fixture-clinic has no encounters ['enc-nobody']\n"
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
