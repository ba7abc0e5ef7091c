"""Regenerate the committed test fixtures.

Builds the fixture corpora, records every cassette by driving the real
pipeline against scripted replies, then replays each cassette and checks
the outcome before declaring the fixtures good. Last it replays the
fixture corpus through the command line and keeps the output of
``report``, ``report --json``, ``compare --json``, ``compare --external``
and ``compare --use-stemmer`` as golden outputs.
Run from the repository root:

    python3 scripts/build_fixtures.py
"""

import argparse
import contextlib
import csv
import io
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from factgap.cli import main as factgap_main
from factgap.config import ModelsConfig, RunConfig
from factgap.datamodel import Dialogue
from factgap.dataset import save_corpus
from factgap.gateway import GatewayMode, LlmGateway
from factgap.jsonutil import write_json
from factgap.pipeline.runner import run_corpus, run_encounter
from factgap.pipeline.stages import StageContext, stage_truncate

import corpus_fixtures as content
from response_builders import MARGIN_MODEL, METRIC_MODEL, SUMMARY_MODEL, truncate_response
from scripted_backend import ScriptedBackend


def make_config(cassette: Path, mode: GatewayMode, margin: bool = True) -> RunConfig:
    return RunConfig(
        models=ModelsConfig(
            summary=SUMMARY_MODEL,
            metric=METRIC_MODEL,
            margin=MARGIN_MODEL if margin else None,
        ),
        cassette=str(cassette),
        mode=mode,
    )


def record_gateway(cassette: Path, generate, score=()) -> LlmGateway:
    cassette.unlink(missing_ok=True)
    backend = ScriptedBackend(generate_responses=generate, score_responses=score)
    return LlmGateway(backend=backend, cassette_path=cassette)


def replay_gateway(cassette: Path) -> LlmGateway:
    return LlmGateway(cassette_path=cassette)


def record_corpus_cassette(fixtures: Path, corpus) -> None:
    cassette = fixtures / "cassettes" / "corpus.jsonl"
    gateway = record_gateway(
        cassette, content.full_generate_queue(), content.full_score_queue()
    )
    config = make_config(cassette, GatewayMode.RECORD)
    with tempfile.TemporaryDirectory() as tmp:
        _, results = run_corpus(config, gateway, corpus, "corpus.json", Path(tmp) / "out")
    for result in results:
        if result.status != "ok":
            raise SystemExit(
                f"recording {result.encounter_id} ended {result.status}: {result.reason}"
            )

    replay_config = make_config(cassette, GatewayMode.REPLAY)
    with tempfile.TemporaryDirectory() as tmp:
        _, results = run_corpus(
            replay_config, replay_gateway(cassette), corpus, "corpus.json", Path(tmp) / "out"
        )
    for result in results:
        expected_count, expected_weight, expected_ratio = content.EXPECTED_REPORTS[
            result.encounter_id
        ]
        report = result.report
        if report is None:
            raise SystemExit(f"replay of {result.encounter_id} produced no report")
        if report.omission_count != expected_count:
            raise SystemExit(
                f"{result.encounter_id}: count {report.omission_count} != {expected_count}"
            )
        if report.cumulative_weight != expected_weight:
            raise SystemExit(
                f"{result.encounter_id}: weight {report.cumulative_weight} != {expected_weight}"
            )
        if report.margin is None or report.margin.ratio != expected_ratio:
            raise SystemExit(f"{result.encounter_id}: margin ratio mismatch")
    print(f"recorded {cassette} ({len(results)} encounters verified)")


def record_truncation_cassette(fixtures: Path, corpus) -> None:
    cassette = fixtures / "cassettes" / "truncation.jsonl"
    queue = [
        truncate_response(content.TRUNCATION_RECORDED_CUTS[encounter_id])
        for encounter_id in content.TRUNCATION_ORDER
    ]
    gateway = record_gateway(cassette, queue)
    config = make_config(cassette, GatewayMode.RECORD, margin=False)
    ctx = StageContext(gateway=gateway, config=config)
    for encounter in corpus.encounters:
        stage_truncate(ctx, encounter.dialogue)

    replay_config = make_config(cassette, GatewayMode.REPLAY, margin=False)
    ctx = StageContext(gateway=replay_gateway(cassette), config=replay_config)
    for encounter in corpus.encounters:
        cut = stage_truncate(ctx, encounter.dialogue).value
        expected = content.TRUNCATION_RECORDED_CUTS[encounter.encounter_id]
        if cut != expected:
            raise SystemExit(f"{encounter.encounter_id}: replayed cut {cut} != {expected}")
    print(f"recorded {cassette} ({len(corpus.encounters)} cuts verified)")


def record_malformed_cassettes(fixtures: Path, corpus) -> None:
    edward = corpus.get("enc-edward")
    for name, (queue, stage, fragment) in content.MALFORMED_SCENARIOS.items():
        cassette = fixtures / "cassettes" / f"malformed_{name}.jsonl"
        gateway = record_gateway(cassette, queue)
        config = make_config(cassette, GatewayMode.RECORD, margin=False)
        replay_config = make_config(cassette, GatewayMode.REPLAY, margin=False)
        with tempfile.TemporaryDirectory() as tmp:
            result = run_encounter(config, gateway, edward, Path(tmp) / "record")
            if result.status != "failed" or result.stage != stage or fragment not in result.reason:
                raise SystemExit(f"{name}: unexpected recording outcome {result}")

            result = run_encounter(
                replay_config, replay_gateway(cassette), edward, Path(tmp) / "replay"
            )
            if result.status != "failed" or result.stage != stage or fragment not in result.reason:
                raise SystemExit(f"{name}: unexpected replay outcome {result}")
        print(f"recorded {cassette} (fails at {stage})")


def write_replay_config(fixtures: Path) -> None:
    path = fixtures / "replay_config.json"
    write_json(
        path,
        {
            "models": {
                "summary": SUMMARY_MODEL,
                "metric": METRIC_MODEL,
                "margin": MARGIN_MODEL,
            },
            "cassette": "cassettes/corpus.jsonl",
            "mode": "replay",
        },
    )
    print(f"wrote {path}")


def write_external_metric(fixtures: Path) -> None:
    path = fixtures / "external_metric.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["encounter_id", "bertscore"])
        for encounter_id in sorted(content.EXTERNAL_METRIC_ROWS):
            writer.writerow([encounter_id, content.EXTERNAL_METRIC_ROWS[encounter_id]])
    print(f"wrote {path}")


def factgap_stdout(*argv: str) -> str:
    """What ``factgap argv`` prints to stdout; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = factgap_main(list(argv))
    if code != 0:
        raise SystemExit(f"factgap {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_golden_outputs(fixtures: Path) -> None:
    """The fixture replay's ``report``, ``report --json``, ``compare --json``,
    ``compare --external`` and ``compare --use-stemmer`` output."""
    golden = fixtures / "golden"
    golden.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        run = str(Path(tmp) / "out")
        factgap_stdout(
            "run",
            "--config",
            str(fixtures / "replay_config.json"),
            "--corpus",
            str(fixtures / "corpus.json"),
            "--out",
            run,
        )
        outputs = {
            "report.txt": factgap_stdout("report", "--run", run),
            "report.json": factgap_stdout("report", "--run", run, "--json"),
            "compare.json": factgap_stdout("compare", "--run", run, "--json"),
            "compare_external.txt": factgap_stdout(
                "compare", "--run", run, "--external", str(fixtures / "external_metric.csv")
            ),
            "compare_stemmed.txt": factgap_stdout("compare", "--run", run, "--use-stemmer"),
        }
    for name, text in outputs.items():
        (golden / name).write_text(text, encoding="utf-8")
        print(f"wrote {golden / name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures-dir",
        type=Path,
        default=REPO_ROOT / "tests" / "fixtures",
        help="where to write the fixtures (default tests/fixtures)",
    )
    args = parser.parse_args()

    fixtures = args.fixtures_dir
    (fixtures / "cassettes").mkdir(parents=True, exist_ok=True)

    corpus = content.build_fixture_corpus()
    save_corpus(corpus, fixtures / "corpus.json", force=True)
    print(f"wrote {fixtures / 'corpus.json'}")

    truncation_corpus = content.build_truncation_corpus()
    save_corpus(truncation_corpus, fixtures / "truncation_corpus.json", force=True)
    write_json(fixtures / "truncation_annotations.json", content.TRUNCATION_ANNOTATIONS)
    print(f"wrote {fixtures / 'truncation_corpus.json'}")
    print(f"wrote {fixtures / 'truncation_annotations.json'}")

    record_corpus_cassette(fixtures, corpus)
    record_truncation_cassette(fixtures, truncation_corpus)
    record_malformed_cassettes(fixtures, corpus)
    write_replay_config(fixtures)
    write_external_metric(fixtures)
    write_golden_outputs(fixtures)
    print("fixtures rebuilt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
