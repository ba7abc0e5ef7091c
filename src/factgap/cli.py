"""Command line front door: run a corpus, report scores, compare
against baseline metrics.

Exit codes: 0 when everything succeeded, 1 when nothing failed but at
least one encounter was skipped, 2 on any failure or fatal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .baselines import (
    MetricVector,
    correlation_table,
    import_external_metric,
    render_correlation_table,
    rouge_vectors,
)
from .config import GatewayMode, build_gateway, load_config
from .datamodel import Summary
from .dataset import EncounterResult, count_statuses, load_corpus, read_outcome, read_record
from .gateway import GatewayError
# Unused here, but perfbench/tracing.py wraps factgap.cli.read_json by name.
from .jsonutil import pretty_dumps, read_json  # noqa: F401
from .pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, run_corpus

EXIT_OK = 0
EXIT_SKIPS = 1
EXIT_FAILURES = 2


def _fmt(value: float) -> str:
    return f"{value:g}"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _warn(text: str) -> None:
    sys.stderr.write(f"warning: {text}\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.mode:
        config = config.with_mode(GatewayMode(args.mode))
    corpus = load_corpus(args.corpus)
    gateway = build_gateway(config)
    try:
        _, results = run_corpus(
            config,
            gateway,
            corpus,
            str(args.corpus),
            Path(args.out),
            workers=args.workers,
            only=args.only,
            force=args.force,
        )
    finally:
        if gateway.backend is not None:
            # Its keep-alive connections would stay open until collected.
            gateway.backend.close()
    for result in results:
        if result.status == "ok":
            report = result.report
            line = (
                f"{result.encounter_id}: ok, {report.omission_count} omitted, "
                f"weight {_fmt(report.cumulative_weight)}"
            )
        elif result.status == "skipped":
            line = f"{result.encounter_id}: skipped ({result.reason})"
        else:
            line = f"{result.encounter_id}: failed at {result.stage} ({result.reason})"
        _emit(line)
    # Only the encounters this invocation ran count here; the manifest
    # lists the whole corpus.
    counts = count_statuses(results)
    _emit(
        f"done: {counts['ok']} ok, {counts['skipped']} skipped, {counts['failed']} failed; "
        f"manifest at {Path(args.out) / MANIFEST_NAME}"
    )
    if counts["failed"]:
        return EXIT_FAILURES
    if counts["skipped"]:
        return EXIT_SKIPS
    return EXIT_OK


def _load_run(run_dir: Path) -> list[tuple[Path, EncounterResult]]:
    """Each encounter directory of a run, with its outcome."""
    encounters_dir = run_dir / ENCOUNTERS_SUBDIR
    if not encounters_dir.is_dir():
        raise ValueError(f"{run_dir} has no {ENCOUNTERS_SUBDIR}/ directory; not a run?")
    entries = [
        (enc_dir, read_outcome(enc_dir))
        for enc_dir in sorted(p for p in encounters_dir.iterdir() if p.is_dir())
    ]
    if not entries:
        raise ValueError(f"{encounters_dir} is empty; nothing to report on")
    return entries


def _mean_stdev(values: Sequence[float]) -> dict[str, float]:
    # Imported here: only report needs it, and it costs every command's import.
    import statistics

    return {
        "mean": statistics.fmean(values),
        # statistics.stdev is correctly rounded from Python 3.11 on; the
        # square root of the variance gives the same bits on every version.
        "stdev": math.sqrt(statistics.variance(values)) if len(values) > 1 else 0.0,
    }


def cmd_report(args: argparse.Namespace) -> int:
    results = [result for _, result in _load_run(Path(args.run))]
    ok = [result for result in results if result.status == "ok"]
    counts = count_statuses(results)
    stats = {}
    for vector in _target_vectors(ok) if ok else ():
        stats[vector.name] = _mean_stdev(list(vector.values.values()))
        if vector.name == "margin_ratio":
            stats[vector.name].update(defined=len(vector.values), ok_total=len(ok))
    aggregate = {**counts, "omission_count": None, "omission_weight": None, "margin_ratio": None}
    aggregate.update(stats)

    if args.json:
        payload = {
            "encounters": [
                {
                    "encounter_id": result.encounter_id,
                    "status": result.status,
                    **(
                        {
                            "omission_count": result.report.omission_count,
                            "cumulative_weight": result.report.cumulative_weight,
                            "margin_ratio": (
                                result.report.margin.ratio if result.report.margin else None
                            ),
                        }
                        if result.status == "ok"
                        else {"reason": result.reason}
                    ),
                }
                for result in results
            ],
            "aggregate": aggregate,
        }
        sys.stdout.write(pretty_dumps(payload))
        return EXIT_OK

    for result in results:
        if result.status == "ok":
            report = result.report
            line = (
                f"{result.encounter_id}: {report.omission_count} omitted, "
                f"weight {_fmt(report.cumulative_weight)}"
            )
            if report.margin is not None:
                ratio = report.margin.ratio
                line += f", margin {_fmt(ratio)}" if ratio is not None else ", margin undefined"
            _emit(line)
            for omission, score in report.omissions:
                _emit(f"  {omission.fact_id} (Score: {_fmt(score.combined)}): {omission.explanation}")
        elif result.status == "skipped":
            _emit(f"{result.encounter_id}: skipped ({result.reason})")
        else:
            _emit(f"{result.encounter_id}: failed ({result.reason})")

    _emit("")
    _emit(f"encounters: {counts['ok']} ok, {counts['skipped']} skipped, {counts['failed']} failed")
    for name, stat in stats.items():
        label = name.replace("_", " ") + ":"
        line = f"{label:<16} mean {_fmt(stat['mean'])}, stdev {_fmt(stat['stdev'])}"
        if name == "margin_ratio":
            line += f" ({stat['defined']} of {len(ok)} defined)"
        _emit(line)
    return EXIT_OK


def _baseline_pairs(ok: Sequence[tuple[Path, EncounterResult]]) -> dict[str, tuple[str, str]]:
    """(generated summary, reference note) pairs for encounters that
    have both; encounters without a reference are excluded loudly."""
    pairs = {}
    for enc_dir, result in ok:
        reference_path = enc_dir / "reference.txt"
        if not reference_path.exists():
            _warn(
                f"{result.encounter_id} has no reference note; "
                "excluded from baseline correlation"
            )
            continue
        summary = read_record(enc_dir / "summary.json", Summary)
        try:
            # Bytes, with no text stream; line ends need no translating,
            # since ROUGE splits sentences at every line boundary.
            reference = reference_path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{reference_path}: {exc}") from exc
        pairs[result.encounter_id] = (summary.text(), reference)
    return pairs


def _target_vectors(ok: Sequence[EncounterResult]) -> list[MetricVector]:
    counts = {r.encounter_id: float(r.report.omission_count) for r in ok}
    weights = {r.encounter_id: r.report.cumulative_weight for r in ok}
    margins = {
        r.encounter_id: r.report.margin.ratio
        for r in ok
        if r.report.margin is not None and r.report.margin.ratio is not None
    }
    vectors = [
        MetricVector(name="omission_count", values=counts),
        MetricVector(name="omission_weight", values=weights),
    ]
    if margins:
        vectors.append(MetricVector(name="margin_ratio", values=margins))
    return vectors


def cmd_compare(args: argparse.Namespace) -> int:
    ok = [(d, r) for d, r in _load_run(Path(args.run)) if r.status == "ok"]
    if not ok:
        raise ValueError("the run has no successful encounters to correlate")

    pairs = _baseline_pairs(ok)
    baselines = rouge_vectors(pairs, use_stemmer=args.use_stemmer) if pairs else []

    run_ids = {result.encounter_id for _, result in ok}
    for csv_path in args.external or []:
        vector = import_external_metric(csv_path)
        missing = sorted(run_ids - set(vector.values))
        if missing:
            raise ValueError(
                f"{csv_path}: no value for encounters {missing}; "
                "the external metric must cover every scored encounter"
            )
        extras = sorted(set(vector.values) - run_ids)
        if extras:
            _warn(f"{csv_path}: ignoring encounters not in the run: {extras}")
        baselines.append(vector)

    if not baselines:
        raise ValueError(
            "nothing to correlate against: no reference notes in the run and "
            "no --external metrics given"
        )

    # One (target, rows, skipped reason) per target; rows is None when skipped.
    tables = []
    for target in _target_vectors([result for _, result in ok]):
        if len(target.values) < 3:
            reason = f"only {len(target.values)} encounters have a value; need at least 3"
            tables.append((target.name, None, reason))
        else:
            tables.append((target.name, correlation_table(target, baselines), None))

    if args.json:
        payload = {
            "targets": [
                {
                    "target": name,
                    "skipped_reason": reason,
                    "rows": None if rows is None else [row.to_json_dict() for row in rows],
                }
                for name, rows, reason in tables
            ]
        }
        sys.stdout.write(pretty_dumps(payload))
        return EXIT_OK

    _emit(
        "\n\n".join(
            f"correlations against {name}: skipped ({reason})"
            if rows is None
            else render_correlation_table(name, rows)
            for name, rows, reason in tables
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factgap",
        description=(
            "Detect clinically weighted factual omissions in generated "
            "visit summaries and compare the scores against ngram baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline over a corpus")
    run.add_argument("--config", required=True, help="JSON or YAML run configuration")
    run.add_argument("--corpus", required=True, help="corpus file (.json or .csv)")
    run.add_argument("--out", required=True, help="output directory for artifacts")
    run.add_argument(
        "--mode",
        choices=[m.value for m in GatewayMode],
        help="override the configured gateway mode",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel encounters, each with its independent model calls in flight; "
        "1 makes one call at a time (default 1)",
    )
    run.add_argument("--only", nargs="+", help="restrict to these encounter ids")
    run.add_argument(
        "--force", action="store_true", help="overwrite artifacts from a previous run"
    )
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="summarize scores from a finished run")
    report.add_argument("--run", required=True, help="output directory of a finished run")
    report.add_argument("--json", action="store_true", help="emit JSON instead of text")
    report.set_defaults(func=cmd_report)

    compare = sub.add_parser(
        "compare", help="correlate omission scores with baseline metrics"
    )
    compare.add_argument("--run", required=True, help="output directory of a finished run")
    compare.add_argument(
        "--external",
        action="append",
        help="CSV with encounter_id plus one metric column; repeatable",
    )
    compare.add_argument(
        "--use-stemmer", action="store_true", help="stem tokens before ngram overlap"
    )
    compare.add_argument("--json", action="store_true", help="emit JSON instead of text")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, GatewayError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILURES
    except Exception:
        # A fault in factgap: exit 2 with the traceback, not Python's 1 ("skips only").
        traceback.print_exc()
        return EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
