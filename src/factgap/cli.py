"""Command line front door: run a corpus, report scores, compare
against baseline metrics.

Exit codes: 0 when everything succeeded, 1 when nothing failed but at
least one encounter was skipped, 2 on any failure or fatal error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .baselines import (
    MetricVector,
    correlation_table,
    import_external_metric,
    render_correlation_table,
    rouge_vectors,
)
from .config import build_gateway, load_config
from .datamodel import OmissionReport, Summary
from .dataset import load_corpus
from .gateway import GatewayError, GatewayMode
from .jsonutil import pretty_dumps, read_json
from .pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, in_flight_cap, run_corpus

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
    gateway = build_gateway(config, max_in_flight=in_flight_cap(max(args.workers, 1)))
    manifest, results = run_corpus(
        config,
        gateway,
        corpus,
        str(args.corpus),
        Path(args.out),
        workers=args.workers,
        only=args.only,
        force=args.force,
    )
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
    counts = manifest.counts()
    _emit(
        f"done: {counts['ok']} ok, {counts['skipped']} skipped, {counts['failed']} failed; "
        f"manifest at {Path(args.out) / MANIFEST_NAME}"
    )
    if counts["failed"]:
        return EXIT_FAILURES
    if counts["skipped"]:
        return EXIT_SKIPS
    return EXIT_OK


def _marker_fields(path: Path, *keys: str) -> list[str]:
    """The string fields ``keys`` of an outcome marker file."""
    data = read_json(path)
    values = [data.get(key) if isinstance(data, dict) else None for key in keys]
    if not all(isinstance(value, str) for value in values):
        raise ValueError(f"{path}: an outcome marker needs string fields {list(keys)}")
    return values


def _load_run(run_dir: Path) -> list[dict[str, Any]]:
    """One entry per encounter directory, with its outcome marker."""
    encounters_dir = run_dir / ENCOUNTERS_SUBDIR
    if not encounters_dir.is_dir():
        raise ValueError(f"{run_dir} has no {ENCOUNTERS_SUBDIR}/ directory; not a run?")
    entries = []
    for enc_dir in sorted(p for p in encounters_dir.iterdir() if p.is_dir()):
        entry: dict[str, Any] = {"encounter_id": enc_dir.name, "dir": enc_dir}
        report_path = enc_dir / "report.json"
        skip_path = enc_dir / "skip.json"
        failure_path = enc_dir / "failure.json"
        if report_path.exists():
            entry["status"] = "ok"
            entry["report"] = OmissionReport.from_json_dict(read_json(report_path))
        elif skip_path.exists():
            entry["status"] = "skipped"
            (entry["reason"],) = _marker_fields(skip_path, "reason")
        elif failure_path.exists():
            entry["status"] = "failed"
            entry["reason"], entry["stage"] = _marker_fields(failure_path, "message", "stage")
        else:
            entry["status"] = "failed"
            entry["reason"] = "no outcome marker in the encounter directory"
            entry["stage"] = ""
        entries.append(entry)
    if not entries:
        raise ValueError(f"{encounters_dir} is empty; nothing to report on")
    return entries


def _mean_stdev(values: Sequence[float]) -> dict[str, float]:
    return {
        "mean": statistics.fmean(values),
        "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
    }


def cmd_report(args: argparse.Namespace) -> int:
    entries = _load_run(Path(args.run))
    ok = [e for e in entries if e["status"] == "ok"]
    skipped = [e for e in entries if e["status"] == "skipped"]
    failed = [e for e in entries if e["status"] == "failed"]

    counts = [float(e["report"].omission_count) for e in ok]
    weights = [e["report"].cumulative_weight for e in ok]
    margins = [
        e["report"].margin.ratio
        for e in ok
        if e["report"].margin is not None and e["report"].margin.ratio is not None
    ]

    aggregate: dict[str, Any] = {
        "ok": len(ok),
        "skipped": len(skipped),
        "failed": len(failed),
        "omission_count": _mean_stdev(counts) if counts else None,
        "omission_weight": _mean_stdev(weights) if weights else None,
        "margin_ratio": (
            dict(_mean_stdev(margins), defined=len(margins), ok_total=len(ok))
            if margins
            else None
        ),
    }

    if args.json:
        payload = {
            "encounters": [
                {
                    "encounter_id": e["encounter_id"],
                    "status": e["status"],
                    **(
                        {
                            "omission_count": e["report"].omission_count,
                            "cumulative_weight": e["report"].cumulative_weight,
                            "margin_ratio": (
                                e["report"].margin.ratio if e["report"].margin else None
                            ),
                        }
                        if e["status"] == "ok"
                        else {"reason": e["reason"]}
                    ),
                }
                for e in entries
            ],
            "aggregate": aggregate,
        }
        sys.stdout.write(pretty_dumps(payload))
        return EXIT_OK

    for entry in entries:
        if entry["status"] == "ok":
            report = entry["report"]
            line = (
                f"{entry['encounter_id']}: {report.omission_count} omitted, "
                f"weight {_fmt(report.cumulative_weight)}"
            )
            if report.margin is not None:
                ratio = report.margin.ratio
                line += f", margin {_fmt(ratio)}" if ratio is not None else ", margin undefined"
            _emit(line)
            for omission, score in report.omissions:
                _emit(f"  {omission.fact_id} (Score: {_fmt(score.combined)}): {omission.explanation}")
        elif entry["status"] == "skipped":
            _emit(f"{entry['encounter_id']}: skipped ({entry['reason']})")
        else:
            _emit(f"{entry['encounter_id']}: failed ({entry['reason']})")

    _emit("")
    _emit(f"encounters: {len(ok)} ok, {len(skipped)} skipped, {len(failed)} failed")
    if counts:
        stats = aggregate["omission_count"]
        _emit(f"omission count:  mean {_fmt(stats['mean'])}, stdev {_fmt(stats['stdev'])}")
        stats = aggregate["omission_weight"]
        _emit(f"omission weight: mean {_fmt(stats['mean'])}, stdev {_fmt(stats['stdev'])}")
    if margins:
        stats = aggregate["margin_ratio"]
        _emit(
            f"margin ratio:    mean {_fmt(stats['mean'])}, stdev {_fmt(stats['stdev'])} "
            f"({stats['defined']} of {len(ok)} defined)"
        )
    return EXIT_OK


def _baseline_pairs(ok_entries: Sequence[dict[str, Any]]) -> dict[str, tuple[str, str]]:
    """(generated summary, reference note) pairs for encounters that
    have both; encounters without a reference are excluded loudly."""
    pairs = {}
    for entry in ok_entries:
        summary_path = entry["dir"] / "summary.json"
        reference_path = entry["dir"] / "reference.txt"
        if not reference_path.exists():
            _warn(
                f"{entry['encounter_id']} has no reference note; "
                "excluded from baseline correlation"
            )
            continue
        summary = Summary.from_json_dict(read_json(summary_path))
        pairs[entry["encounter_id"]] = (
            summary.text(),
            reference_path.read_text(encoding="utf-8"),
        )
    return pairs


def _target_vectors(ok_entries: Sequence[dict[str, Any]]) -> list[MetricVector]:
    counts = {e["encounter_id"]: float(e["report"].omission_count) for e in ok_entries}
    weights = {e["encounter_id"]: e["report"].cumulative_weight for e in ok_entries}
    margins = {
        e["encounter_id"]: e["report"].margin.ratio
        for e in ok_entries
        if e["report"].margin is not None and e["report"].margin.ratio is not None
    }
    vectors = [
        MetricVector(name="omission_count", values=counts),
        MetricVector(name="omission_weight", values=weights),
    ]
    if margins:
        vectors.append(MetricVector(name="margin_ratio", values=margins))
    return vectors


def cmd_compare(args: argparse.Namespace) -> int:
    entries = _load_run(Path(args.run))
    ok = [e for e in entries if e["status"] == "ok"]
    if not ok:
        raise ValueError("the run has no successful encounters to correlate")

    pairs = _baseline_pairs(ok)
    baselines = rouge_vectors(pairs, use_stemmer=args.use_stemmer) if pairs else []

    run_ids = {e["encounter_id"] for e in ok}
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

    results = []
    for target in _target_vectors(ok):
        if len(target.values) < 3:
            results.append(
                {
                    "target": target.name,
                    "rows": None,
                    "skipped_reason": (
                        f"only {len(target.values)} encounters have a value; "
                        "need at least 3"
                    ),
                }
            )
            continue
        rows = correlation_table(target, baselines)
        results.append({"target": target.name, "rows": rows, "skipped_reason": None})

    if args.json:
        payload = {
            "targets": [
                {
                    "target": r["target"],
                    "skipped_reason": r["skipped_reason"],
                    "rows": [
                        {
                            "metric_name": row.metric_name,
                            "n": row.n,
                            "spearman_r": row.spearman_r,
                            "spearman_p": row.spearman_p,
                            "pearson_r": row.pearson_r,
                            "pearson_p": row.pearson_p,
                        }
                        for row in r["rows"]
                    ]
                    if r["rows"] is not None
                    else None,
                }
                for r in results
            ]
        }
        sys.stdout.write(pretty_dumps(payload))
        return EXIT_OK

    first = True
    for r in results:
        if not first:
            _emit("")
        first = False
        if r["rows"] is None:
            _emit(f"correlations against {r['target']}: skipped ({r['skipped_reason']})")
        else:
            _emit(render_correlation_table(r["target"], r["rows"]))
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


if __name__ == "__main__":
    sys.exit(main())
