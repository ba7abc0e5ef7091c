"""Benchmark for factgap: replay, live runs against a simulated model
over HTTP, and ROUGE compare. See README.md in this directory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (machine notes, every sample, counts at the simulated model).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

REQUIRED = (Path("src/factgap/cli.py"), gen.FIXTURE_CORPUS, gen.FIXTURE_CASSETTE)
WORK_ROOT = ROOT / ".perfbench-work"
WORKER = HERE / "worker.py"
SERVER = HERE / "simserver.py"

# Encounters per timed command. Multiples of 6, so each of the three
# fixture encounters is copied equally often and repairs pair up.
REPLAY_ENCOUNTERS = 120
LIVE_ENCOUNTERS = 24
COMPARE_ENCOUNTERS = 48

# Simulated model latency for live_http: a fixed part per call plus a
# part per reply character.
LIVE_BASE_MS = 20.0
LIVE_PER_CHAR_MS = 0.04
LIVE_WORKERS = 2

MIN_REPEATS = 3
# Backend address for a replay that needs no server: replay mode never
# builds the backend.
UNUSED_URL = "http://127.0.0.1:9"
STEP_TIMEOUT = 150

END_TO_END_UNITS = {"enc_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_python(args: list[str], timeout: float = STEP_TIMEOUT) -> None:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")


def worker_cli(argv: list[str], result: Path, spans: Optional[Path] = None) -> dict[str, Any]:
    extra = ["--spans", str(spans)] if spans else []
    run_python([str(WORKER), "cli", "--result", str(result), *extra, "--", *argv])
    return checks.read_json(result)


def worker_setup(config: Path, corpus: Path, result: Path) -> dict[str, Any]:
    run_python(
        [str(WORKER), "setup", "--config", str(config), "--corpus", str(corpus), "--result", str(result)]
    )
    return checks.read_json(result)


class Server:
    """The simulated model, in a child process on loopback."""

    def __init__(self, work: Path, base_ms: float = 0.0, per_char_ms: float = 0.0, repair_seed: Optional[int] = None):
        args = [
            sys.executable,
            str(SERVER),
            "--cassette",
            str(ROOT / gen.FIXTURE_CASSETTE),
            "--base-ms",
            str(base_ms),
            "--per-char-ms",
            str(per_char_ms),
        ]
        if repair_seed is not None:
            args += ["--repair-seed", str(repair_seed)]
        self._log = open(work / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        self.url = f"http://127.0.0.1:{int(line)}" if line.strip().isdigit() else None
        if self.url is None:
            self.close()
            raise BenchError("the simulated model did not start")

    def drain(self) -> list[dict[str, Any]]:
        with urllib.request.urlopen(f"{self.url}/_bench/drain", timeout=30) as response:
            return json.loads(response.read())["records"]

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.url is None:
                    raise OSError("no address to ask for a shutdown")
                request = urllib.request.Request(f"{self.url}/_bench/shutdown", data=b"{}", method="POST")
                urllib.request.urlopen(request, timeout=5).close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Workload:
    """What one workload runs and how each repeat is checked."""

    n: int
    setup_files: tuple[Path, Path]
    argv: Callable[[Path], list[str]]
    check: Callable[[Path, dict[str, Any], list[dict[str, Any]]], list[str]]
    fresh_dir: Callable[[Path], None] = lambda path: None
    server: Optional[Server] = None
    pairs_per_command: int = 0
    notes: dict[str, Any] = field(default_factory=dict)


def write_inputs(
    work: Path, name: str, seed: int, n: int, base_url: str, mode: str, references: str
) -> tuple[Path, Path, dict[str, str], dict[str, int]]:
    """Corpus and config files for one workload; returns their paths,
    the base fixture id of each encounter and each encounter's marker."""
    corpus, base_of = gen.make_corpus(ROOT, seed, n, references=references)
    corpus_path = work / f"{name}-corpus.json"
    config_path = work / f"{name}-config.json"
    gen.write_json(corpus_path, corpus)
    cassette_path = work / f"{name}-cassette.jsonl" if mode == "replay" else None
    gen.write_json(config_path, gen.run_config(base_url, cassette_path, mode))
    markers = {e["encounter_id"]: gen.find_marker(e["dialogue"]["turns"][0]["text"]) for e in corpus["encounters"]}
    return config_path, corpus_path, base_of, markers


def base_reports(work: Path) -> dict[str, Any]:
    """Reports of the fixture encounters, replayed from the fixture
    cassette, keyed by encounter id."""
    config = work / "base-config.json"
    out = work / "base-run"
    gen.write_json(config, gen.run_config(UNUSED_URL, ROOT / gen.FIXTURE_CASSETTE, "replay"))
    result = worker_cli(
        ["run", "--config", str(config), "--corpus", str(ROOT / gen.FIXTURE_CORPUS), "--out", str(out)],
        work / "base-result.json",
    )
    if result["exit_code"] != 0:
        raise BenchError(f"the fixture replay failed: {result['stderr'][-2000:]}")
    fixture = gen.load_fixture_corpus(ROOT)
    reports = {
        e["encounter_id"]: checks.read_json(out / "encounters" / e["encounter_id"] / "report.json")
        for e in fixture["encounters"]
    }
    shutil.rmtree(out)
    return reports


def record(work: Path, config: Path, corpus: Path, out: Path) -> None:
    """Record the cassette named in config by running the corpus in
    record mode against the zero-latency simulated model."""
    result = worker_cli(
        ["run", "--config", str(config), "--corpus", str(corpus), "--out", str(out), "--mode", "record"],
        work / "record-result.json",
    )
    if result["exit_code"] != 0:
        raise BenchError(f"recording the cassette failed: {result['stderr'][-2000:]}")


def run_check(base_of: dict[str, str], reports: dict[str, Any]):
    def check(out: Path, result: dict[str, Any], records: list[dict[str, Any]]) -> list[str]:
        if result["exit_code"] != 0:
            return list(base_of)
        return checks.check_reports(out, base_of, reports)

    return check


def prepare_replay(work: Path, seed: int, reports: dict[str, Any], n: int = REPLAY_ENCOUNTERS) -> Workload:
    server = Server(work)
    try:
        config, corpus, base_of, _ = write_inputs(work, "replay", seed, n, server.url, "replay", "fixture")
        record(work, config, corpus, work / "record-run")
    finally:
        server.close()
    shutil.rmtree(work / "record-run")
    return Workload(
        n=n,
        setup_files=(config, corpus),
        argv=lambda out: ["run", "--config", str(config), "--corpus", str(corpus), "--out", str(out)],
        check=run_check(base_of, reports),
    )


def prepare_live(work: Path, seed: int, reports: dict[str, Any], n: int = LIVE_ENCOUNTERS) -> Workload:
    server = Server(work, LIVE_BASE_MS, LIVE_PER_CHAR_MS, repair_seed=seed)
    try:
        config, corpus, base_of, markers = write_inputs(work, "live", seed, n, server.url, "live", "fixture")
    except BaseException:
        server.close()
        raise
    reports_ok = run_check(base_of, reports)

    def check(out: Path, result: dict[str, Any], records: list[dict[str, Any]]) -> list[str]:
        failed = set(reports_ok(out, result, records))
        failed.update(checks.check_calls(records, markers, seed))
        return sorted(failed)

    return Workload(
        n=n,
        setup_files=(config, corpus),
        argv=lambda out: [
            "run", "--config", str(config), "--corpus", str(corpus), "--out", str(out),
            "--workers", str(LIVE_WORKERS),
        ],
        check=check,
        server=server,
        notes={
            "expected_model_calls_per_command": checks.expected_calls(markers, seed),
            "injected_repairs_per_command": checks.expected_calls(markers, seed) - gen.CALLS_PER_ENCOUNTER * len(markers),
            "latency": {"base_ms": LIVE_BASE_MS, "per_char_ms": LIVE_PER_CHAR_MS},
        },
    )


def prepare_compare(work: Path, seed: int, reports: dict[str, Any], n: int = COMPARE_ENCOUNTERS) -> Workload:
    server = Server(work)
    try:
        config, corpus, base_of, _ = write_inputs(work, "compare", seed, n, server.url, "replay", "generated")
        record(work, config, corpus, work / "record-run")
    finally:
        server.close()
    shutil.rmtree(work / "record-run")
    pristine = work / "compare-run"
    result = worker_cli(
        ["run", "--config", str(config), "--corpus", str(corpus), "--out", str(pristine)],
        work / "replay-result.json",
    )
    if result["exit_code"] != 0 or checks.check_reports(pristine, base_of, reports):
        raise BenchError("the replay that makes the compared run directory failed its check")
    expected = checks.reference_correlations(pristine)

    def check(out: Path, result: dict[str, Any], records: list[dict[str, Any]]) -> list[str]:
        if result["exit_code"] != 0 or not checks.check_compare(result["stdout"], expected):
            return list(base_of)
        return []

    return Workload(
        n=n,
        setup_files=(config, corpus),
        argv=lambda out: ["compare", "--run", str(out), "--json"],
        check=check,
        fresh_dir=lambda out: shutil.copytree(pristine, out),
        pairs_per_command=n,
    )


PREPARE = {"replay": prepare_replay, "live_http": prepare_live, "compare": prepare_compare}


@dataclass
class Sample:
    seconds: float
    peak_rss_mb: float
    failed: int
    records: list[dict[str, Any]]
    spans: Optional[Path] = None


def measure(
    work: Path, load: Workload, seconds: float, traced: bool, first: int, setup: Optional[list[float]] = None
) -> list[Sample]:
    """Timed repeats, each in a fresh process on a fresh output
    directory, until `seconds` have passed (at least MIN_REPEATS). With
    `setup`, a set-up probe follows each repeat, so set-up samples spread
    over the same window as the repeats."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - start < seconds:
        index = first + len(samples)
        out = work / f"repeat-{index}"
        load.fresh_dir(out)
        spans = work / f"spans-{index}.json" if traced else None
        result = worker_cli(load.argv(out), work / f"result-{index}.json", spans)
        records = load.server.drain() if load.server else []
        for record_ in records:
            record_["repeat"] = index
        failed = load.check(out, result, records)
        shutil.rmtree(out, ignore_errors=True)
        samples.append(Sample(result["seconds"], result["peak_rss_mb"], len(failed), records, spans))
        if setup is not None:
            config, corpus = load.setup_files
            setup.append(worker_setup(config, corpus, work / "setup.json")["seconds"])
    return samples


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) > 2 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    detail: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "output_fs": filesystem_type(work),
            "loadavg_at_start": os.getloadavg(),
        },
    }
    reports = base_reports(work)
    load = PREPARE[workload](work, seed, reports)
    try:
        config, corpus = load.setup_files
        worker_setup(config, corpus, work / "setup.json")  # warm-up, not counted
        setup: list[float] = []
        if trace:
            plain = measure(work, load, seconds / 2, False, 0, setup)
            traced = measure(work, load, seconds / 2, True, len(plain))
        else:
            plain, traced = measure(work, load, seconds, False, 0, setup), []
    finally:
        if load.server:
            load.server.close()

    samples = plain + traced
    enc_per_s = [load.n / s.seconds for s in plain]
    failed = sum(s.failed for s in samples)
    attempted = load.n * len(samples)
    server = tracing.server_metrics([r for s in plain for r in s.records], load.n * len(plain))
    detail.update(
        notes=load.notes,
        encounters_per_command=load.n,
        setup_s_samples=setup,
        enc_per_s_samples=enc_per_s,
        peak_rss_mb_samples=[s.peak_rss_mb for s in plain],
        failed_share=failed / attempted,
        model_calls_per_enc=server["model_calls_per_enc"],
        prompt_kchars_per_enc=server["prompt_kchars_per_enc"],
    )
    if trace:
        spans: list[list[Any]] = []
        missing: set[str] = set()
        for sample in traced:
            data = checks.read_json(sample.spans)
            # Span ids restart in every process; shift them apart.
            offset = len(spans) and max(span[tracing.ID] for span in spans) + 1
            for span in data["spans"]:
                span[tracing.ID] += offset
                if span[tracing.PARENT] >= 0:
                    span[tracing.PARENT] += offset
            spans.extend(data["spans"])
            missing.update(data["missing"])
        n_traced = load.n * len(traced)
        traced_rate = statistics.median(load.n / s.seconds for s in traced)
        metrics, dropped = tracing.layer_metrics(
            spans,
            missing,
            n_enc=n_traced,
            n_commands=len(traced),
            n_pairs=load.pairs_per_command * len(traced),
            server=tracing.server_metrics([r for s in traced for r in s.records], n_traced),
            overhead_ratio=traced_rate / statistics.median(enc_per_s),
        )
        detail.update(traced_enc_per_s_samples=[load.n / s.seconds for s in traced], missing_spans=sorted(missing), dropped_metrics=dropped)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "enc_per_s": statistics.median(enc_per_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="factgap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a factgap checkout, missing {missing}\n")
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
