"""Spans around calls into each layer of the package, recorded from the
benchmark's side, and the per-layer metrics computed from them.

Each wrapper is installed at the name its caller looks up: the runner
imports ``write_json`` and ``build_report`` directly, so those are
wrapped in ``factgap.pipeline.runner``; the stages call
``parsers.<fn>`` and ``templates.build_request`` through the module, so
those are wrapped in their own modules. A span records its name, start,
end, parent span and encounter id; spans stay in memory until
``Tracer.write``. A wrapped name that no longer exists is listed as
missing, and the metrics that need it are left out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

PARSERS = (
    "parse_truncation",
    "parse_summary",
    "parse_facts",
    "parse_ddx",
    "parse_omissions",
    "parse_categorization",
    "parse_clusters",
    "extract_last_fenced_block",
)

# (span name, module, attribute) for every wrapped call site.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("config.load_config", "factgap.cli", "load_config"),
    ("dataset.load_corpus", "factgap.cli", "load_corpus"),
    ("gateway.cassette_load", "factgap.gateway", "Cassette.__init__"),
    ("gateway.generate", "factgap.gateway", "LlmGateway.generate"),
    ("gateway.score", "factgap.gateway", "LlmGateway.score_continuation"),
    ("gateway.backend", "factgap.gateway", "HttpBackend.complete"),
    ("gateway.backend", "factgap.gateway", "HttpBackend.score"),
    ("jsonutil.write_json", "factgap.pipeline.runner", "write_json"),
    ("jsonutil.write_json", "factgap.dataset", "write_json"),
    ("jsonutil.read_json", "factgap.cli", "read_json"),
    ("jsonutil.read_json", "factgap.dataset", "read_json"),
    ("datamodel.validate_bundle", "factgap.pipeline.runner", "validate_encounter_bundle"),
    ("templates.build_request", "factgap.pipeline.templates", "build_request"),
    *((f"parsers.{name}", "factgap.pipeline.parsers", name) for name in PARSERS),
    ("stages.run_stage", "factgap.pipeline.stages", "run_stage"),
    ("scoring.build_report", "factgap.pipeline.runner", "build_report"),
    ("runner.run_encounter", "factgap.pipeline.runner", "run_encounter"),
    ("baselines.rouge_n", "factgap.baselines", "rouge_n"),
    ("baselines.rouge_l", "factgap.baselines", "rouge_l"),
    ("baselines.rouge_lsum", "factgap.baselines", "rouge_lsum"),
    ("baselines.tokenize", "factgap.baselines", "tokenize"),
    ("baselines.correlation_table", "factgap.cli", "correlation_table"),
)

# Span fields, in the order they are stored.
ID, NAME, START, END, PARENT, ENCOUNTER, INFO = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            starts_encounter = name == "runner.run_encounter"
            if starts_encounter:
                tracer._local.encounter = _encounter_id(args, kwargs)
            encounter = getattr(tracer._local, "encounter", None)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if starts_encounter:
                    tracer._local.encounter = None
                extra = {"error": error} if error else {}
                if info is not None and error is None:
                    extra.update(info(args, kwargs))
                tracer.spans.append([span_id, name, start, end, parent, encounter, extra])

        return traced

    def install(self) -> None:
        for name, module_name, attribute in TARGETS:
            info = _written_bytes if name == "jsonutil.write_json" else None
            if not self._patch(module_name, attribute, lambda fn, n=name, i=info: self.wrap(n, fn, i)):
                self.missing.add(name)
        # One span name per direction for every data-model codec.
        datamodel = importlib.import_module("factgap.datamodel")
        found = {"datamodel.encode": False, "datamodel.decode": False}
        for cls in vars(datamodel).values():
            if not isinstance(cls, type) or cls.__module__ != datamodel.__name__:
                continue
            for attribute, name in (("to_json_dict", "datamodel.encode"), ("from_json_dict", "datamodel.decode")):
                raw = cls.__dict__.get(attribute)
                if isinstance(raw, classmethod):
                    setattr(cls, attribute, classmethod(self.wrap(name, raw.__func__)))
                    found[name] = True
                elif callable(raw):
                    setattr(cls, attribute, self.wrap(name, raw))
                    found[name] = True
        self.missing.update(name for name, ok in found.items() if not ok)

    @staticmethod
    def _patch(module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if raw is None or not callable(raw):
            return False
        setattr(owner, leaf, make(raw))
        return True

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "missing": sorted(self.missing)}, handle)


def _encounter_id(args: tuple, kwargs: dict) -> Optional[str]:
    encounter = kwargs.get("encounter", args[2] if len(args) > 2 else None)
    return getattr(encounter, "encounter_id", None)


def _written_bytes(args: tuple, kwargs: dict) -> dict[str, int]:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


# Per-layer metric -> (unit, span names it needs).
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "config.load_config_ms": ("ms", ("config.load_config",)),
    "dataset.load_corpus_s": ("s", ("dataset.load_corpus",)),
    "jsonutil.write_json.calls_per_enc": ("count", ("jsonutil.write_json",)),
    "jsonutil.write_json.self_ms_per_enc": ("ms", ("jsonutil.write_json",)),
    "jsonutil.write_json.kb_per_enc": ("kB", ("jsonutil.write_json",)),
    "jsonutil.read_json.self_ms_per_enc": ("ms", ("jsonutil.read_json",)),
    "datamodel.decode_ms_per_enc": ("ms", ("datamodel.decode",)),
    "datamodel.encode_ms_per_enc": ("ms", ("datamodel.encode",)),
    "datamodel.validate_bundle_ms_per_enc": ("ms", ("datamodel.validate_bundle",)),
    "gateway.cassette_load_s": ("s", ("gateway.cassette_load",)),
    "gateway.generate.self_ms_per_call": ("ms", ("gateway.generate", "gateway.backend")),
    "gateway.cassette_hit_ratio": ("ratio", ("gateway.generate", "gateway.score", "gateway.backend")),
    "gateway.backend_wait_ms_per_call": ("ms", ("gateway.backend",)),
    "gateway.http_overhead_ms_per_call": ("ms", ("gateway.backend",)),
    "gateway.retries_per_enc": ("count", ("gateway.backend",)),
    "gateway.inflight_mean": ("count", ()),
    "gateway.wait_overlap": ("ratio", ("gateway.backend", "runner.run_encounter")),
    "model_calls_per_enc": ("count", ()),
    "prompt_kchars_per_enc": ("kchar", ()),
    "templates.build_request.ms_per_call": ("ms", ("templates.build_request",)),
    **{f"parsers.{name}.ms_per_call": ("ms", (f"parsers.{name}",)) for name in PARSERS},
    "stages.run_stage.self_ms_per_call": ("ms", ("stages.run_stage",)),
    "stages.attempts_per_accept": ("ratio", ("stages.run_stage", "gateway.generate")),
    "scoring.build_report.ms_per_enc": ("ms", ("scoring.build_report",)),
    "runner.run_encounter.ms.p50": ("ms", ("runner.run_encounter",)),
    "runner.run_encounter.ms.p95": ("ms", ("runner.run_encounter",)),
    "baselines.rouge_n.ms_per_pair": ("ms", ("baselines.rouge_n",)),
    "baselines.rouge_l.ms_per_pair": ("ms", ("baselines.rouge_l",)),
    "baselines.rouge_lsum.ms_per_pair": ("ms", ("baselines.rouge_lsum",)),
    "baselines.tokenize.calls_per_pair": ("count", ("baselines.tokenize",)),
    "baselines.correlation_table.ms": ("ms", ("baselines.correlation_table",)),
    "trace.enc_per_s_ratio": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def server_metrics(records: Iterable[dict[str, Any]], n_enc: int) -> dict[str, float]:
    """Counts taken at the simulated model: calls and prompt characters
    per encounter, and the mean number of requests in flight while any
    was in flight (time-weighted, per repeat)."""
    records = [r for r in records if r.get("status") == 200]
    busy = sum(r["finish"] - r["arrival"] for r in records)
    window = 0.0
    for group in _by_repeat(records):
        window += max(r["finish"] for r in group) - min(r["arrival"] for r in group)
    return {
        "model_calls_per_enc": _ratio(len(records), n_enc),
        "prompt_kchars_per_enc": _ratio(sum(r["prompt_chars"] for r in records) / 1000.0, n_enc),
        "gateway.inflight_mean": _ratio(busy, window),
        "server_handling_ms_per_call": _ratio(busy * 1000.0, len(records)),
    }


def _by_repeat(records: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    groups: dict[Any, list[dict[str, Any]]] = defaultdict(list)
    for record in records:
        groups[record.get("repeat")].append(record)
    return list(groups.values())


def layer_metrics(
    spans: list[list[Any]],
    missing: set[str],
    n_enc: int,
    n_commands: int,
    n_pairs: int,
    server: dict[str, float],
    overhead_ratio: float,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans of the traced repeats; returns
    the metrics and the names left out because a wrapped name is gone."""
    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    names = {}
    for span in spans:
        by_name[span[NAME]].append(span)
        names[span[ID]] = span[NAME]
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(s[END] - s[START] - child_time[s[ID]] for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def outermost(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name] if names.get(s[PARENT]) != name)

    backend = by_name["gateway.backend"]
    gateway_calls = by_name["gateway.generate"] + by_name["gateway.score"]
    reached_backend = {s[PARENT] for s in backend}
    backend_wait = _ratio(total("gateway.backend") * 1000.0, len(backend))
    run_stage_ids = {s[ID] for s in by_name["stages.run_stage"] if "error" not in s[INFO]}
    encounter_ms = [(s[END] - s[START]) * 1000.0 for s in by_name["runner.run_encounter"]]

    values = {
        "config.load_config_ms": _ratio(total("config.load_config") * 1000.0, n_commands),
        "dataset.load_corpus_s": _ratio(total("dataset.load_corpus"), n_commands),
        "jsonutil.write_json.calls_per_enc": _ratio(count("jsonutil.write_json"), n_enc),
        "jsonutil.write_json.self_ms_per_enc": _ratio(self_total("jsonutil.write_json") * 1000.0, n_enc),
        "jsonutil.write_json.kb_per_enc": _ratio(
            sum(s[INFO].get("bytes", 0) for s in by_name["jsonutil.write_json"]) / 1024.0, n_enc
        ),
        "jsonutil.read_json.self_ms_per_enc": _ratio(self_total("jsonutil.read_json") * 1000.0, n_enc),
        "datamodel.decode_ms_per_enc": _ratio(outermost("datamodel.decode") * 1000.0, n_enc),
        "datamodel.encode_ms_per_enc": _ratio(outermost("datamodel.encode") * 1000.0, n_enc),
        "datamodel.validate_bundle_ms_per_enc": _ratio(total("datamodel.validate_bundle") * 1000.0, n_enc),
        "gateway.cassette_load_s": _ratio(total("gateway.cassette_load"), n_commands),
        "gateway.generate.self_ms_per_call": _ratio(self_total("gateway.generate") * 1000.0, count("gateway.generate")),
        "gateway.cassette_hit_ratio": _ratio(
            sum(1 for s in gateway_calls if s[ID] not in reached_backend), len(gateway_calls)
        ),
        "gateway.backend_wait_ms_per_call": backend_wait,
        "gateway.http_overhead_ms_per_call": (
            backend_wait - server["server_handling_ms_per_call"] if backend else 0.0
        ),
        "gateway.retries_per_enc": _ratio(
            sum(1 for s in backend if s[INFO].get("error") == "TransportError"), n_enc
        ),
        "gateway.inflight_mean": server["gateway.inflight_mean"],
        "gateway.wait_overlap": _ratio(total("gateway.backend"), total("runner.run_encounter")),
        "model_calls_per_enc": server["model_calls_per_enc"],
        "prompt_kchars_per_enc": server["prompt_kchars_per_enc"],
        "templates.build_request.ms_per_call": _ratio(
            total("templates.build_request") * 1000.0, count("templates.build_request")
        ),
        **{
            f"parsers.{name}.ms_per_call": _ratio(
                total(f"parsers.{name}") * 1000.0, count(f"parsers.{name}")
            )
            for name in PARSERS
        },
        "stages.run_stage.self_ms_per_call": _ratio(
            self_total("stages.run_stage") * 1000.0, count("stages.run_stage")
        ),
        "stages.attempts_per_accept": _ratio(
            sum(1 for s in by_name["gateway.generate"] if s[PARENT] in run_stage_ids),
            len(run_stage_ids),
        ),
        "scoring.build_report.ms_per_enc": _ratio(total("scoring.build_report") * 1000.0, n_enc),
        "runner.run_encounter.ms.p50": statistics.median(encounter_ms) if encounter_ms else 0.0,
        "runner.run_encounter.ms.p95": percentile(encounter_ms, 95),
        "baselines.rouge_n.ms_per_pair": _ratio(total("baselines.rouge_n") * 1000.0, n_pairs),
        "baselines.rouge_l.ms_per_pair": _ratio(total("baselines.rouge_l") * 1000.0, n_pairs),
        "baselines.rouge_lsum.ms_per_pair": _ratio(total("baselines.rouge_lsum") * 1000.0, n_pairs),
        "baselines.tokenize.calls_per_pair": _ratio(count("baselines.tokenize"), n_pairs),
        "baselines.correlation_table.ms": _ratio(
            total("baselines.correlation_table") * 1000.0, n_commands
        ),
        "trace.enc_per_s_ratio": overhead_ratio,
    }
    dropped = sorted(
        metric for metric, (_, needs) in PER_LAYER.items() if any(n in missing for n in needs)
    )
    return {k: v for k, v in values.items() if k not in dropped}, dropped
