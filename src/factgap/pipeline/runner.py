"""Encounter orchestration and artifact persistence.

Each encounter runs the stage table of ``stages.STAGES``. With one
worker the rows run inline, one after another in table order. With
more, each encounter submits every row whose needs are met to a stage
pool shared by the run, so independent model calls overlap. Either way
a row's artifact and stage-log entry are committed only after every
earlier row's, and the earliest failing row decides the failure marker,
so two replay runs over the same cassette produce byte-identical
``encounters/`` subtrees at any worker count, and a failed encounter
leaves behind everything before the failing stage plus a failure marker.
"""

from __future__ import annotations

import logging
import queue
import shutil
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from ..config import RunConfig
from ..datamodel import Dialogue, bundle_warnings, validate_encounter_bundle
from ..dataset import (
    Corpus,
    Encounter,
    EncounterResult,
    FailureMarker,
    ManifestEntry,
    RunManifest,
    SkipMarker,
    read_outcome,
    utc_now_iso,
)
from ..gateway import GatewayError, LlmGateway
from ..jsonutil import write_json
from ..scoring import build_report, completion_margin
from .stages import (
    MARGIN_SCORES,
    STAGES,
    DialogueTooShort,
    Stage,
    StageContext,
    StageError,
    StageInputs,
    StageOutput,
    encounter_stages,
)

log = logging.getLogger(__name__)

ENCOUNTERS_SUBDIR = "encounters"
MANIFEST_NAME = "manifest.json"


def in_flight_cap(workers: int) -> int:
    """Most model calls a run with this many workers has in flight: each
    encounter has at most one call per row of the stage table."""
    return workers * len(STAGES)


class _ArtifactDir:
    """Writes canonical JSON artifacts under one encounter directory."""

    def __init__(self, root: Optional[Path]):
        self.root = root
        if root is not None:
            root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, payload: dict) -> None:
        if self.root is not None:
            write_json(self.root / name, payload)

    def write_text(self, name: str, text: str) -> None:
        if self.root is not None:
            path = self.root / name
            path.write_text(text, encoding="utf-8")


def _check_encounter_id(encounter_id: str) -> None:
    if encounter_id in (".", "..") or any(c in encounter_id for c in "/\\\0"):
        raise ValueError(f"encounter id {encounter_id!r} is not filesystem-safe")


class _Job:
    """One encounter's stage values, stage log and artifacts."""

    def __init__(self, ctx: StageContext, dialogue: Dialogue, art: _ArtifactDir):
        self.encounter_id = dialogue.encounter_id
        self.inputs = StageInputs(ctx, dialogue)
        self.art = art
        self.outputs: list[StageOutput] = []

    def commit(self, stage: Stage, result: Any) -> None:
        value = result
        if isinstance(result, StageOutput):
            self.outputs.append(result)
            value = result.value
        if stage.artifact:
            self.art.write(stage.artifact, stage.payload(self.encounter_id, value))

    def write_stages(self) -> None:
        self.art.write(
            "stages.json",
            {
                "stages": [
                    {
                        "stage": out.stage,
                        "attempts": out.attempts,
                        "fingerprint": out.fingerprint,
                        "raw_text": out.raw_text,
                    }
                    for out in self.outputs
                ]
            },
        )

    def run_inline(self, stages: Sequence[Stage]) -> Optional[tuple[Stage, Exception]]:
        for stage in stages:
            try:
                result = stage.run(self.inputs)
                self.inputs.accept(stage.name, result)
                self.commit(stage, result)
            except Exception as exc:
                return stage, exc
        return None

    def run_pooled(
        self, stages: Sequence[Stage], pool: Executor
    ) -> Optional[tuple[Stage, Exception]]:
        """Submits each row once its needs have values and commits rows in
        table order. After a failure only earlier rows still start; later
        rows' results are dropped. Returns once nothing is in flight."""
        finished: queue.SimpleQueue[tuple[int, Future]] = queue.SimpleQueue()
        results: dict[int, Any] = {}
        started = [False] * len(stages)
        values = self.inputs.values
        failed_at, failure = len(stages), None
        committed = in_flight = 0

        while True:
            for i in range(committed, failed_at):
                if not started[i] and all(need in values for need in stages[i].needs):
                    started[i] = True
                    in_flight += 1
                    future = pool.submit(stages[i].run, self.inputs)
                    future.add_done_callback(lambda f, i=i: finished.put((i, f)))
            # Artifacts are written after the dependents are on their way.
            while committed < failed_at and committed in results:
                try:
                    self.commit(stages[committed], results[committed])
                except Exception as exc:
                    failed_at, failure = committed, exc
                    break
                committed += 1
            if not in_flight:
                break
            i, future = finished.get()
            in_flight -= 1
            if i >= failed_at:
                continue
            try:
                results[i] = future.result()
            except Exception as exc:
                failed_at, failure = i, exc
                continue
            self.inputs.accept(stages[i].name, results[i])
        return None if failure is None else (stages[failed_at], failure)

    def skip(self, stage: Stage, exc: DialogueTooShort) -> EncounterResult:
        self.commit(stage, exc.output)
        self.write_stages()
        turns = len(exc.output.value.turns)
        reason = str(exc)
        marker = SkipMarker(
            self.encounter_id, reason, cut_turn_index=turns - 1, truncated_turns=turns
        )
        self.art.write("skip.json", marker.to_json_dict())
        log.info("skipping %s: %s", self.encounter_id, reason)
        return EncounterResult(encounter_id=self.encounter_id, status="skipped", reason=reason)

    def fail_on(self, stage: str, exc: Exception) -> EncounterResult:
        """The failure of an encounter that ``exc`` stopped in ``stage``."""
        if isinstance(exc, StageError):
            return self.fail(exc.stage, exc.message, exc.fingerprint, exc.attempts)
        if isinstance(exc, GatewayError):
            return self.fail(stage, str(exc))
        log.error("%s: unexpected error in %s", self.encounter_id, stage, exc_info=exc)
        return self.fail(stage, f"{type(exc).__name__}: {exc}")

    def fail(
        self, stage: str, message: str, fingerprint: str = "", attempts: int = 0
    ) -> EncounterResult:
        """The one writer of failure markers."""
        self.write_stages()
        marker = FailureMarker(self.encounter_id, stage, message, fingerprint, attempts)
        self.art.write("failure.json", marker.to_json_dict())
        log.error("%s failed at %s: %s", self.encounter_id, stage, message)
        return EncounterResult(
            encounter_id=self.encounter_id, status="failed", reason=message, stage=stage
        )

    def report(self) -> EncounterResult:
        config = self.inputs.ctx.config
        values = self.inputs.values
        facts = values["categorize"]
        omissions = values["detect_omissions"]
        clusters = [*values["cluster_supporting"], *values["cluster_refuting"]]
        margin = None
        if values.get("margin_plan") is not None:
            margin = completion_margin(
                *(values[name] for name in MARGIN_SCORES),
                epsilon=config.thresholds.margin_epsilon,
            )

        violations = validate_encounter_bundle(values["truncate"], facts, clusters, omissions)
        warnings = bundle_warnings(clusters)
        self.art.write(
            "validation.json",
            {"encounter_id": self.encounter_id, "violations": violations, "warnings": warnings},
        )
        for warning in warnings:
            log.warning("%s: %s", self.encounter_id, warning)
        if violations:
            return self.fail("validation", "; ".join(violations))

        report = build_report(
            self.encounter_id,
            facts,
            omissions,
            clusters,
            margin=margin,
            polarity_mode=config.uniqueness_polarity,
        )
        self.art.write("report.json", report.to_json_dict())
        self.write_stages()
        return EncounterResult(encounter_id=self.encounter_id, status="ok", report=report)


def run_encounter(
    config: RunConfig,
    gateway: LlmGateway,
    encounter: Encounter,
    out_dir: Optional[Path] = None,
    stage_pool: Optional[Executor] = None,
) -> EncounterResult:
    """Runs one encounter's stage table: inline in table order, or with
    every ready row submitted to ``stage_pool``."""
    dialogue = encounter.dialogue
    encounter_id = dialogue.encounter_id
    _check_encounter_id(encounter_id)
    art = _ArtifactDir(
        (out_dir / ENCOUNTERS_SUBDIR / encounter_id) if out_dir is not None else None
    )
    art.write("dialogue.json", dialogue.to_json_dict())
    if encounter.reference_note:
        art.write_text("reference.txt", encounter.reference_note)

    job = _Job(StageContext(gateway=gateway, config=config), dialogue, art)
    stages = encounter_stages(config)
    if stage_pool is None:
        stopped = job.run_inline(stages)
    else:
        stopped = job.run_pooled(stages, stage_pool)
    if stopped is not None:
        stage, exc = stopped
        if isinstance(exc, DialogueTooShort):
            return job.skip(stage, exc)
        return job.fail_on(stage.label, exc)
    try:
        return job.report()
    except Exception as exc:
        return job.fail_on("report", exc)


def run_corpus(
    config: RunConfig,
    gateway: LlmGateway,
    corpus: Corpus,
    corpus_path: str,
    out_dir: Path,
    workers: int = 1,
    only: Optional[Sequence[str]] = None,
    force: bool = False,
) -> tuple[RunManifest, list[EncounterResult]]:
    """Runs the corpus, or the ``only`` encounters of it, and writes a
    manifest of the whole corpus: an encounter this call did not run is
    listed with the outcome its directory holds, if it has one."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    selected = corpus.subset(only) if only else corpus
    # Each id names a directory that force may delete or the manifest reads.
    for encounter in corpus.encounters:
        _check_encounter_id(encounter.encounter_id)

    encounters_dir = out_dir / ENCOUNTERS_SUBDIR
    kept: dict[str, EncounterResult] = {}
    if encounters_dir.exists() and any(encounters_dir.iterdir()):
        if not force:
            raise FileExistsError(
                f"{encounters_dir} already has artifacts; pass force to overwrite"
            )
        if only:
            # Only the selected encounters rerun; the others' artifacts stay,
            # and the manifest lists the outcomes they hold.
            rerun = set(only)
            kept = {
                encounter.encounter_id: read_outcome(enc_dir)
                for encounter in corpus.encounters
                if encounter.encounter_id not in rerun
                and (enc_dir := encounters_dir / encounter.encounter_id).is_dir()
            }
            for encounter in selected.encounters:
                target = encounters_dir / encounter.encounter_id
                if target.exists():
                    shutil.rmtree(target)
        else:
            shutil.rmtree(encounters_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = utc_now_iso()

    if workers == 1:
        results = [
            run_encounter(config, gateway, encounter, out_dir)
            for encounter in selected.encounters
        ]
    else:
        # Encounter threads only submit rows to the stage pool and wait on
        # them; rows never wait on the pool, so neither pool can starve.
        with ThreadPoolExecutor(max_workers=in_flight_cap(workers)) as stage_pool, (
            ThreadPoolExecutor(max_workers=workers)
        ) as encounter_pool:
            results = list(
                encounter_pool.map(
                    lambda encounter: run_encounter(
                        config, gateway, encounter, out_dir, stage_pool
                    ),
                    selected.encounters,
                )
            )

    outcomes = {**kept, **{result.encounter_id: result for result in results}}
    manifest = RunManifest(
        corpus_path=str(corpus_path),
        out_dir=str(out_dir),
        mode=config.mode.value,
        models=config.models.to_json_dict(),
        started_at=started_at,
        finished_at=utc_now_iso(),
        encounters=tuple(
            ManifestEntry(outcome.encounter_id, outcome.status, outcome.reason, outcome.stage)
            for encounter in corpus.encounters
            if (outcome := outcomes.get(encounter.encounter_id)) is not None
        ),
    )
    write_json(out_dir / MANIFEST_NAME, manifest.to_json_dict())
    return manifest, results
