"""Encounter orchestration and artifact persistence.

Each encounter runs the stage table of ``stages.STAGES`` in one loop.
With one worker it runs each row inline, one after another in table
order. With more, it submits every row whose needs are met to a stage
pool shared by the run, so independent model calls overlap. Either way
a row's artifact and stage-log entry are committed only after every
earlier row's, and the earliest failing row decides the failure marker,
so two replay runs over the same cassette produce byte-identical
``encounters/`` subtrees at any worker count, and a failed encounter
leaves behind everything before the failing stage plus a failure marker.

Each encounter has its own directory, ``encounters/<id>`` under the
run's output directory, and nothing is written while it runs. Its
artifacts are collected in commit order and written there as one batch
when it ends: every file in place, then the outcome marker last and
atomically, so the marker is the encounter's commit point and a
directory without one is incomplete. A corpus run writes the batches on
two writer processes, which create one encounter's files while the next
one runs its stages. Processes rather than threads, because writer
threads would share the GIL with the stages: the pretty encoding holds
it, and every file operation has to take it back. The run forks them
itself before it starts any thread and hands them batches round robin,
each pickled down its writer's own pipe; a writer answers each batch on
a second pipe, with ``None`` or the write error, and exits when its
batch pipe ends, which is also what it sees when the run's process dies.
The run waits on its batches oldest first: a failed write stops it at
the first hand-over after that batch finishes, or at the end, and no
encounter starts after that. A writer that died shows up as a
``ChildProcessError`` that names a batch's directory.

Each writer puts itself under ``SCHED_BATCH`` as it starts, which tells
the kernel it is a batch job that need not run the moment it wakes. A
writer woken by a batch then no longer preempts the run's process in the
middle of its pipe write: that preemption made handing over one batch
take anywhere from 0.04 to 1.8 ms. Any process may choose this policy
for itself; where the platform lacks it or refuses it, the writer runs
under the default policy and writes the same bytes.
"""

import logging
import os
import shutil
import signal
import threading
from collections import deque
from concurrent import futures
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Optional, Sequence

from ..config import RunConfig
from ..datamodel import Dialogue, validate_encounter_bundle
from ..dataset import (
    MARKERS,
    OUTCOME_MARKERS,
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
from ..jsonutil import write_all, write_json, write_text
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

# Processes that write a corpus run's batches.
WRITER_PROCESSES = 2
# Batches handed to the writers and not yet written; an encounter that
# would exceed it waits, so a run holds a bounded number of batches.
MAX_PENDING_BATCHES = 2 * WRITER_PROCESSES


def _write_batch(root: Path, batch: Sequence[tuple[str, Any]]) -> None:
    """Writes one encounter's artifacts in batch order: a ``str`` payload
    as text, any other as JSON. Every file but the outcome marker is
    written in place; the marker, which comes last, is written atomically."""
    root.mkdir(parents=True, exist_ok=True)
    for name, payload in batch:
        if isinstance(payload, str):
            write_text(root / name, payload)
        else:
            write_json(root / name, payload, atomic=name in OUTCOME_MARKERS)


def _send(fd: int, message: Any) -> None:
    """Writes ``message`` to pipe ``fd``, pickled, after its length."""
    import pickle

    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    write_all(fd, len(data).to_bytes(8, "little") + data)


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from pipe ``fd``; ``EOFError`` if it ends first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> Any:
    """The next message that ``_send`` wrote to pipe ``fd``."""
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(batches: int, acks: int, inherited: Sequence[int]) -> NoReturn:
    """A writer process's whole life. It closes the ``inherited`` pipe
    ends, which belong to the run and to the writers forked before it,
    then writes each ``(root, batch)`` that its ``batches`` pipe brings
    and answers on ``acks`` with ``None`` or the write error. It runs
    under ``SCHED_BATCH`` where it may, so handing it a batch does not
    preempt the run. It ignores SIGINT, so an interrupted run still has
    the batches it handed over written, and it exits when ``batches``
    ends: when the run closes it, or when the run's process dies."""
    import pickle

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if hasattr(os, "sched_setscheduler"):
            try:
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            except OSError:
                pass  # Best effort: the default policy writes the same bytes.
        for fd in inherited:
            os.close(fd)
        while True:
            try:
                root, batch = _receive(batches)
            except EOFError:
                break
            error = None
            try:
                _write_batch(root, batch)
            except Exception as exc:
                error = exc
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    # It would not survive the pipe; its words do.
                    error = OSError(f"writing {root}: {type(exc).__name__}: {exc}")
            _send(acks, error)
        code = 0
    except BrokenPipeError:
        pass  # The run's process is gone, and nobody reads the answer.
    except BaseException:
        # Printed, not raised: a writer must never return into the run's
        # code that it was forked from.
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


class _Writer(NamedTuple):
    """A writer process and the run's ends of its two pipes."""

    pid: int
    batches: int
    acks: int


class _BatchWriter:
    """Writes a corpus run's batches on ``WRITER_PROCESSES`` forked
    processes, handed out round robin, each batch pickled once into its
    writer's pipe, and waits on them oldest first. Leaving the ``with``
    block waits for every batch; a write error is raised as itself once
    the run waits on its batch, and kept as ``error``."""

    def __init__(self) -> None:
        self._writers: list[_Writer] = []
        try:
            for _ in range(WRITER_PROCESSES):
                self._fork()
        except BaseException:
            self._stop()
            raise
        self._turn = 0
        self._lock = threading.Lock()
        # Each batch not yet waited on, with its writer, oldest first.
        self._pending: deque[tuple[_Writer, Path]] = deque()
        self.error: Optional[Exception] = None

    def _fork(self) -> None:
        # Called before the run starts a thread: a fork copies only the
        # calling thread, and any lock another thread holds stays held in
        # the child.
        read_batches, write_batches = os.pipe()
        read_acks, write_acks = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (read_batches, write_batches, read_acks, write_acks):
                os.close(fd)
            raise
        if pid == 0:
            inherited = [write_batches, read_acks]
            for writer in self._writers:
                inherited += [writer.batches, writer.acks]
            _serve(read_batches, write_acks, inherited)
        os.close(read_batches)
        os.close(write_acks)
        self._writers.append(_Writer(pid, write_batches, read_acks))

    def submit(self, root: Path, batch: Sequence[tuple[str, Any]]) -> None:
        """Hands one batch over, once the finished batches at the head are
        collected and fewer than ``MAX_PENDING_BATCHES`` are pending."""
        with self._lock:
            while self._pending and (
                len(self._pending) == MAX_PENDING_BATCHES or self._oldest_done()
            ):
                self._wait_oldest()
            writer = self._writers[self._turn]
            self._turn = (self._turn + 1) % len(self._writers)
            try:
                _send(writer.batches, (root, batch))
            except BrokenPipeError as exc:
                raise self._failed(ChildProcessError(f"writing {root}: {exc}")) from exc
            self._pending.append((writer, root))

    def _oldest_done(self) -> bool:
        # poll, not select, which refuses descriptors past 1023.
        import select

        poll = select.poll()
        poll.register(self._pending[0][0].acks, select.POLLIN)
        return bool(poll.poll(0))

    def _wait_oldest(self) -> None:
        # A writer answers its batches in the order it was handed them.
        writer, root = self._pending.popleft()
        try:
            error = _receive(writer.acks)
        except EOFError:
            error = ChildProcessError(f"writing {root}: writer process {writer.pid} died")
        if error is not None:
            raise self._failed(error)

    def _failed(self, error: Exception) -> Exception:
        if self.error is None:
            self.error = error
        return error

    def _stop(self) -> None:
        """Ends the writers' batch pipes and waits for each writer to exit,
        which it does once it has written every batch it was handed."""
        for writer in self._writers:
            os.close(writer.batches)
        for writer in self._writers:
            os.waitpid(writer.pid, 0)
            os.close(writer.acks)

    def __enter__(self) -> "_BatchWriter":
        return self

    def __exit__(self, exc_type: Any, *_: Any) -> None:
        try:
            while exc_type is None and self._pending:
                self._wait_oldest()
        finally:
            self._stop()


def _run_now(call: Callable[..., Any], *args: Any) -> Future:
    """``call(*args)`` run on this thread, as a finished future."""
    future: Future = Future()
    try:
        future.set_result(call(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class _Job:
    """One encounter's stage values and stage log, and its artifacts,
    collected in commit order as the batch that ``flush`` writes under
    ``root``."""

    def __init__(self, ctx: StageContext, dialogue: Dialogue, root: Path):
        self.encounter_id = dialogue.encounter_id
        self.inputs = StageInputs(ctx, dialogue)
        self.outputs: list[StageOutput] = []
        self.root = root
        self.batch: list[tuple[str, Any]] = []

    def write(self, name: str, payload: Any) -> None:
        self.batch.append((name, payload))

    def flush(self, writer: Optional[_BatchWriter]) -> None:
        """Hands the batch to ``writer``, or writes it inline without one."""
        (_write_batch if writer is None else writer.submit)(self.root, self.batch)

    def commit(self, stage: Stage, result: Any) -> None:
        value = result
        if isinstance(result, StageOutput):
            self.outputs.append(result)
            value = result.value
        if stage.artifact:
            self.write(stage.artifact, stage.payload(self.encounter_id, value))

    def run(
        self, stages: Sequence[Stage], pool: Optional[Executor]
    ) -> Optional[tuple[Stage, Exception]]:
        """Starts each row once its needs have values: on ``pool``, or
        without one on this thread, one row at a time, which runs the rows
        in table order. Commits finished rows in table order before it
        starts more. After a failure only earlier rows still start; later
        rows' results are dropped. Returns once nothing is in flight."""
        submit = _run_now if pool is None else pool.submit
        running: dict[Future, int] = {}
        results: dict[int, Any] = {}
        started = [False] * len(stages)
        values = self.inputs.values
        failed_at, failure = len(stages), None
        committed = 0

        while True:
            while committed < failed_at and committed in results:
                try:
                    self.commit(stages[committed], results[committed])
                except Exception as exc:
                    failed_at, failure = committed, exc
                    break
                committed += 1
            for i in range(committed, failed_at):
                if not started[i] and all(need in values for need in stages[i].needs):
                    started[i] = True
                    running[submit(stages[i].run, self.inputs)] = i
                    if pool is None:
                        break
            if not running:
                return None if failure is None else (stages[failed_at], failure)
            # In any order: a later row's result never decides an earlier
            # row's fate, and an earlier failure replaces a later one.
            for future in futures.wait(running, return_when=futures.FIRST_COMPLETED).done:
                i = running.pop(future)
                if i >= failed_at:
                    continue
                try:
                    results[i] = future.result()
                except Exception as exc:
                    failed_at, failure = i, exc
                    continue
                self.inputs.accept(stages[i].name, results[i])

    def end(self, status: str, marker: dict, **outcome: Any) -> EncounterResult:
        """The one writer of outcomes: the stage log, then the marker."""
        self.write(
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
        self.write(MARKERS[status], marker)
        return EncounterResult(encounter_id=self.encounter_id, status=status, **outcome)

    def skip(self, stage: Stage, exc: DialogueTooShort) -> EncounterResult:
        self.commit(stage, exc.output)
        reason = str(exc)
        cut_turn_index = len(exc.output.value.turns) - 1
        marker = SkipMarker(self.encounter_id, reason, cut_turn_index)
        log.info("skipping %s: %s", self.encounter_id, reason)
        return self.end("skipped", marker.to_json_dict(), reason=reason)

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
        marker = FailureMarker(self.encounter_id, stage, message, fingerprint, attempts)
        log.error("%s failed at %s: %s", self.encounter_id, stage, message)
        return self.end("failed", marker.to_json_dict(), reason=message, stage=stage)

    def report(self) -> EncounterResult:
        config = self.inputs.ctx.config
        values = self.inputs.values
        facts = values["categorize"]
        omissions = values["detect_omissions"]
        clusters = [*values["cluster_supporting"], *values["cluster_refuting"]]
        scores = [values.get(name) for name in MARGIN_SCORES]  # None: no model or no plan
        margin = None
        if None not in scores:
            margin = completion_margin(*scores, epsilon=config.thresholds.margin_epsilon)

        warnings = validate_encounter_bundle(clusters)
        self.write(
            "validation.json",
            {"encounter_id": self.encounter_id, "violations": [], "warnings": warnings},
        )
        report = build_report(
            self.encounter_id,
            facts,
            omissions,
            clusters,
            margin=margin,
            polarity_mode=config.uniqueness_polarity,
        )
        return self.end("ok", report.to_json_dict(), report=report)


def run_encounter(
    config: RunConfig,
    gateway: LlmGateway,
    encounter: Encounter,
    out_dir: Path,
    stage_pool: Optional[Executor] = None,
    writer: Optional[_BatchWriter] = None,
) -> EncounterResult:
    """Runs one encounter's stage table: inline in table order, or with
    every ready row submitted to ``stage_pool``. However it ends, its
    artifacts go to ``writer`` as one batch for ``encounters/<id>`` under
    ``out_dir``; without a writer they are on disk when this returns."""
    dialogue = encounter.dialogue
    encounter_id = dialogue.encounter_id
    ctx = StageContext(gateway=gateway, config=config)
    job = _Job(ctx, dialogue, out_dir / ENCOUNTERS_SUBDIR / encounter_id)
    try:
        job.write("dialogue.json", dialogue.to_json_dict())
        if encounter.reference_note:
            job.write("reference.txt", encounter.reference_note)

        stopped = job.run(encounter_stages(config), stage_pool)
        if stopped is not None:
            stage, exc = stopped
            if isinstance(exc, DialogueTooShort):
                return job.skip(stage, exc)
            return job.fail_on(stage.label or stage.name, exc)
        try:
            return job.report()
        except Exception as exc:
            return job.fail_on("report", exc)
    finally:
        job.flush(writer)


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
    listed with the outcome its directory holds, if it has one.

    One keep rule clears a run: with ``force``, the directory of each
    corpus encounter this call does not run is kept, and its outcome is
    read before anything is deleted; every other entry of ``encounters/``
    is deleted, a symlink unlinked and never followed. So ``encounters/``
    ends holding exactly the directories the manifest lists."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    selected = corpus.subset(only) if only else corpus

    encounters_dir = out_dir / ENCOUNTERS_SUBDIR
    entries = list(encounters_dir.iterdir()) if encounters_dir.exists() else []
    if entries and not force:
        raise FileExistsError(f"{encounters_dir} already has artifacts; pass force to overwrite")
    # Every outcome kept is read before anything is deleted.
    rerun = {encounter.encounter_id for encounter in selected.encounters}
    kept = {
        encounter.encounter_id: read_outcome(enc_dir)
        for encounter in corpus.encounters
        if encounter.encounter_id not in rerun
        and (enc_dir := encounters_dir / encounter.encounter_id).is_dir()
    }
    for entry in entries:
        if entry.name in kept:
            continue
        if entry.is_symlink() or not entry.is_dir():
            entry.unlink()
        else:
            shutil.rmtree(entry)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = utc_now_iso()

    # Every batch is written, or the first write error raised, before
    # the manifest is.
    with _BatchWriter() as writer:
        if workers == 1:
            results = [
                run_encounter(config, gateway, encounter, out_dir, writer=writer)
                for encounter in selected.encounters
            ]
        else:
            # Encounter threads only submit rows to the stage pool and wait
            # on them; rows never wait on the pool, so neither pool can starve.
            # A row makes its model calls one at a time, so the stage pool,
            # a thread per row of each running encounter, is the one bound
            # on calls in flight.
            with ThreadPoolExecutor(max_workers=workers * len(STAGES)) as stage_pool, (
                ThreadPoolExecutor(max_workers=workers)
            ) as encounter_pool:

                def run_next(encounter: Encounter) -> EncounterResult:
                    # After a failed write the run ends without a manifest,
                    # so it starts no more encounters and their model calls.
                    if writer.error is not None:
                        raise writer.error
                    return run_encounter(config, gateway, encounter, out_dir, stage_pool, writer)

                results = list(encounter_pool.map(run_next, selected.encounters))

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
