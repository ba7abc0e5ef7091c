"""How a run writes its artifacts: one ordered batch per encounter with
the outcome marker last, mode 0600 files, a bounded writer queue, batches
many pipe buffers long, write errors (even one pickle cannot send) and
dead writers that stop the run before its manifest and before another
encounter starts, writer processes forked before the run starts a
thread and run under ``SCHED_BATCH`` where they may, writers that
outlive neither an interrupt nor a killed run, and files that a failed
encode or write leaves unmade.

The writers are forked processes, so what they do is observed through
what crosses a fork: a log file, a ``multiprocessing`` event, and the
run's waits on its batches in the test process."""

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from factgap.cli import main
from factgap.config import build_gateway, load_config
from factgap.datamodel import replace
from factgap.dataset import OUTCOME_MARKERS, Corpus, load_corpus
from factgap.jsonutil import write_json, write_text
from factgap.pipeline import runner
from factgap.pipeline.runner import ENCOUNTERS_SUBDIR, MANIFEST_NAME, run_corpus

from test_acceptance import _replay_run_config
from test_stage_graph import FIXTURE_TREE_SHA256, tree_digest

FIXTURES = Path(__file__).parent / "fixtures"
REPLAY_CONFIG = FIXTURES / "replay_config.json"
CORPUS = FIXTURES / "corpus.json"

# (config, corpus, encounters run) for a run that ends each way.
RUNS = {
    "ok": (REPLAY_CONFIG, CORPUS, None),
    "failed": (
        FIXTURES / "cassettes" / "malformed_facts_gapped.jsonl",
        CORPUS,
        ["enc-edward"],
    ),
    "skipped": (
        FIXTURES / "cassettes" / "truncation.jsonl",
        FIXTURES / "truncation_corpus.json",
        ["trunc-6"],
    ),
}


def fixture_run(out_dir, outcome, workers):
    config_source, corpus_path, only = RUNS[outcome]
    if config_source.suffix == ".json":
        config = load_config(config_source)
    else:
        config = _replay_run_config(config_source)
    corpus = load_corpus(corpus_path)
    return run_corpus(
        config, build_gateway(config), corpus, "corpus.json", out_dir, workers=workers, only=only
    )


def record_writes(monkeypatch, log_path):
    """Appends (directory, name, atomic) to ``log_path`` for every
    ``write_json`` of the runner, in whichever process makes it."""
    write_json = runner.write_json

    def recording(path, obj, atomic=True):
        # One short O_APPEND write per line, so lines from two writers
        # never mix.
        with open(log_path, "a", encoding="utf-8") as log:
            log.write(f"{path.parent.name}\t{path.name}\t{int(atomic)}\n")
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", recording)


def recorded_writes(log_path):
    lines = log_path.read_text(encoding="utf-8").splitlines()
    return [(directory, name, atomic == "1") for directory, name, atomic in map(str.split, lines)]


@pytest.mark.parametrize("outcome", sorted(RUNS))
def test_each_encounter_writes_its_marker_last_and_only_it_atomically(
    tmp_path, monkeypatch, outcome
):
    orders = {}
    for workers in (1, 3):
        log_path = tmp_path / f"writes-w{workers}.log"
        out_dir = tmp_path / f"w{workers}"
        with monkeypatch.context() as patch:
            record_writes(patch, log_path)
            _, results = fixture_run(out_dir, outcome, workers)
        writes = recorded_writes(log_path)
        assert {r.status for r in results} == {outcome}
        assert writes[-1] == (out_dir.name, MANIFEST_NAME, True)

        by_encounter = defaultdict(list)
        for directory, name, atomic in writes[:-1]:
            by_encounter[directory].append((name, atomic))
        assert sorted(by_encounter) == sorted(r.encounter_id for r in results)
        for encounter_writes in by_encounter.values():
            names = [name for name, _ in encounter_writes]
            assert names[-1] in OUTCOME_MARKERS
            assert names[-2] == "stages.json"
            atomic = [atomic for _, atomic in encounter_writes]
            assert atomic == [False] * (len(names) - 1) + [True]
        orders[workers] = dict(by_encounter)
    # The same order at any worker count.
    assert orders[1] == orders[3]


@pytest.mark.parametrize("workers", [1, 3])
def test_every_file_of_a_run_is_private(tmp_path, workers):
    fixture_run(tmp_path, "ok", workers)
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert {path.name for path in files} >= {"manifest.json", "reference.txt", "report.json"}
    modes = {path: path.stat().st_mode & 0o777 for path in files}
    assert modes == dict.fromkeys(files, 0o600)


def rekeyed_fixture_corpus(copies):
    corpus = load_corpus(CORPUS)
    return Corpus(
        name=corpus.name,
        encounters=tuple(
            replace(
                encounter,
                dialogue=replace(encounter.dialogue, encounter_id=f"{encounter.encounter_id}-{k}"),
            )
            for k in range(copies)
            for encounter in corpus.encounters
        ),
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_no_more_than_four_batches_wait_for_the_writers(tmp_path, monkeypatch, workers):
    corpus = rekeyed_fixture_corpus(3)
    # Created before the run, so the forked writers share it.
    release = multiprocessing.get_context("fork").Event()
    returned, written = [], []
    pending = []
    blocked = {}

    write_json = runner.write_json

    def blocking_write_json(path, obj, atomic=True):
        assert release.wait(timeout=60)
        write_json(path, obj, atomic=atomic)

    wait_oldest = runner._BatchWriter._wait_oldest

    def counting_wait_oldest(writer):
        wait_oldest(writer)
        written.append(None)

    run_encounter = runner.run_encounter

    def counting_run_encounter(*args, **kwargs):
        result = run_encounter(*args, **kwargs)
        returned.append(result.encounter_id)
        # Batches finish writing before they give up their place.
        pending.append(len(returned) - len(written))
        return result

    def watch():
        deadline = time.monotonic() + 30
        while len(returned) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)
        blocked.update(returned=len(returned), written=len(written))
        release.set()

    watcher = threading.Thread(target=watch)
    enter = runner._BatchWriter.__enter__

    def watching_enter(writer):
        # The writers have forked by now; the watcher is no thread of theirs.
        watcher.start()
        return enter(writer)

    monkeypatch.setattr(runner, "write_json", blocking_write_json)
    monkeypatch.setattr(runner._BatchWriter, "_wait_oldest", counting_wait_oldest)
    monkeypatch.setattr(runner._BatchWriter, "__enter__", watching_enter)
    monkeypatch.setattr(runner, "run_encounter", counting_run_encounter)

    config = load_config(REPLAY_CONFIG)
    # Frequent thread switches shake out a lost update of the writer's count.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_corpus(
            config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=workers
        )[1]
    finally:
        release.set()
        if watcher.ident is not None:
            watcher.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    # While writes were blocked, four batches waited, and the run with them.
    assert blocked == {"returned": 4, "written": 0}
    assert [r.status for r in results] == ["ok"] * len(corpus)
    assert max(pending) == 4
    # Every batch was written in the end.
    assert len(written) == len(corpus)
    encounters_dir = tmp_path / ENCOUNTERS_SUBDIR
    for encounter in corpus.encounters:
        assert (encounters_dir / encounter.encounter_id / "report.json").is_file()


def failing_write_json(monkeypatch, failing, error=OSError):
    """Makes the write of ``failing`` raise ``error`` as a full disk would."""
    write_json = runner.write_json

    def full_disk_write_json(path, obj, atomic=True):
        if path == failing:
            raise error(errno.ENOSPC, "No space left on device", str(path))
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", full_disk_write_json)


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_failed_artifact_write_stops_the_run_before_its_manifest(
    tmp_path, monkeypatch, capsys, workers
):
    failing = tmp_path / "out" / ENCOUNTERS_SUBDIR / "enc-stephanie" / "facts.json"
    failing_write_json(monkeypatch, failing)
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(tmp_path / "out"),
            "--workers",
            workers,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert str(failing) in captured.err
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()
    # The encounter's directory stops before its failed write: no marker.
    enc_dir = failing.parent
    assert not any((enc_dir / name).exists() for name in OUTCOME_MARKERS)
    assert not failing.exists()


@pytest.mark.parametrize("workers", [1, 3])
def test_no_encounter_starts_once_a_failed_write_has_reached_the_run(
    tmp_path, monkeypatch, workers
):
    corpus = rekeyed_fixture_corpus(10)
    failing = tmp_path / ENCOUNTERS_SUBDIR / corpus.encounters[1].encounter_id / "facts.json"
    failing_write_json(monkeypatch, failing)
    started, reached = [], []

    run_encounter = runner.run_encounter

    def counting_run_encounter(config, gateway, encounter, *args, **kwargs):
        started.append(None)
        if encounter is corpus.encounters[0]:
            # The run collects its results in corpus order, so it waits
            # here while the other encounter threads go on.
            time.sleep(0.5)
        return run_encounter(config, gateway, encounter, *args, **kwargs)

    wait_oldest = runner._BatchWriter._wait_oldest

    def watching_wait_oldest(writer):
        try:
            wait_oldest(writer)
        except OSError:
            reached.append(len(started))
            raise

    monkeypatch.setattr(runner, "run_encounter", counting_run_encounter)
    monkeypatch.setattr(runner._BatchWriter, "_wait_oldest", watching_wait_oldest)
    config = load_config(REPLAY_CONFIG)
    with pytest.raises(OSError) as caught:
        run_corpus(config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=workers)
    assert str(failing) in str(caught.value)
    assert len(reached) == 1
    # Only an encounter thread already past its check may still start one.
    assert len(started) - reached[0] <= workers - 1, (started, reached)
    assert not (tmp_path / MANIFEST_NAME).exists()


@pytest.mark.parametrize("workers", [1, 3])
def test_a_batch_many_pipe_buffers_long_is_written_byte_for_byte(tmp_path, workers):
    corpus = load_corpus(CORPUS)
    # 2 MiB and more of reference note, where a pipe buffers 64 KiB.
    note = "".join(f"line {i}: a note\u00e9 long enough\n" for i in range(80_000))
    assert len(note.encode("utf-8")) > 2 << 20
    first = replace(corpus.encounters[0], reference_note=note)
    corpus = Corpus(name=corpus.name, encounters=(first, *corpus.encounters[1:]))
    config = load_config(REPLAY_CONFIG)
    _, results = run_corpus(
        config, build_gateway(config), corpus, "corpus.json", tmp_path, workers=workers
    )
    assert [r.status for r in results] == ["ok"] * len(corpus)
    written = tmp_path / ENCOUNTERS_SUBDIR / first.dialogue.encounter_id / "reference.txt"
    assert written.read_bytes() == note.encode("utf-8")


@pytest.mark.parametrize("workers", [1, 3])
def test_a_write_error_that_cannot_be_pickled_still_stops_the_run(
    tmp_path, monkeypatch, workers
):
    class LocalError(OSError):
        """Pickle finds no class by this name, so it cannot send one."""

    failing = tmp_path / ENCOUNTERS_SUBDIR / "enc-stephanie" / "facts.json"
    failing_write_json(monkeypatch, failing, LocalError)
    with pytest.raises(OSError) as caught:
        fixture_run(tmp_path, "ok", workers)
    message = str(caught.value)
    assert message.startswith(f"writing {failing.parent}: LocalError: "), message
    assert "No space left on device" in message
    assert not (tmp_path / MANIFEST_NAME).exists()


def kill_the_writer_at(monkeypatch, killed_at):
    """Makes the writer that writes ``killed_at`` SIGKILL itself first."""
    write_json = runner.write_json
    test_process = os.getpid()

    def killing_write_json(path, obj, atomic=True):
        if path == killed_at and os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
        write_json(path, obj, atomic=atomic)

    monkeypatch.setattr(runner, "write_json", killing_write_json)


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_killed_writer_stops_the_run_with_an_error_and_no_manifest(
    tmp_path, monkeypatch, capsys, workers
):
    killed_at = tmp_path / "out" / ENCOUNTERS_SUBDIR / "enc-stephanie" / "facts.json"
    kill_the_writer_at(monkeypatch, killed_at)
    code = main(
        [
            "run",
            "--config",
            str(REPLAY_CONFIG),
            "--corpus",
            str(CORPUS),
            "--out",
            str(tmp_path / "out"),
            "--workers",
            workers,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    # A dead writer fails every pending batch, so any of them may be named.
    encounters_dir = tmp_path / "out" / ENCOUNTERS_SUBDIR
    assert any(
        f"writing {encounters_dir / encounter.encounter_id}:" in captured.err
        for encounter in load_corpus(CORPUS).encounters
    ), captured.err
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()
    enc_dir = killed_at.parent
    assert not any((enc_dir / name).exists() for name in OUTCOME_MARKERS)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_killed_writer_reaches_run_corpus_as_an_os_error_naming_a_batch(
    tmp_path, monkeypatch, workers
):
    encounters_dir = tmp_path / ENCOUNTERS_SUBDIR
    kill_the_writer_at(monkeypatch, encounters_dir / "enc-stephanie" / "facts.json")
    with pytest.raises(OSError) as caught:
        fixture_run(tmp_path, "ok", workers)
    # A dead writer fails every pending batch, so any of them may be named.
    assert any(
        str(caught.value).startswith(f"writing {encounters_dir / encounter.encounter_id}: ")
        for encounter in load_corpus(CORPUS).encounters
    ), caught.value
    assert not (tmp_path / MANIFEST_NAME).exists()


def running(pid):
    """Whether process ``pid`` runs; one that exited unreaped is a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def run_signalled(tmp_path, signal_call, corpus):
    """Runs ``factgap run`` over ``corpus`` in a child process of its own
    session. The writer that writes the first encounter's first file
    evaluates ``signal_call``, with ``run_process`` the pid of the run's
    process. Returns the run's exit code, its stderr, and the pids of
    the writers it forked."""
    script = (
        "import os, signal, sys\n"
        "from factgap.cli import main\n"
        "from factgap.pipeline import runner\n"
        "run_process, fork, write_json = os.getpid(), os.fork, runner.write_json\n"
        "first = os.path.join(sys.argv[3], 'encounters', sys.argv[2], 'dialogue.json')\n"
        "def recording_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        with open(sys.argv[1], 'a') as pids:\n"
        "            pids.write(f'{pid}\\n')\n"
        "    return pid\n"
        "def signalling_write_json(path, obj, atomic=True):\n"
        "    if str(path) == first and os.getpid() != run_process:\n"
        f"        {signal_call}\n"
        "    write_json(path, obj, atomic=atomic)\n"
        "os.fork, runner.write_json = recording_fork, signalling_write_json\n"
        "main(['run', '--config', sys.argv[4], '--corpus', sys.argv[5], '--out', sys.argv[3]])\n"
    )
    corpus_path = tmp_path / "corpus.json"
    write_json(corpus_path, corpus.to_json_dict())
    pids_path = tmp_path / "writers.txt"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [str(pids_path), corpus.encounters[0].encounter_id, str(tmp_path / "out")]
    argv += [str(REPLAY_CONFIG), str(corpus_path)]
    # Output goes to a file: a pipe would stay open as long as any writer.
    with open(tmp_path / "stderr.txt", "w") as stderr:
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=env,
            timeout=60,
            start_new_session=True,
        )
    writers = [int(pid) for pid in pids_path.read_text().split()]
    assert len(writers) == runner.WRITER_PROCESSES
    try:
        deadline = time.monotonic() + 10
        while any(map(running, writers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, writers))
    finally:
        for pid in filter(running, writers):
            os.kill(pid, signal.SIGKILL)
    return result.returncode, (tmp_path / "stderr.txt").read_text()


def test_the_writers_exit_when_the_run_is_killed(tmp_path):
    code, stderr = run_signalled(
        tmp_path, "os.kill(run_process, signal.SIGKILL)", load_corpus(CORPUS)
    )
    assert code == -signal.SIGKILL, stderr
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


def test_an_interrupted_run_still_writes_every_batch_it_handed_over(tmp_path):
    # SIGINT to the whole session, as Ctrl-C sends it to a terminal's
    # foreground group. The writers ignore it and finish their batches.
    corpus = rekeyed_fixture_corpus(10)
    code, stderr = run_signalled(tmp_path, "os.killpg(0, signal.SIGINT)", corpus)
    assert code == -signal.SIGINT, stderr
    assert stderr.count("Traceback") == 1
    first = tmp_path / "out" / ENCOUNTERS_SUBDIR / corpus.encounters[0].encounter_id
    assert any((first / name).exists() for name in OUTCOME_MARKERS)
    assert not (tmp_path / "out" / MANIFEST_NAME).exists()


def test_the_writers_fork_before_the_run_starts_a_thread(tmp_path, monkeypatch):
    fork = os.fork
    threads_at_fork = []

    def counting_fork():
        threads_at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        # Python 3.12 and later warn when a process with threads forks.
        warnings.simplefilter("always", DeprecationWarning)
        code = main(
            [
                "run",
                "--config",
                str(REPLAY_CONFIG),
                "--corpus",
                str(CORPUS),
                "--out",
                str(tmp_path / "out"),
                "--workers",
                "3",
            ]
        )
    assert code == 0
    assert threads_at_fork == [threads] * runner.WRITER_PROCESSES
    assert [str(w.message) for w in caught if "use of fork()" in str(w.message)] == []


def writer_policies(tmp_path):
    """The scheduling policy of each writer of a ``_BatchWriter``, read
    once every writer has answered a batch, so once each has started."""
    with runner._BatchWriter() as writer:
        for k in range(runner.WRITER_PROCESSES):
            writer.submit(tmp_path / f"batch-{k}", [])
        while writer._pending:
            writer._wait_oldest()
        return [os.sched_getscheduler(w.pid) for w in writer._writers]


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="scheduling policies are Linux's"
)


@linux_only
def test_every_writer_runs_under_sched_batch(tmp_path):
    assert writer_policies(tmp_path) == [os.SCHED_BATCH] * runner.WRITER_PROCESSES


@linux_only
@pytest.mark.parametrize("workers", [1, 3])
def test_writers_refused_sched_batch_still_write_the_pinned_tree(tmp_path, monkeypatch, workers):
    def refuse(*args):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setscheduler", refuse)
    assert writer_policies(tmp_path / "probe") == [os.SCHED_OTHER] * runner.WRITER_PROCESSES
    _, results = fixture_run(tmp_path / "out", "ok", workers)
    assert [r.status for r in results] == ["ok"] * len(results)
    assert tree_digest(tmp_path / "out" / ENCOUNTERS_SUBDIR) == FIXTURE_TREE_SHA256


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(write_text, id="write_text"),
        pytest.param(lambda path, text: write_json(path, {"text": text}), id="atomic-json"),
        pytest.param(lambda path, text: write_json(path, [text], atomic=False), id="json"),
    ],
)
def test_text_that_utf8_cannot_encode_creates_no_file(tmp_path, write):
    with pytest.raises(UnicodeEncodeError):
        write(tmp_path / "reply.txt", "half an emoji \ud83d")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", ["write", "rename"])
def test_a_failed_atomic_write_json_leaves_no_temp_file(tmp_path, monkeypatch, step):
    target = tmp_path / "report.json"
    if step == "write":

        def full_disk(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", full_disk)
    else:
        # A rename onto a directory that is not empty fails.
        target.mkdir()
        (target / "kept").touch()
    with pytest.raises(OSError):
        write_json(target, {"a": 1})
    monkeypatch.undo()
    left = ["report.json"] if step == "rename" else []
    assert [path.name for path in tmp_path.iterdir()] == left
