"""Corpus ingestion and run bookkeeping.

Two corpus formats load through the same door: the canonical JSON layout
this package writes, and CSV exports whose dialogue cells carry
``[speaker]``-prefixed lines (one turn per line) alongside a reference
note column. A JSON corpus decodes through the strict record codec, so a
misspelled key is an error that names the corpus file, not a silently
dropped field; so is an encounter id that cannot name a directory.

A run's bookkeeping is records too: every encounter directory ends in
one outcome marker (``report.json``, ``skip.json`` or ``failure.json``),
:func:`read_outcome` is the one reader of those markers, and the run
manifest lists one :class:`ManifestEntry` per encounter.
"""

import csv
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .datamodel import Dialogue, JsonRecord, OmissionReport, Speaker, Turn, replace
from .jsonutil import read_json, write_json

_SPEAKER_BY_TAG = {
    "doctor": Speaker.DOCTOR,
    "clinician": Speaker.DOCTOR,
    "provider": Speaker.DOCTOR,
    "patient": Speaker.PATIENT,
}


class Provenance(JsonRecord):
    """Where a derived dialogue came from."""

    versioned = False

    original_encounter_id: str
    cut_turn_index: int

    def check(self) -> None:
        if not self.original_encounter_id:
            raise ValueError("original_encounter_id must be non-empty")
        if self.cut_turn_index < 0:
            raise ValueError("cut_turn_index must be non-negative")


class Encounter(JsonRecord):
    versioned = False

    dialogue: Dialogue
    reference_note: Optional[str] = None
    provenance: Optional[Provenance] = None

    def check(self) -> None:
        # The id names the directory encounters/<id> that holds every
        # artifact of the encounter; 255 bytes is a file name's limit.
        encounter_id = self.encounter_id
        if (
            encounter_id in (".", "..")
            or any(c in encounter_id for c in "/\\\0")
            or len(encounter_id.encode("utf-8")) > 255
        ):
            raise ValueError(f"encounter id {encounter_id!r} is not filesystem-safe")

    @property
    def encounter_id(self) -> str:
        return self.dialogue.encounter_id

    derived = ("encounter_id",)


class Corpus(JsonRecord):
    name: str
    encounters: tuple[Encounter, ...]

    def check(self) -> None:
        if not self.name:
            raise ValueError("corpus name must be non-empty")
        if not self.encounters:
            raise ValueError(f"corpus {self.name}: no encounters")
        seen = set()
        for encounter in self.encounters:
            if encounter.encounter_id in seen:
                raise ValueError(
                    f"corpus {self.name}: duplicate encounter id {encounter.encounter_id}"
                )
            seen.add(encounter.encounter_id)

    def __len__(self) -> int:
        return len(self.encounters)

    def get(self, encounter_id: str) -> Encounter:
        for encounter in self.encounters:
            if encounter.encounter_id == encounter_id:
                return encounter
        raise KeyError(f"corpus {self.name} has no encounter {encounter_id}")

    def subset(self, encounter_ids: Sequence[str]) -> "Corpus":
        wanted = list(encounter_ids)
        known = {e.encounter_id for e in self.encounters}
        missing = [i for i in wanted if i not in known]
        if missing:
            raise ValueError(f"corpus {self.name} has no encounters {missing}")
        selected = set(wanted)
        return replace(
            self, encounters=tuple(e for e in self.encounters if e.encounter_id in selected)
        )


def parse_tagged_dialogue(encounter_id: str, text: str) -> Dialogue:
    """Parse ``[speaker] utterance`` lines; untagged lines continue the
    previous turn."""
    tagged: list[tuple[Speaker, list[str]]] = []  # each tag line's speaker and text lines
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ValueError(
                    f"encounter {encounter_id}: unterminated speaker tag in {line!r}"
                )
            speaker = _SPEAKER_BY_TAG.get(line[1:end].strip().lower(), Speaker.OTHER)
            tagged.append((speaker, [line[end + 1 :].strip()]))
        elif tagged:
            tagged[-1][1].append(line)
        else:
            raise ValueError(
                f"encounter {encounter_id}: dialogue does not start with a "
                f"[speaker] tag: {line!r}"
            )
    return Dialogue(
        encounter_id=encounter_id,
        turns=tuple(
            Turn(index, speaker, " ".join(parts).strip())
            for index, (speaker, parts) in enumerate(tagged)
        ),
    )


@contextmanager
def csv_reader(
    path: Path,
) -> Iterator[tuple[Optional[list[str]], Iterator[tuple[int, dict[str, str]]]]]:
    """The header of the CSV file at ``path``, its first record that is not
    a blank line (None when there is none), and its rows, each a dict from
    header names to cells (a short row lacks its last keys) with the line
    the row starts on. A header that names a column twice and a row with
    more cells than the header are refused, and every error names the
    file and line."""
    # utf-8-sig drops the byte-order mark of Excel's "CSV UTF-8" export.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next((record for record in reader if record), None)
            for column in header or ():
                if header.count(column) > 1:
                    raise ValueError(
                        f"{path}:{reader.line_num}: the header names column {column!r} twice"
                    )
            yield header, _csv_rows(path, reader, header or [])
        except csv.Error as exc:
            # Such as a cell over csv.field_size_limit().
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # Raised on the chunk (exc.object) decoded past the reader's last
            # line, so the codec's "position N" is an offset in that chunk,
            # not in the file: name the line and the bytes instead.
            line = reader.line_num + exc.object.count(b"\n", 0, exc.start) + 1
            bad = " ".join(f"0x{byte:02x}" for byte in exc.object[exc.start : exc.end])
            noun = "bytes" if " " in bad else "byte"
            raise ValueError(
                f"{path}:{line}: {exc.encoding!r} codec can't decode {noun} {bad} ({exc.reason})"
            ) from exc


def _csv_rows(path: Path, reader: Any, header: list[str]) -> Iterator[tuple[int, dict[str, str]]]:
    # A quoted cell can span lines, so a row starts one line past where
    # the row before it ended; a blank line is no row.
    start = reader.line_num + 1
    for cells in reader:
        if len(cells) > len(header):
            raise ValueError(
                f"{path}:{start}: {len(cells)} cells, but the header names {len(header)} columns"
            )
        if cells:
            yield start, dict(zip(header, cells))
        start = reader.line_num + 1


def load_csv_corpus(path: Path | str) -> Corpus:
    path = Path(path)
    encounters = []
    with csv_reader(path) as (header, rows):
        required = {"encounter_id", "dialogue"}
        fields = set(header or ())
        if not required <= fields:
            raise ValueError(
                f"{path}: CSV must have columns {sorted(required)}, found {sorted(fields)}"
            )
        for line, row in rows:
            encounter_id = (row.get("encounter_id") or "").strip()
            if not encounter_id:
                raise ValueError(f"{path}:{line}: blank encounter_id")
            note = (row.get("note") or "").strip() or None
            try:
                dialogue = parse_tagged_dialogue(encounter_id, row.get("dialogue") or "")
                encounters.append(Encounter(dialogue=dialogue, reference_note=note))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from exc
    return Corpus(name=path.stem, encounters=tuple(encounters))


def load_corpus(path: Path | str) -> Corpus:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return read_record(path, Corpus)
    if suffix == ".csv":
        return load_csv_corpus(path)
    raise ValueError(f"{path}: unsupported corpus extension {suffix!r} (use .json or .csv)")


def save_corpus(corpus: Corpus, path: Path | str, force: bool = False) -> None:
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} already exists; pass force to overwrite")
    write_json(path, corpus.to_json_dict())


def utc_now_iso() -> str:
    # gmtime() without an argument reads C time(), a coarse clock that can
    # lag time.time() into the previous second.
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time()))


# Each status, and the file that ends an encounter directory with it, in
# the order read_outcome looks for them.
MARKERS = {"ok": "report.json", "skipped": "skip.json", "failed": "failure.json"}
STATUSES = tuple(MARKERS)
OUTCOME_MARKERS = tuple(MARKERS.values())


class ManifestEntry(JsonRecord):
    """One encounter's outcome, as the run manifest lists it."""

    versioned = False

    encounter_id: str
    status: str
    reason: str = ""
    stage: str = ""

    def check(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


class EncounterResult(ManifestEntry):
    """One encounter's outcome, with the report of an ok one."""

    report: Optional[OmissionReport] = None

    def check(self) -> None:
        super().check()
        if (self.status == "ok") != (self.report is not None):
            raise ValueError("exactly the ok results carry a report")


def count_statuses(outcomes: Iterable[ManifestEntry]) -> dict[str, int]:
    counts = dict.fromkeys(STATUSES, 0)
    for outcome in outcomes:
        counts[outcome.status] += 1
    return counts


class SkipMarker(JsonRecord):
    """``skip.json``: the truncation left too few turns to score."""

    versioned = False

    encounter_id: str
    reason: str
    cut_turn_index: int

    @property
    def truncated_turns(self) -> int:
        return self.cut_turn_index + 1

    derived = ("truncated_turns",)


class FailureMarker(JsonRecord):
    """``failure.json``: the stage that stopped the encounter, and why."""

    versioned = False

    encounter_id: str
    stage: str
    message: str
    fingerprint: str
    attempts: int


def read_record(path: Path, cls: type) -> Any:
    """The ``cls`` record decoded from the JSON file at ``path``; a decode
    error names the file."""
    try:
        return cls.from_json_dict(read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_outcome(enc_dir: Path) -> EncounterResult:
    """The outcome of one encounter directory, from its first marker of
    report, skip and failure. A directory with none failed before it
    wrote one."""
    encounter_id = enc_dir.name
    if (path := enc_dir / MARKERS["ok"]).exists():
        return EncounterResult(encounter_id, "ok", report=read_record(path, OmissionReport))
    if (path := enc_dir / MARKERS["skipped"]).exists():
        skip = read_record(path, SkipMarker)
        return EncounterResult(encounter_id, "skipped", reason=skip.reason)
    if (path := enc_dir / MARKERS["failed"]).exists():
        failure = read_record(path, FailureMarker)
        return EncounterResult(encounter_id, "failed", failure.message, failure.stage)
    return EncounterResult(encounter_id, "failed", "no outcome marker in the encounter directory")


class RunManifest(JsonRecord):
    """What a run did: inputs, settings, per-encounter outcomes.

    Timestamps make manifests non-reproducible by design; determinism
    guarantees apply to the encounter artifacts, not to this file.
    """

    corpus_path: str
    out_dir: str
    mode: str
    models: Mapping[str, Optional[str]]
    started_at: str
    finished_at: str
    encounters: tuple[ManifestEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        return count_statuses(self.encounters)

    derived = ("counts",)
