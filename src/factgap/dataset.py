"""Corpus ingestion and run bookkeeping.

Two corpus formats load through the same door: the canonical JSON layout
this package writes, and CSV exports whose dialogue cells carry
``[speaker]``-prefixed lines (one turn per line) alongside a reference
note column. A JSON corpus decodes through the strict record codec, so a
misspelled key is an error that names the corpus file, not a silently
dropped field.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .datamodel import SCHEMA_VERSION, Dialogue, JsonRecord, Speaker, Turn
from .jsonutil import read_json, write_json

_SPEAKER_BY_TAG = {
    "doctor": Speaker.DOCTOR,
    "clinician": Speaker.DOCTOR,
    "provider": Speaker.DOCTOR,
    "patient": Speaker.PATIENT,
}


@dataclass(frozen=True)
class Provenance(JsonRecord):
    """Where a derived dialogue came from."""

    versioned = False

    original_encounter_id: str
    cut_turn_index: int

    def __post_init__(self) -> None:
        if not self.original_encounter_id:
            raise ValueError("original_encounter_id must be non-empty")
        if self.cut_turn_index < 0:
            raise ValueError("cut_turn_index must be non-negative")


@dataclass(frozen=True)
class Encounter(JsonRecord):
    versioned = False

    dialogue: Dialogue
    reference_note: Optional[str] = None
    provenance: Optional[Provenance] = None

    @property
    def encounter_id(self) -> str:
        return self.dialogue.encounter_id

    def to_json_dict(self) -> dict[str, Any]:
        return {"encounter_id": self.encounter_id, **super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "Encounter":
        # The derived encounter_id is optional on read, and must match the dialogue's.
        outer_id = data.get("encounter_id") if isinstance(data, dict) else None
        if outer_id is not None:
            data = {key: value for key, value in data.items() if key != "encounter_id"}
        encounter = super().from_json_dict(data)
        if outer_id not in (None, encounter.encounter_id):
            raise ValueError(f"Encounter: encounter_id {outer_id!r} is not the dialogue's")
        return encounter


@dataclass(frozen=True)
class Corpus(JsonRecord):
    name: str
    encounters: tuple[Encounter, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("corpus name must be non-empty")
        object.__setattr__(self, "encounters", tuple(self.encounters))
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
            raise KeyError(f"corpus {self.name} has no encounters {missing}")
        selected = set(wanted)
        return Corpus(
            name=self.name,
            encounters=tuple(e for e in self.encounters if e.encounter_id in selected),
        )


def parse_tagged_dialogue(encounter_id: str, text: str) -> Dialogue:
    """Parse ``[speaker] utterance`` lines; untagged lines continue the
    previous turn."""
    turns: list[Turn] = []
    pending_speaker: Optional[Speaker] = None
    pending_text: list[str] = []

    def flush() -> None:
        nonlocal pending_speaker, pending_text
        if pending_speaker is not None:
            body = " ".join(part for part in pending_text if part).strip()
            if not body:
                raise ValueError(
                    f"encounter {encounter_id}: turn {len(turns)} has no text"
                )
            turns.append(Turn(index=len(turns), speaker=pending_speaker, text=body))
        pending_speaker = None
        pending_text = []

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
            tag = line[1:end].strip().lower()
            flush()
            pending_speaker = _SPEAKER_BY_TAG.get(tag, Speaker.OTHER)
            pending_text = [line[end + 1 :].strip()]
        else:
            if pending_speaker is None:
                raise ValueError(
                    f"encounter {encounter_id}: dialogue does not start with a "
                    f"[speaker] tag: {line!r}"
                )
            pending_text.append(line)
    flush()
    if not turns:
        raise ValueError(f"encounter {encounter_id}: empty dialogue")
    return Dialogue(encounter_id=encounter_id, turns=tuple(turns))


def load_csv_corpus(path: Path | str, name: Optional[str] = None) -> Corpus:
    path = Path(path)
    encounters = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"encounter_id", "dialogue"}
        fields = set(reader.fieldnames or ())
        if not required <= fields:
            raise ValueError(
                f"{path}: CSV must have columns {sorted(required)}, found {sorted(fields)}"
            )
        for row_no, row in enumerate(reader, start=2):
            encounter_id = (row.get("encounter_id") or "").strip()
            if not encounter_id:
                raise ValueError(f"{path}:{row_no}: blank encounter_id")
            dialogue = parse_tagged_dialogue(encounter_id, row.get("dialogue") or "")
            note = (row.get("note") or "").strip() or None
            encounters.append(Encounter(dialogue=dialogue, reference_note=note))
    return Corpus(name=name or path.stem, encounters=tuple(encounters))


def load_json_corpus(path: Path | str) -> Corpus:
    try:
        return Corpus.from_json_dict(read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_corpus(path: Path | str) -> Corpus:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return load_json_corpus(path)
    if suffix == ".csv":
        return load_csv_corpus(path)
    raise ValueError(f"{path}: unsupported corpus extension {suffix!r} (use .json or .csv)")


def save_corpus(corpus: Corpus, path: Path | str, force: bool = False) -> None:
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} already exists; pass force to overwrite")
    write_json(path, corpus.to_json_dict())


def _utc_now_iso() -> str:
    return _dt.datetime.now(tz=_dt.timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """What a run did: inputs, settings, per-encounter outcomes.

    Timestamps make manifests non-reproducible by design; determinism
    guarantees apply to the encounter artifacts, not to this file.
    """

    corpus_path: str
    out_dir: str
    mode: str
    models: dict[str, Optional[str]]
    started_at: str = field(default_factory=_utc_now_iso)
    finished_at: str = ""
    encounters: list[dict[str, str]] = field(default_factory=list)

    def record(self, encounter_id: str, status: str, reason: str = "", stage: str = "") -> None:
        if status not in ("ok", "skipped", "failed"):
            raise ValueError(f"unknown status {status!r}")
        self.encounters.append(
            {"encounter_id": encounter_id, "status": status, "reason": reason, "stage": stage}
        )

    def finish(self) -> None:
        self.finished_at = _utc_now_iso()

    def counts(self) -> dict[str, int]:
        result = {"ok": 0, "skipped": 0, "failed": 0}
        for entry in self.encounters:
            result[entry["status"]] += 1
        return result

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "corpus_path": self.corpus_path,
            "out_dir": self.out_dir,
            "mode": self.mode,
            "models": self.models,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "encounters": self.encounters,
            "counts": self.counts(),
        }

    def write(self, path: Path | str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def read(cls, path: Path | str) -> "RunManifest":
        data = read_json(path)
        manifest = cls(
            corpus_path=data["corpus_path"],
            out_dir=data["out_dir"],
            mode=data["mode"],
            models=data["models"],
            started_at=data["started_at"],
            finished_at=data["finished_at"],
        )
        for entry in data["encounters"]:
            manifest.record(
                entry["encounter_id"], entry["status"], entry.get("reason", ""), entry.get("stage", "")
            )
        return manifest
