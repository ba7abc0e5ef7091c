"""Seeded inputs for the benchmark, plus the marker scheme that keeps
every generated encounter's model requests distinct.

Each generated encounter is a copy of one of the fixture encounters
(``tests/fixtures/corpus.json``) under a new id, with a marker such as
`` ⟦bench-00017⟧`` appended to its first turn. The simulated model strips
markers before looking a request up in the fixture cassette and puts the
encounter's marker back into the summary's first section and into the
text of fact F0, so every later prompt of that encounter differs from
every other encounter's prompts as well.

Files are written with this module's own JSON code, not through the
package's codecs, so the benchmark keeps working while those change.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Any, Optional

FIXTURE_CORPUS = Path("tests/fixtures/corpus.json")
FIXTURE_CASSETTE = Path("tests/fixtures/cassettes/corpus.jsonl")

# Model ids the fixture cassette was recorded with.
MODELS = {"summary": "summarizer-v1", "metric": "metric-v1", "margin": "margin-v1"}

# Model calls the fixture makes per encounter: 9 chat stages and 4
# completion-margin scores (39 cassette records for 3 encounters).
CHAT_CALLS = 9
CALLS_PER_ENCOUNTER = CHAT_CALLS + 4

MARKER_RE = re.compile(r" ⟦bench-(\d{5})⟧")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def marker(k: int) -> str:
    """The text appended for generated encounter number k, with its
    leading space, so stripping it restores the fixture text exactly."""
    return f" ⟦bench-{k:05d}⟧"


def strip_markers(text: str) -> str:
    return MARKER_RE.sub("", text)


def find_marker(text: str) -> Optional[int]:
    match = MARKER_RE.search(text)
    return int(match.group(1)) if match else None


def generated_id(base_id: str, k: int) -> str:
    return f"{base_id}-b{k:05d}"


def load_fixture_corpus(root: Path) -> dict[str, Any]:
    with open(root / FIXTURE_CORPUS, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, ensure_ascii=False, indent=1, sort_keys=True)


def balanced_bases(rng: random.Random, n: int, n_bases: int) -> list[int]:
    """Base encounter index per generated encounter: each base equally
    often (up to one), in seeded order, so the workload's mix and hence
    its cost does not drift with the seed."""
    bases = [i % n_bases for i in range(n)]
    rng.shuffle(bases)
    return bases


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def note_sentences(fixture: dict[str, Any]) -> list[str]:
    sentences = []
    for encounter in fixture["encounters"]:
        note = encounter.get("reference_note") or ""
        for line in note.splitlines():
            for part in re.split(r"(?<=[.!?])\s+", line.strip()):
                if tokens(part):
                    sentences.append(part)
    return sentences


def reference_note(rng: random.Random, sentences: list[str], n_tokens: int) -> str:
    """Fixture note sentences in seeded order until the note reaches
    n_tokens tokens."""
    picked: list[str] = []
    count = 0
    while count < n_tokens:
        sentence = rng.choice(sentences)
        picked.append(sentence)
        count += len(tokens(sentence))
    return " ".join(picked)


def reference_lengths(rng: random.Random, n: int, low: int = 150, high: int = 600) -> list[int]:
    """n token targets evenly spread over [low, high], in seeded order."""
    if n == 1:
        return [low]
    lengths = [low + round(i * (high - low) / (n - 1)) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def make_corpus(
    root: Path,
    seed: int,
    n: int,
    references: str = "fixture",
) -> tuple[dict[str, Any], dict[str, str]]:
    """A corpus of n marked encounters and the base id of each.

    ``references`` is ``fixture`` (each copy keeps its base encounter's
    note) or ``generated`` (seeded notes of 150 to 600 tokens built from
    fixture note sentences).
    """
    fixture = load_fixture_corpus(root)
    bases = fixture["encounters"]
    rng = random.Random(f"corpus-{seed}")
    order = balanced_bases(rng, n, len(bases))
    sentences = note_sentences(fixture)
    lengths = reference_lengths(random.Random(f"notes-{seed}"), n)
    note_rng = random.Random(f"note-text-{seed}")
    encounters = []
    base_of = {}
    for k, base_index in enumerate(order):
        base = bases[base_index]
        dialogue = json.loads(json.dumps(base["dialogue"]))
        new_id = generated_id(base["encounter_id"], k)
        dialogue["encounter_id"] = new_id
        dialogue["turns"][0]["text"] += marker(k)
        if references == "generated":
            note = reference_note(note_rng, sentences, lengths[k])
        else:
            note = base.get("reference_note")
        encounters.append(
            {
                "encounter_id": new_id,
                "dialogue": dialogue,
                "reference_note": note,
                "provenance": None,
            }
        )
        base_of[new_id] = base["encounter_id"]
    corpus = {
        "schema_version": fixture["schema_version"],
        "name": f"bench-{seed}",
        "encounters": encounters,
    }
    return corpus, base_of


def run_config(base_url: str, cassette: Optional[Path], mode: str) -> dict[str, Any]:
    """A run config that uses only keys planned to stay: the replay
    config names an http backend (never built in replay mode) rather
    than a file-backed mock, and leaves use_stemmer unset."""
    config: dict[str, Any] = {
        "models": dict(MODELS),
        "backend": {"kind": "http", "base_url": base_url, "timeout": 60},
        "mode": mode,
    }
    if cassette is not None:
        config["cassette"] = str(cassette.resolve())
    return config


def repair_ordinal(seed: int, k: int) -> Optional[int]:
    """Which first-attempt chat request (0-8, in arrival order) of
    encounter k the simulated model answers without a fenced block, or
    None. Exactly one encounter of each pair (2j, 2j + 1) gets one, so a
    corpus of an even number n of encounters carries n / 2 repairs
    whatever the seed."""
    rng = random.Random(f"repair-{seed}-{k // 2}")
    chosen = rng.randrange(2)
    ordinal = rng.randrange(CHAT_CALLS)
    return ordinal if k % 2 == chosen else None
