"""Output checks, run outside the timed region on every repeat.

* ``run`` workloads: every generated encounter has a ``report.json`` that
  equals its base fixture encounter's report once the generated id and
  the marker are mapped back.
* ``live_http``: the simulated model saw exactly ``CALLS_PER_ENCOUNTER``
  calls per encounter plus the format errors it injected.
* ``compare``: the correlation rows match a reference computed here with
  a plain ROUGE and ``scipy.stats``, within ``TOLERANCE``.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Any, Optional

import gen

# Largest absolute difference allowed between a correlation or p-value
# printed by ``factgap compare`` and the reference computed here.
TOLERANCE = 1e-6

ROUGE_VARIANTS = ("rouge1", "rouge2", "rougeL", "rougeLsum")
SUMMARY_SECTIONS = (
    ("chief_complaint", "CHIEF COMPLAINT"),
    ("history_of_present_illness", "HISTORY OF PRESENT ILLNESS"),
    ("past_social_history", "PAST SOCIAL HISTORY"),
)
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")


def read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def map_back(value: Any, generated: str, base: str) -> Any:
    """value with the generated encounter id replaced by its base id and
    every marker removed."""
    if isinstance(value, str):
        return gen.strip_markers(value.replace(generated, base))
    if isinstance(value, list):
        return [map_back(v, generated, base) for v in value]
    if isinstance(value, dict):
        return {map_back(k, generated, base): map_back(v, generated, base) for k, v in value.items()}
    return value


def check_reports(
    out_dir: Path, base_of: dict[str, str], base_reports: dict[str, Any]
) -> list[str]:
    """Generated encounters whose report is missing or differs from
    their base encounter's report."""
    failed = []
    for encounter_id, base_id in base_of.items():
        path = out_dir / "encounters" / encounter_id / "report.json"
        try:
            report = read_json(path)
        except (OSError, ValueError):
            failed.append(encounter_id)
            continue
        if map_back(report, encounter_id, base_id) != base_reports[base_id]:
            failed.append(encounter_id)
    return failed


def check_calls(
    records: list[dict[str, Any]], markers: dict[str, int], repair_seed: int
) -> list[str]:
    """Encounters whose model traffic differs from the fixture's calls
    plus the injected format errors, or that got a failed reply."""
    calls: Counter = Counter()
    bad: set[Optional[int]] = set()
    for record in records:
        calls[record["marker"]] += 1
        if record["status"] != 200:
            bad.add(record["marker"])
    return [
        encounter_id
        for encounter_id, k in markers.items()
        if calls[k] != _expected_calls(k, repair_seed) or k in bad
    ]


def _expected_calls(k: int, repair_seed: int) -> int:
    return gen.CALLS_PER_ENCOUNTER + (gen.repair_ordinal(repair_seed, k) is not None)


def expected_calls(markers: dict[str, int], repair_seed: int) -> int:
    return sum(_expected_calls(k, repair_seed) for k in markers.values())


# --- a plain ROUGE and correlation reference for ``compare`` -------------


def summary_text(summary: dict[str, Any]) -> str:
    parts = []
    for key, title in SUMMARY_SECTIONS:
        body = summary["sections"].get(key, "").strip()
        if body:
            parts.append(f"{title}:\n{body}")
    return "\n\n".join(parts)


def sentences(text: str) -> list[list[str]]:
    result = []
    for line in text.splitlines():
        for chunk in _SENTENCE_SPLIT_RE.split(line):
            words = gen.tokens(chunk)
            if words:
                result.append(words)
    return result


def _f1(overlap: int, cand_total: int, ref_total: int) -> float:
    if not cand_total or not ref_total or not overlap:
        return 0.0
    precision, recall = overlap / cand_total, overlap / ref_total
    return 2 * precision * recall / (precision + recall)


def _lcs_rows(a: list[str], b: list[str]) -> list[list[int]]:
    """LCS table of a against b, built one row at a time: a row is the
    running maximum of the row above, with each match position taking
    its upper-left neighbour plus one."""
    rows = [[0] * (len(b) + 1)]
    for token in a:
        above = rows[-1]
        row = [0]
        best = 0
        for j, other in enumerate(b, start=1):
            best = max(best, above[j - 1] + 1 if token == other else above[j])
            row.append(best)
        rows.append(row)
    return rows


def _lcs_positions(ref: list[str], cand: list[str]) -> set[int]:
    """Reference positions on one LCS path, moving up on ties."""
    table = _lcs_rows(ref, cand)
    positions = set()
    i, j = len(ref), len(cand)
    while i and j:
        if ref[i - 1] == cand[j - 1]:
            positions.add(i - 1)
            i, j = i - 1, j - 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return positions


def rouge_f1(candidate: str, reference: str) -> dict[str, float]:
    cand, ref = gen.tokens(candidate), gen.tokens(reference)
    scores = {}
    for n, name in ((1, "rouge1"), (2, "rouge2")):
        c = Counter(zip(*(cand[i:] for i in range(n))))
        r = Counter(zip(*(ref[i:] for i in range(n))))
        scores[name] = _f1(sum((c & r).values()), sum(c.values()), sum(r.values()))
    lcs = _lcs_rows(cand, ref)[-1][-1] if cand and ref else 0
    scores["rougeL"] = _f1(lcs, len(cand), len(ref))
    cand_sents, ref_sents = sentences(candidate), sentences(reference)
    cand_left = Counter(t for s in cand_sents for t in s)
    ref_left = Counter(t for s in ref_sents for t in s)
    hits = 0
    for ref_sent in ref_sents:
        union: set[int] = set()
        for cand_sent in cand_sents:
            union |= _lcs_positions(ref_sent, cand_sent)
        for token in (ref_sent[i] for i in union):
            if cand_left[token] > 0 and ref_left[token] > 0:
                hits += 1
                cand_left[token] -= 1
                ref_left[token] -= 1
    scores["rougeLsum"] = _f1(
        hits, sum(len(s) for s in cand_sents), sum(len(s) for s in ref_sents)
    )
    return scores


def reference_correlations(run_dir: Path) -> list[dict[str, Any]]:
    """What ``factgap compare --run run_dir --json`` should print, as its
    ``targets`` list, computed without the package."""
    import scipy.stats

    targets: dict[str, dict[str, float]] = {
        "omission_count": {},
        "omission_weight": {},
        "margin_ratio": {},
    }
    rouge: dict[str, dict[str, float]] = {name: {} for name in ROUGE_VARIANTS}
    for enc_dir in sorted(p for p in (run_dir / "encounters").iterdir() if p.is_dir()):
        report = read_json(enc_dir / "report.json")
        encounter_id = enc_dir.name
        targets["omission_count"][encounter_id] = float(report["omission_count"])
        targets["omission_weight"][encounter_id] = report["cumulative_weight"]
        margin = report.get("margin")
        if margin and margin.get("ratio") is not None:
            targets["margin_ratio"][encounter_id] = margin["ratio"]
        candidate = summary_text(read_json(enc_dir / "summary.json"))
        reference = (enc_dir / "reference.txt").read_text(encoding="utf-8")
        for name, value in rouge_f1(candidate, reference).items():
            rouge[name][encounter_id] = value
    result = []
    for target, values in targets.items():
        if not values:
            continue
        rows = []
        for name in ROUGE_VARIANTS:
            shared = sorted(set(values) & set(rouge[name]))
            x = [values[k] for k in shared]
            y = [rouge[name][k] for k in shared]
            s = scipy.stats.spearmanr(x, y)
            p = scipy.stats.pearsonr(x, y)
            rows.append(
                {
                    "metric_name": name,
                    "n": len(shared),
                    "spearman_r": float(s.statistic),
                    "spearman_p": float(s.pvalue),
                    "pearson_r": float(p.statistic),
                    "pearson_p": float(p.pvalue),
                }
            )
        result.append({"target": target, "skipped_reason": None, "rows": rows})
    return result


def check_compare(stdout: str, expected: list[dict[str, Any]]) -> bool:
    try:
        targets = json.loads(stdout)["targets"]
    except (ValueError, KeyError, TypeError):
        return False
    if [t.get("target") for t in targets] != [t["target"] for t in expected]:
        return False
    for got, want in zip(targets, expected):
        if got.get("skipped_reason") is not None or not isinstance(got.get("rows"), list):
            return False
        if len(got["rows"]) != len(want["rows"]):
            return False
        for row, ref in zip(got["rows"], want["rows"]):
            if row.get("metric_name") != ref["metric_name"] or row.get("n") != ref["n"]:
                return False
            for key in ("spearman_r", "spearman_p", "pearson_r", "pearson_p"):
                value = row.get(key)
                if not isinstance(value, (int, float)) or not math.isclose(
                    value, ref[key], rel_tol=0.0, abs_tol=TOLERANCE
                ):
                    return False
    return True
