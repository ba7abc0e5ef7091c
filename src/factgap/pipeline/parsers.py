"""Parsers for structured model replies.

Every stage demands one fenced code block; prose around it is tolerated
and the last block wins. Inside the block the format is strict: any
violation raises ParseError with a message precise enough to be quoted
back to the model in a repair round.

Summaries, importance categories and each diagnosis's evidence groups
are sectioned replies, ``HEADER:`` lines each followed by its section;
one scan, ``_headed_sections``, splits all three. Facts and omissions
are ``F<n>: …`` lines, which one reader, ``_fact_line``, splits.

Records own their field rules, such as blank text, a differential's
limit of 10 entries, its ranks and its repeated names, and a subcluster's
repeated members. A parser builds each record through ``_built``, which
turns the record's refusal into a ParseError, and owns only line syntax
and the list rules no record holds, such as contiguous or known fact ids.
"""

import re
from typing import Any, Callable, Sequence, TypeVar

from ..datamodel import (
    SECTION_TITLES,
    SUMMARY_SECTIONS,
    ClusterGroup,
    ContentCategory,
    DdxSource,
    Diagnosis,
    DifferentialDiagnosis,
    EvidenceClustering,
    Fact,
    Importance,
    Likelihood,
    Omission,
    Polarity,
    SubCluster,
    Summary,
    parse_fact_id,
    replace,
)


class ParseError(ValueError):
    """A format violation in a model reply; the message is shown to the
    model verbatim when asking for a repair."""


_K = TypeVar("_K")
_R = TypeVar("_R")

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_last_fenced_block(text: str) -> str:
    matches = _FENCE_RE.findall(text)
    if not matches:
        raise ParseError("the reply contains no fenced code block")
    return matches[-1].strip("\n")


def _built(record: Callable[..., _R], *fields: Any, context: str = "") -> _R:
    """``record(*fields)``, its refusal a ParseError prefixed by ``context``
    when one is given."""
    try:
        return record(*fields)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}" if context else str(exc)) from exc


def _non_empty_lines(block: str) -> list[str]:
    return [line.strip() for line in block.splitlines() if line.strip()]


_TRUNCATION_RE = re.compile(r"^LAST_SUBJECTIVE_TURN:\s*(\d+)$")


def parse_truncation(block: str, n_turns: int) -> int:
    lines = _non_empty_lines(block)
    if len(lines) != 1:
        raise ParseError(
            f"expected exactly one LAST_SUBJECTIVE_TURN line, got {len(lines)} lines"
        )
    match = _TRUNCATION_RE.match(lines[0])
    if not match:
        raise ParseError(
            f"line {lines[0]!r} does not match LAST_SUBJECTIVE_TURN: <turn number>"
        )
    index = int(match.group(1))
    if not 0 <= index < n_turns:
        raise ParseError(
            f"turn number {index} is outside the transcript range 0..{n_turns - 1}"
        )
    return index


def _headed_sections(
    lines: Sequence[str], headers: Sequence[tuple[_K, str]]
) -> list[tuple[_K, str, str, list[str]]]:
    """Each line that starts, after stripping and in any case, with one of
    ``headers`` and a colon, the first such header winning: its key, the
    header, the stripped line's text after the colon, and the lines up to
    the next header line."""
    sections: list[tuple[_K, str, str, list[str]]] = []
    for line in lines:
        stripped = line.strip()
        upper = stripped.upper()
        for key, header in headers:
            if upper.startswith(header + ":"):
                sections.append((key, header, stripped[len(header) + 1 :], []))
                break
        else:
            if sections:
                sections[-1][3].append(line)
    return sections


def _each_once_in_order(
    block: str, headers: Sequence[tuple[_K, str]], noun: str, out_of_order: str
) -> list[tuple[_K, str, str, list[str]]]:
    sections = _headed_sections(block.splitlines(), headers)
    found = [header for _, header, _, _ in sections]
    for _, header in headers:
        if found.count(header) != 1:
            raise ParseError(
                f"expected the {noun} {header}: exactly once, found it {found.count(header)} times"
            )
    if found != [header for _, header in headers]:
        raise ParseError(out_of_order)
    return sections


_SUMMARY_HEADERS = tuple((name, SECTION_TITLES[name]) for name in SUMMARY_SECTIONS)


def parse_summary(block: str, encounter_id: str) -> Summary:
    sections = {}
    for key, _, inline, following in _each_once_in_order(
        block, _SUMMARY_HEADERS, "header", "summary section headers are out of order"
    ):
        body = "\n".join([inline.strip(), *(line.rstrip() for line in following)]).strip()
        if body.upper() == "NONE":
            body = ""
        sections[key] = body
    return _built(Summary, encounter_id, sections)


def _fact_line(line: str, noun: str) -> tuple[str, str]:
    """The fact id of an ``F<n>: …`` line and the text after its first
    colon; ``noun`` names the line in a ParseError."""
    raw_id, colon, rest = line.partition(":")
    if not colon:
        raise ParseError(f"{noun} line {line!r} has no F<number>: prefix")
    try:
        return parse_fact_id(raw_id), rest
    except ValueError as exc:
        raise ParseError(f"{noun} line {line!r}: {exc}") from exc


def parse_facts(block: str) -> list[Fact]:
    lines = _non_empty_lines(block)
    if not lines:
        raise ParseError("the fact list is empty")
    facts = []
    for position, line in enumerate(lines):
        fact_id, rest = _fact_line(line, "fact")
        if fact_id != f"F{position}":
            raise ParseError(
                f"fact ids must be contiguous from F0 in order; line {position} "
                f"has {fact_id} instead of F{position}"
            )
        if "|" not in rest:
            raise ParseError(f"fact line {line!r} has no | <category> suffix")
        text, raw_category = rest.rsplit("|", 1)
        category = raw_category.strip().lower()
        try:
            content_category = ContentCategory(category)
        except ValueError as exc:
            raise ParseError(
                f"unknown content category {category!r} on fact {fact_id}"
            ) from exc
        facts.append(_built(Fact, fact_id, text.strip(), content_category))
    return facts


_DDX_LINE_RE = re.compile(r"^(\d+)\.\s*(.+)$")


def parse_ddx(block: str, encounter_id: str, source: DdxSource) -> DifferentialDiagnosis:
    entries = []
    for line in _non_empty_lines(block):
        match = _DDX_LINE_RE.match(line)
        if not match:
            raise ParseError(f"line {line!r} does not match <rank>. <condition> | ...")
        rank = int(match.group(1))
        parts = [part.strip() for part in match.group(2).split("|")]
        if len(parts) != 3:
            raise ParseError(
                f"line {line!r} must have exactly three |-separated fields "
                "(condition, likelihood, rationale)"
            )
        name, raw_likelihood, explanation = parts
        try:
            likelihood = Likelihood(raw_likelihood.lower())
        except ValueError as exc:
            raise ParseError(
                f"unknown likelihood {raw_likelihood!r} on rank {rank} "
                "(use probable, possible, or unlikely)"
            ) from exc
        entries.append(_built(Diagnosis, rank, name, likelihood, explanation))
    return _built(DifferentialDiagnosis, encounter_id, source, entries)


_NO_OMISSIONS_RE = re.compile(r"^OMITTED:\s*NONE$", re.IGNORECASE)


def parse_omissions(block: str, known_fact_ids: Sequence[str]) -> list[Omission]:
    lines = _non_empty_lines(block)
    if not lines:
        raise ParseError("the omission list is empty; write OMITTED: NONE if nothing is missing")
    if len(lines) == 1 and _NO_OMISSIONS_RE.match(lines[0]):
        return []
    known = set(known_fact_ids)
    omissions = []
    seen = set()
    for line in lines:
        if _NO_OMISSIONS_RE.match(line):
            raise ParseError("OMITTED: NONE must be the only line when present")
        fact_id, explanation = _fact_line(line, "omission")
        if fact_id not in known:
            raise ParseError(f"omission references unknown fact {fact_id}")
        if fact_id in seen:
            raise ParseError(f"fact {fact_id} is listed as omitted more than once")
        seen.add(fact_id)
        omissions.append(_built(Omission, fact_id, explanation.strip()))
    return omissions


_CATEGORY_HEADERS = tuple((importance, importance.name) for importance in Importance)


def _parse_id_csv(text: str, context: str) -> list[str]:
    text = text.strip()
    if not text or text.upper() == "NONE":
        return []
    ids = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ParseError(f"{context}: empty entry in the fact id list")
        try:
            ids.append(parse_fact_id(token))
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc
    return ids


def parse_categorization(block: str, facts: Sequence[Fact]) -> list[Fact]:
    by_importance: dict[str, Importance] = {}
    for importance, header, inline, following in _each_once_in_order(
        block, _CATEGORY_HEADERS, "section", "importance sections are out of order"
    ):
        ids = _parse_id_csv(",".join(c for c in (inline, *following) if c.strip()), header)
        for fact_id in ids:
            if by_importance.get(fact_id) is importance:
                raise ParseError(f"fact {fact_id} is listed more than once under {header}")
            if fact_id in by_importance:
                raise ParseError(f"fact {fact_id} appears in more than one section")
            by_importance[fact_id] = importance

    known = {fact.fact_id for fact in facts}
    unknown = sorted(set(by_importance) - known)
    if unknown:
        raise ParseError(f"unknown fact ids {unknown} in the categorization")
    missing = sorted(known - set(by_importance))
    if missing:
        raise ParseError(f"facts {missing} are missing from the categorization")
    return [replace(fact, importance=by_importance[fact.fact_id]) for fact in facts]


_GROUP_HEADERS = (
    *((group.value, group.name.replace("_", " ")) for group in ClusterGroup),
    # Common misspelling; accepted as the same group.
    ("social_determinant_of_health", "SOCIAL DETERMINATE OF HEALTH"),
)

_DIAGNOSIS_RE = re.compile(r"^DIAGNOSIS:\s*(.+)$", re.IGNORECASE)
_SUBCLUSTER_RE = re.compile(r"^-\s*(.+?):\s*(.+)$")


def parse_clusters(
    block: str,
    diagnosis_names: Sequence[str],
    known_fact_ids: Sequence[str],
    polarity: Polarity,
) -> list[EvidenceClustering]:
    lines = block.splitlines()
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for line in lines:
        match = _DIAGNOSIS_RE.match(line.strip())
        if match:
            current = []
            sections.append((match.group(1).strip(), current))
        elif current is not None:
            current.append(line)
        elif line.strip():
            raise ParseError(f"unexpected content before the first DIAGNOSIS line: {line!r}")

    expected = list(diagnosis_names)
    got = [name for name, _ in sections]
    if sorted(got) != sorted(expected):
        raise ParseError(
            f"diagnosis sections {got} do not match the requested diagnoses {expected}"
        )

    known = set(known_fact_ids)
    by_name = {}
    for name, body in sections:
        by_name[name] = _parse_cluster_section(name, body, known, polarity)
    return [by_name[name] for name in expected]


def _parse_cluster_section(
    diagnosis_name: str, lines: list[str], known: set[str], polarity: Polarity
) -> EvidenceClustering:
    sections = _headed_sections(lines, _GROUP_HEADERS)
    found_groups = [group for group, _, _, _ in sections]
    for group in dict.fromkeys(group for group, _ in _GROUP_HEADERS):
        if found_groups.count(group) != 1:
            raise ParseError(
                f"diagnosis {diagnosis_name!r}: expected the heading for group "
                f"{group} exactly once, found it {found_groups.count(group)} times"
            )

    subclusters = []
    for group, header, inline, following in sections:
        content = [line.strip() for line in (inline, *following) if line.strip()]
        if len(content) == 1 and content[0].upper() == "NONE":
            continue
        if not content:
            raise ParseError(
                f"diagnosis {diagnosis_name!r}, group {header}: write NONE or "
                "subcluster lines"
            )
        for line in content:
            match = _SUBCLUSTER_RE.match(line)
            if not match:
                raise ParseError(
                    f"diagnosis {diagnosis_name!r}, group {header}: line {line!r} "
                    "does not match - <mechanism>: <fact ids>"
                )
            mechanism = match.group(1).strip()
            if not mechanism:
                raise ParseError(
                    f"diagnosis {diagnosis_name!r}, group {header}: line {line!r} "
                    "has no mechanism before the colon"
                )
            context = f"diagnosis {diagnosis_name!r}, subcluster {mechanism!r}"
            ids = _parse_id_csv(match.group(2), context)
            if not ids:
                raise ParseError(f"{context}: no fact ids")
            subcluster = _built(SubCluster, group, mechanism, ids, context=context)
            unknown = sorted(set(ids) - known)
            if unknown:
                raise ParseError(f"{context}: unknown fact ids {unknown}")
            subclusters.append(subcluster)
    return EvidenceClustering(
        diagnosis_name=diagnosis_name, polarity=polarity, subclusters=tuple(subclusters)
    )
