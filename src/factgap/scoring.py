"""Omission weighting and the completion-margin score.

A fact's penalty is the maximum of its importance weight and one
uniqueness weight per evidence subcluster that contains it, where a
subcluster of size n contributes 1/n. A document's omission score is the
exact sum (math.fsum) of the penalties of its omitted facts, so the
result does not depend on summation order.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .datamodel import (
    IMPORTANCE_WEIGHTS,
    CompletionMargin,
    DifferentialDiagnosis,
    EvidenceClustering,
    Fact,
    FactScore,
    Importance,
    Omission,
    OmissionReport,
    Polarity,
    Record,
    parse_fact_id,
)

COMPLETION_PHRASE = "The patient most likely has"


class PolarityMode(str, Enum):
    """Which evidence polarities count toward uniqueness."""

    BOTH = "both"
    SUPPORTING_ONLY = "supporting_only"


def importance_weight(importance: Importance) -> float:
    return IMPORTANCE_WEIGHTS[Importance(importance)]


def uniqueness_weights(
    fact_id: str,
    clusters: Sequence[EvidenceClustering],
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> tuple[float, ...]:
    """One weight per subcluster containing the fact, each 1/|S|.

    Subclusters are scanned across every diagnosis (and both polarities
    unless restricted), so a fact that is the sole evidence anywhere
    carries a weight of 1.
    """
    fact_id = parse_fact_id(fact_id)
    polarity_mode = PolarityMode(polarity_mode)
    weights = []
    for clustering in clusters:
        if (
            polarity_mode is PolarityMode.SUPPORTING_ONLY
            and clustering.polarity is not Polarity.SUPPORTING
        ):
            continue
        for subcluster in clustering.subclusters:
            if fact_id in subcluster.fact_ids:
                weights.append(1.0 / subcluster.size)
    return tuple(weights)


def fact_score(
    fact: Fact,
    clusters: Sequence[EvidenceClustering],
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> FactScore:
    """Penalty for omitting this fact: max of importance and uniqueness."""
    if fact.importance is None:
        raise ValueError(f"fact {fact.fact_id} has no importance; categorize first")
    return FactScore(
        fact_id=fact.fact_id,
        importance_weight=importance_weight(fact.importance),
        uniqueness_weights=uniqueness_weights(fact.fact_id, clusters, polarity_mode),
    )


def _facts_by_id(facts: Sequence[Fact]) -> dict[str, Fact]:
    by_id: dict[str, Fact] = {}
    for fact in facts:
        if fact.fact_id in by_id:
            raise ValueError(f"duplicate fact id {fact.fact_id}")
        by_id[fact.fact_id] = fact
    return by_id


def score_omissions(
    facts: Sequence[Fact],
    omissions: Sequence[Omission],
    clusters: Sequence[EvidenceClustering],
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> list[FactScore]:
    """FactScores aligned one-to-one with omissions."""
    by_id = _facts_by_id(facts)
    scores = []
    for omission in omissions:
        fact = by_id.get(omission.fact_id)
        if fact is None:
            raise ValueError(f"omission references unknown fact {omission.fact_id}")
        scores.append(fact_score(fact, clusters, polarity_mode))
    return scores


def document_score(
    facts: Sequence[Fact],
    omissions: Sequence[Omission],
    clusters: Sequence[EvidenceClustering],
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> tuple[int, float]:
    """(omission count, cumulative weight) for one summary: the derived
    keys of its report."""
    report = build_report("document", facts, omissions, clusters, polarity_mode=polarity_mode)
    return report.omission_count, report.cumulative_weight


def build_report(
    encounter_id: str,
    facts: Sequence[Fact],
    omissions: Sequence[Omission],
    clusters: Sequence[EvidenceClustering],
    margin: Optional[CompletionMargin] = None,
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> OmissionReport:
    scores = score_omissions(facts, omissions, clusters, polarity_mode)
    return OmissionReport(encounter_id, tuple(zip(omissions, scores)), margin)


class MarginPlan(Record):
    """Which diagnoses to score for the completion margin.

    The target is the chat differential's top entry; it is scored under
    both contexts. Each context's alternative is that differential's
    highest-ranked non-probable entry.
    """

    target: str
    chat_alternative: str
    summary_alternative: str


def margin_plan(
    ddx_chat: DifferentialDiagnosis, ddx_summary: DifferentialDiagnosis
) -> Optional[MarginPlan]:
    """None when either differential lacks a non-probable entry; the
    margin is then simply absent for the encounter."""
    chat_alternative = ddx_chat.top_non_probable()
    summary_alternative = ddx_summary.top_non_probable()
    if chat_alternative is None or summary_alternative is None:
        return None
    return MarginPlan(
        target=ddx_chat.top().name,
        chat_alternative=chat_alternative.name,
        summary_alternative=summary_alternative.name,
    )


def completion_prompt(context_text: str) -> str:
    return f"{context_text}\n\n{COMPLETION_PHRASE}"


def completion_continuation(diagnosis_name: str) -> str:
    return f" {diagnosis_name}."


# The margin of the four scores, in this order; its ratio is None when the
# summary gap is below epsilon, and a score that is not finite is refused.
completion_margin = CompletionMargin
