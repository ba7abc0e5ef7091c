"""Omission weighting and the completion-margin score.

A fact's penalty is the maximum of its importance weight and one
uniqueness weight per evidence subcluster that contains it, where a
subcluster of size n contributes 1/n. ``score_omissions`` finds every
share in one pass over the clusterings. A document's omission score is
the exact sum (math.fsum) of the penalties of its omitted facts, so the
result does not depend on summation order.

The rules that span records are the reply parsers': fact ids run from
F0 without a gap, an omission names a known fact, and a subcluster lists
known facts once each. Scoring trusts them and refuses only a fact that
has not been categorized yet.
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
    Omission,
    OmissionReport,
    Polarity,
    Record,
)

COMPLETION_PHRASE = "The patient most likely has"


class PolarityMode(str, Enum):
    """Which evidence polarities count toward uniqueness."""

    BOTH = "both"
    SUPPORTING_ONLY = "supporting_only"


def score_omissions(
    facts: Sequence[Fact],
    omissions: Sequence[Omission],
    clusters: Sequence[EvidenceClustering],
    polarity_mode: PolarityMode | str = PolarityMode.BOTH,
) -> list[FactScore]:
    """FactScores aligned one-to-one with omissions, from one pass over
    the clusterings: each fact's shares come in cluster and subcluster
    order, so a fact that is the sole evidence anywhere carries a 1."""
    supporting_only = PolarityMode(polarity_mode) is PolarityMode.SUPPORTING_ONLY
    shares: dict[str, list[float]] = {}
    for clustering in clusters:
        if supporting_only and clustering.polarity is not Polarity.SUPPORTING:
            continue
        for subcluster in clustering.subclusters:
            for fact_id in subcluster.fact_ids:
                shares.setdefault(fact_id, []).append(1.0 / subcluster.size)
    importance = {fact.fact_id: fact.importance for fact in facts}
    scores = []
    for omission in omissions:
        fact_id = omission.fact_id
        if importance[fact_id] is None:
            raise ValueError(f"fact {fact_id} has no importance; categorize first")
        weight = IMPORTANCE_WEIGHTS[importance[fact_id]]
        scores.append(FactScore(fact_id, weight, tuple(shares.get(fact_id, ()))))
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
