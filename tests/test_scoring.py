import math
import random

import pytest

from factgap.datamodel import (
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
)
from factgap.scoring import (
    COMPLETION_PHRASE,
    MarginPlan,
    PolarityMode,
    build_report,
    completion_continuation,
    completion_margin,
    completion_prompt,
    document_score,
    margin_plan,
    score_omissions,
)
from scoring_fixtures import (
    EDWARD_EXPECTED,
    MARTHA_EXPECTED,
    STEPHANIE_EXPECTED,
    edward_bundle,
    martha_bundle,
    stephanie_bundle,
)
from scoring_oracle import brute_force_document_score, brute_force_weights, random_instance


def make_fact(fact_id, importance):
    return Fact(
        fact_id=fact_id,
        text=f"text {fact_id}",
        content_category=ContentCategory.MEDICAL,
        importance=importance,
    )


def score_of(fact, clusters, polarity_mode=PolarityMode.BOTH):
    """The score of omitting ``fact`` alone."""
    omission = Omission(fact_id=fact.fact_id, explanation="gone")
    [score] = score_omissions([fact], [omission], clusters, polarity_mode)
    return score


def test_importance_weight_mapping():
    assert score_of(make_fact("F0", Importance.CRITICAL), []).importance_weight == 1.0
    assert score_of(make_fact("F0", Importance.IMPORTANT), []).importance_weight == 0.5
    assert score_of(make_fact("F0", Importance.OTHER), []).importance_weight == 0.1
    assert score_of(make_fact("F0", "critical"), []).importance_weight == 1.0


def cluster(diagnosis, polarity, *subclusters):
    return EvidenceClustering(
        diagnosis_name=diagnosis, polarity=polarity, subclusters=tuple(subclusters)
    )


def sub(group, label, *fact_ids):
    return SubCluster(group=group, mechanism_label=label, fact_ids=fact_ids)


def test_uniqueness_weights_span_diagnoses_and_polarities():
    clusters = [
        cluster(
            "dx1",
            Polarity.SUPPORTING,
            sub(ClusterGroup.SYMPTOMS, "m1", "F1"),
            sub(ClusterGroup.TESTS, "m2", "F1", "F2"),
        ),
        cluster("dx2", Polarity.REFUTING, sub(ClusterGroup.OTHER, "m3", "F1", "F2", "F3")),
    ]
    weights = score_of(make_fact("F1", Importance.OTHER), clusters).uniqueness_weights
    assert sorted(weights) == pytest.approx([1 / 3, 1 / 2, 1.0])
    assert score_of(make_fact("F9", Importance.OTHER), clusters).uniqueness_weights == ()


def test_uniqueness_supporting_only_mode():
    clusters = [
        cluster("dx1", Polarity.SUPPORTING, sub(ClusterGroup.SYMPTOMS, "m1", "F1", "F2")),
        cluster("dx1", Polarity.REFUTING, sub(ClusterGroup.TESTS, "m2", "F1")),
    ]
    fact = make_fact("F1", Importance.OTHER)
    assert score_of(fact, clusters, PolarityMode.BOTH).uniqueness_weights == (0.5, 1.0)
    assert score_of(fact, clusters, "supporting_only").uniqueness_weights == (0.5,)


def test_fact_score_takes_the_max():
    clusters = [
        cluster("dx", Polarity.SUPPORTING, sub(ClusterGroup.SYMPTOMS, "m", "F1", "F2"))
    ]
    score = score_of(make_fact("F1", Importance.OTHER), clusters)
    assert score.combined == 0.5
    assert score.importance_weight == 0.1
    assert score.uniqueness_weights == (0.5,)

    lone = score_of(make_fact("F5", Importance.IMPORTANT), clusters)
    assert lone.combined == 0.5
    assert lone.uniqueness_weights == ()

    critical = score_of(make_fact("F1", Importance.CRITICAL), clusters)
    assert critical.combined == 1.0


def test_fact_score_requires_importance():
    uncategorized = Fact(
        fact_id="F1", text="x", content_category=ContentCategory.MEDICAL
    )
    with pytest.raises(ValueError, match="no importance"):
        score_of(uncategorized, [])


def test_document_score_goldens():
    assert document_score(*martha_bundle()) == MARTHA_EXPECTED
    assert document_score(*stephanie_bundle()) == STEPHANIE_EXPECTED
    assert document_score(*edward_bundle()) == EDWARD_EXPECTED


def test_goldens_match_brute_force_oracle():
    for bundle in (martha_bundle(), stephanie_bundle(), edward_bundle()):
        assert document_score(*bundle) == brute_force_document_score(*bundle)


def test_randomized_instances_match_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        facts, omissions, clusters = random_instance(rng)
        for mode in ("both", "supporting_only"):
            ours = document_score(facts, omissions, clusters, mode)
            oracle = brute_force_document_score(facts, omissions, clusters, mode)
            assert ours == oracle
            scores = score_omissions(facts, omissions, clusters, mode)
            weights = [list(score.uniqueness_weights) for score in scores]
            assert weights == brute_force_weights(omissions, clusters, mode)


def test_weight_bounds_and_monotonicity():
    rng = random.Random(99)
    for _ in range(100):
        facts, omissions, clusters = random_instance(rng)
        count, weight = document_score(facts, omissions, clusters)
        assert count == len(omissions)
        assert weight >= 0.1 * count - 1e-12
        assert weight <= count + 1e-12
        remaining = [f.fact_id for f in facts if f.fact_id not in {o.fact_id for o in omissions}]
        if remaining:
            extra = omissions + [Omission(fact_id=remaining[0], explanation="also gone")]
            _, bigger = document_score(facts, extra, clusters)
            assert bigger > weight


def test_build_report_composes():
    facts, omissions, clusters = edward_bundle()
    report = build_report("enc-edward", facts, omissions, clusters)
    assert report.omission_count == 1
    assert report.cumulative_weight == 1.0
    assert report.omissions[0].omission.fact_id == "F2"
    assert report.margin is None


def ddx(source, *entries):
    return DifferentialDiagnosis(
        encounter_id="e",
        source=source,
        entries=tuple(
            Diagnosis(rank=i + 1, name=name, likelihood=likelihood)
            for i, (name, likelihood) in enumerate(entries)
        ),
    )


def test_margin_plan_selects_diagnoses():
    chat = ddx(
        DdxSource.FROM_CHAT,
        ("Hypertension", Likelihood.PROBABLE),
        ("CHF", Likelihood.PROBABLE),
        ("Anxiety", Likelihood.POSSIBLE),
    )
    summary = ddx(
        DdxSource.FROM_SUMMARY,
        ("CHF", Likelihood.PROBABLE),
        ("Anemia", Likelihood.UNLIKELY),
    )
    plan = margin_plan(chat, summary)
    assert plan == MarginPlan(
        target="Hypertension", chat_alternative="Anxiety", summary_alternative="Anemia"
    )


def test_margin_plan_absent_without_non_probable():
    all_probable = ddx(DdxSource.FROM_CHAT, ("A", Likelihood.PROBABLE))
    mixed = ddx(DdxSource.FROM_SUMMARY, ("A", Likelihood.PROBABLE), ("B", Likelihood.POSSIBLE))
    assert margin_plan(all_probable, mixed) is None
    assert margin_plan(mixed, all_probable) is None
    assert margin_plan(mixed, mixed) is not None


def test_completion_prompt_shape():
    assert completion_prompt("CTX").endswith("\n\nThe patient most likely has")
    assert COMPLETION_PHRASE in completion_prompt("CTX")
    assert completion_continuation("Anemia") == " Anemia."


def test_completion_margin_fixtures():
    assert completion_margin(-1.0, -3.0, -2.0, -3.0).ratio == 2.0
    assert completion_margin(-2.0, -2.0, -1.0, -3.0).ratio == 0.0
    assert completion_margin(-1.0, -3.0, -1.5, -3.5).ratio == 1.0


def test_completion_margin_degenerate_denominator():
    margin = completion_margin(-1.0, -3.0, -2.0, -2.0)
    assert margin.ratio is None
    tiny = completion_margin(-1.0, -3.0, -2.0, -2.0 - 1e-12)
    assert tiny.ratio is None
    boundary = completion_margin(-1.0, -3.0, -2.0, -2.0 - 1e-6)
    assert boundary.ratio is not None
    assert math.isfinite(boundary.ratio)


def test_completion_margin_rejects_non_finite_inputs():
    with pytest.raises(ValueError, match="not finite"):
        completion_margin(float("nan"), -3.0, -2.0, -3.0)
    with pytest.raises(ValueError, match="not finite"):
        completion_margin(-1.0, -3.0, float("inf"), -3.0)
