"""Brute-force scoring oracle and randomized instance generator.

The oracle re-derives every rule from scratch: importance weights come
from a literal string table, subcluster membership is rediscovered by
scanning raw fact-id tuples once per omission, which lists each
omission's weights in cluster and subcluster order, and the per-fact
penalty is tracked as a running maximum. It shares no code path with the
production scorer except math.fsum, which is exactly rounded and
therefore a canonical value rather than an implementation choice.
"""

import math
import random

from factgap.datamodel import (
    ClusterGroup,
    ContentCategory,
    EvidenceClustering,
    Fact,
    Omission,
    Polarity,
    SubCluster,
)

_WEIGHT_BY_IMPORTANCE = {"critical": 1.0, "important": 0.5, "other": 0.1}


def brute_force_weights(omissions, clusters, polarity_mode="both"):
    """Each omission's uniqueness weights, in cluster and subcluster order."""
    lists = []
    for omission in omissions:
        weights = []
        for clustering in clusters:
            if polarity_mode == "supporting_only" and clustering.polarity.value != "supporting":
                continue
            for subcluster in clustering.subclusters:
                members = tuple(subcluster.fact_ids)
                if omission.fact_id in members:
                    weights.append(1.0 / len(members))
        lists.append(weights)
    return lists


def brute_force_document_score(facts, omissions, clusters, polarity_mode="both"):
    by_id = {}
    for fact in facts:
        by_id[fact.fact_id] = fact
    weight_lists = brute_force_weights(omissions, clusters, polarity_mode)
    penalties = []
    for omission, weights in zip(omissions, weight_lists):
        best = _WEIGHT_BY_IMPORTANCE[by_id[omission.fact_id].importance.value]
        for candidate in weights:
            if candidate > best:
                best = candidate
        penalties.append(best)
    return len(penalties), math.fsum(penalties)


_GROUPS = list(ClusterGroup)
_IMPORTANCES = ["critical", "important", "other"]


def random_instance(rng: random.Random):
    """A random bundle: at most 8 facts, 3 diagnoses, 4 subclusters per
    clustering. Returns (facts, omissions, clusters)."""
    n_facts = rng.randint(1, 8)
    facts = [
        Fact(
            fact_id=f"F{i}",
            text=f"fact number {i}",
            content_category=rng.choice(list(ContentCategory)),
            importance=rng.choice(_IMPORTANCES),
        )
        for i in range(n_facts)
    ]
    fact_ids = [fact.fact_id for fact in facts]

    n_omitted = rng.randint(0, n_facts)
    omitted = rng.sample(fact_ids, n_omitted)
    omissions = [
        Omission(fact_id=fact_id, explanation=f"{fact_id} is missing") for fact_id in omitted
    ]

    clusters = []
    n_diagnoses = rng.randint(0, 3)
    for d in range(n_diagnoses):
        for polarity in (Polarity.SUPPORTING, Polarity.REFUTING):
            n_subclusters = rng.randint(0, 4)
            subclusters = []
            for s in range(n_subclusters):
                size = rng.randint(1, n_facts)
                members = tuple(rng.sample(fact_ids, size))
                subclusters.append(
                    SubCluster(
                        group=rng.choice(_GROUPS),
                        mechanism_label=f"mechanism {d}-{polarity.value}-{s}",
                        fact_ids=members,
                    )
                )
            if subclusters:
                clusters.append(
                    EvidenceClustering(
                        diagnosis_name=f"diagnosis {d}",
                        polarity=polarity,
                        subclusters=tuple(subclusters),
                    )
                )
    return facts, omissions, clusters
