"""Independent ngram-overlap oracle used only by the acceptance suite.

Everything here is written from the published scoring definitions with
deliberately different code shapes than the package implementation:
recursion with memoization instead of an iterative table, Counter
intersection instead of a manual min-sum, and a per-token clipping
formula instead of index-by-index bookkeeping. Agreement between the
two is therefore meaningful.
"""

import re
from collections import Counter
from functools import lru_cache

_WORD_RE = re.compile(r"[a-z0-9]+")
_BOUNDARY_RE = re.compile(r"[.!?]+|\n+")
_TERMINAL_RE = re.compile(r"[.!?]+")


def words(text):
    return _WORD_RE.findall(text.lower())


def sentences(text):
    return [chunk for chunk in (c.strip() for c in _BOUNDARY_RE.split(text)) if chunk]


def split_sentences(text):
    """Sentences end at line breaks as str.splitlines finds them (``\\r``,
    ``\\x85`` and the rest), or at runs of terminal punctuation."""
    return [
        chunk
        for line in text.splitlines()
        for chunk in (c.strip() for c in _TERMINAL_RE.split(line))
        if chunk
    ]


def _prf(overlap, candidate_total, reference_total):
    if candidate_total == 0 or reference_total == 0:
        return (0.0, 0.0, 0.0)
    precision = overlap / candidate_total
    recall = overlap / reference_total
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


def ngram_prf(candidate, reference, n):
    cand = Counter(zip(*(words(candidate)[i:] for i in range(n))))
    ref = Counter(zip(*(words(reference)[i:] for i in range(n))))
    overlap = sum((cand & ref).values())
    return _prf(overlap, sum(cand.values()), sum(ref.values()))


def lcs_len(a, b):
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    result = rec(len(a), len(b))
    rec.cache_clear()
    return result


def lcs_prf(candidate, reference):
    cand = words(candidate)
    ref = words(reference)
    return _prf(lcs_len(cand, ref), len(cand), len(ref))


def _lcs_hit_positions(ref, cand):
    """Reference positions on one LCS path, preferring to walk up the
    reference side on ties (the standard backtrack)."""
    if not ref or not cand:
        return set()
    table = [[0] * (len(cand) + 1) for _ in range(len(ref) + 1)]
    for i in range(1, len(ref) + 1):
        for j in range(1, len(cand) + 1):
            if ref[i - 1] == cand[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    positions = set()
    i, j = len(ref), len(cand)
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1]:
            positions.add(i - 1)
            i -= 1
            j -= 1
        elif table[i][j - 1] > table[i - 1][j]:
            j -= 1
        else:
            i -= 1
    return positions


def summary_lcs_prf(candidate, reference):
    cand_sents = [words(s) for s in sentences(candidate)]
    ref_sents = [words(s) for s in sentences(reference)]
    cand_sents = [s for s in cand_sents if s]
    ref_sents = [s for s in ref_sents if s]
    cand_total = sum(len(s) for s in cand_sents)
    ref_total = sum(len(s) for s in ref_sents)
    if cand_total == 0 or ref_total == 0:
        return (0.0, 0.0, 0.0)

    cand_budget = Counter(t for s in cand_sents for t in s)
    ref_budget = Counter(t for s in ref_sents for t in s)
    overlap = 0
    for ref_sent in ref_sents:
        union = set()
        for cand_sent in cand_sents:
            union |= _lcs_hit_positions(ref_sent, cand_sent)
        hit_tokens = Counter(ref_sent[p] for p in union)
        for token, wanted in hit_tokens.items():
            granted = min(wanted, cand_budget[token], ref_budget[token])
            overlap += granted
            cand_budget[token] -= granted
            ref_budget[token] -= granted
    return _prf(overlap, cand_total, ref_total)


def all_variants(candidate, reference):
    return {
        "rouge1": ngram_prf(candidate, reference, 1),
        "rouge2": ngram_prf(candidate, reference, 2),
        "rougeL": lcs_prf(candidate, reference),
        "rougeLsum": summary_lcs_prf(candidate, reference),
    }
