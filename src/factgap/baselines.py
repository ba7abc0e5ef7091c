"""Reference-based baseline metrics and correlation analysis.

ROUGE here is self-contained: lowercase tokens of ``[a-z0-9]``, cut
into sentences at line breaks and ``.!?`` by one ``bytes.translate``
table, optional Porter stemming, and the summary-level union-LCS variant
with double-count prevention. ``rouge_all`` tokenizes each text once and
lays the reference sentences side by side in one int, each followed by a
zero guard bit; ROUGE-L and ROUGE-Lsum both read that layout. They
compute the LCS bit-parallel over Python ints (Allison & Dix 1986; Hyyro
2004), one column of the LCS table per candidate token. ROUGE-L takes
the guard bits as rows that never match. ROUGE-Lsum runs one pass per
candidate sentence, in which the guards give every reference sentence
its own columns, and backtracks all reference sentences at once: per
column, a segmented smear finds each sentence's highest stop. ROUGE-1
and ROUGE-2 read the same layout: a candidate token's count in the
reference is the popcount of its mask, and a longer n-gram's is the
popcount of its tokens' masks ANDed, each shifted onto the bit of the
token before it, up to the first token without a mask or empty AND.

Correlations (Spearman, Pearson) ship with two-sided p-values computed
from the t distribution through a native regularized incomplete beta,
so the package has no runtime dependency on a stats library.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from typing import Container, Iterable, Mapping, Optional, Sequence

from .datamodel import JsonRecord, Record, replace
from .dataset import csv_reader

# Over lowercased ASCII bytes: a token byte stays, ".", "!" and a line
# break end a sentence ("?" is made "." beforehand), anything else separates.
_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789"
_SEPARATE = bytes(c if c in _TOKEN_BYTES else 10 if c in b".!\n" else 32 for c in range(256))

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # Count vowel-to-consonant transitions: the m of [C](VC)^m[V].
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_suffix(word: str, suffix: str, replacement: str, min_measure: int) -> Optional[str]:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.lru_cache(maxsize=1 << 16)
def porter_stem(word: str) -> str:
    """The 1980 Porter algorithm over a lowercase alphabetic word.

    Memoized: a text repeats few distinct words many times."""
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        word = _step1b_cleanup(word)
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        word = _step1b_cleanup(word)

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, replacement in _STEP2_RULES:
        result = _replace_suffix(word, suffix, replacement, 0)
        if result is not None:
            word = result
            break

    # Step 3
    for suffix, replacement in _STEP3_RULES:
        result = _replace_suffix(word, suffix, replacement, 0)
        if result is not None:
            word = result
            break

    # Step 4
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            if _measure(word[: len(word) - len(suffix)]) > 1:
                word = word[: len(word) - len(suffix)]
            break
    else:
        if word.endswith("ion") and len(word) > 3 and word[-4] in "st":
            if _measure(word[:-3]) > 1:
                word = word[:-3]

    # Step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]

    return word


def _step1b_cleanup(word: str) -> str:
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _separated(text: str) -> str:
    """The lowercased text with every sentence cut a newline and every
    other character that is not ``[a-z0-9]`` a space. A non-ASCII
    character is encoded as "?" after "?" is made ".", so it separates."""
    text = "\n".join(text.lower().splitlines()).replace("?", ".")
    return text.encode("ascii", "replace").translate(_SEPARATE).decode("ascii")


def _stemmed(tokens: list[str]) -> list[str]:
    # Very short tokens are left alone; stemming them loses more than it
    # normalizes.
    return [porter_stem(t) if len(t) > 3 else t for t in tokens]


def tokenize(text: str, use_stemmer: bool = False) -> list[str]:
    """Lowercase alphanumeric runs; everything else is a separator."""
    tokens = _separated(text).split()
    return _stemmed(tokens) if use_stemmer else tokens


def sentence_tokens(text: str, use_stemmer: bool = False) -> list[list[str]]:
    """The tokens of each sentence that has any; sentences end at line
    breaks and ``.!?``. Joined, they are exactly ``tokenize(text,
    use_stemmer)``: both split the same separated text."""
    sentences = list(filter(None, map(str.split, _separated(text).split("\n"))))
    return list(map(_stemmed, sentences)) if use_stemmer else sentences


class RougeScore(Record):
    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for label, value in (
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1", self.f1),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} {value} outside [0, 1]")


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _score(overlap: int, candidate_total: int, reference_total: int) -> RougeScore:
    if candidate_total == 0 or reference_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    precision = overlap / candidate_total
    recall = overlap / reference_total
    return RougeScore(precision, recall, _f1(precision, recall))


Layout = tuple[dict[str, int], list[int], int]


def side_by_side(sentences: Iterable[Sequence[str]], vocabulary: Container[str]) -> Layout:
    """Lay the non-empty ``sentences`` side by side in one int, each
    followed by a zero guard bit that absorbs the carry out of it, so no
    two guard bits are adjacent.

    Returns the match masks (bit p of masks[t] is set where the token at
    bit p is t, for t in vocabulary), the first bit of every sentence
    followed by one past the last guard, and the int whose ones are
    exactly the sentence bits.
    """
    masks: dict[str, int] = {}
    starts = [0]
    full = 0
    for sentence in filter(None, sentences):
        start = starts[-1]
        for bit, token in enumerate(sentence, start):
            if token in vocabulary:
                masks[token] = masks.get(token, 0) | 1 << bit
        full |= ((1 << len(sentence)) - 1) << start
        starts.append(start + len(sentence) + 1)
    return masks, starts, full


def rouge_n(cand_tokens: Sequence[str], reference: Layout, n: int) -> RougeScore:
    """ROUGE-N of the candidate against the joined sentences of a
    reference laid out by ``side_by_side`` with the candidate's tokens.

    A distinct candidate n-gram occurs in the reference at each bit of
    the AND of its tokens' masks, each mask aligned onto the bit of the
    token before it: one bit up, or two across a guard bit, so n-grams
    that span sentences count as they do over the joined reference.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    masks, _, full = reference
    get = masks.get
    overlap = 0
    if n == 1:
        for token, count in Counter(cand_tokens).items():
            if mask := get(token):
                overlap += min(count, mask.bit_count())
    else:
        ends = full & ~(full >> 1)
        for gram, count in Counter(zip(*(islice(cand_tokens, i, None) for i in range(n)))).items():
            # An n-gram ends at its first token without a mask or empty AND.
            if bits := get(gram[-1]):
                for token in gram[-2::-1]:
                    mask = get(token)
                    if not mask or not (bits := mask & ((bits >> 1) | ((bits >> 2) & ends))):
                        break
                else:
                    overlap += min(count, bits.bit_count())
    return _score(overlap, max(len(cand_tokens) - n + 1, 0), max(full.bit_count() - n + 1, 0))


def _lcs_columns(masks: Mapping[str, int], full: int, b: Sequence[str]) -> list[int]:
    """Bit-parallel LCS (Allison & Dix 1986; Hyyro 2004) of every
    sentence laid out by ``side_by_side`` against b, one int per
    column: the bits of each sentence are its own LCS table's column.

    Bit i of a sentence's column j is 0 exactly where T[i+1][j] =
    T[i][j] + 1 in that sentence's table T, so its LCS length with b is
    its length minus its ones in the last column. ``v - u`` never
    borrows (u is a subset of v), and a carry out of ``v + u`` stops in
    the sentence's zero guard bit, so no sentence sees another.
    """
    v = full
    columns = [v]
    for token in b:
        mask = masks.get(token)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
        columns.append(v)
    return columns


def rouge_l(cand_tokens: Sequence[str], reference: Layout) -> RougeScore:
    """ROUGE-L of the candidate against the joined sentences of a
    reference laid out by ``side_by_side`` with the candidate's tokens.
    Its guard bits are rows that never match, so the LCS of all its rows
    is the LCS with the joined sentences."""
    masks, starts, full = reference
    rows = starts[-1]
    lcs = rows - _lcs_columns(masks, (1 << rows) - 1, cand_tokens)[-1].bit_count()
    return _score(lcs, len(cand_tokens), full.bit_count())


def _smear_shifts(starts: Sequence[int], full: int) -> list[tuple[int, int]]:
    """The shifts k = 1, 2, 4, ... of a segmented smear over sentences
    laid out by ``side_by_side``, each with the bits that stay in their
    sentence when moved k down, while any sentence is longer than k."""
    shifts = []
    valid, k = full & ~sum(1 << start for start in starts), 1
    while valid:
        shifts.append((k, valid))
        valid &= valid << k
        k *= 2
    return shifts


def _lcs_hits(
    masks: Mapping[str, int], full: int, shifts: Sequence[tuple[int, int]], cand: Sequence[str]
) -> int:
    """Bits of the reference positions on one LCS of each sentence laid
    out by ``side_by_side`` with cand, backtracked by the table's rule:
    from (i, j) take a match, else step up where T[i-1][j] >= T[i][j-1],
    else step left.

    Off a match T[i][j] = max(T[i-1][j], T[i][j-1]), so the rule steps
    up exactly where bit i-1 of column j is 1: the walk in column j goes
    to the highest stop below row i, a match of cand[j-1] or a zero.
    ``below`` holds every sentence's bits below its row, so one pass from
    the last column walks all sentences at once. The segmented smear
    fills each sentence from its highest stop down, so that stop is the
    top bit of the run. A match is a hit and the row moves under it; a
    zero turns left and the row moves onto it. A sentence with no zero
    below its row has no LCS left, and no stop.
    """
    hits = 0
    below = full
    for token, column in zip(reversed(cand), reversed(_lcs_columns(masks, full, cand))):
        zeros = (full ^ column) & below
        if not zeros:
            break
        match = masks.get(token, 0)
        y = match & below | zeros
        for k, valid in shifts:
            y |= (y & valid) >> k
        top = y & ~(y >> 1)
        hit = top & match
        hits |= hit
        below = ((below + top) & below) | (top ^ hit)
    return hits


def rouge_lsum(cand_sentences: Sequence[Sequence[str]], reference: Layout) -> RougeScore:
    """Summary-level LCS of per-sentence token lists against a reference
    laid out by ``side_by_side`` with the candidate's tokens: per
    reference sentence, union the LCS hits against every candidate
    sentence, then cap each token's credit by its count on both sides so
    nothing is matched twice.

    One bit-parallel pass per candidate sentence covers all reference
    sentences, and the union is one int. A token's union hits never
    exceed its reference count, so its credit is min(union hits,
    candidate count).
    """
    masks, starts, full = reference
    cand_counts = Counter(chain.from_iterable(cand_sentences))
    shifts = _smear_shifts(starts, full)
    union = 0
    for cand_sent in cand_sentences:
        union |= _lcs_hits(masks, full, shifts, cand_sent)
    hits = sum(
        min((union & mask).bit_count(), cand_counts[token]) for token, mask in masks.items()
    )
    return _score(hits, cand_counts.total(), full.bit_count())


ROUGE_VARIANTS = ("rouge1", "rouge2", "rougeL", "rougeLsum")


def rouge_all(candidate: str, reference: str, use_stemmer: bool = False) -> dict[str, RougeScore]:
    """Every ROUGE variant of one text pair, tokenizing each text once
    and laying out the reference once. The one ROUGE function that takes
    strings."""
    cand_sentences = sentence_tokens(candidate, use_stemmer)
    ref_sentences = sentence_tokens(reference, use_stemmer)
    cand = list(chain.from_iterable(cand_sentences))
    layout = side_by_side(ref_sentences, set(cand))
    return {
        "rouge1": rouge_n(cand, layout, 1),
        "rouge2": rouge_n(cand, layout, 2),
        "rougeL": rouge_l(cand, layout),
        "rougeLsum": rouge_lsum(cand_sentences, layout),
    }


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz."""
    max_iterations = 300
    epsilon = 3e-16
    tiny = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge for a={a} b={b} x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a} b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _two_sided_p_from_t(t: float, df: float) -> float:
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


class CorrelationResult(Record):
    method: str
    statistic: float
    p_value: float
    n: int

    def __post_init__(self) -> None:
        if self.method not in ("pearson", "spearman"):
            raise ValueError(f"unknown correlation method {self.method!r}")
        if not -1.0 <= self.statistic <= 1.0:
            raise ValueError(f"correlation {self.statistic} outside [-1, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def _validate_pair(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError(f"need at least 3 paired observations, got {len(x)}")
    for label, values in (("x", x), ("y", y)):
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"{label} contains a non-finite value {v}")


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    _validate_pair(x, y)
    n = len(x)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    ss_x = math.fsum(v * v for v in dx)
    ss_y = math.fsum(v * v for v in dy)
    if ss_x == 0.0 or ss_y == 0.0:
        raise ValueError("correlation undefined for a constant input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    # Floating error can push |r| a hair past 1.
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = _two_sided_p_from_t(t, df)
    return CorrelationResult(method="pearson", statistic=r, p_value=p, n=n)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties sharing their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    _validate_pair(x, y)
    return replace(pearson(average_ranks(x), average_ranks(y)), method="spearman")


class MetricVector(Record):
    """A named per-encounter scalar metric."""

    name: str
    values: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("metric name must be non-empty")
        frozen = dict(self.values)
        if not frozen:
            raise ValueError(f"metric {self.name}: no values")
        for encounter_id, value in frozen.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(
                    f"metric {self.name}: non-finite value {value!r} for {encounter_id}"
                )
        object.__setattr__(self, "values", frozen)

    def aligned(self, other: "MetricVector") -> tuple[list[float], list[float], list[str]]:
        shared = sorted(set(self.values) & set(other.values))
        return (
            [self.values[k] for k in shared],
            [other.values[k] for k in shared],
            shared,
        )


def import_external_metric(path: Path | str) -> MetricVector:
    """Load one per-encounter metric from a CSV with an encounter_id
    column and exactly one other column, the metric, named by its header."""
    path = Path(path)
    with csv_reader(path) as reader:
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        fields = list(reader.fieldnames)
        if "encounter_id" not in fields:
            raise ValueError(f"{path}: no encounter_id column (found {fields})")
        candidates = [f for f in fields if f != "encounter_id"]
        if len(candidates) != 1:
            raise ValueError(
                f"{path}: ambiguous metric column: expected exactly one besides "
                f"encounter_id, found {candidates}"
            )
        (metric_name,) = candidates
        values: dict[str, float] = {}
        for row_no, row in enumerate(reader, start=2):
            encounter_id = (row.get("encounter_id") or "").strip()
            if not encounter_id:
                raise ValueError(f"{path}:{row_no}: blank encounter_id")
            if encounter_id in values:
                raise ValueError(f"{path}:{row_no}: duplicate encounter_id {encounter_id}")
            raw = (row.get(metric_name) or "").strip()
            where = f"{path}:{row_no}: {metric_name} value {raw!r}"
            try:
                value = float(raw)
            except ValueError as exc:
                raise ValueError(f"{where} is not a number") from exc
            if not math.isfinite(value):
                raise ValueError(f"{where} is not finite")
            values[encounter_id] = value
    if not values:
        raise ValueError(f"{path}: no data rows")
    return MetricVector(name=metric_name, values=values)


class CorrelationRow(JsonRecord):
    """One baseline's correlation with a target metric: a ``compare --json`` row."""

    versioned = False

    metric_name: str
    n: int
    spearman_r: float
    spearman_p: float
    pearson_r: float
    pearson_p: float


def correlation_table(
    target: MetricVector, baselines: Iterable[MetricVector]
) -> list[CorrelationRow]:
    """Correlate the target metric against each baseline over the
    encounters they share."""
    rows = []
    for baseline in baselines:
        x, y, shared = target.aligned(baseline)
        if len(shared) < 3:
            raise ValueError(
                f"metrics {target.name} and {baseline.name} share only "
                f"{len(shared)} encounters; need at least 3"
            )
        s = spearman(x, y)
        p = pearson(x, y)
        rows.append(
            CorrelationRow(
                metric_name=baseline.name,
                n=s.n,
                spearman_r=s.statistic,
                spearman_p=s.p_value,
                pearson_r=p.statistic,
                pearson_p=p.p_value,
            )
        )
    return rows


def render_correlation_table(target_name: str, rows: Sequence[CorrelationRow]) -> str:
    header = f"correlations against {target_name}"
    columns = f"{'metric':<20} {'n':>4} {'spearman':>9} {'p':>8} {'pearson':>9} {'p':>8}"
    lines = [header, "-" * len(columns), columns]
    for row in rows:
        lines.append(
            f"{row.metric_name:<20} {row.n:>4} {row.spearman_r:>9.4f} "
            f"{row.spearman_p:>8.4f} {row.pearson_r:>9.4f} {row.pearson_p:>8.4f}"
        )
    return "\n".join(lines)


def rouge_vectors(
    pairs: Mapping[str, tuple[str, str]], use_stemmer: bool = False
) -> list[MetricVector]:
    """Per-encounter ROUGE F1 vectors over (candidate, reference) pairs."""
    collected: dict[str, dict[str, float]] = {name: {} for name in ROUGE_VARIANTS}
    for encounter_id, (candidate, reference) in pairs.items():
        for name, score in rouge_all(candidate, reference, use_stemmer).items():
            collected[name][encounter_id] = score.f1
    return [MetricVector(name=name, values=collected[name]) for name in ROUGE_VARIANTS]
