"""Property tests: the bit-parallel LCS and the ROUGE variants built on it
agree with the independent oracle in rouge_oracle.py.

Token lists are drawn from vocabularies of 1-4 words, so repeated tokens
and ties between LCS paths are the common case, not the rare one.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rouge_oracle
from factgap.baselines import (
    _lcs_hits,
    _smear_shifts,
    porter_stem,
    rouge_l,
    rouge_lsum,
    rouge_n,
    sentence_tokens,
    side_by_side,
    tokenize,
)

WORDS = ("fever", "cough", "rash", "pain")
SEPARATORS = (". ", "\n", "! ", "? ", "... ", " .\n")


def _lcs_indices(ref, cand):
    """Positions in ref on the one LCS with cand that rouge_lsum credits."""
    masks, starts, full = side_by_side((ref,), set(cand))
    hits = _lcs_hits(masks, full, _smear_shifts(starts, full), cand)
    return {i for i in range(len(ref)) if hits >> i & 1}


def lcs_length(a, b):
    """The LCS that rouge_l credits to candidate b against reference a."""
    return round(rouge_l(b, side_by_side((a,), set(b))).precision * len(b))


def rouge_lsum_of_texts(candidate, reference):
    cand_sentences = sentence_tokens(candidate)
    layout = side_by_side(sentence_tokens(reference), set(tokenize(candidate)))
    return rouge_lsum(cand_sentences, layout)


def reference_sentence_tokens(text, use_stemmer):
    """Each sentence's tokens, from rouge_oracle's regex sentence split
    and regex tokens, stemmed as the package stems."""
    sentences = [rouge_oracle.words(s) for s in rouge_oracle.split_sentences(text)]
    if use_stemmer:
        sentences = [[porter_stem(t) if len(t) > 3 else t for t in s] for s in sentences]
    return [s for s in sentences if s]


@st.composite
def token_lists(draw, max_size=40):
    vocabulary = WORDS[: draw(st.integers(1, len(WORDS)))]
    return draw(st.lists(st.sampled_from(vocabulary), max_size=max_size))


@st.composite
def multi_sentence_texts(draw):
    vocabulary = WORDS[: draw(st.integers(1, len(WORDS)))]
    sentences = draw(
        st.lists(st.lists(st.sampled_from(vocabulary), max_size=12), min_size=1, max_size=6)
    )
    text = ""
    for sentence in sentences:
        text += " ".join(sentence) + draw(st.sampled_from(SEPARATORS))
    return text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(token_lists(), token_lists())
def test_lcs_length_matches_oracle(a, b):
    assert lcs_length(a, b) == rouge_oracle.lcs_len(a, b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(token_lists(), token_lists())
def test_lcs_indices_follow_the_oracle_backtrack(a, b):
    assert _lcs_indices(a, b) == rouge_oracle._lcs_hit_positions(a, b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(multi_sentence_texts(), multi_sentence_texts())
def test_rouge_lsum_matches_oracle_exactly(candidate, reference):
    score = rouge_lsum_of_texts(candidate, reference)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.summary_lcs_prf(
        candidate, reference
    )


# Characters on both sides of every cut rouge_oracle.split_sentences
# makes, plus ones whose lowercase form is longer or depends on context.
_TEXT_ALPHABET = st.one_of(
    st.sampled_from("ab Z9 .!?\n\r\t\x0b\x0c\x1c\x85 İKΣ-,"),
    st.characters(),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(_TEXT_ALPHABET, max_size=80), st.booleans())
def test_sentence_tokens_joined_are_the_text_tokens(text, use_stemmer):
    # rouge_all splits each text once and joins the sentences for
    # ROUGE-N and ROUGE-L, so every cut must fall between tokens.
    joined = [token for sentence in sentence_tokens(text, use_stemmer) for token in sentence]
    assert joined == tokenize(text, use_stemmer)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(_TEXT_ALPHABET, max_size=80), st.booleans())
def test_sentence_tokens_cut_where_the_regex_reference_cuts(text, use_stemmer):
    assert sentence_tokens(text, use_stemmer) == reference_sentence_tokens(text, use_stemmer)


def test_lcs_spanning_many_machine_words():
    # Over 600 tokens, so each column spans ten or more 64-bit words.
    # rouge_oracle.lcs_len recurses len(a) + len(b) frames deep, so the
    # oracle's iterative backtrack is the reference here.
    rng = random.Random(20231)
    a = [rng.choice(WORDS[:3]) for _ in range(700)]
    b = [rng.choice(WORDS[:3]) for _ in range(650)]
    positions = rouge_oracle._lcs_hit_positions(a, b)
    assert lcs_length(a, b) == len(positions)
    assert _lcs_indices(a, b) == positions


@st.composite
def sentence_texts(draw, sentences, max_words, vocabularies):
    vocabulary = WORDS[: draw(st.integers(*vocabularies))]
    chosen = draw(
        st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=max_words),
            min_size=sentences[0],
            max_size=sentences[1],
        )
    )
    return "".join(" ".join(s) + draw(st.sampled_from(SEPARATORS)) for s in chosen)


def assert_rouge_lsum_matches_oracle(candidate, reference):
    score = rouge_lsum_of_texts(candidate, reference)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.summary_lcs_prf(
        candidate, reference
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sentence_texts((1, 6), 12, (1, 4)), sentence_texts((20, 60), 12, (1, 4)))
def test_rouge_lsum_matches_oracle_across_many_reference_sentences(candidate, reference):
    # The reference sentences share one int, so every walk and hit count
    # crosses 20-60 guard bits.
    assert_rouge_lsum_matches_oracle(candidate, reference)


@st.composite
def long_sentences_beside_one_word_ones(draw):
    vocabulary = WORDS[: draw(st.integers(1, len(WORDS)))]
    lengths = []
    for n in draw(st.lists(st.integers(65, 300), min_size=1, max_size=3)):
        lengths += [1] * draw(st.integers(0, 3)) + [n]
    lengths += [1] * draw(st.integers(1, 3))
    # Between its first and last word, which the candidates may share, a
    # sentence is sparse in such words: the filler word is in no
    # candidate, so stops can lie up to a whole sentence apart.
    density = draw(st.sampled_from((0.0, 0.01, 0.03, 0.1, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sentences = []
    for n in lengths:
        words = [rng.choice(vocabulary) if rng.random() < density else "note" for _ in range(n)]
        words[0], words[-1] = rng.choice(vocabulary), rng.choice(vocabulary)
        sentences.append(" ".join(words) + rng.choice(SEPARATORS))
    return "".join(sentences)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sentence_texts((1, 6), 12, (1, 4)), long_sentences_beside_one_word_ones())
def test_rouge_lsum_matches_oracle_on_long_reference_sentences(candidate, reference):
    # Sentences of 65-300 words take smear shifts up to 256, and the
    # one-word sentences beside them put guard bits within every shift's
    # reach; sparse stops make the long shifts matter. The score caps
    # credit per token, so the hits of each walk are checked as well.
    assert_rouge_lsum_matches_oracle(candidate, reference)
    ref_sentences = sentence_tokens(reference)
    masks, starts, full = side_by_side(ref_sentences, set(tokenize(candidate)))
    shifts = _smear_shifts(starts, full)
    for cand_sent in sentence_tokens(candidate):
        hits = _lcs_hits(masks, full, shifts, cand_sent)
        assert {i for i in range(starts[-1]) if hits >> i & 1} == {
            start + i
            for start, ref_sent in zip(starts, ref_sentences)
            for i in rouge_oracle._lcs_hit_positions(ref_sent, cand_sent)
        }


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sentence_texts((1, 8), 2, (1, 2)), sentence_texts((1, 30), 4, (1, 2)))
def test_rouge_lsum_matches_oracle_when_most_sentence_lcs_is_one(candidate, reference):
    # Candidate sentences of 1-2 words from 1-2-word vocabularies: most
    # sentence pairs that share a word have an LCS of exactly 1.
    assert_rouge_lsum_matches_oracle(candidate, reference)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.text(_TEXT_ALPHABET, max_size=80),
    st.text(_TEXT_ALPHABET, max_size=80),
    st.integers(1, 3),
)
def test_rouge_n_matches_oracle_on_arbitrary_text(candidate, reference, n):
    cand = tokenize(candidate)
    score = rouge_n(cand, side_by_side(sentence_tokens(reference), set(cand)), n)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.ngram_prf(
        candidate, reference, n
    )
