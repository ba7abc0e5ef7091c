"""Property tests: the bit-parallel LCS and the ROUGE variants built on it
agree with the independent oracle in rouge_oracle.py.

Token lists are drawn from vocabularies of 1-4 words, so repeated tokens
and ties between LCS paths are the common case, not the rare one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rouge_oracle
from factgap.baselines import (
    TokenizedText,
    _lcs_indices,
    lcs_length,
    rouge_all,
    rouge_l,
    rouge_lsum,
    rouge_n,
)

WORDS = ("fever", "cough", "rash", "pain")
SEPARATORS = (". ", "\n", "! ", "? ", "... ", " .\n")


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
    score = rouge_lsum(candidate, reference)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.summary_lcs_prf(
        candidate, reference
    )


# Characters on both sides of every cut split_sentences makes, plus ones
# whose lowercase form is longer or depends on context.
_TEXT_ALPHABET = st.one_of(
    st.sampled_from("ab Z9 .!?\n\r\t\x0b\x0c\x1c\x85 İKΣ-,"),
    st.characters(),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(_TEXT_ALPHABET, max_size=80), st.text(_TEXT_ALPHABET, max_size=80), st.booleans())
def test_rouge_all_tokenizing_once_changes_no_score(candidate, reference, use_stemmer):
    assert rouge_all(candidate, reference, use_stemmer) == {
        "rouge1": rouge_n(candidate, reference, 1, use_stemmer),
        "rouge2": rouge_n(candidate, reference, 2, use_stemmer),
        "rougeL": rouge_l(candidate, reference, use_stemmer),
        "rougeLsum": rouge_lsum(candidate, reference, use_stemmer),
    }


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


def test_tokenized_text_must_match_the_scoring_stemmer():
    text = TokenizedText.of("Running fevers.", use_stemmer=True)
    assert rouge_l(text, text, use_stemmer=True).f1 == 1.0
    with pytest.raises(ValueError, match="use_stemmer"):
        rouge_l(text, "running fevers", use_stemmer=False)


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
    score = rouge_lsum(candidate, reference)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.summary_lcs_prf(
        candidate, reference
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sentence_texts((1, 6), 12, (1, 4)), sentence_texts((20, 60), 12, (1, 4)))
def test_rouge_lsum_matches_oracle_across_many_reference_sentences(candidate, reference):
    # The reference sentences share one int, so every walk and hit count
    # crosses 20-60 guard bits.
    assert_rouge_lsum_matches_oracle(candidate, reference)


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
    score = rouge_n(candidate, reference, n)
    assert (score.precision, score.recall, score.f1) == rouge_oracle.ngram_prf(
        candidate, reference, n
    )
