import csv
import math
import random

import pytest
import scipy.special
import scipy.stats

import rouge_oracle
from factgap.baselines import (
    CorrelationRow,
    MetricVector,
    average_ranks,
    correlation_table,
    import_external_metric,
    pearson,
    porter_stem,
    regularized_incomplete_beta,
    render_correlation_table,
    rouge_all,
    rouge_l,
    rouge_lsum,
    rouge_n,
    rouge_vectors,
    sentence_tokens,
    side_by_side,
    spearman,
    tokenize,
)


def test_tokenize_lowercases_and_splits_on_non_alnum():
    assert tokenize("The cat, sat-down! x2") == ["the", "cat", "sat", "down", "x2"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_tokenize_stemmer_flag_only_touches_longer_tokens():
    # Tokens of 3 characters or fewer are never stemmed.
    assert tokenize("running runs ran", use_stemmer=True) == ["run", "run", "ran"]
    assert tokenize("ties", use_stemmer=True) == ["ti"]


PORTER_VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("hopping", "hop"),
    ("falling", "fall"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("medication", "medic"),
]


@pytest.mark.parametrize("word,expected", PORTER_VECTORS)
def test_porter_stem_known_vectors(word, expected):
    assert porter_stem(word) == expected


def test_split_sentences():
    # The cuts that sentence_tokens must agree with (test_rouge_properties).
    split_sentences = rouge_oracle.split_sentences
    assert split_sentences("One. Two! Three?\nFour") == ["One", "Two", "Three", "Four"]
    assert split_sentences("") == []
    assert split_sentences("A... B") == ["A", "B"]


def test_sentence_tokens_drop_sentences_without_tokens():
    assert sentence_tokens("Running fevers. -- !\nNo rash", use_stemmer=True) == [
        ["run", "fever"],
        ["no", "rash"],
    ]


def test_rouge_n_hand_computed():
    cand = ["the", "cat", "sat"]
    reference = side_by_side([["the", "cat"]], cand)
    r1 = rouge_n(cand, reference, 1)
    assert r1.precision == pytest.approx(2 / 3)
    assert r1.recall == pytest.approx(1.0)
    r2 = rouge_n(cand, reference, 2)
    assert r2.precision == pytest.approx(0.5)
    assert r2.recall == pytest.approx(1.0)
    assert r2.f1 == pytest.approx(2 / 3)
    zero = rouge_n([], side_by_side([["anything"]], []), 1)
    assert (zero.precision, zero.recall, zero.f1) == (0.0, 0.0, 0.0)


def test_rouge_n_counts_repeats_with_clipping():
    score = rouge_n(["a", "a", "a"], side_by_side([["a", "a", "b"]], ["a"]), 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)


def test_rouge_l_hand_computed():
    # LCS of [a b c d] and [a c b d] is 3 (a b d or a c d).
    cand = ["a", "b", "c", "d"]
    score = rouge_l(cand, side_by_side([["a", "c", "b", "d"]], cand))
    assert score.precision == pytest.approx(3 / 4)
    assert score.recall == pytest.approx(3 / 4)


def test_rouge_lsum_prevents_double_counting():
    # Both reference sentences match the single candidate token, but the
    # candidate only has one "a" to give.
    score = rouge_lsum([["a"]], side_by_side([["a", "b"], ["a", "c"]], ["a"]))
    assert score.precision == pytest.approx(1.0)
    assert score.recall == pytest.approx(1 / 4)


def test_rouge_lsum_unions_across_candidate_sentences():
    score = rouge_lsum([["x", "a"], ["y", "b"]], side_by_side([["a", "b"]], ["x", "a", "y", "b"]))
    assert score.recall == pytest.approx(1.0)
    assert score.precision == pytest.approx(2 / 4)


def test_rouge_all_has_all_variants():
    scores = rouge_all("a b", "a b")
    assert set(scores) == {"rouge1", "rouge2", "rougeL", "rougeLsum"}
    assert scores["rouge1"].f1 == pytest.approx(1.0)


def test_incomplete_beta_matches_scipy():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(0.2, 40.0)
        b = rng.uniform(0.2, 40.0)
        x = rng.random()
        ours = regularized_incomplete_beta(a, b, x)
        theirs = float(scipy.special.betainc(a, b, x))
        assert ours == pytest.approx(theirs, abs=1e-12)
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_average_ranks_with_ties():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]


def test_pearson_matches_scipy():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(5, 40)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [0.4 * v + rng.gauss(0, 1) for v in x]
        ours = pearson(x, y)
        theirs = scipy.stats.pearsonr(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)


def test_spearman_matches_scipy_with_ties():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(5, 40)
        x = [float(rng.randint(0, 6)) for _ in range(n)]
        y = [float(rng.randint(0, 6)) for _ in range(n)]
        try:
            ours = spearman(x, y)
        except ValueError:
            # Constant vector: scipy emits nan here, we refuse instead.
            assert len(set(x)) == 1 or len(set(y)) == 1
            continue
        theirs = scipy.stats.spearmanr(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)


def test_correlation_edge_cases():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x).p_value == 0.0
    assert pearson(x, [-v for v in x]).statistic == -1.0
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length"):
        pearson([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        pearson([1.0, 2.0, float("nan")], [1.0, 2.0, 3.0])


def test_metric_vector_alignment():
    a = MetricVector(name="a", values={"e1": 1.0, "e2": 2.0, "e3": 3.0})
    b = MetricVector(name="b", values={"e2": 5.0, "e3": 6.0, "e4": 7.0})
    x, y, ids = a.aligned(b)
    assert ids == ["e2", "e3"]
    assert x == [2.0, 3.0]
    assert y == [5.0, 6.0]
    with pytest.raises(ValueError, match="non-finite"):
        MetricVector(name="a", values={"e1": float("inf")})


def test_import_external_metric_reads_a_file_with_a_byte_order_mark(tmp_path):
    # As Excel's "CSV UTF-8" export writes it: a BOM and CRLF line ends.
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeffencounter_id,bertscore\r\ne1,0.85\r\n".encode())
    metric = import_external_metric(path)
    assert metric.name == "bertscore"
    assert metric.values == {"e1": 0.85}


def test_import_external_metric_refuses_two_metric_columns(tmp_path):
    # --external takes only a path, so the error cannot ask for a column name.
    multi = tmp_path / "multi.csv"
    multi.write_text("encounter_id,a,b\ne1,1,2\n")
    with pytest.raises(ValueError) as refused:
        import_external_metric(multi)
    assert str(refused.value) == (
        f"{multi}: ambiguous metric column: expected exactly one besides encounter_id, "
        "found ['a', 'b']"
    )


def test_import_external_metric(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("encounter_id,bertscore\ne1,0.85\ne2,0.91\n")
    metric = import_external_metric(path)
    assert metric.name == "bertscore"
    assert metric.values == {"e1": 0.85, "e2": 0.91}

    multi = tmp_path / "multi.csv"
    multi.write_text("encounter_id,a,b\ne1,1,2\n")
    with pytest.raises(ValueError, match="ambiguous"):
        import_external_metric(multi)

    dupe = tmp_path / "dupe.csv"
    dupe.write_text("encounter_id,m\ne1,1\ne1,2\n")
    with pytest.raises(ValueError, match="duplicate"):
        import_external_metric(dupe)

    bad = tmp_path / "bad.csv"
    bad.write_text("encounter_id,m\ne1,abc\n")
    with pytest.raises(ValueError, match="not a number"):
        import_external_metric(bad)

    no_id = tmp_path / "noid.csv"
    no_id.write_text("enc,m\ne1,1\n")
    with pytest.raises(ValueError, match="encounter_id"):
        import_external_metric(no_id)

    long_cell = tmp_path / "long.csv"
    long_cell.write_text(f"encounter_id,m\ne1,1\ne2,{'9' * (csv.field_size_limit() + 1)}\n")
    with pytest.raises(ValueError, match=r"long\.csv:3: field larger than field limit"):
        import_external_metric(long_cell)


@pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity", "1e999"])
def test_import_external_metric_refuses_a_value_that_is_not_finite_at_its_row(tmp_path, raw):
    path = tmp_path / "scores.csv"
    path.write_text(f"encounter_id,bertscore\ne1,0.85\ne2,{raw}\n")
    with pytest.raises(ValueError) as refused:
        import_external_metric(path)
    assert str(refused.value) == f"{path}:3: bertscore value {raw!r} is not finite"


def test_correlation_table_and_rendering():
    rng = random.Random(3)
    ids = [f"e{i}" for i in range(10)]
    target = MetricVector(name="omissions", values={k: rng.random() for k in ids})
    base = MetricVector(name="rouge1", values={k: rng.random() for k in ids})
    rows = correlation_table(target, [base])
    assert len(rows) == 1
    assert rows[0].n == 10
    text = render_correlation_table("omissions", rows)
    assert "rouge1" in text
    assert "spearman" in text

    small = MetricVector(name="tiny", values={"e0": 1.0, "e1": 2.0})
    with pytest.raises(ValueError, match="share only"):
        correlation_table(target, [small])


def test_rouge_vectors():
    vectors = rouge_vectors({"e1": ("a b", "a b"), "e2": ("a", "b")})
    by_name = {v.name: v for v in vectors}
    assert by_name["rouge1"].values["e1"] == pytest.approx(1.0)
    assert by_name["rouge1"].values["e2"] == 0.0
    assert set(by_name) == {"rouge1", "rouge2", "rougeL", "rougeLsum"}
