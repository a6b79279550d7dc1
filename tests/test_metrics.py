import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recexplain import metrics

from oracles import bleu_oracle, corpus_bleu_oracle, lcs_oracle, rouge_l_oracle, rouge_n_oracle

CAT_CAND = ["the", "cat", "sat"]
CAT_REF = ["the", "cat", "ate"]


def random_tokens(rng, lo=1, hi=12, vocab=8):
    return [f"w{rng.randrange(vocab)}" for _ in range(rng.randrange(lo, hi))]


def pooled_bleu(pairs, max_n):
    return metrics.corpus_bleu([metrics.overlap(c, r) for c, r in pairs], max_n)


def rouge_n(candidate, reference, n):
    return metrics.rouge_n_f1(metrics.overlap(candidate, reference), n)


def token_lists(alphabet, max_len=150):
    """Token lists of a length drawn uniformly from 0..max_len."""
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    )


class TestSentenceBleu:
    def test_identity_is_one(self):
        c = ["a", "nice", "view", "."]
        assert metrics.sentence_bleu(c, c) == pytest.approx(1.0, abs=1e-15)

    def test_no_unigram_overlap_is_floor(self):
        val = metrics.sentence_bleu(["x", "y", "z"], ["a", "b", "c"])
        assert val < 0.01

    def test_cat_example_precisions(self):
        # p1 = 2/3, p2 = 1/2 raw; orders 3 and 4 fall back to smoothing
        # (1/2 and 1), BP = 1, so BLEU = (2/3 * 1/2 * 1/2 * 1) ** (1/4).
        expected = (2 / 3 * 1 / 2 * 1 / 2 * 1.0) ** 0.25
        assert metrics.sentence_bleu(CAT_CAND, CAT_REF) == pytest.approx(expected, abs=1e-12)
        assert bleu_oracle(CAT_CAND, [CAT_REF]) == pytest.approx(expected, abs=1e-12)

    def test_empty_candidate(self):
        assert metrics.sentence_bleu([], ["a"]) == 0.0

    def test_truncation_strictly_reduces(self):
        ref = ["a", "b", "c", "d", "e", "f"]
        full = metrics.sentence_bleu(ref, ref)
        cut = metrics.sentence_bleu(ref[:4], ref)
        assert cut < full == 1.0

    def test_oracle_agreement_random(self):
        rng = random.Random(1234)
        for _ in range(1000):
            cand = random_tokens(rng)
            ref = random_tokens(rng)
            got = metrics.sentence_bleu(cand, ref)
            want = bleu_oracle(cand, [ref])
            assert abs(got - want) < 1e-9
            assert 0.0 <= got <= 1.0


class TestCorpusBleu:
    def test_all_identical_is_one(self):
        pairs = [(["a", "b"], ["a", "b"]), (["c", "d", "e"], ["c", "d", "e"])]
        assert pooled_bleu(pairs, 4) == pytest.approx(1.0)

    def test_single_pair_matches_sentence_bleu_when_unsmoothed(self):
        cand = ["a", "b", "c", "a", "b", "c", "d"]
        ref = ["a", "b", "c", "d", "a", "b", "c"]
        # all four raw precisions are positive here
        assert pooled_bleu([(cand, ref)], 4) == pytest.approx(
            metrics.sentence_bleu(cand, ref, 4), abs=1e-12
        )

    def test_two_pair_oracle(self):
        pairs = [
            (["a", "b", "c"], ["a", "b", "d"]),
            (["x", "y"], ["x", "y", "z"]),
        ]
        # pooled counts: p1 = (2+2)/5, p2 = (1+1)/3; orders 3,4 vacuous for
        # the 2-token pair, the 3-token pair has no 3-gram match -> 0 score
        assert pooled_bleu(pairs, 4) == 0.0
        p1 = 4 / 5
        p2 = 2 / 3
        bp = math.exp(1 - 6 / 5)
        assert pooled_bleu(pairs, 2) == pytest.approx(bp * math.sqrt(p1 * p2), abs=1e-12)

    def test_zero_match_order_zeroes(self):
        assert pooled_bleu([(["a", "b"], ["c", "d"])], 1) == 0.0


class TestRouge:
    def test_identity(self):
        c = ["u", "v", "w"]
        assert rouge_n(c, c, 1) == 1.0
        assert rouge_n(c, c, 2) == 1.0
        assert metrics.rouge_l_f1(c, c) == 1.0

    def test_disjoint(self):
        assert rouge_n(["a"], ["b"], 1) == 0.0
        assert metrics.rouge_l_f1(["a", "b"], ["c", "d"]) == 0.0

    def test_cat_example(self):
        assert abs(rouge_n(CAT_CAND, CAT_REF, 1) - 2 / 3) < 1e-12
        assert abs(metrics.rouge_l_f1(CAT_CAND, CAT_REF) - 2 / 3) < 1e-12

    def test_reversed_reference(self):
        ref = ["a", "b", "c", "d"]
        cand = list(reversed(ref))
        # distinct tokens reversed share an LCS of exactly 1
        assert metrics.rouge_l_f1(cand, ref) == pytest.approx(2 * (1 / 4) * (1 / 4) / (2 / 4))

    def test_short_reference_skipped(self):
        assert rouge_n(["a", "b"], ["a"], 2) == 0.0

    def test_oracle_agreement_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            cand = random_tokens(rng)
            ref = random_tokens(rng)
            for n in (1, 2):
                assert abs(rouge_n(cand, ref, n) - rouge_n_oracle(cand, [ref], n)) < 1e-9
            assert abs(metrics.rouge_l_f1(cand, ref) - rouge_l_oracle(cand, [ref])) < 1e-9

    def test_lcs_at_least_common_bigram_run(self):
        rng = random.Random(7)
        for _ in range(300):
            a = random_tokens(rng, 2, 10, vocab=4)
            b = random_tokens(rng, 2, 10, vocab=4)
            lcs = metrics.lcs_length(a, b)
            assert lcs == lcs_oracle(a, b)
            # longest common contiguous run is a common subsequence
            best_run = 0
            for i in range(len(a)):
                for j in range(len(b)):
                    run = 0
                    while i + run < len(a) and j + run < len(b) and a[i + run] == b[j + run]:
                        run += 1
                    best_run = max(best_run, run)
            assert lcs >= best_run


    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(token_lists("abcde"), token_lists("abcdef"))
    @example([], [])
    @example([], list("abc"))
    @example(list("abc"), [])
    def test_lcs_matches_oracle_past_one_machine_word(self, a, b):
        # lengths up to 150, so b's bitmask runs past 64 bits
        assert metrics.lcs_length(a, b) == lcs_oracle(a, b)


class TestAttributePrf:
    """Attribute P/R/F1 as `evaluate_pairs` computes it from attribute sets."""

    @staticmethod
    def attr_scores(*pairs):
        records = [(["w"], ["w"], pred, truth) for pred, truth in pairs]
        report = metrics.evaluate_pairs(records)
        return report.attr_precision, report.attr_recall, report.attr_f1, report.attr_pairs

    def test_set_arithmetic(self):
        assert self.attr_scores(({0, 1}, {1, 2})) == (0.5, 0.5, 0.5, 1)

    def test_exact_match(self):
        assert self.attr_scores(({0}, {0})) == (1.0, 1.0, 1.0, 1)

    def test_empty_prediction(self):
        assert self.attr_scores((set(), {0})) == (0.0, 0.0, 0.0, 1)

    def test_empty_truth_excluded(self):
        assert self.attr_scores(({0}, {0}), ({0}, set())) == (1.0, 1.0, 1.0, 1)


class TestEvalReport:
    def test_empty_records(self):
        report = metrics.evaluate_pairs([])
        doc = dataclasses.asdict(report)
        assert doc["pairs"] == 0
        for key in ("bleu1", "bleu4", "rouge1", "rougeL", "attr_f1"):
            assert doc[key] == 0.0

    def test_pooled_bleu_and_macro_rouge_match_oracles_random(self):
        # empty candidates and references shorter than n are drawn often
        rng = random.Random(2024)
        nonzero = 0
        for _ in range(300):
            pairs = [(random_tokens(rng, 0, 10, vocab=3), random_tokens(rng, 0, 10, vocab=3)) for _ in range(rng.randrange(1, 6))]
            report = metrics.evaluate_pairs([(c, r, set(), set()) for c, r in pairs])
            assert report.pairs == len(pairs)
            for max_n, got in ((1, report.bleu1), (2, report.bleu2), (4, report.bleu4)):
                assert abs(got - corpus_bleu_oracle(pairs, max_n)) <= 1e-12
            for n, got in ((1, report.rouge1), (2, report.rouge2)):
                assert abs(got - sum(rouge_n_oracle(c, [r], n) for c, r in pairs) / len(pairs)) <= 1e-12
            nonzero += report.bleu4 > 0
        assert nonzero > 50

    def test_perfect_records(self):
        rec = (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"], {1}, {1})
        report = metrics.evaluate_pairs([rec])
        assert report.bleu1 == pytest.approx(1.0)
        assert report.bleu4 == pytest.approx(1.0)
        assert report.rougeL == pytest.approx(1.0)
        assert report.attr_f1 == pytest.approx(1.0)
