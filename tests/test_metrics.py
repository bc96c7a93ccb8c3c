import math

import numpy as np
import pytest

from tokenpath.core import Corpus, Entity, InputOrder, ocr_order
from tokenpath.metrics import (
    ard,
    continuous_entity_rate,
    corpus_continuous_entity_rate,
    dataset_stats,
    entity_f1,
    link_f1,
    page_bleu,
    sum_reports,
    word_f1,
)

from .test_core import make_doc


class TestEntityF1:
    def test_half_match(self):
        pred = [Entity(0, (0, 1)), Entity(1, (5,))]
        gold = [Entity(0, (0, 1)), Entity(1, (5, 6))]
        rep = entity_f1(pred, gold)
        assert (rep.precision, rep.recall, rep.f1) == (0.5, 0.5, 0.5)

    def test_exact_match_is_one(self):
        gold = [Entity(0, (3, 1, 2)), Entity(2, (9,))]
        rep = entity_f1(list(gold), gold)
        assert rep.f1 == 1.0

    def test_wrong_internal_order_counts_wrong(self):
        pred = [Entity(0, (1, 0))]
        gold = [Entity(0, (0, 1))]
        assert entity_f1(pred, gold).f1 == 0.0

    def test_list_order_invariance(self):
        pred = [Entity(0, (0, 1)), Entity(1, (5,))]
        gold = [Entity(1, (5,)), Entity(0, (0, 1))]
        assert entity_f1(pred, gold).f1 == 1.0
        assert entity_f1(pred[::-1], gold[::-1]).f1 == 1.0

    def test_empty_conventions(self):
        assert entity_f1([], []).f1 == 1.0
        assert entity_f1([], [Entity(0, (0,))]).f1 == 0.0
        assert entity_f1([Entity(0, (0,))], []).f1 == 0.0

    def test_duplicates_matched_one_to_one(self):
        pred = [Entity(0, (0, 1)), Entity(0, (0, 1))]
        gold = [Entity(0, (0, 1))]
        rep = entity_f1(pred, gold)
        assert rep.correct == 1 and rep.predicted == 2

    def test_per_type_breakdown(self):
        pred = [Entity(0, (0,)), Entity(1, (1,))]
        gold = [Entity(0, (0,)), Entity(1, (2,))]
        rep = entity_f1(pred, gold, type_names=("q", "a"))
        assert rep.per_type["q"].f1 == 1.0
        assert rep.per_type["a"].f1 == 0.0


class TestSumReports:
    def test_sums_counts_and_per_type_counts(self):
        a = entity_f1([Entity(0, (0, 1))], [Entity(0, (0, 1)), Entity(1, (2,))], ("q", "a"))
        b = entity_f1([Entity(1, (2,))], [], ("q", "a"))
        rep = sum_reports([a, b])
        assert (rep.correct, rep.predicted, rep.gold) == (1, 2, 2)
        assert (rep.per_type["q"].correct, rep.per_type["q"].gold) == (1, 1)
        assert (rep.per_type["a"].correct, rep.per_type["a"].predicted) == (0, 1)

    def test_no_match_across_documents(self):
        # Keys hold word ids only: pooled, document b's prediction would
        # match document a's gold entity.
        pred_a, gold_a = [], [Entity(0, (0, 1))]
        pred_b, gold_b = [Entity(0, (0, 1))], []
        assert entity_f1(pred_a + pred_b, gold_a + gold_b).f1 == 1.0
        rep = sum_reports([entity_f1(pred_a, gold_a), entity_f1(pred_b, gold_b)])
        assert (rep.correct, rep.f1) == (0, 0.0)

    def test_empty_is_vacuous_success(self):
        assert sum_reports([]).f1 == 1.0


class TestWordF1:
    def test_identical(self):
        ents = [Entity(0, (0, 1)), Entity(1, (3,))]
        assert word_f1(ents, ents).f1 == 1.0

    def test_one_of_two_words_wrong_type(self):
        pred = [Entity(0, (0,)), Entity(0, (1,))]
        gold = [Entity(0, (0,)), Entity(1, (1,))]
        assert word_f1(pred, gold).f1 == 0.5

    def test_gap_against_entity_f1(self):
        # right words and type, wrong internal order: word level is blind
        pred = [Entity(0, (1, 0))]
        gold = [Entity(0, (0, 1))]
        assert word_f1(pred, gold).f1 == 1.0
        assert entity_f1(pred, gold).f1 == 0.0


class TestLinkF1:
    def test_content_matched(self):
        gold_ents = [Entity(0, (0,)), Entity(1, (1,))]
        pred_ents = [Entity(1, (1,)), Entity(0, (0,))]  # different indexing
        rep = link_f1(pred_ents, [(1, 0)], gold_ents, [(0, 1)])
        assert rep.f1 == 1.0

    def test_direction_matters(self):
        ents = [Entity(0, (0,)), Entity(1, (1,))]
        rep = link_f1(ents, [(1, 0)], ents, [(0, 1)])
        assert rep.f1 == 0.0


class TestPageBleu:
    def test_identity_is_100(self):
        assert page_bleu(range(8), range(8)) == pytest.approx(100.0)

    def test_reversed_eight_tokens_is_zero(self):
        assert page_bleu(list(reversed(range(8))), list(range(8))) == 0.0

    def test_short_page_uses_feasible_order(self):
        assert page_bleu([0, 1, 2], [0, 1, 2]) == pytest.approx(100.0)
        assert page_bleu([0], [0]) == pytest.approx(100.0)

    def test_partial_overlap_hand_computed(self):
        pred, gold = [0, 1, 2, 3], [0, 1, 3, 2]
        # 1-grams 4/4; 2-grams: pred {01,12,23} vs gold {01,13,32}: 1/3;
        # 3-grams: 0/2 -> zero match kills the page.
        assert page_bleu(pred, gold) == 0.0
        pred, gold = [0, 1, 2], [0, 1, 3]
        # k<=3: p1=2/3, p2=1/2, p3=0 -> 0
        assert page_bleu(pred, gold) == 0.0
        # same length, all n-grams present
        assert page_bleu([1, 2], [1, 2]) == pytest.approx(100.0)

    def test_brevity_penalty(self):
        # pred (0,1) vs gold (0,1,2): p1=1, p2=1, max_k=2, bp=exp(1-3/2)
        expected = 100.0 * math.exp(1 - 3 / 2)
        assert page_bleu([0, 1], [0, 1, 2]) == pytest.approx(expected)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            page_bleu([0], [])

    def test_accepts_input_order(self):
        assert page_bleu(InputOrder((0, 1, 2, 3)), InputOrder((0, 1, 2, 3))) == 100.0


class TestArd:
    def test_identity_zero(self):
        assert ard([2, 0, 1], [2, 0, 1]) == 0.0

    def test_hand_computed(self):
        assert ard((1, 0, 2), (0, 1, 2)) == pytest.approx(2 / 3, abs=1e-12)

    def test_missing_tokens_charged_max(self):
        # pred omits token 2 of 3: |0-0| + |1-1| + 3 = 3, / 3 = 1
        assert ard([0, 1], [0, 1, 2]) == pytest.approx(1.0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ard([0, 0, 1], [0, 1, 2])

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            ard([0, 9], [0, 1])

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            gold = list(rng.permutation(n))
            pred = list(rng.permutation(n))
            assert (ard(pred, gold) == 0.0) == (pred == gold)


class TestContinuousEntityRate:
    def doc(self, entities):
        return make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(7)],
            [list(range(7))],
            entities=entities,
        )

    def test_continuous(self):
        d = self.doc([Entity(0, (3, 4, 5))])
        assert continuous_entity_rate(d, InputOrder(tuple(range(7)))) == 1.0

    def test_interrupted(self):
        d = self.doc([Entity(0, (0, 1, 2, 6))])
        assert continuous_entity_rate(d, InputOrder(tuple(range(7)))) == 0.0

    def test_direction_sensitive(self):
        d = self.doc([Entity(0, (4, 3))])
        assert continuous_entity_rate(d, InputOrder(tuple(range(7)))) == 0.0
        # an order that puts 4 immediately before 3 makes it continuous
        order = InputOrder((4, 3, 0, 1, 2, 5, 6))
        assert continuous_entity_rate(d, order) == 1.0

    def test_no_entities_is_none(self):
        assert continuous_entity_rate(self.doc([]), InputOrder(tuple(range(7)))) is None

    def test_sorting_order_makes_all_continuous(self):
        d = self.doc([Entity(0, (5, 2)), Entity(1, (6, 0, 1))])
        order = InputOrder((5, 2, 6, 0, 1, 3, 4))
        assert continuous_entity_rate(d, order) == 1.0

    def test_corpus_rate_entity_weighted(self):
        d1 = self.doc([Entity(0, (0, 1)), Entity(0, (2, 4))])  # 1 of 2
        d2 = self.doc([Entity(0, (5, 6))])  # 1 of 1
        rate = corpus_continuous_entity_rate(
            [d1, d2], [InputOrder(tuple(range(7)))] * 2
        )
        assert rate == pytest.approx(2 / 3)


class TestDatasetStats:
    def fixture_corpus(self):
        # two hand-built documents with hand-countable statistics
        d1 = make_doc(
            [("a", 0, 0, 8, 5), ("b", 12, 0, 20, 5), ("c", 0, 10, 8, 15),
             ("d", 40, 0, 48, 5)],
            [[0, 1], [2], [3]],
            entities=[Entity(0, (0, 1)), Entity(1, (2,))],
            links=[(0, 1)],
        )
        d1 = type(d1)(**{**d1.__dict__, "id": "d1"})
        d2 = make_doc(
            [("e", 0, 0, 8, 5), ("f", 12, 0, 20, 5), ("g", 24, 0, 32, 5)],
            [[0, 1, 2]],
            entities=[Entity(0, (0, 2))],  # not continuous under OCR order
        )
        d2 = type(d2)(**{**d2.__dict__, "id": "d2"})
        return Corpus((d1, d2), {"train": ("d1",), "val": (), "test": ("d2",)})

    def test_hand_computed_values(self):
        stats = dataset_stats(self.fixture_corpus())
        assert stats.n_documents == 2
        assert stats.n_segments == 4
        assert stats.n_words == 7
        assert stats.avg_segment_len == pytest.approx(7 / 4)
        assert stats.n_entities == 3
        assert stats.avg_entity_len == pytest.approx(5 / 3)
        # continuous: d1 both entities continuous, d2's entity (0,2) is not
        assert stats.continuous_rate == pytest.approx(2 / 3)
        assert stats.n_types == 2
        assert stats.split_sizes == {"train": 1, "val": 0, "test": 1}

    def test_empty_corpus(self):
        stats = dataset_stats(Corpus((), {}))
        assert stats.n_documents == 0
        assert stats.continuous_rate is None
        assert stats.avg_entity_len == 0.0

    def test_table_renders(self):
        table = dataset_stats(self.fixture_corpus()).format_table()
        assert "continuous entity rate" in table and "66.67%" in table
