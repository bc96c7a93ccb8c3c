import numpy as np
import pytest

from tokenpath.core import Entity, InputOrder
from tokenpath.datagen import GenConfig, gen_corpus
from tokenpath.labels import (
    GridConstructionError,
    bio_decode,
    bio_encode,
    bio_tag_names,
    el_grid,
    ner_grids,
    rop_grid,
)

from .test_core import make_doc, seven_word_doc


def bits(grid):
    return {(int(a), int(b)) for a, b in zip(*np.nonzero(grid))}


class TestNerGrids:
    def test_consecutive_pairs_marked(self):
        # entity ("NAME", "OF", "ACCOUNT") at 3,4,5: edges (3,4) and (4,5)
        doc = seven_word_doc()
        grids = ner_grids(doc)
        assert bits(grids[1]) == {(3, 4), (4, 5)}

    def test_interrupted_entity_edges(self):
        doc = seven_word_doc()
        grids = ner_grids(doc)
        assert bits(grids[0]) == {(0, 1), (1, 2), (2, 6)}

    def test_singleton_marks_diagonal(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(8)],
            [list(range(8))],
            entities=[Entity(0, (7,))],
        )
        assert bits(ner_grids(doc)[0]) == {(7, 7)}

    def test_two_same_type_entities(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(7)],
            [list(range(7))],
            entities=[Entity(0, (0, 1, 2, 6)), Entity(0, (3, 4, 5))],
        )
        assert bits(ner_grids(doc)[0]) == {(0, 1), (1, 2), (2, 6), (3, 4), (4, 5)}

    def test_total_bits_equal_sum_of_path_lengths(self):
        corpus = gen_corpus(GenConfig(doc_count=15, seed=2))
        for doc in corpus.documents:
            grids = ner_grids(doc)
            expected = sum(max(len(e.word_indices) - 1, 1) for e in doc.entities)
            assert int(grids.sum()) == expected

    def test_order_invariance(self):
        # Grids depend only on word indices, never on any input order, so
        # there is nothing an order could change; check documents directly.
        doc = seven_word_doc()
        before = ner_grids(doc)
        rng = np.random.default_rng(0)
        for _ in range(100):
            rng.permutation(doc.n_words)  # an order exists, grids ignore it
            assert np.array_equal(ner_grids(doc), before)

    def test_shared_begin_different_successor_rejected(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(4)],
            [list(range(4))],
            entities=[Entity(0, (0, 1)), Entity(0, (0, 2))],
        )
        with pytest.raises(GridConstructionError, match="two\\s+successors|two successors"):
            ner_grids(doc)


class TestElGrid:
    def test_all_pairs_between_linked_entities(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)],
            [list(range(3))],
            entities=[Entity(0, (0, 1)), Entity(1, (2,))],
            links=[(0, 1)],
        )
        assert bits(el_grid(doc)) == {(0, 2), (1, 2)}

    def test_no_links_all_zero(self):
        doc = seven_word_doc()
        assert el_grid(doc).sum() == 0

    def test_self_link_rejected(self):
        doc = make_doc(
            [("a", 0, 0, 5, 5)], [[0]],
            entities=[Entity(0, (0,))], links=[(0, 0)],
        )
        with pytest.raises(ValueError, match="itself"):
            el_grid(doc)

    def test_missing_entity_rejected(self):
        doc = make_doc(
            [("a", 0, 0, 5, 5)], [[0]],
            entities=[Entity(0, (0,))], links=[(0, 3)],
        )
        with pytest.raises(ValueError, match="missing"):
            el_grid(doc)


class TestRopGrid:
    def test_hand_example(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)], [list(range(3))],
        )
        grid = rop_grid(doc, InputOrder((2, 0, 1)))
        assert bits(grid) == {(0, 3), (3, 1), (1, 2)}

    def test_single_word(self):
        doc = make_doc([("a", 0, 0, 5, 5)], [[0]])
        assert bits(rop_grid(doc, InputOrder((0,)))) == {(0, 1)}

    def test_exactly_n_ones(self):
        corpus = gen_corpus(GenConfig(doc_count=10, seed=9))
        for doc in corpus.documents:
            grid = rop_grid(doc, InputOrder(doc.gold_order))
            assert int(grid.sum()) == doc.n_words


class TestBio:
    def test_tag_names(self):
        assert bio_tag_names(("q", "a")) == ["O", "B-q", "I-q", "B-a", "I-a"]

    def test_continuous_entity(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(4)],
            [list(range(4))],
            entities=[Entity(0, (0, 1))],
        )
        tags = bio_encode(doc, InputOrder.identity(4))
        assert tags == ["B-q", "I-q", "O", "O"]

    def test_fragmentation_under_identity_order(self):
        # entity (0,1,2,6): the trailing word is disconnected in the order,
        # so the span fragments into two independent B/I runs.
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(7)],
            [list(range(7))],
            entities=[Entity(0, (0, 1, 2, 6))],
        )
        tags = bio_encode(doc, InputOrder.identity(7))
        assert tags == ["B-q", "I-q", "I-q", "O", "O", "O", "B-q"]

    def test_empty_entities_all_o(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)], [list(range(3))],
        )
        assert bio_encode(doc, InputOrder.identity(3)) == ["O", "O", "O"]

    def test_wrong_internal_order_fragments(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)],
            [list(range(3))],
            entities=[Entity(0, (1, 0, 2))],
        )
        # ranks under identity: 1,0,2; no pair is consecutive-increasing
        assert bio_encode(doc, InputOrder.identity(3)) == ["B-q", "B-q", "B-q"]

    def test_decode_simple(self):
        order = InputOrder.identity(3)
        assert bio_decode(["B-q", "I-q", "O"], order, ("q",)) == [Entity(0, (0, 1))]

    def test_decode_repairs_ill_formed(self):
        order = InputOrder.identity(3)
        assert bio_decode(["O", "I-q", "I-q"], order, ("q",)) == [Entity(0, (1, 2))]

    def test_decode_follows_input_order(self):
        order = InputOrder((2, 0, 1))
        assert bio_decode(["B-q", "I-q", "O"], order, ("q",)) == [Entity(0, (2, 0))]

    def test_round_trip_iff_continuous(self):
        from tokenpath.core import ocr_order
        from tokenpath.metrics import continuous_entity_rate

        corpus = gen_corpus(GenConfig(doc_count=30, seed=13))
        for doc in corpus.documents:
            order = ocr_order(doc)
            decoded = bio_decode(bio_encode(doc, order), order, doc.entity_types)
            same = sorted(e.key() for e in decoded) == sorted(e.key() for e in doc.entities)
            assert same == (continuous_entity_rate(doc, order) == 1.0)

