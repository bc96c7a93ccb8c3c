from dataclasses import replace

import numpy as np
import pytest

from tokenpath.core import (
    BoundingBox,
    Document,
    Entity,
    InputOrder,
    Segment,
    Word,
    document_from_record,
    document_to_record,
    load_corpus,
    ocr_order,
    save_corpus,
    validate_document,
)
from tokenpath.core import Corpus


def make_doc(word_specs, segment_specs, entities=(), links=(), types=("q", "a")):
    """word_specs: list of (text, x0, y0, x1, y1); segment_specs: list of index lists."""
    words = tuple(Word(t, BoundingBox(*box)) for t, *box in word_specs)
    segments = tuple(
        Segment(tuple(idx), BoundingBox.union([words[i].box for i in idx]))
        for idx in segment_specs
    )
    return Document(
        id="t",
        page_width=600,
        page_height=800,
        words=words,
        segments=segments,
        entity_types=tuple(types),
        entities=tuple(entities),
        links=tuple(links),
    )


def seven_word_doc():
    # Figure-like layout: a two-part column cell interrupted by a right-hand
    # neighbor: ["#", "OF", "STORES"] at y=10, ["NAME", "OF", "ACCOUNT"] at
    # y=17 to the right, ["SUPPLIED"] at y=24 below the first.
    specs = [
        ("#", 10, 10, 16, 20),
        ("OF", 20, 10, 30, 20),
        ("STORES", 34, 10, 70, 20),
        ("NAME", 200, 17, 230, 27),
        ("OF", 234, 17, 244, 27),
        ("ACCOUNT", 248, 17, 300, 27),
        ("SUPPLIED", 10, 24, 70, 34),
    ]
    return make_doc(specs, [[0, 1, 2], [3, 4, 5], [6]],
                    entities=[Entity(0, (0, 1, 2, 6)), Entity(1, (3, 4, 5))])


class TestValidateDocument:
    def test_well_formed_doc_is_clean(self):
        assert validate_document(seven_word_doc()) == []

    def test_entity_index_out_of_range(self):
        doc = make_doc([("a", 0, 0, 5, 5)], [[0]], entities=[Entity(0, (0, 1))])
        problems = validate_document(doc)
        assert any("entity 0" in p and "word 1" in p for p in problems)

    def test_word_in_two_segments(self):
        doc = make_doc([("a", 0, 0, 5, 5), ("b", 10, 0, 15, 5)], [[0, 1], [1]])
        problems = validate_document(doc)
        assert any("word 1 belongs to 2 segments" in p for p in problems)

    def test_word_in_no_segment(self):
        doc = make_doc([("a", 0, 0, 5, 5), ("b", 10, 0, 15, 5)], [[0]])
        assert any("word 1 belongs to no segment" in p for p in validate_document(doc))

    def test_segment_not_containing_word(self):
        words = (Word("a", BoundingBox(0, 0, 5, 5)), Word("b", BoundingBox(100, 0, 120, 5)))
        doc = Document(
            id="t", page_width=600, page_height=800, words=words,
            segments=(Segment((0, 1), BoundingBox(0, 0, 10, 5)),),
        )
        assert any("does not contain word 1" in p for p in validate_document(doc))

    def test_inverted_box_and_linebreak(self):
        doc = make_doc([("a\nb", 10, 10, 5, 5)], [[0]])
        problems = validate_document(doc)
        assert any("line break" in p for p in problems)
        assert any("inverted" in p for p in problems)

    def test_self_link(self):
        doc = make_doc(
            [("a", 0, 0, 5, 5)], [[0]],
            entities=[Entity(0, (0,))], links=[(0, 0)],
        )
        assert any("itself" in p for p in validate_document(doc))

    # One corrupt copy of the seven-word document per violation, and the
    # violation it must report.
    CORRUPT = {
        "infinite_page_width": (lambda d: replace(d, page_width=float("inf")),
                                "page_width must be positive and finite, got inf"),
        "zero_page_height": (lambda d: replace(d, page_height=0.0),
                             "page_height must be positive and finite, got 0.0"),
        "no_words": (lambda d: replace(d, words=(), segments=(), entities=()),
                     "document has no words"),
        "empty_word_text": (lambda d: replace(d, words=(Word("", d.words[0].box),) + d.words[1:]),
                            "word 0 has empty text"),
        "non_finite_box": (lambda d: replace(d, words=d.words[:1] + (
            Word("OF", BoundingBox(20, 10, float("nan"), 20)),) + d.words[2:]),
            "word 1: box has non-finite coordinates"),
        "negative_box": (lambda d: replace(d, words=d.words[:1] + (
            Word("OF", BoundingBox(-20, 10, 30, 20)),) + d.words[2:]),
            "word 1: box has negative coordinates"),
        "empty_segment": (lambda d: replace(d, segments=d.segments + (
            Segment((), BoundingBox(0, 0, 1, 1)),)), "segment 3 is empty"),
        "segment_repeats_a_word": (lambda d: replace(d, segments=(
            replace(d.segments[0], word_indices=(0, 1, 2, 1)),) + d.segments[1:]),
            "segment 0 repeats a word index"),
        "segment_word_outside": (lambda d: replace(d, segments=(
            replace(d.segments[0], word_indices=(0, 1, 2, 9)),) + d.segments[1:]),
            "segment 0 references word index 9 outside [0, 7)"),
        "duplicate_type_name": (lambda d: replace(d, entity_types=("q", "q")),
                                "duplicate entity type name 'q'"),
        "empty_entity": (lambda d: replace(d, entities=(Entity(0, ()),)), "entity 0 is empty"),
        "entity_repeats_a_word": (lambda d: replace(d, entities=(Entity(0, (0, 1, 0)),)),
                                  "entity 0 word 0 repeats"),
        "entity_word_outside": (lambda d: replace(d, entities=(Entity(1, (3, -1)),)),
                                "entity 0 word -1 is outside [0, 7)"),
        "unknown_entity_type": (lambda d: replace(d, entities=(Entity(2, (0,)),)),
                                "entity 0 type 2 is outside [0, 2)"),
        "link_to_missing_entity": (lambda d: replace(d, links=((0, 1), (1, 2))),
                                   "link 1 entity 2 is outside [0, 2)"),
        "gold_order_not_a_permutation": (lambda d: replace(d, gold_order=(0, 1, 2, 3, 4, 5, 5)),
                                         "gold_order is not a permutation of the document's words"),
        "input_order_too_short": (lambda d: replace(d, input_order=(0, 1, 2)),
                                  "input_order is not a permutation of the document's words"),
        "gold_order_holding_a_bool": (lambda d: replace(d, gold_order=(False, 1, 2, 3, 4, 5, 6)),
                                      "gold_order is not a permutation of the document's words"),
    }

    @pytest.mark.parametrize("damage", list(CORRUPT))
    def test_each_violation_is_reported(self, damage):
        corrupt, problem = self.CORRUPT[damage]
        assert problem in validate_document(corrupt(seven_word_doc()))


class TestOcrOrder:
    def test_sorts_by_y_then_x(self):
        # segment A at (y0=10, x0=50), B at (y0=10, x0=5): B's words first
        doc = make_doc(
            [("a1", 50, 10, 60, 20), ("b1", 5, 10, 15, 20), ("b2", 18, 10, 28, 20)],
            [[0], [1, 2]],
        )
        assert ocr_order(doc).perm == (1, 2, 0)

    def test_single_segment_identity(self):
        doc = make_doc([("a", 0, 0, 5, 5), ("b", 8, 0, 12, 5)], [[0, 1]])
        assert ocr_order(doc).perm == (0, 1)

    def test_interrupted_column_cell(self):
        # The classic failure: the right-hand neighbor sits vertically between
        # the two rows of a cell, so the scan interleaves the cell's entity.
        order = ocr_order(seven_word_doc())
        assert order.perm == (0, 1, 2, 3, 4, 5, 6)  # "# OF STORES NAME OF ACCOUNT SUPPLIED"

    def test_deterministic_tie_break_on_equal_boxes(self):
        doc = make_doc(
            [("a", 0, 0, 5, 5), ("b", 0, 0, 5, 5)], [[0], [1]],
        )
        assert ocr_order(doc).perm == (0, 1)


class TestInputOrder:
    def test_rejects_bad_perms(self):
        for bad in ((0, 0), (1, 2), (-1, 0)):
            with pytest.raises(ValueError):
                InputOrder(bad)

    def test_identity_and_inverse(self):
        assert InputOrder(tuple(range(4))).inverse() == (0, 1, 2, 3)
        assert InputOrder((2, 0, 1)).inverse() == (1, 2, 0)

    def test_round_trip_fuzzed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(9, 60))
            perm = tuple(int(i) for i in rng.permutation(n))
            order = InputOrder(perm)
            inv = order.inverse()
            assert tuple(perm[inv[w]] for w in range(n)) == tuple(range(n))


class TestCorpusFormat:
    def test_document_record_round_trip(self):
        doc = seven_word_doc()
        rec = document_to_record(doc)
        assert document_from_record(rec) == doc

    def test_order_keys_round_trip(self):
        doc = replace(seven_word_doc(), gold_order=(6, 0, 1, 2, 3, 4, 5),
                      input_order=(0, 1, 2, 3, 4, 5, 6))
        rec = document_to_record(doc)
        assert rec["gold_order"] == [6, 0, 1, 2, 3, 4, 5]
        assert document_from_record(rec) == doc

    def test_corpus_save_load(self, tmp_path):
        docs = tuple(replace(seven_word_doc(), id=f"d{i}") for i in range(3))
        corpus = Corpus(docs, {"train": ("d0", "d1"), "val": (), "test": ("d2",)})
        save_corpus(corpus, str(tmp_path / "c"))
        loaded = load_corpus(str(tmp_path / "c"))
        assert sorted(loaded.documents, key=lambda d: d.id) == sorted(docs, key=lambda d: d.id)
        assert loaded.splits == corpus.splits
        assert loaded.split("test")[0].id == "d2"

    def test_load_refuses_inconsistent_type_registries(self, tmp_path):
        docs = (replace(seven_word_doc(), id="d0"),
                replace(seven_word_doc(), id="d1", entity_types=("q", "a", "h")))
        save_corpus(Corpus(docs, {"train": ("d0", "d1")}), str(tmp_path / "c"))
        with pytest.raises(ValueError, match="inconsistent entity type registries across corpus"):
            load_corpus(str(tmp_path / "c"))
