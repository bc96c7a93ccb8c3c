from typing import Mapping, Sequence

import numpy as np
import pytest

from tokenpath.core import Document, Entity, InputOrder
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


def _reference_bio_encode(doc: Document, order: InputOrder) -> list[str]:
    """The string-tag ``bio_encode`` that ids replaced, kept as its reference.

    Project entities onto an input order as BIO tags.

    Every maximal run of an entity's words that is consecutive in the input
    order AND in the entity's own order becomes an independent B/I span;
    a non-continuous entity therefore fragments into several spans, which
    is precisely how disordered inputs break sequence labeling. Overlaps
    (corrupt gold only) resolve in favor of the earlier entity.
    """
    n = doc.n_words
    inv = order.inverse()
    tags = ["O"] * n
    for ent in doc.entities:
        name = doc.entity_types[ent.type_id]
        idx = ent.word_indices
        run: list[int] = []
        for m, w in enumerate(idx):
            breaks_run = (
                m > 0 and inv[w] != inv[idx[m - 1]] + 1
            ) or tags[inv[w]] != "O"
            if breaks_run and run:
                _reference_emit_bio_run(tags, run, name)
                run = []
            if tags[inv[w]] == "O":
                run.append(inv[w])
        if run:
            _reference_emit_bio_run(tags, run, name)
    return tags


def _reference_emit_bio_run(tags: list[str], positions: list[int], name: str) -> None:
    tags[positions[0]] = f"B-{name}"
    for p in positions[1:]:
        tags[p] = f"I-{name}"


def _reference_bio_decode(
    tags: Sequence[str], order: InputOrder, entity_types: Sequence[str]
) -> list[Entity]:
    """The string-tag ``bio_decode`` that ids replaced, kept as its reference.

    Extract entities from BIO tags along an input order.

    An I tag that does not continue a same-type span is repaired into a B,
    the conventional fix for ill-formed sequences.
    """
    type_id: Mapping[str, int] = {name: i for i, name in enumerate(entity_types)}
    entities: list[Entity] = []
    cur_type: int | None = None
    cur: list[int] = []

    def flush():
        nonlocal cur, cur_type
        if cur:
            entities.append(Entity(cur_type, tuple(cur)))
        cur, cur_type = [], None

    for pos, tag in enumerate(tags):
        if tag == "O":
            flush()
            continue
        mark, name = tag.split("-", 1)
        if name not in type_id:
            raise ValueError(f"tag {tag!r} names unknown entity type {name!r}")
        t = type_id[name]
        if mark == "B" or t != cur_type:
            flush()
            cur_type = t
        cur.append(order.perm[pos])
    flush()
    return entities


def _reference_tag_ids(doc, order):
    """``_reference_bio_encode`` as word-indexed tag ids."""
    tag_of = {t: i for i, t in enumerate(bio_tag_names(doc.entity_types))}
    ids = np.zeros(doc.n_words, dtype=np.int64)
    for pos, tag in enumerate(_reference_bio_encode(doc, order)):
        ids[order.perm[pos]] = tag_of[tag]
    return ids


def _random_entities(rng, n, n_types):
    """Up to five entities of 1-6 words drawn with replacement, so they may
    overlap one another and repeat a word (corrupt gold)."""
    return tuple(
        Entity(int(rng.integers(n_types)), tuple(int(w) for w in rng.integers(n, size=rng.integers(1, 7))))
        for _ in range(rng.integers(0, 6))
    )


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
        assert tags.dtype == np.int64
        assert tags.tolist() == [1, 2, 0, 0]  # B-q I-q O O

    def test_fragmentation_under_identity_order(self):
        # entity (0,1,2,6): the trailing word is disconnected in the order,
        # so the span fragments into two independent B/I runs.
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(7)],
            [list(range(7))],
            entities=[Entity(0, (0, 1, 2, 6))],
        )
        tags = bio_encode(doc, InputOrder.identity(7))
        assert tags.tolist() == [1, 2, 2, 0, 0, 0, 1]

    def test_empty_entities_all_o(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)], [list(range(3))],
        )
        assert bio_encode(doc, InputOrder.identity(3)).tolist() == [0, 0, 0]

    def test_wrong_internal_order_fragments(self):
        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)],
            [list(range(3))],
            entities=[Entity(0, (1, 0, 2))],
        )
        # ranks under identity: 1,0,2; no pair is consecutive-increasing
        assert bio_encode(doc, InputOrder.identity(3)).tolist() == [1, 1, 1]

    def test_decode_simple(self):
        order = InputOrder.identity(3)
        assert bio_decode(np.array([1, 2, 0]), order, ("q",)) == [Entity(0, (0, 1))]

    def test_decode_repairs_ill_formed(self):
        order = InputOrder.identity(3)
        assert bio_decode(np.array([0, 2, 2]), order, ("q",)) == [Entity(0, (1, 2))]

    def test_decode_follows_input_order(self):
        # Along the order the words 2, 0, 1 read B-q I-q O.
        order = InputOrder((2, 0, 1))
        assert bio_decode(np.array([2, 0, 1]), order, ("q",)) == [Entity(0, (2, 0))]

    @pytest.mark.parametrize("bad", [3, -1])
    def test_decode_rejects_id_outside_vocabulary(self, bad):
        with pytest.raises(ValueError, match=f"tag id {bad} is outside the 3-tag vocabulary"):
            bio_decode(np.array([0, bad, 1]), InputOrder.identity(3), ("q",))

    def test_round_trip_iff_continuous(self):
        from tokenpath.core import ocr_order
        from tokenpath.metrics import continuous_entity_rate

        corpus = gen_corpus(GenConfig(doc_count=30, seed=13))
        for doc in corpus.documents:
            order = ocr_order(doc)
            decoded = bio_decode(bio_encode(doc, order), order, doc.entity_types)
            same = sorted(e.key() for e in decoded) == sorted(e.key() for e in doc.entities)
            assert same == (continuous_entity_rate(doc, order) == 1.0)

    def test_encode_equals_reference(self):
        from dataclasses import replace

        from tokenpath.core import ocr_order
        from tokenpath.datagen import shuffle_order

        rng = np.random.default_rng(5)
        corpus = gen_corpus(GenConfig(doc_count=150, words_per_doc=(1, 60), seed=21))
        for k, doc in enumerate(corpus.documents):
            corrupt = replace(doc, entities=_random_entities(rng, doc.n_words, len(doc.entity_types)))
            for d in (doc, corrupt):
                for order in (ocr_order(d), InputOrder(d.gold_order), shuffle_order(d, k)):
                    got = bio_encode(d, order)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, _reference_tag_ids(d, order))

    def test_decode_equals_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(3000):
            n, n_types = int(rng.integers(0, 30)), int(rng.integers(1, 4))
            types = tuple(f"t{t}" for t in range(n_types))
            names = bio_tag_names(types)
            order = InputOrder(tuple(int(w) for w in rng.permutation(n)))
            # Mostly O, so spans of every length occur.
            tag_ids = np.where(rng.random(n) < 0.3, 0, rng.integers(1, len(names), size=n))
            tags = [names[tag_ids[w]] for w in order.perm]
            assert bio_decode(tag_ids, order, types) == _reference_bio_decode(tags, order, types)
