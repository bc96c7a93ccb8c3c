import itertools
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from tokenpath.core import ocr_order, validate_document
from tokenpath.datagen import (
    GenConfig, GenError, _column_split, _entity_texts, gen_corpus, shuffle_order, type_names,
)
from tokenpath.decode import ner_decode
from tokenpath.labels import ner_grids
from tokenpath.metrics import corpus_continuous_entity_rate


@dataclass(frozen=True)
class _Lexicon:
    """Per-type pools. Continuation pools are indexed by position within the
    entity (capped), the way real fields chain label -> unit -> value, so
    consecutive-pair text patterns are informative."""

    initial: tuple[str, ...]
    cont_pools: tuple[tuple[str, ...], ...]
    singleton: tuple[str, ...]

    def sample_entity(self, k: int, rng) -> list[str]:
        if k == 1:
            return [str(rng.choice(self.singleton))]
        texts = [str(rng.choice(self.initial))]
        for j in range(1, k):
            pool = self.cont_pools[min(j, len(self.cont_pools)) - 1]
            texts.append(str(rng.choice(pool)))
        return texts


def _lexicons(names: Sequence[str]) -> list[_Lexicon]:
    return [
        _Lexicon(
            initial=tuple(f"{n.upper()}:{i}" for i in range(6)),
            cont_pools=tuple(
                tuple(f"{n}-{s}{i}" for i in range(3)) for s in range(1, 4)
            ),
            singleton=tuple(f"#{n}{i}" for i in range(4)),
        )
        for n in names
    ]


def _reference_column_split(units) -> int:
    """The loop ``_column_split`` replaced, kept as its reference; it read
    ("filler", k) and ("entity", t, k, pattern) unit records."""
    units = [("filler", k) if t is None else ("entity", t, k, p) for t, k, p in units]
    counts = [u[1] if u[0] == "filler" else u[2] for u in units]
    half = sum(counts) / 2
    acc, split_at = 0, len(units)
    for i, c in enumerate(counts):
        acc += c
        if acc >= half:
            split_at = i + 1
            break
    return split_at


class TestReferences:
    """``_entity_texts`` and ``_column_split`` against the lexicon classes and
    the loop they replaced: the same results and the same random draws, so
    generated corpora keep their bytes."""

    def test_entity_texts_match_the_lexicons(self):
        names = type_names(12)
        assert names[-1] == "field11"  # palette names and fieldN names
        for name, lexicon in zip(names, _lexicons(names)):
            for k in range(1, 10):
                for seed in range(10):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert _entity_texts(name, k, rng) == lexicon.sample_entity(k, ref)
                    assert rng.bit_generator.state == ref.bit_generator.state

    def test_column_split_matches_the_loop(self):
        rng = np.random.default_rng(0)
        for n_units in range(1, 13):
            for _ in range(100):
                units = [(None if rng.random() < 0.3 else int(rng.integers(3)),
                          int(rng.integers(1, 9)), "flow") for _ in range(n_units)]
                assert _column_split(units) == _reference_column_split(units)


class TestGenConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GenConfig(interleave_prob=1.5)
        with pytest.raises(ValueError):
            GenConfig(words_per_doc=(5, 2))
        with pytest.raises(ValueError):
            GenConfig(doc_count=0)

    @pytest.mark.parametrize("seed, problem", [
        (-1, "seed value -1 is below 0"), (1.5, "seed value 1.5 is not an integer"),
        ("3", "seed value '3' is not an integer"), (True, "seed value True is not an integer"),
    ])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed, problem):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            GenConfig(seed=seed)
        assert GenConfig(seed=np.int64(3)).seed == 3


class TestGenCorpus:
    def test_all_documents_valid(self):
        corpus = gen_corpus(GenConfig(doc_count=40, seed=3))
        for doc in corpus.documents:
            assert validate_document(doc) == []

    def test_deterministic_per_seed(self):
        a = gen_corpus(GenConfig(doc_count=15, seed=5))
        b = gen_corpus(GenConfig(doc_count=15, seed=5))
        assert a.documents == b.documents
        assert a.splits == b.splits
        c = gen_corpus(GenConfig(doc_count=15, seed=6))
        assert a.documents != c.documents

    def test_zero_disorder_is_fully_continuous(self):
        corpus = gen_corpus(GenConfig(
            doc_count=30, multi_row_prob=0, multi_column_prob=0,
            long_entity_prob=0, interleave_prob=0, seed=7,
        ))
        docs = corpus.documents
        rate = corpus_continuous_entity_rate(docs, [ocr_order(d) for d in docs])
        assert rate == 1.0

    def test_high_disorder_below_half(self):
        corpus = gen_corpus(GenConfig(
            doc_count=30, multi_column_prob=1.0, interleave_prob=1.0, seed=7,
        ))
        docs = corpus.documents
        rate = corpus_continuous_entity_rate(docs, [ocr_order(d) for d in docs])
        assert rate < 0.5

    def test_word_counts_within_range(self):
        cfg = GenConfig(doc_count=25, words_per_doc=(12, 30), seed=9)
        for doc in gen_corpus(cfg).documents:
            assert 12 <= doc.n_words <= 30

    def test_entities_recoverable_from_grids(self):
        for doc in gen_corpus(GenConfig(doc_count=25, seed=11)).documents:
            # An oracle grid: +10 on every gold edge, -10 elsewhere.
            got = ner_decode(np.where(ner_grids(doc), 10.0, -10.0))
            assert [e.to_entity().key() for e in got] == sorted(e.key() for e in doc.entities)

    def test_gold_order_is_permutation_and_continuous(self):
        from tokenpath.metrics import continuous_entity_rate

        for doc in gen_corpus(GenConfig(doc_count=20, seed=13)).documents:
            assert sorted(doc.gold_order) == list(range(doc.n_words))
            # the gold flow reads every entity contiguously in its own order
            assert continuous_entity_rate(doc, doc.gold_order) == 1.0

    def test_split_sizes(self):
        corpus = gen_corpus(GenConfig(doc_count=30, val_fraction=0.1, test_fraction=0.2, seed=1))
        assert len(corpus.splits["train"]) == 21
        assert len(corpus.splits["val"]) == 3
        assert len(corpus.splits["test"]) == 6
        assert len(corpus.split("train")) == 21

    def test_links_reference_different_types(self):
        for doc in gen_corpus(GenConfig(doc_count=20, link_prob=0.9, seed=15)).documents:
            for a, b in doc.links:
                assert doc.entities[a].type_id != doc.entities[b].type_id

    def test_infeasible_page_errors_after_retries(self):
        with pytest.raises(GenError, match="100 attempts"):
            gen_corpus(GenConfig(doc_count=1, page_width=90.0, page_height=60.0, seed=0))


class TestShuffleOrder:
    def test_single_segment_is_identity(self):
        corpus = gen_corpus(GenConfig(doc_count=30, seed=17))
        found = False
        for doc in corpus.documents:
            if len(doc.segments) == 1:
                found = True
                assert shuffle_order(doc, 123).perm == ocr_order(doc).perm
        if not found:  # synthesize one
            from .test_core import make_doc

            doc = make_doc([("a", 0, 0, 5, 5), ("b", 8, 0, 12, 5)], [[0, 1]])
            assert shuffle_order(doc, 123).perm == ocr_order(doc).perm

    def test_same_seed_same_permutation(self):
        doc = gen_corpus(GenConfig(doc_count=1, seed=19)).documents[0]
        assert shuffle_order(doc, 7).perm == shuffle_order(doc, 7).perm

    def test_preserves_within_segment_order(self):
        doc = gen_corpus(GenConfig(doc_count=1, seed=21)).documents[0]
        order = shuffle_order(doc, 99)
        runs = {seg.word_indices: False for seg in doc.segments}
        perm = order.perm
        i = 0
        while i < len(perm):
            matched = False
            for seg in doc.segments:
                k = len(seg.word_indices)
                if tuple(perm[i : i + k]) == seg.word_indices:
                    runs[seg.word_indices] = True
                    i += k
                    matched = True
                    break
            assert matched, "shuffled order should be a concatenation of segments"
        assert all(runs.values())

    def test_uniform_over_three_segments(self):
        from .test_core import make_doc

        doc = make_doc(
            [("a", 0, 0, 5, 5), ("b", 0, 10, 5, 15), ("c", 0, 20, 5, 25)],
            [[0], [1], [2]],
        )
        counts = {p: 0 for p in itertools.permutations((0, 1, 2))}
        draws = 10_000
        for seed in range(draws):
            counts[shuffle_order(doc, seed).perm] += 1
        for p, c in counts.items():
            assert abs(c / draws - 1 / 6) < 0.02, (p, c)
