import tracemalloc
import warnings

import numpy as np
import pytest

from tokenpath.core import Entity, InputOrder, ocr_order, replace_order
from tokenpath.datagen import GenConfig, gen_corpus, shuffle_order
from tokenpath import decode as decode_module
from tokenpath.decode import (
    DecodeConfig,
    DecodedEntity,
    Prediction,
    _reject_nan,
    decode_document,
    el_decode,
    ner_decode,
    reorder,
    rop_decode,
)
from tokenpath.labels import bio_decode, el_grid, ner_grids, rop_grid
from tokenpath.scorer import EncoderConfig, init_params, score_document


def grid_from_pairs(n, pairs):
    """pairs: {(i, j): score}; everything else strongly negative."""
    s = np.full((1, n, n), -10.0)
    for (i, j), v in pairs.items():
        s[0, i, j] = v
    return s


def oracle(labels: np.ndarray) -> np.ndarray:
    return np.where(labels, 10.0, -10.0)


def _reference_ner_decode(scores, config=DecodeConfig()):
    """The dict loops ``ner_decode`` replaced, kept as its reference."""
    if scores.ndim != 3 or scores.shape[1] != scores.shape[2]:
        raise ValueError(f"expected (types, n, n) scores, got {scores.shape}")
    _reject_nan(scores, "ner grid")
    out: list[DecodedEntity] = []
    n = scores.shape[1]
    for t in range(scores.shape[0]):
        s = scores[t]
        diag = np.diag(s).copy()
        off = s.copy()
        np.fill_diagonal(off, -np.inf)
        off[off <= config.threshold] = -np.inf

        # Best outgoing edge per begin token; argmax takes the first (lowest
        # end index) on ties.
        best_end = off.argmax(axis=1)
        begins = np.flatnonzero(np.isfinite(off[np.arange(n), best_end]))
        # Best incoming edge per end token, lowest begin on ties.
        succ: dict[int, int] = {}
        best_in: dict[int, tuple[float, int]] = {}
        for i in begins:
            j = int(best_end[i])
            sc = float(off[i, j])
            cur = best_in.get(j)
            if cur is None or sc > cur[0]:
                best_in[j] = (sc, int(i))
        for j, (_, i) in best_in.items():
            succ[i] = j
        has_in = set(best_in)

        absorbed: set[int] = set()
        paths: list[list[int]] = []

        def walk(start: int) -> None:
            path = [start]
            seen = {start}
            cur = start
            while cur in succ:
                nxt = succ[cur]
                if nxt in seen:
                    break
                path.append(nxt)
                seen.add(nxt)
                cur = nxt
            paths.append(path)
            absorbed.update(path)

        for start in sorted(set(succ) - has_in):
            walk(start)
        # Whatever still has an out-edge now sits on a pure cycle.
        while True:
            rest = sorted(set(succ) - absorbed)
            if not rest:
                break
            walk(rest[0])

        for path in paths:
            edge_scores = [s[a, b] for a, b in zip(path, path[1:])]
            out.append(DecodedEntity(t, tuple(path), float(np.mean(edge_scores))))
        for i in np.flatnonzero(diag > config.threshold):
            if int(i) not in absorbed:
                out.append(DecodedEntity(t, (int(i),), float(diag[i])))

    out.sort(key=lambda e: (-e.confidence, e.type_id, e.word_indices))
    out = out[: config.max_entities]
    out.sort(key=lambda e: (e.type_id, e.word_indices))
    return out


def _reference_rop_decode(scores, config=DecodeConfig()):
    """The per-beam loop ``rop_decode`` replaced, kept as its reference."""
    m = scores.shape[0]
    if scores.ndim != 2 or scores.shape[1] != m:
        raise ValueError(f"expected a square grid, got {scores.shape}")
    n = m - 1
    if n == 0:
        return ()
    logsig = -np.logaddexp(0.0, -scores)

    # beams: (score, last node, visited bool row, path)
    beams = [(0.0, 0, np.zeros(m, dtype=bool), [])]
    beams[0][2][0] = True
    for _ in range(n):
        cand_scores = []
        cand_meta = []
        for bi, (sc, last, visited, _) in enumerate(beams):
            ext = logsig[last].copy()
            ext[visited] = -np.inf
            cand_scores.append(sc + ext)
            cand_meta.append(bi)
        flat = np.concatenate(cand_scores)
        width = min(config.beam_size, int(np.isfinite(flat).sum()))
        # Stable pick: score descending, then node index, then beam index.
        top = np.lexsort((np.tile(np.arange(m), len(beams)), -flat))[:width]
        new_beams = []
        for pos in top:
            bi, node = divmod(int(pos), m)
            sc, last, visited, path = beams[bi]
            nv = visited.copy()
            nv[node] = True
            new_beams.append((float(flat[pos]), node, nv, path + [node]))
        beams = new_beams
    best = max(beams, key=lambda b: b[0])
    return tuple(v - 1 for v in best[3])


class TestNerDecode:
    def test_two_paths_hand_case(self):
        s = grid_from_pairs(7, {(0, 1): 2.0, (1, 2): 1.5, (2, 6): 0.7,
                                (3, 4): 3.0, (4, 5): 2.2})
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 1, 2, 6), (3, 4, 5)]
        assert got[0].confidence == pytest.approx(np.mean([2.0, 1.5, 0.7]))

    def test_per_begin_dedup_keeps_max(self):
        s = grid_from_pairs(3, {(0, 1): 2.0, (0, 2): 1.0})
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 1)]

    def test_per_begin_tie_takes_lower_end(self):
        s = grid_from_pairs(4, {(0, 3): 1.0, (0, 2): 1.0})
        assert [e.word_indices for e in ner_decode(s)] == [(0, 2)]

    def test_per_end_dedup_keeps_max(self):
        # two paths merging into 2: keep the stronger incoming edge
        s = grid_from_pairs(4, {(0, 2): 2.0, (1, 2): 1.0, (2, 3): 0.5})
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 2, 3)]

    def test_per_end_tie_takes_lower_begin(self):
        s = grid_from_pairs(4, {(0, 2): 1.0, (1, 2): 1.0})
        assert [e.word_indices for e in ner_decode(s)] == [(0, 2)]

    def test_all_scores_below_threshold(self):
        assert ner_decode(np.full((2, 5, 5), -1.0)) == []

    def test_two_cycle_emits_from_lowest_index(self):
        s = grid_from_pairs(3, {(0, 1): 1.0, (1, 0): 1.0})
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 1)]

    def test_cycle_with_tail(self):
        # 0 -> 1 -> 2 -> 1 would revisit; per-end dedup on 1 keeps (2,1) only
        # if stronger, which starves the start; exercise the cycle guard.
        s = grid_from_pairs(3, {(0, 1): 0.5, (1, 2): 1.0, (2, 1): 2.0})
        got = ner_decode(s)
        # (2,1) beats (0,1) for end 1; remaining edges 1->2, 2->1: pure cycle
        assert [e.word_indices for e in got] == [(1, 2)]

    def test_singletons_from_diagonal(self):
        s = np.full((1, 4, 4), -10.0)
        s[0, 2, 2] = 5.0
        got = ner_decode(s)
        assert got == [DecodedEntity(0, (2,), 5.0)]

    def test_diagonal_absorbed_by_path(self):
        s = grid_from_pairs(3, {(0, 1): 2.0})
        s[0, 1, 1] = 5.0
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 1)]

    def test_threshold_shift_equivalence(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(2, 8, 8))
        base = ner_decode(s, DecodeConfig(threshold=0.0))
        shifted = ner_decode(s + 3.0, DecodeConfig(threshold=3.0))
        assert [(e.type_id, e.word_indices) for e in base] == [
            (e.type_id, e.word_indices) for e in shifted
        ]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(1, 10, 10))
        prev = None
        for thr in (-1.0, 0.0, 0.5, 1.0, 2.0):
            n_pairs = int((s > thr).sum())
            if prev is not None:
                assert n_pairs <= prev
            prev = n_pairs

    def test_max_entities_cap_by_confidence(self):
        s = np.full((1, 6, 6), -10.0)
        s[0, 0, 0] = 1.0
        s[0, 1, 1] = 3.0
        s[0, 2, 2] = 2.0
        got = ner_decode(s, DecodeConfig(max_entities=2))
        assert sorted(e.word_indices for e in got) == [(1,), (2,)]

    def test_entities_never_share_words_within_type(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = rng.normal(size=(2, 12, 12)) + 0.5
            for t in range(2):
                seen = set()
                for e in ner_decode(s):
                    if e.type_id != t:
                        continue
                    assert not (seen & set(e.word_indices))
                    seen.update(e.word_indices)

    def test_oracle_round_trip_under_permutations(self):
        corpus = gen_corpus(GenConfig(doc_count=10, seed=21))
        rng = np.random.default_rng(0)
        for doc in corpus.documents:
            grids = ner_grids(doc)
            gold = sorted(e.key() for e in doc.entities)
            for _ in range(5):
                perm = rng.permutation(doc.n_words)
                view = oracle(grids)[:, perm[:, None], perm[None, :]]
                got = ner_decode(view)
                mapped = sorted(
                    (e.type_id, tuple(int(perm[v]) for v in e.word_indices)) for e in got
                )
                assert mapped == gold

    def test_positive_infinite_edges_are_kept(self):
        # A certain edge is an edge like any other, begin and end alike.
        s = grid_from_pairs(4, {(0, 1): np.inf, (1, 2): 4.0, (2, 3): np.inf})
        got = ner_decode(s)
        assert [e.word_indices for e in got] == [(0, 1, 2, 3)]
        assert got[0].confidence == np.inf
        s = grid_from_pairs(3, {(0, 1): np.inf, (1, 2): 4.0})
        assert [e.word_indices for e in ner_decode(s)] == [(0, 1, 2)]

    def test_equals_reference_loop(self):
        rng = np.random.default_rng(5)
        cases = []
        for k in range(1500):
            n = int(rng.integers(1, 41))
            s = rng.normal(size=(int(rng.integers(1, 4)), n, n)) * float(rng.integers(1, 4))
            if k % 3 == 0:
                s = np.round(s)  # rounding makes ties common
            if k % 4 == 1:
                # A planted cycle per type, with equal or rounded edge scores.
                for t in range(len(s)):
                    ring = rng.permutation(n)[: int(rng.integers(1, n + 1))]
                    s[t, ring, np.roll(ring, 1)] = 3.0 + np.round(rng.random(len(ring)))
            cases.append((s, [-1.0, 0.0, 0.5][k % 3], int(rng.integers(1, 200))))
        cases.append((np.round(rng.normal(size=(3, 128, 128)), 1), 0.0, 100))
        for s, threshold, cap in cases:
            cfg = DecodeConfig(threshold=threshold, max_entities=cap)
            assert ner_decode(s, cfg) == _reference_ner_decode(s, cfg)

    def test_nan_cells_rejected(self):
        with pytest.raises(ValueError, match="ner grid has 32 NaN cells"):
            ner_decode(np.full((2, 4, 4), np.nan))
        # A single NaN edge is refused, not read as below threshold.
        s = grid_from_pairs(4, {(0, 1): 5.0, (1, 2): 5.0})
        s[0, 2, 3] = np.nan
        with pytest.raises(ValueError, match="1 NaN cells"):
            ner_decode(s)

    @pytest.mark.parametrize("types", [0, 1, 3])
    def test_no_token(self, types):
        # Grids of no words hold no entity, as rop_decode's path is empty.
        assert ner_decode(np.zeros((types, 0, 0))) == []


class TestElDecode:
    def test_mean_logit_hand_case(self):
        s = np.full((3, 3), -1.0)
        s[0, 2] = 1.2
        s[1, 2] = -0.4
        links = el_decode(s, [Entity(0, (0, 1)), Entity(1, (2,))])
        assert links == [(0, 1)]

    def test_zero_mean_is_unlinked(self):
        s = np.zeros((3, 3))
        assert el_decode(s, [Entity(0, (0, 1)), Entity(1, (2,))]) == []

    def test_block_of_both_infinities_has_no_mean_and_is_unlinked(self):
        # +inf and -inf in one block: no mean, so no link, and no warning.
        s = np.full((3, 3), 5.0)
        s[0, 2], s[1, 2] = np.inf, -np.inf
        ents = [Entity(0, (0, 1)), Entity(1, (2,))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert el_decode(s, ents) == [(1, 0)]
        s[1, 2] = 0.0
        assert el_decode(s, ents) == [(0, 1), (1, 0)]

    def test_oracle_recovers_gold_links(self):
        corpus = gen_corpus(GenConfig(doc_count=30, link_prob=0.8, seed=33))
        checked = 0
        for doc in corpus.documents:
            got = el_decode(oracle(el_grid(doc)), doc.entities)
            assert sorted(got) == sorted(doc.links)
            checked += len(doc.links)
        assert checked > 0

    def test_nan_cells_rejected(self):
        ents = [Entity(0, (0, 1)), Entity(1, (2,))]
        with pytest.raises(ValueError, match="el grid has 9 NaN cells"):
            el_decode(np.full((3, 3), np.nan), ents)
        # A NaN outside every entity pair is refused too.
        s = np.ones((4, 4))
        s[3, 3] = np.nan
        with pytest.raises(ValueError, match="1 NaN cells"):
            el_decode(s, ents)


class TestRopDecode:
    def test_oracle_round_trip_hand_case(self):
        from .test_core import make_doc

        doc = make_doc(
            [(f"w{i}", 10 * i, 0, 10 * i + 8, 5) for i in range(3)], [list(range(3))],
        )
        grid = oracle(rop_grid(doc, InputOrder((2, 0, 1))))
        assert rop_decode(grid) == (2, 0, 1)
        assert rop_decode(grid, DecodeConfig(beam_size=1)) == (2, 0, 1)

    def test_beam_one_equals_greedy(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            s = rng.normal(size=(n + 1, n + 1))
            got = rop_decode(s, DecodeConfig(beam_size=1))
            # hand greedy
            visited = {0}
            cur, path = 0, []
            for _ in range(n):
                row = s[cur].copy()
                row[sorted(visited)] = -np.inf
                cur = int(np.argmax(row))
                visited.add(cur)
                path.append(cur - 1)
            assert got == tuple(path)

    def test_always_a_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            s = rng.normal(size=(n + 1, n + 1)) * float(rng.integers(1, 10))
            out = rop_decode(s, DecodeConfig(beam_size=int(rng.integers(1, 9))))
            assert sorted(out) == list(range(n))

    def test_single_token(self):
        s = np.zeros((2, 2))
        assert rop_decode(s) == (0,)

    @pytest.mark.parametrize("scores", [np.float64(1.0), np.zeros(3), np.zeros((2, 3)),
                                        np.zeros((2, 2, 2))], ids=["0d", "1d", "2x3", "3d"])
    def test_non_square_grid_refused(self, scores):
        with pytest.raises(ValueError, match="expected a square grid"):
            rop_decode(scores)

    @pytest.mark.parametrize("beam", [1, 8])
    def test_no_token(self, beam):
        # Only the start node: the path is empty.
        assert rop_decode(np.zeros((1, 1)), DecodeConfig(beam_size=beam)) == ()

    def test_beam_finds_better_path_than_greedy(self):
        # Greedy trap: first hop to 1 looks best but forces a terrible edge.
        s = np.full((4, 4), -8.0)
        s[0, 1] = 2.0   # tempting start
        s[0, 2] = 1.0
        s[2, 1] = 1.5
        s[1, 3] = 1.5
        s[2, 3] = -7.0
        s[1, 2] = -9.0  # greedy 0->1 then 1->? pays badly to reach 2
        greedy = rop_decode(s, DecodeConfig(beam_size=1))
        beam = rop_decode(s, DecodeConfig(beam_size=8))

        def path_score(path):
            nodes = [0] + [p + 1 for p in path]
            return sum(
                float(-np.logaddexp(0.0, -s[a, b])) for a, b in zip(nodes, nodes[1:])
            )

        assert path_score(beam) >= path_score(greedy)
        assert beam != greedy

    def test_equal_scores_rank_by_node_before_beam(self):
        # Beams [1] and [2] tie; at step 2 their extensions [1]->2, [1]->3
        # and [2]->1 tie for two places. Ranking node before beam keeps
        # [2, 1] and [1, 2], and [2, 1, 3] wins; beam first would keep
        # [1, 2] and [1, 3] and return (0, 2, 1).
        s = np.full((4, 4), -5.0)
        for a, b in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1)]:
            s[a, b] = 5.0
        assert rop_decode(s, DecodeConfig(beam_size=2)) == (1, 0, 2)
        assert rop_decode(s, DecodeConfig(beam_size=1)) == (0, 1, 2)

    def test_nan_cells_rejected(self):
        s = np.zeros((4, 4))
        s[0] = np.nan
        with pytest.raises(ValueError, match="4 NaN cells"):
            rop_decode(s)
        s = np.zeros((4, 4))
        s[2, 1] = np.nan
        with pytest.raises(ValueError, match="1 NaN cells"):
            rop_decode(s, DecodeConfig(beam_size=1))

    def test_no_finite_extension_names_the_step(self):
        with pytest.raises(ValueError, match="step 1 of 3"):
            rop_decode(np.full((4, 4), -np.inf))
        # No edge enters node 3, so paths grow until only node 3 is left.
        s = np.zeros((4, 4))
        s[:, 3] = -np.inf
        with pytest.raises(ValueError, match="step 3 of 3"):
            rop_decode(s)

    @pytest.mark.parametrize("beam", [1, 2, 8, 16])
    def test_equals_reference_loop(self, beam):
        cfg = DecodeConfig(beam_size=beam)
        rng = np.random.default_rng(beam)
        grids, inf_grids = [], []
        for n in range(1, 41):
            s = rng.normal(size=(n + 1, n + 1))
            grids += [s, np.round(s)]  # rounding makes ties common
            # Scattered certain and forbidden edges, with one full path kept
            # finite; beam search may still walk into a dead end.
            t = rng.normal(size=(n + 1, n + 1))
            u = rng.random((n + 1, n + 1))
            t[u < 0.15] = -np.inf
            t[u > 0.95] = np.inf
            nodes = np.concatenate([[0], rng.permutation(n) + 1])
            t[nodes[:-1], nodes[1:]] = np.round(rng.normal(size=n))
            inf_grids.append(t)
        grids += [rng.normal(size=(129, 129)), rng.normal(size=(513, 513))]
        for s in grids:
            assert rop_decode(s, cfg) == _reference_rop_decode(s, cfg)
        for t in inf_grids:
            try:
                want = _reference_rop_decode(t, cfg)
            except ValueError:
                with pytest.raises(ValueError, match="step"):
                    rop_decode(t, cfg)
            else:
                assert rop_decode(t, cfg) == want

    def test_huge_beam_costs_only_the_beams_kept(self):
        # 5 tokens have 120 paths, so beam 120 already keeps every one; beam
        # 10**7 must give the same path without allocating for its width.
        s = np.random.default_rng(5).normal(size=(6, 6))
        tracemalloc.start()
        try:
            got = rop_decode(s, DecodeConfig(beam_size=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(got) == list(range(5))
        assert got == rop_decode(s, DecodeConfig(beam_size=120))
        assert peak < 2**20


class TestBioDecode:
    def test_decodes_the_argmax_tags_under_the_given_order(self):
        doc = gen_corpus(GenConfig(doc_count=1, words_per_doc=(20, 30), seed=2)).documents[0]
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, use_1d_position="global", seed=1)
        params = init_params(cfg, "bio", doc.entity_types)
        order = shuffle_order(doc, 4)
        tags = score_document(doc, order, params).argmax(axis=1)
        want = bio_decode(tags, order, doc.entity_types)
        got = decode_document(doc, params, order=order)
        assert want and got.links is None and got.predicted_order is None
        assert got.entities == tuple(DecodedEntity(e.type_id, e.word_indices, 0.0) for e in want)

    def test_nan_logits_rejected(self):
        doc = gen_corpus(GenConfig(doc_count=1, seed=2)).documents[0]
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        params = init_params(cfg, "bio", doc.entity_types)
        params.arrays["cls_b"][1] = np.nan  # one NaN tag logit per word
        with pytest.raises(ValueError, match=f"bio logit array has {doc.n_words} NaN cells"):
            decode_document(doc, params)


class TestDecodeDocument:
    # A grid task's decoder is looked up in the module on every call, so a
    # caller that replaces ``decode.ner_decode`` (a tracer, say) sees every
    # call; the decoded value fills the task's prediction field.
    @pytest.mark.parametrize("task, name, field, value", [
        ("ner", "ner_decode", "entities", [DecodedEntity(0, (0,), 1.0)]),
        ("el", "el_decode", "links", [(0, 1)]),
        ("rop", "rop_decode", "predicted_order", (0,)),
    ])
    def test_calls_the_decoder_its_module_holds(self, monkeypatch, task, name, field, value):
        doc = gen_corpus(GenConfig(doc_count=1, seed=2)).documents[0]
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        params = init_params(cfg, task, doc.entity_types)
        calls = []
        monkeypatch.setattr(decode_module, name, lambda *args: calls.append(args) or value)
        got = decode_document(doc, params)
        assert len(calls) == 1
        assert getattr(got, field) == tuple(value)
        assert [f for f in ("entities", "links", "predicted_order")
                if getattr(got, f) is not None] == [field]


class TestReorder:
    def test_untrained_params_still_a_permutation(self):
        corpus = gen_corpus(GenConfig(doc_count=5, seed=41))
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        params = init_params(cfg, "rop", corpus.entity_types)
        for doc in corpus.documents:
            order = reorder(doc, params)
            assert sorted(order.perm) == list(range(doc.n_words))

    def test_encodes_under_the_stored_order(self):
        # A 1D model is decoded under the order it would be trained on: the
        # stored input order, not OCR order.
        doc = gen_corpus(GenConfig(doc_count=1, words_per_doc=(20, 30), seed=3)).documents[0]
        doc = replace_order(doc, shuffle_order(doc, 1))
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, use_1d_position="global", seed=1)
        params = init_params(cfg, "rop", doc.entity_types)
        stored = rop_decode(score_document(doc, InputOrder(doc.input_order), params))
        assert stored != rop_decode(score_document(doc, ocr_order(doc), params))
        assert reorder(doc, params).perm == stored

    def test_single_word_is_identity(self):
        from .test_core import make_doc

        doc = make_doc([("a", 0, 0, 5, 5)], [[0]])
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        params = init_params(cfg, "rop", doc.entity_types)
        assert reorder(doc, params).perm == (0,)

    def test_requires_rop_params(self):
        from .test_core import make_doc

        doc = make_doc([("a", 0, 0, 5, 5)], [[0]])
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        params = init_params(cfg, "ner", doc.entity_types)
        with pytest.raises(ValueError, match="rop"):
            reorder(doc, params)


class TestPredictionRecords:
    def test_round_trip(self):
        p = Prediction(
            "d1",
            entities=(DecodedEntity(0, (1, 2), 0.5),),
            links=((0, 1),),
            predicted_order=(1, 0, 2),
        )
        assert Prediction.from_record(p.to_record()) == p

    def test_subset_keys(self):
        p = Prediction("d2", predicted_order=(0,))
        rec = p.to_record()
        assert set(rec) == {"id", "predicted_order"}
        assert Prediction.from_record(rec) == p
