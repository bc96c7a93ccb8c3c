import itertools
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from tokenpath.core import InputOrder, ocr_order
from tokenpath.datagen import GenConfig, gen_corpus
from tokenpath import scorer as scorer_module
from tokenpath.decode import decode_document
from tokenpath.scorer import (
    MAX_SEQUENCE,
    EncoderConfig,
    ModelParams,
    RowGrad,
    featurize,
    grid_loss,
    hash_token,
    init_params,
    load_checkpoint,
    make_instance,
    save_checkpoint,
    score_document,
    task_loss,
    task_loss_and_grad,
)

from .test_core import make_doc, seven_word_doc


# Parameter vectors for the finite-difference and bitwise gradient checks:
# arrays are concatenated in name order.
def params_to_vector(params):
    return np.concatenate([params.arrays[n].ravel() for n in sorted(params.arrays)])


def vector_to_params(params, vec):
    out, i = {}, 0
    for n in sorted(params.arrays):
        size = params.arrays[n].size
        out[n] = vec[i : i + size].reshape(params.arrays[n].shape).copy()
        i += size
    assert i == vec.size, f"vector has {vec.size} entries, params need {i}"
    return ModelParams(params.config, params.task, params.entity_types, out)


def dense_grad(params, name, grad):
    """A gradient as an array of its parameter's shape: a RowGrad's rows
    hold its values and every other row zero."""
    if not isinstance(grad, RowGrad):
        return grad
    out = np.zeros_like(params.arrays[name])
    out[grad.rows] = grad.values
    return out


def grads_to_vector(params, grads):
    return np.concatenate([dense_grad(params, n, grads[n]).ravel() for n in sorted(params.arrays)])


def small_corpus(n_docs=4, seed=1, **kw):
    return gen_corpus(GenConfig(doc_count=n_docs, words_per_doc=(6, 10), seed=seed, **kw)).documents


def long_doc(n, segment_words=None):
    """n words on rows of 60, in one segment or in segments of
    ``segment_words`` consecutive words."""
    words = [(f"w{i}", float(8 * (i % 60)), float(14 * (i // 60)),
              float(8 * (i % 60) + 6), float(14 * (i // 60) + 12))
             for i in range(n)]
    size = segment_words or n
    return make_doc(words, [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)])


def small_config(**kw):
    # Dropout on, K = 4 copies, unless a test says otherwise, so the gradient
    # and batching checks run the dropout path.
    defaults = dict(hidden_dim=8, vocab_buckets=64, dropout_rate=0.1, multi_dropout_k=4, seed=3)
    defaults.update(kw)
    return EncoderConfig(**defaults)


class TestEncoderConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=7)
        with pytest.raises(ValueError):
            EncoderConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            EncoderConfig(multi_dropout_k=0)
        with pytest.raises(ValueError):
            EncoderConfig(use_1d_position="both")

    @pytest.mark.parametrize("seed, problem", [
        (-2, "seed value -2 is below 0"), (0.0, "seed value 0.0 is not an integer"),
        ("1", "seed value '1' is not an integer"), (False, "seed value False is not an integer"),
    ])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed, problem):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            EncoderConfig(seed=seed)

    def test_record_round_trip(self):
        cfg = EncoderConfig(use_1d_position="local", positional_residual=True, seed=9)
        assert EncoderConfig(**asdict(cfg)) == cfg


def hidden_rows(doc, order, params):
    """The encoder's hidden states of one document; row i belongs to word i."""
    h, _ = scorer_module._encoder_forward([featurize(doc, params.config)], [order], params)
    return h


class TestEncode:
    """The encoder, read through ``score_document`` and, where a test needs
    the hidden rows themselves, through ``_encoder_forward``."""

    def test_output_shape(self):
        docs = small_corpus()
        cfg = small_config(hidden_dim=64)
        params = init_params(cfg, "ner", docs[0].entity_types)
        doc = docs[0]
        h = hidden_rows(doc, ocr_order(doc), params)
        assert h.shape == (doc.n_words, 64)
        assert np.isfinite(h).all()
        assert np.isfinite(score_document(doc, ocr_order(doc), params)).all()

    def test_order_free_config_ignores_order(self):
        docs = small_corpus()
        cfg = small_config(use_1d_position="none")
        params = init_params(cfg, "ner", docs[0].entity_types)
        doc = docs[0]
        rng = np.random.default_rng(0)
        base = score_document(doc, ocr_order(doc), params)
        for _ in range(5):
            perm = InputOrder(tuple(int(i) for i in rng.permutation(doc.n_words)))
            assert np.array_equal(score_document(doc, perm, params), base)

    def test_positional_rows_follow_words_not_positions(self):
        # Row i belongs to word i: with global 1D on, permuting the order
        # changes each word's rank feature but never reassigns rows.
        docs = small_corpus()
        cfg = small_config(use_1d_position="global")
        params = init_params(cfg, "ner", docs[0].entity_types)
        doc = docs[0]
        order = ocr_order(doc)
        h = hidden_rows(doc, order, params)
        # Rebuild by hand for word w: rank = inverse[w]
        inv = order.inverse()
        feats = featurize(doc, cfg)
        a = params.arrays
        layout = feats.phi @ a["pos2d_w"]
        x = a["tok_emb"][feats.ids] + layout
        x = x + a["pos1d"][np.asarray(inv)]
        for l in range(cfg.mlp_layers):
            x = np.tanh(x @ a[f"enc_w{l}"] + a[f"enc_b{l}"])
        # The layout projection is added back to the MLP output as a residual.
        assert np.allclose(x + layout, h)

    def test_deterministic(self):
        docs = small_corpus()
        cfg = small_config()
        params = init_params(cfg, "ner", docs[0].entity_types)
        doc = docs[0]
        s1 = score_document(doc, ocr_order(doc), params)
        s2 = score_document(doc, ocr_order(doc), params)
        assert np.array_equal(s1, s2)

    def test_max_sequence_enforced(self):
        # One segment of 512 words fills the table and the 513th word's rank
        # is refused: in the document for "global", in the segment for
        # "local".
        fits, doc = long_doc(MAX_SEQUENCE), long_doc(MAX_SEQUENCE + 1)
        for mode in ("global", "local"):
            params = init_params(small_config(use_1d_position=mode), "el", doc.entity_types)
            assert score_document(fits, ocr_order(fits), params).shape == (1, MAX_SEQUENCE, MAX_SEQUENCE)
            with pytest.raises(ValueError, match="max sequence"):
                score_document(doc, InputOrder(tuple(range(doc.n_words))), params)

    @pytest.mark.parametrize("task", ["ner", "rop"])
    def test_local_positions_cap_segments_not_documents(self, task):
        doc = long_doc(600, segment_words=60)
        params = init_params(small_config(use_1d_position="local"), task, doc.entity_types)
        assert score_document(doc, ocr_order(doc), params).shape[-1] == 600 + (task == "rop")
        pred = decode_document(doc, params)
        if task == "rop":
            assert sorted(pred.predicted_order) == list(range(600))
        else:
            assert all(0 <= w < 600 for e in pred.entities for w in e.word_indices)

    @pytest.mark.parametrize("task", ["ner", "rop"])
    def test_order_free_config_has_no_length_cap(self, task):
        # Only the 1D position tables have MAX_SEQUENCE rows.
        doc = long_doc(600)
        params = init_params(small_config(use_1d_position="none"), task, doc.entity_types)
        assert score_document(doc, ocr_order(doc), params).shape[-1] == 600 + (task == "rop")
        pred = decode_document(doc, params)
        if task == "rop":
            assert sorted(pred.predicted_order) == list(range(600))
        else:
            assert all(0 <= w < 600 for e in pred.entities for w in e.word_indices)


class TestGlobalPointerScores:
    """The pair-score head, q_i . k_j / sqrt(e) per relation type, read
    through ``score_document``."""

    def test_closed_form_with_zero_weights(self):
        # With zero head weights every query and key is the head's bias,
        # whatever the hidden rows hold.
        doc = small_corpus()[0]
        cfg = small_config()
        params = init_params(cfg, "el", ("q", "a"))
        d = cfg.hidden_dim
        u = np.arange(1.0, d + 1.0) / d
        params.arrays["qk_w"][:] = 0.0
        params.arrays["qk_b"][:] = u
        scores = score_document(doc, ocr_order(doc), params)
        expected = float(u @ u) / math.sqrt(d)
        assert scores.shape == (1, doc.n_words, doc.n_words)
        assert np.allclose(scores, expected)

    def test_stacked_heads_are_query_then_key_per_type(self):
        # qk_w[t, 0] / qk_b[t, 0] is type t's query head, [t, 1] its key head.
        doc = small_corpus()[0]
        params = init_params(small_config(hidden_dim=6), "ner", ("a", "b", "c"))
        w, b = params.arrays["qk_w"], params.arrays["qk_b"]
        b[:] = np.random.default_rng(0).normal(size=b.shape)
        h = hidden_rows(doc, ocr_order(doc), params)
        scores = score_document(doc, ocr_order(doc), params)
        assert scores.shape == (3, doc.n_words, doc.n_words)
        for t in range(3):
            q = h @ w[t, 0] + b[t, 0]
            k = h @ w[t, 1] + b[t, 1]
            assert np.allclose(scores[t], q @ k.T / math.sqrt(w.shape[-1]))

    def test_shapes(self):
        # Each task's model output, then its training target.
        docs = small_corpus()
        doc = docs[0]
        n, n_tags = doc.n_words, 2 * len(doc.entity_types) + 1
        want = {"ner": ((3, n, n), (3, n, n)), "el": ((1, n, n), (1, n, n)),
                "rop": ((n + 1, n + 1), (1, n + 1, n + 1)), "bio": ((n, n_tags), (n,))}
        for task, (shape, target) in want.items():
            params = init_params(small_config(), task, doc.entity_types)
            assert score_document(doc, ocr_order(doc), params).shape == shape
            inst = make_instance(doc, ocr_order(doc), task, params.config)
            assert inst.target.shape == target

    def test_not_antisymmetric(self):
        docs = small_corpus()
        cfg = small_config()
        params = init_params(cfg, "el", docs[0].entity_types)
        doc = docs[0]
        s = score_document(doc, ocr_order(doc), params)[0]
        assert not np.allclose(s, s.T)

    def test_order_free_scores_match_under_relabeling(self):
        # The formal order-robustness statement: viewing the grid in input
        # position space, s_pi(pi(i), pi(j)) equals s(i, j).
        docs = small_corpus()
        cfg = small_config(use_1d_position="none", positional_residual=False)
        params = init_params(cfg, "ner", docs[0].entity_types)
        doc = docs[0]
        rng = np.random.default_rng(7)
        s_word = score_document(doc, ocr_order(doc), params)
        for _ in range(5):
            perm = tuple(int(i) for i in rng.permutation(doc.n_words))
            s_again = score_document(doc, InputOrder(perm), params)
            idx = np.asarray(perm)
            s_pos = s_again[:, idx[:, None], idx[None, :]]
            expected = s_word[:, idx[:, None], idx[None, :]]
            assert np.array_equal(s_pos, expected)


class TestTaskRows:
    def test_unknown_task_refused(self):
        doc = small_corpus()[0]
        with pytest.raises(ValueError, match="unknown task 'pos'"):
            init_params(small_config(), "pos", doc.entity_types)
        with pytest.raises(ValueError, match="unknown task 'pos'"):
            make_instance(doc, ocr_order(doc), "pos", small_config())

    @pytest.mark.parametrize("task", ["ner", "el", "rop", "bio"])
    def test_empty_document_refused(self, task):
        # featurize, which training and decoding both go through, names the
        # document rather than failing on an index.
        doc = make_doc([], [])
        params = init_params(small_config(), task, doc.entity_types)
        with pytest.raises(ValueError, match="doc t has no words"):
            score_document(doc, InputOrder(()), params)
        with pytest.raises(ValueError, match="doc t has no words"):
            make_instance(doc, InputOrder(()), task, params.config)


class TestLocalPositions:
    def test_rank_inside_each_run_of_a_segment(self):
        doc = seven_word_doc()  # segments [0, 1, 2], [3, 4, 5], [6]
        feats = featurize(doc, small_config())
        ranks = scorer_module._rank_indices
        assert ranks([feats], [ocr_order(doc)], "local").tolist() == [0, 1, 2, 0, 1, 2, 0]
        # A segment split by the order restarts its count in each run.
        order = InputOrder((0, 3, 1, 2, 6, 5, 4))
        assert ranks([feats], [order], "local").tolist() == [0, 0, 1, 0, 1, 0, 0]
        assert ranks([feats], [order], "global").tolist() == [0, 2, 3, 1, 6, 5, 4]
        # Stacked documents count from 0 each, also when one's last segment
        # is the next one's first.
        two = ranks([feats, feats], [order, InputOrder((3, 4, 5, 0, 1, 2, 6))], "local")
        assert two.tolist() == [0, 0, 1, 0, 1, 0, 0] + [0, 1, 2, 0, 1, 2, 0]

    @pytest.mark.parametrize("task", ["ner", "rop"])
    def test_local_segment_grids_ignore_segment_order(self, task):
        doc = small_corpus()[2]
        assert len(doc.segments) == 4 and max(len(s.word_indices) for s in doc.segments) > 1
        cfg = small_config(use_1d_position="local", use_2d_position="segment")
        params = init_params(cfg, task, doc.entity_types)
        base = score_document(doc, ocr_order(doc), params)
        for segs in itertools.permutations(doc.segments):
            order = InputOrder(tuple(w for seg in segs for w in seg.word_indices))
            assert np.array_equal(score_document(doc, order, params), base)
        # The limit: swapping two words inside one segment moves their ranks.
        words = next(s.word_indices for s in doc.segments if len(s.word_indices) > 1)
        perm = list(ocr_order(doc).perm)
        i, j = perm.index(words[0]), perm.index(words[1])
        perm[i], perm[j] = perm[j], perm[i]
        assert not np.array_equal(score_document(doc, InputOrder(tuple(perm)), params), base)


def _reference_log1p_sumexp(v: np.ndarray) -> float:
    """log(1 + sum(exp(v))), stable, 0.0 for an empty v."""
    if v.size == 0:
        return 0.0
    m = max(float(v.max()), 0.0)
    return m + np.log(np.exp(-m) + np.exp(v - m).sum())


def _reference_grid_loss_grad(scores, grid_labels, want_grad=True):
    """The grid loss and its gradient, one relation type at a time."""
    if scores.shape != grid_labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {grid_labels.shape}")
    total = 0.0
    ds = np.zeros_like(scores) if want_grad else None
    for t in range(scores.shape[0]):
        pos = grid_labels[t].astype(bool)
        neg = ~pos
        s_neg = scores[t][neg]
        neg_s_pos = -scores[t][pos]
        lse_n = _reference_log1p_sumexp(s_neg)
        lse_p = _reference_log1p_sumexp(neg_s_pos)
        total += lse_n + lse_p
        if want_grad:
            ds[t][neg] = np.exp(s_neg - lse_n)
            ds[t][pos] = -np.exp(neg_s_pos - lse_p)
    return total, ds


def _random_grids(rng, n_types, sizes):
    """Scores and targets of one (n_types, n, n) grid per size: label
    density 0, 0.05, 0.5 or 1, score scale up to 800 (past exp's overflow),
    and now and then an infinite cell."""
    out = []
    for n in sizes:
        scores = rng.choice([1.0, 30.0, 800.0]) * rng.normal(size=(n_types, n, n))
        if rng.random() < 0.1:
            scores.flat[rng.integers(scores.size)] = rng.choice([np.inf, -np.inf])
        labels = rng.random((n_types, n, n)) < rng.choice([0.0, 0.05, 0.5, 1.0])
        out.append((scores, labels))
    return out


class TestGridLoss:
    def test_flat_pass_equals_per_type_reference(self):
        # Grids of several documents in one call, as a training group runs
        # them: each document's loss and gradient match the reference's up
        # to the order of the sums.
        rng = np.random.default_rng(17)
        checked = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while checked < 4000:
                n_types = int(rng.integers(1, 4))
                grids = _random_grids(rng, n_types, rng.integers(1, 31, size=rng.integers(1, 6)))
                s = np.concatenate([sc.ravel() for sc, _ in grids])
                pos = np.concatenate([lab.ravel() for _, lab in grids])
                cells = np.repeat([sc[0].size for sc, _ in grids], n_types)
                terms, ds = scorer_module._flat_grid_loss(s, pos, cells)
                losses = terms.reshape(len(grids), n_types).sum(axis=1)
                at = 0
                for (scores, labels), loss in zip(grids, losses):
                    want_loss, want_ds = _reference_grid_loss_grad(scores, labels)
                    np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0.0)
                    got_ds = ds[at : at + scores.size].reshape(scores.shape)
                    np.testing.assert_allclose(got_ds, want_ds, rtol=1e-12, atol=0.0)
                    np.testing.assert_allclose(grid_loss(scores, labels), want_loss,
                                               rtol=1e-12, atol=0.0)
                    at += scores.size
                    checked += 1

    def test_group_equals_per_document_reference_loop(self, monkeypatch):
        # Five documents in one group under dropout with K = 3 copies; the
        # first has relation types with no positive cell. The reference runs
        # each document as a group of its own and its grids one type at a
        # time through the reference loss. Masks follow the same order; the
        # sums over a group's stacked rows do not, so they agree to rounding.
        cfg = small_config(dropout_rate=0.2, multi_dropout_k=3)
        types, insts = _five_instances("ner", cfg)
        assert not insts[0].target[0].any() and insts[0].target.any()
        assert sum(len(inst.features.ids) for inst in insts) <= scorer_module._GROUP_ROWS
        params = init_params(cfg, "ner", types)

        def run():
            return task_loss_and_grad(params, insts, train_mode=True,
                                      rng=np.random.default_rng(3))

        def reference_flat_loss(s, pos, cells, want_grad=True):
            terms, ds, at = [], [], 0
            for n in cells:
                t, g = _reference_grid_loss_grad(s[None, at : at + n], pos[None, at : at + n])
                terms.append(t)
                ds.append(g[0])
                at += n
            return np.array(terms), np.concatenate(ds)

        got = run()
        monkeypatch.setattr(scorer_module, "_GROUP_ROWS", 1)
        monkeypatch.setattr(scorer_module, "_flat_grid_loss", reference_flat_loss)
        want = run()
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        np.testing.assert_allclose(grads_to_vector(params, got[1]),
                                   grads_to_vector(params, want[1]), rtol=1e-12, atol=0.0)

    def test_closed_form_at_zero_scores(self):
        scores = np.zeros((1, 5, 5))
        labels = np.zeros((1, 5, 5), dtype=bool)
        labels[0, 0, 1] = labels[0, 1, 2] = True
        # restrict to a 2x4 block world: craft P=2, N=6 via a 1x8 grid
        scores = np.zeros((1, 2, 4))
        labels = np.zeros((1, 2, 4), dtype=bool)
        labels[0, 0, 0] = labels[0, 0, 1] = True
        loss = grid_loss(scores, labels)
        assert loss == pytest.approx(math.log(7) + math.log(3), abs=1e-9)

    def test_saturated_loss_vanishes(self):
        labels = np.zeros((1, 7, 7), dtype=bool)
        labels[0, 2, 3] = True
        scores = np.full((1, 7, 7), -40.0)
        scores[0, 2, 3] = 40.0
        assert grid_loss(scores, labels) < 1e-15

    def test_flipping_hottest_positive_cell_increases_loss(self):
        # With a clear margin (e^{s*} above the negative mass), relabeling
        # the highest-scoring cell from positive to negative must hurt.
        rng = np.random.default_rng(5)
        scores = 5.0 * rng.normal(size=(1, 6, 6))
        labels = rng.random((1, 6, 6)) < 0.1
        hot = np.unravel_index(np.argmax(scores[0]), scores[0].shape)
        labels[0][hot] = True
        base = grid_loss(scores, labels)
        flipped = labels.copy()
        flipped[0][hot] = False
        assert grid_loss(scores, flipped) > base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(2, 9, 9))
        labels = rng.random((2, 9, 9)) < 0.1
        base = grid_loss(scores, labels)
        for _ in range(10):
            p = rng.permutation(9)
            s2 = scores[:, p[:, None], p[None, :]]
            l2 = labels[:, p[:, None], p[None, :]]
            assert grid_loss(s2, l2) == pytest.approx(base, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grid_loss(np.zeros((1, 3, 3)), np.zeros((1, 4, 4), dtype=bool))


def fd_check(task, config, docs, n_coords=120, fd_seed=0, step=1e-4, names=(), orders=None):
    """Max relative error between analytic and central-difference gradients.

    Checks ``n_coords`` random coordinates, or every coordinate of the arrays
    in ``names`` when given. Instances use ``orders`` (default OCR order).
    """
    params = init_params(config, task, docs[0].entity_types)
    orders = orders if orders is not None else [ocr_order(d) for d in docs]
    insts = [make_instance(d, o, task, config) for d, o in zip(docs, orders)]
    mask_seed = 991
    _, grads = task_loss_and_grad(
        params, insts, train_mode=True, rng=np.random.default_rng(mask_seed)
    )
    gvec = grads_to_vector(params, grads)
    vec = params_to_vector(params)
    if names:
        start, spans = 0, {}
        for name in sorted(params.arrays):
            spans[name] = range(start, start + params.arrays[name].size)
            start += params.arrays[name].size
        idxs = [i for name in names for i in spans[name]]
    else:
        rng = np.random.default_rng(fd_seed)
        idxs = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
    worst = 0.0
    for i in idxs:
        shifted = vec.copy()
        shifted[i] += step
        lp = task_loss(
            vector_to_params(params, shifted), insts,
            train_mode=True, rng=np.random.default_rng(mask_seed),
        )
        shifted[i] -= 2 * step
        lm = task_loss(
            vector_to_params(params, shifted), insts,
            train_mode=True, rng=np.random.default_rng(mask_seed),
        )
        fd = (lp - lm) / (2 * step)
        worst = max(worst, abs(fd - gvec[i]) / max(1.0, abs(fd), abs(gvec[i])))
    return worst


class TestGradients:
    @pytest.mark.parametrize("task", ["ner", "el", "rop", "bio"])
    def test_finite_differences_all_tasks(self, task):
        docs = small_corpus()[:2]
        cfg = small_config(
            mlp_layers=2, dropout_rate=0.2, multi_dropout_k=3,
            use_1d_position="global", positional_residual=True,
        )
        assert fd_check(task, cfg, docs) < 1e-4

    @pytest.mark.parametrize("task", ["bio", "ner"])
    def test_finite_differences_every_layout_and_neighbour_coordinate(self, task):
        # The layout residual and the BIO neighbour heads, coordinate by
        # coordinate, under a word order far from the identity.
        docs = small_corpus()[:2]
        cfg = small_config(
            mlp_layers=2, dropout_rate=0.2, multi_dropout_k=3,
            use_1d_position="global", positional_residual=True,
        )
        rng = np.random.default_rng(12)
        orders = [InputOrder(tuple(int(i) for i in rng.permutation(d.n_words))) for d in docs]
        assert all(o.perm != tuple(range(len(o.perm))) for o in orders)
        names = ("pos2d_w", "cls_wp", "cls_wn") if task == "bio" else ("pos2d_w",)
        assert fd_check(task, cfg, docs, names=names, orders=orders) < 1e-4

    def test_finite_differences_local_positions(self):
        docs = small_corpus()[:2]
        cfg = small_config(use_1d_position="local", use_2d_position="segment",
                           dropout_rate=0.0)
        assert fd_check("ner", cfg, docs) < 1e-4

    def test_saturated_instance_has_tiny_gradient(self):
        docs = small_corpus()[:1]
        cfg = small_config(dropout_rate=0.0)
        params = init_params(cfg, "ner", docs[0].entity_types)
        inst = make_instance(docs[0], ocr_order(docs[0]), "ner", cfg)
        # force saturation: replace targets by the sign of a huge margin
        scores_like = np.where(inst.target, 1.0, -1.0) * 60.0
        loss, _ = (grid_loss(scores_like, inst.target), None)
        assert loss < 1e-10
        # end-to-end: gradient of a zero loss is (numerically) zero
        params2 = init_params(cfg, "el", docs[0].entity_types)
        inst2 = make_instance(docs[0], ocr_order(docs[0]), "el", cfg)
        d = cfg.hidden_dim
        params2.arrays["qk_w"][:] = 0.0
        # biases chosen so every score is hugely negative; with an all-zero
        # label grid the loss saturates to ~0
        params2.arrays["qk_b"][0, 0] = np.full(d, 10.0)
        params2.arrays["qk_b"][0, 1] = np.full(d, -10.0)
        assert inst2.target.sum() == 0
        loss2, grads2 = task_loss_and_grad(params2, [inst2])
        assert loss2 < 1e-10
        assert grads_to_vector(params2, grads2).max() < 1e-10

    def test_k1_dropout0_equals_plain_path(self):
        docs = small_corpus()[:2]
        types = docs[0].entity_types
        cfg_multi = small_config(dropout_rate=0.0, multi_dropout_k=1)
        cfg_plain = small_config(dropout_rate=0.0, multi_dropout_k=4)
        insts = [make_instance(d, ocr_order(d), "ner", cfg_multi) for d in docs]
        p1 = init_params(cfg_multi, "ner", types)
        p2 = init_params(cfg_plain, "ner", types)
        l1, g1 = task_loss_and_grad(p1, insts, train_mode=True, rng=np.random.default_rng(0))
        l2, g2 = task_loss_and_grad(p2, insts, train_mode=True, rng=np.random.default_rng(0))
        assert l1 == l2
        assert np.array_equal(grads_to_vector(p1, g1), grads_to_vector(p2, g2))


class TestHeadWidth:
    """The relation types split the hidden width: each pair head is
    hidden_dim // T wide."""

    def test_types_split_the_hidden_width(self):
        ner = init_params(small_config(hidden_dim=8), "ner", ("a", "b", "c"))
        assert ner.arrays["qk_w"].shape == (3, 2, 8, 2)
        assert ner.arrays["qk_b"].shape == (3, 2, 2)

    def test_more_types_than_hidden_dim_refused(self):
        with pytest.raises(ValueError, match=r"hidden_dim 2 is smaller than the 3 relation types"):
            init_params(small_config(hidden_dim=2), "ner", ("a", "b", "c"))

    def test_one_wide_heads_pass_finite_differences(self):
        # T = hidden_dim: every head is a single column.
        docs = small_corpus(entity_types=4)[:2]
        cfg = small_config(hidden_dim=4, dropout_rate=0.2, multi_dropout_k=2,
                           use_1d_position="local")
        assert fd_check("ner", cfg, docs) < 1e-4

    @pytest.mark.parametrize("task", ["el", "rop"])
    def test_one_type_checkpoints_keep_full_width_heads(self, tmp_path, task):
        # T = 1 heads stay d x d, and a file round-trips byte for byte.
        params = init_params(small_config(), task, ("q", "a"))
        assert params.arrays["qk_w"].shape == (1, 2, 8, 8)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _five_instances(task, cfg):
    """Entity types and instances of five documents of different lengths,
    under shuffled word orders."""
    docs = gen_corpus(GenConfig(doc_count=40, words_per_doc=(2, 60), seed=4)).documents
    by_length = {d.n_words: d for d in docs}
    picked = [by_length[n] for n in sorted(by_length)[:: max(1, len(by_length) // 5)][:5]]
    assert len({d.n_words for d in picked}) == 5
    rng = np.random.default_rng(6)
    orders = [InputOrder(tuple(int(i) for i in rng.permutation(d.n_words))) for d in picked]
    return picked[0].entity_types, [make_instance(d, o, task, cfg) for d, o in zip(picked, orders)]


def _sequential_mean(params, instances, **kw):
    """Mean loss and gradient of one call per instance, summed in order."""
    loss, grads = 0.0, {k: np.zeros_like(v) for k, v in params.arrays.items()}
    for inst in instances:
        li, gi = task_loss_and_grad(params, [inst], **kw)
        loss += li
        for k in grads:
            grads[k] += dense_grad(params, k, gi[k])
    scale = 1.0 / len(instances)
    return loss * scale, {k: g * scale for k, g in grads.items()}


class TestBatchEngine:
    """One batch call computes what per-document calls compute."""

    @staticmethod
    def assert_same(params, got, want):
        # A coordinate that cancels to near zero keeps only the absolute
        # error of the larger terms it sums: 1e-12 of the largest gradient.
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        want_grads = grads_to_vector(params, want[1])
        np.testing.assert_allclose(grads_to_vector(params, got[1]), want_grads,
                                   rtol=1e-12, atol=1e-12 * np.abs(want_grads).max())

    @pytest.mark.parametrize("group_rows", [20, 256])
    @pytest.mark.parametrize("mode", ["none", "global", "local"])
    @pytest.mark.parametrize("task", ["ner", "el", "rop", "bio"])
    def test_batch_equals_mean_of_single_documents(self, task, mode, group_rows, monkeypatch):
        # 20 rows splits the batch into several stacked groups. A one-word
        # document shares the first group: it has no BIO neighbour pair, and
        # its rop block is the start row and one word.
        monkeypatch.setattr(scorer_module, "_GROUP_ROWS", group_rows)
        cfg = small_config(use_1d_position=mode, positional_residual=mode == "local")
        types, insts = _five_instances(task, cfg)
        one_word = gen_corpus(GenConfig(doc_count=1, words_per_doc=(1, 1), seed=4)).documents[0]
        insts.insert(1, make_instance(one_word, ocr_order(one_word), task, cfg))
        params = init_params(cfg, task, types)
        self.assert_same(params, task_loss_and_grad(params, insts),
                         _sequential_mean(params, insts))

    @pytest.mark.parametrize("task", ["ner", "rop", "bio"])
    def test_dropout_masks_are_drawn_document_by_document(self, task):
        cfg = small_config(use_1d_position="global", dropout_rate=0.2, multi_dropout_k=3)
        types, insts = _five_instances(task, cfg)
        params = init_params(cfg, task, types)
        got = task_loss_and_grad(params, insts, train_mode=True, rng=np.random.default_rng(3))
        want = _sequential_mean(params, insts, train_mode=True, rng=np.random.default_rng(3))
        self.assert_same(params, got, want)

    @pytest.mark.parametrize("task", ["ner", "el", "rop", "bio"])
    def test_copies_are_repeated_instances(self, task):
        # K dropout copies run as the K = 1 batch of each instance repeated
        # K times in a row: same masks, same groups, same bits.
        cfg = small_config(dropout_rate=0.2, multi_dropout_k=3)
        types, insts = _five_instances(task, cfg)
        got = task_loss_and_grad(init_params(cfg, task, types), insts,
                                 train_mode=True, rng=np.random.default_rng(3))
        one = replace(cfg, multi_dropout_k=1)
        want = task_loss_and_grad(init_params(one, task, types),
                                  [inst for inst in insts for _ in range(3)],
                                  train_mode=True, rng=np.random.default_rng(3))
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for name, g in got[1].items():
            if isinstance(g, RowGrad):
                assert np.array_equal(g.rows, want[1][name].rows)
                assert np.array_equal(g.values, want[1][name].values)
            else:
                assert np.array_equal(g, want[1][name])


class TestRowGrad:
    """Tables read by row index get one RowGrad per batch: the rows the
    batch read, sorted and unique, with what np.add.at would sum into a
    dense table."""

    @staticmethod
    def run(params, insts, monkeypatch):
        """The batch's gradients, and each RowGrad beside the dense np.add.at
        sum of the reads it was built from."""
        built, row_grad = [], scorer_module._row_grad

        def spy(reads, scale):
            grad = row_grad(reads, scale)
            width = reads[0][1].shape[1]
            ref = np.zeros((max(int(idx.max(initial=0)) for idx, _ in reads) + 1, width))
            for idx, v in reads:
                np.add.at(ref, idx, v)
            built.append((grad, ref * scale, np.unique(np.concatenate([i for i, _ in reads]))))
            return grad

        monkeypatch.setattr(scorer_module, "_row_grad", spy)
        _, grads = task_loss_and_grad(params, insts)
        return grads, built

    @staticmethod
    def assert_matches_add_at(grads, built, tables):
        assert len(built) == len(tables)
        assert all(g is grads[name] for (g, _, _), name in zip(built, tables))
        for grad, ref, read in built:
            assert np.array_equal(grad.rows, read)  # sorted and unique
            assert grad.values.shape == (len(read), ref.shape[1])
            got = np.zeros_like(ref)
            got[grad.rows] = grad.values
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("group_rows", [20, 256])
    def test_repeated_ids_sum_like_add_at(self, group_rows, monkeypatch):
        # Ids repeat inside a group at 256 rows, and across groups at 20.
        monkeypatch.setattr(scorer_module, "_GROUP_ROWS", group_rows)
        cfg = small_config(use_1d_position="local")
        types, insts = _five_instances("ner", cfg)
        groups = [np.concatenate([inst.features.ids for inst in g])
                  for g in scorer_module._groups(insts)]
        if group_rows == 256:
            assert len(groups) == 1 and len(np.unique(groups[0])) < len(groups[0])
        else:
            assert len(groups) > 1
            assert any(np.intersect1d(a, b).size for a, b in itertools.combinations(groups, 2))
        grads, built = self.run(init_params(cfg, "ner", types), insts, monkeypatch)
        self.assert_matches_add_at(grads, built, ("tok_emb", "pos1d_word"))
        # One row per distinct id of the batch, never a dense table.
        assert len(grads["tok_emb"].rows) == len(np.unique(np.concatenate(groups)))
        assert len(grads["tok_emb"].rows) < cfg.vocab_buckets

    @pytest.mark.parametrize("task", ["ner", "rop", "bio"])
    def test_one_word_document(self, task, monkeypatch):
        cfg = small_config(use_1d_position="global")
        doc = gen_corpus(GenConfig(doc_count=1, words_per_doc=(1, 1), seed=4)).documents[0]
        params = init_params(cfg, task, doc.entity_types)
        grads, built = self.run(params, [make_instance(doc, ocr_order(doc), task, cfg)],
                                monkeypatch)
        self.assert_matches_add_at(grads, built, ("tok_emb", "pos1d"))
        assert grads["tok_emb"].rows.tolist() == [hash_token(doc.words[0].text, 64)]
        assert grads["pos1d"].rows.tolist() == [0]

    def test_empty_batch_reads_no_row(self):
        params = init_params(small_config(use_1d_position="local"), "ner", ("a",))
        loss, grads = task_loss_and_grad(params, [])
        assert loss == 0.0
        for name in ("tok_emb", "pos1d_word"):
            assert grads[name].rows.size == 0 and grads[name].values.shape == (0, 8)

    def test_finite_differences_every_table_coordinate(self):
        # Every coordinate of both tables, read and unread rows alike.
        docs = small_corpus()[:2]
        cfg = small_config(use_1d_position="local", use_2d_position="segment",
                           dropout_rate=0.0)
        assert fd_check("ner", cfg, docs, names=("tok_emb", "pos1d_word")) < 1e-4


class TestScoringMatchesTraining:
    """Decoding scores and the training loss read the same task head."""

    @staticmethod
    def instances(task):
        # Four documents of 6-10 words and a one-word document.
        one_word = gen_corpus(GenConfig(doc_count=1, words_per_doc=(1, 1), seed=4)).documents[0]
        docs = [*small_corpus(), one_word]
        cfg = small_config(use_1d_position="global", dropout_rate=0.0)
        params = init_params(cfg, task, docs[0].entity_types)
        rng = np.random.default_rng(5)
        for doc in docs:
            order = InputOrder(tuple(int(i) for i in rng.permutation(doc.n_words)))
            yield params, doc, order, make_instance(doc, order, task, cfg)

    @staticmethod
    def scored_loss(params, doc, order, inst):
        """One document's training loss, computed from ``score_document``."""
        out = score_document(doc, order, params)
        if params.task != "bio":
            return grid_loss(out.reshape(inst.target.shape), inst.target)
        z = out - out.max(axis=1, keepdims=True)
        rows = np.arange(doc.n_words)
        return -float(np.mean(z[rows, inst.target] - np.log(np.exp(z).sum(axis=1))))

    @pytest.mark.parametrize("task", ["ner", "el", "rop"])
    def test_grid_loss_of_scores_is_the_training_loss(self, task):
        for params, doc, order, inst in self.instances(task):
            assert self.scored_loss(params, doc, order, inst) == task_loss(params, [inst])

    def test_bio_cross_entropy_of_logits_is_the_training_loss(self):
        for params, doc, order, inst in self.instances("bio"):
            ce = self.scored_loss(params, doc, order, inst)
            assert ce == pytest.approx(task_loss(params, [inst]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("task", ["ner", "el", "rop", "bio"])
    def test_group_loss_is_the_mean_of_scored_losses(self, task):
        # All five documents run as one stacked group.
        docs = list(self.instances(task))
        params, insts = docs[0][0], [inst for *_, inst in docs]
        assert len(list(scorer_module._groups(insts))) == 1
        want = np.mean([self.scored_loss(*doc) for doc in docs])
        assert task_loss(params, insts) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCheckpoint:
    def test_byte_exact_round_trip(self, tmp_path):
        docs = small_corpus()
        cfg = small_config(use_1d_position="local")
        params = init_params(cfg, "rop", docs[0].entity_types)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(params, str(p1))
        loaded = load_checkpoint(str(p1))
        save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.task == "rop"
        assert loaded.config == cfg
        assert loaded.entity_types == params.entity_types
        for name, arr in params.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr)

    def test_non_ascii_type_name_round_trip(self, tmp_path):
        # The header is canonical JSON, as every other file: UTF-8, unescaped.
        params = init_params(small_config(), "bio", ("año", "名前"))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(params, str(p1))
        assert '"entity_types":["año","名前"]'.encode("utf-8") in p1.read_bytes()
        loaded = load_checkpoint(str(p1))
        assert loaded.entity_types == ("año", "名前")
        save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("task", ["ner", "rop", "bio"])
    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch, task):
        params = init_params(small_config(use_1d_position="local"), task, ("q", "a"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(str(path))
        assert sorted(loaded.arrays) == sorted(params.arrays)
        for name, arr in params.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr)

    def test_trailing_bytes_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(small_config(), "ner", ("q", "a")), str(path))
        load_checkpoint(str(path))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="m.ckpt: trailing bytes after arrays$"):
            load_checkpoint(str(path))

    def test_local_checkpoint_with_a_segment_rank_table_refused(self, tmp_path):
        # Earlier "local" models also had a segment-rank table, pos1d_seg,
        # under the same magic; the array-table check refuses the extra array.
        params = init_params(small_config(use_1d_position="local"), "ner", ("q", "a"))
        params.arrays["pos1d_seg"] = np.zeros((MAX_SEQUENCE, 8))
        path = tmp_path / "old-local.ckpt"
        save_checkpoint(params, str(path))
        with pytest.raises(ValueError, match=re.escape(
                "array table does not match a 'ner' model: missing [], extra ['pos1d_seg']")):
            load_checkpoint(str(path))

    def test_magic_guard(self, tmp_path):
        bad = tmp_path / "x.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(bad))
        # A well-formed file under the previous magic holds the same array
        # names for a different model, so it is refused too.
        old = tmp_path / "old.ckpt"
        save_checkpoint(init_params(small_config(), "bio", ("q", "a")), str(old))
        old.write_bytes(b"TPPCKPT1" + old.read_bytes()[8:])
        with pytest.raises(ValueError, match="magic b'TPPCKPT1' is an older model layout"):
            load_checkpoint(str(old))
