import importlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from tokenpath.core import ocr_order, replace_order
from tokenpath.datagen import GenConfig, gen_corpus, shuffle_order
from tokenpath.scorer import (
    EncoderConfig,
    RowGrad,
    init_params,
    make_instance,
    task_loss,
    task_loss_and_grad,
)
from tokenpath.train import Hyper, TrainLog, train

from .test_scorer import long_doc, params_to_vector, small_corpus


def toy_docs(n=10, seed=1, **kw):
    cfg = GenConfig(doc_count=n, words_per_doc=(8, 14), entity_types=2,
                    val_fraction=0.0, test_fraction=0.0, seed=seed, **kw)
    return gen_corpus(cfg).documents


class TestHyper:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Hyper(lr=0.0)
        with pytest.raises(ValueError):
            Hyper(batch_size=0)


class TestTrain:
    def test_zero_steps_returns_initial_params(self):
        docs = toy_docs()
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=2)
        params, log = train(docs, "ner", cfg, Hyper(steps=0))
        init = init_params(cfg, "ner", docs[0].entity_types)
        assert np.array_equal(params_to_vector(params), params_to_vector(init))
        assert log.losses == []

    def test_loss_drops_on_separable_toy_corpus(self):
        docs = toy_docs(10)
        cfg = EncoderConfig(hidden_dim=32, vocab_buckets=256, seed=0)
        params, log = train(
            docs, "ner", cfg,
            Hyper(lr=0.15, steps=500, batch_size=10, warmup_fraction=0.1,
                  weight_decay=1e-4),
        )
        assert not log.aborted
        assert log.losses[-1] < 0.1 * log.losses[0]

    def test_deterministic_trajectory(self):
        docs = toy_docs(6)
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=5)
        h = Hyper(lr=0.05, steps=30, batch_size=4)
        p1, l1 = train(docs, "ner", cfg, h)
        p2, l2 = train(docs, "ner", cfg, h)
        assert l1.losses == l2.losses
        assert np.array_equal(params_to_vector(p1), params_to_vector(p2))

    def test_divergence_aborts_with_last_good_params(self):
        docs = toy_docs(6)
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=3)
        params, log = train(docs, "ner", cfg,
                            Hyper(lr=1e9, steps=50, batch_size=6))
        assert log.aborted
        assert "aborted" in log.message
        assert len(log.losses) < 50
        assert np.isfinite(params_to_vector(params)).all()
        # The parameters are those from before the update that poisoned the
        # next loss: a run that stops one update earlier ends on them.
        before, _ = train(docs, "ner", cfg,
                          Hyper(lr=1e9, steps=len(log.losses) - 1, batch_size=6))
        assert np.array_equal(params_to_vector(params), params_to_vector(before))

    @pytest.mark.parametrize("task", ["ner", "bio"])
    def test_stored_input_order_is_the_base_order(self, task):
        docs = toy_docs(6)
        stored = [shuffle_order(d, 100 + i) for i, d in enumerate(docs)]
        docs = [replace_order(d, o) for d, o in zip(docs, stored)]
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, use_1d_position="global", seed=5)
        _, log = train(docs, task, cfg, Hyper(steps=1, batch_size=len(docs)))
        init = init_params(cfg, task, docs[0].entity_types)

        def losses_under(orders):
            return [task_loss(init, [make_instance(d, o, task, cfg)]) for d, o in zip(docs, orders)]

        # Equal up to the order in which the batch sums its documents.
        insts = [make_instance(d, o, task, cfg) for d, o in zip(docs, stored)]
        assert log.losses[0] == pytest.approx(task_loss(init, insts), rel=1e-12, abs=0.0)
        # Each document's loss moves with its order; a batch sum could cancel.
        for s, o in zip(losses_under(stored), losses_under([ocr_order(d) for d in docs])):
            assert s != pytest.approx(o, rel=1e-6)

    def test_page_past_the_1d_table_refused_before_a_step(self, monkeypatch):
        # The 559-word page is refused, by name, while the instances are
        # built, before the first batch that holds it.
        docs = toy_docs(4)
        page = replace(long_doc(559), id="page-559", entity_types=docs[0].entity_types)
        steps = []
        train_module = importlib.import_module("tokenpath.train")
        monkeypatch.setattr(train_module, "task_loss_and_grad", lambda *a: steps.append(a))
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, use_1d_position="global", seed=1)
        problem = "doc page-559: global 1D position 558 is past the 512-row table"
        with pytest.raises(ValueError, match=f"^{problem}: max sequence is 512$"):
            train([*docs, page], "ner", cfg, Hyper(steps=3, batch_size=2))
        assert steps == []

    def test_rop_requires_gold_order(self):
        docs = [replace(d, gold_order=None) for d in toy_docs(3)]
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        with pytest.raises(ValueError, match="gold order"):
            train(docs, "rop", cfg, Hyper(steps=2, batch_size=2))

    def test_empty_corpus_rejected(self):
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=1)
        with pytest.raises(ValueError, match="empty"):
            train([], "ner", cfg, Hyper(steps=1))

    def test_bio_task_trains(self):
        docs = toy_docs(8)
        cfg = EncoderConfig(hidden_dim=16, vocab_buckets=128, use_1d_position="global", seed=2)
        params, log = train(docs, "bio", cfg,
                            Hyper(lr=0.3, steps=300, batch_size=8, warmup_fraction=0.1))
        assert not log.aborted
        assert log.losses[-1] < 0.5 * log.losses[0]

    def test_one_wide_pair_heads_train(self):
        # As many entity types as hidden units: each pair head is one wide.
        docs = small_corpus(entity_types=4)
        cfg = EncoderConfig(hidden_dim=4, vocab_buckets=64, use_1d_position="local", seed=3)
        params, log = train(docs, "ner", cfg, Hyper(lr=0.05, steps=60, batch_size=4))
        assert params.arrays["qk_w"].shape == (4, 2, 4, 1)
        assert not log.aborted
        assert log.losses[-1] < 0.7 * log.losses[0]

    def test_log_holds_pre_clip_norms_and_clip_count(self):
        docs = toy_docs(6)
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, seed=4)
        clip = 1.5
        hyper = Hyper(lr=0.2, steps=12, batch_size=4, warmup_fraction=0.25,
                      weight_decay=1e-3, max_grad_norm=clip)
        params, log = train(docs, "ner", cfg, hyper)
        # The same run by hand: each step's global norm before clipping,
        # then the clip and the update. A RowGrad's values are its norm's
        # and its clip's; every row decays, and its rows take the step.
        hand = init_params(cfg, "ner", docs[0].entity_types)
        insts = [make_instance(d, ocr_order(d), "ner", cfg) for d in docs]
        batch_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        norms, clipped = [], 0
        while len(norms) < hyper.steps:
            perm = batch_rng.permutation(len(docs))
            for lo in range(0, len(docs), hyper.batch_size):
                if len(norms) == hyper.steps:
                    break
                batch = [insts[i] for i in perm[lo : lo + hyper.batch_size]]
                _, grads = task_loss_and_grad(hand, batch)
                values = {k: g.values if isinstance(g, RowGrad) else g for k, g in grads.items()}
                norm = np.sqrt(sum(float((v * v).sum()) for v in values.values()))
                norms.append(float(norm))
                if norm > clip:
                    clipped += 1
                    values = {k: v * (clip / norm) for k, v in values.items()}
                lr = hyper.lr * min(1.0, len(norms) / 3)
                for k, arr in hand.arrays.items():
                    out = arr * (1 - lr * hyper.weight_decay)
                    if isinstance(grads[k], RowGrad):
                        out[grads[k].rows] -= lr * values[k]
                    else:
                        out -= lr * values[k]
                    hand.arrays[k] = out
        assert log.grad_norms == norms
        assert log.clipped == clipped
        assert 0 < clipped < hyper.steps
        assert np.array_equal(params_to_vector(params), params_to_vector(hand))
        # Without a cap every norm is still logged and no step is clipped.
        _, free = train(docs, "ner", cfg, Hyper(**{**asdict(hyper), "max_grad_norm": None}))
        assert free.clipped == 0
        assert len(free.grad_norms) == hyper.steps
        assert free.grad_norms[0] == norms[0]

    def test_unread_table_rows_only_decay(self):
        # One step on the whole corpus: a row of tok_emb or of the 1D table
        # that no word read is its initial value times (1 - lr * weight_decay),
        # bit for bit; a row that a word read also takes a gradient step.
        docs = toy_docs(4)
        cfg = EncoderConfig(hidden_dim=8, vocab_buckets=64, use_1d_position="local", seed=4)
        hyper = Hyper(lr=0.1, steps=1, batch_size=len(docs), weight_decay=0.01)
        params, log = train(docs, "ner", cfg, hyper)
        start = init_params(cfg, "ner", docs[0].entity_types)
        insts = [make_instance(d, ocr_order(d), "ner", cfg) for d in docs]
        read = {"tok_emb": np.unique(np.concatenate([inst.features.ids for inst in insts])),
                "pos1d_word": np.arange(max(len(s.word_indices) for d in docs
                                            for s in d.segments))}
        assert log.lrs == [hyper.lr]
        for name, rows in read.items():
            unread = np.setdiff1d(np.arange(len(start.arrays[name])), rows)
            assert 0 < len(unread) and 0 < len(rows)
            decayed = start.arrays[name] * (1 - hyper.lr * hyper.weight_decay)
            assert np.array_equal(params.arrays[name][unread], decayed[unread])
            assert not np.any(np.all(params.arrays[name][rows] == decayed[rows], axis=1))

    def test_log_record(self):
        log = TrainLog(losses=[1.0], lrs=[0.1], aborted=False, message="")
        assert asdict(log)["losses"] == [1.0]
