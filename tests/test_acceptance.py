"""Acceptance suite: one pass/fail line per criterion (run with -v -s).

Each criterion is a separate test with its tolerance and runtime budget
pinned here. The behavioral end-to-end criterion trains three small models
and dominates the suite's runtime.
"""

import math
import time

import numpy as np
import pytest

from tokenpath.core import InputOrder, ocr_order
from tokenpath.datagen import GenConfig, gen_corpus, shuffle_order
from tokenpath.decode import DecodeConfig, decode_document, el_decode, ner_decode, reorder, rop_decode
from tokenpath.labels import el_grid, ner_grids, rop_grid
from tokenpath.metrics import (
    ard,
    corpus_continuous_entity_rate,
    dataset_stats,
    entity_f1,
    page_bleu,
    sum_reports,
)
from tokenpath.scorer import EncoderConfig, grid_loss
from tokenpath.train import Hyper, train


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def oracle(labels: np.ndarray) -> np.ndarray:
    return np.where(labels, 10.0, -10.0)


@pytest.fixture(scope="module")
def oracle_corpus():
    return gen_corpus(GenConfig(
        doc_count=200, words_per_doc=(10, 40), entity_types=3,
        multi_row_prob=0.5, multi_column_prob=0.5, long_entity_prob=0.5,
        interleave_prob=0.5, link_prob=0.5, val_fraction=0.0,
        test_fraction=0.0, seed=100,
    )).documents


def test_criterion_1_grid_round_trip_order_invariance(oracle_corpus):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    failures = 0
    for doc in oracle_corpus:
        grids = oracle(ner_grids(doc))
        gold = sorted(e.key() for e in doc.entities)
        for _ in range(10):
            perm = rng.permutation(doc.n_words)
            view = grids[:, perm[:, None], perm[None, :]]
            decoded = ner_decode(view, DecodeConfig())
            mapped = sorted(
                (e.type_id, tuple(int(perm[v]) for v in e.word_indices))
                for e in decoded
            )
            failures += mapped != gold
    elapsed = time.monotonic() - t0
    report(
        "1 (grid round trip under permutations)",
        failures == 0 and elapsed < 30.0,
        f"{len(oracle_corpus)} docs x 10 permutations, {failures} failures, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_rop_round_trip(oracle_corpus):
    t0 = time.monotonic()
    worst_bleu, worst_ard, exact = 100.0, 0.0, 0
    for doc in oracle_corpus:
        gold = InputOrder(doc.gold_order)
        grid = oracle(rop_grid(doc, gold))
        for beam in (8, 1):
            pred = rop_decode(grid, DecodeConfig(beam_size=beam))
            exact += pred == gold.perm
            worst_bleu = min(worst_bleu, page_bleu(pred, gold.perm))
            worst_ard = max(worst_ard, ard(pred, gold.perm))
    elapsed = time.monotonic() - t0
    ok = exact == 2 * len(oracle_corpus) and worst_bleu == 100.0 and worst_ard == 0.0
    report(
        "2 (reading-order round trip, beams 8 and 1)",
        ok and elapsed < 30.0,
        f"{exact}/{2 * len(oracle_corpus)} exact, bleu={worst_bleu:.1f}, ard={worst_ard}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_permutation_guarantee():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        scores = rng.normal(size=(n + 1, n + 1)) * scale
        beam = int(rng.integers(1, 9))
        out = rop_decode(scores, DecodeConfig(beam_size=beam))
        failures += sorted(out) != list(range(n))
    report(
        "3 (beam decoder always returns a permutation)",
        failures == 0,
        f"1000 random grids (n <= 50), {failures} non-permutations",
    )


def test_criterion_4_gradient_correctness():
    from .test_scorer import fd_check, small_corpus

    t0 = time.monotonic()
    configs = [
        ("ner", EncoderConfig(hidden_dim=16, vocab_buckets=64, mlp_layers=2,
                              dropout_rate=0.2, multi_dropout_k=3,
                              use_1d_position="global", positional_residual=True, seed=1)),
        ("el", EncoderConfig(hidden_dim=8, vocab_buckets=32, mlp_layers=1,
                             dropout_rate=0.0, multi_dropout_k=1,
                             use_1d_position="local", use_2d_position="segment", seed=2)),
        ("rop", EncoderConfig(hidden_dim=12, vocab_buckets=64, mlp_layers=3,
                              dropout_rate=0.1, multi_dropout_k=2,
                              use_1d_position="none", seed=3)),
        ("bio", EncoderConfig(hidden_dim=16, vocab_buckets=64, mlp_layers=2,
                              dropout_rate=0.15, multi_dropout_k=4,
                              use_1d_position="global", seed=4)),
        ("ner", EncoderConfig(hidden_dim=8, vocab_buckets=32, mlp_layers=2,
                              dropout_rate=0.0, multi_dropout_k=1,
                              use_1d_position="local", positional_residual=True, seed=5)),
    ]
    worst, total = 0.0, 0
    per_config = 220
    for i, (task, cfg) in enumerate(configs):
        docs = small_corpus(n_docs=2, seed=50 + i)
        worst = max(worst, fd_check(task, cfg, docs, n_coords=per_config, fd_seed=i))
        total += per_config
    elapsed = time.monotonic() - t0
    report(
        "4 (analytic vs finite-difference gradients)",
        worst < 1e-4 and total >= 1000 and elapsed < 120.0,
        f"{total} coordinates over 5 configs, max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 2min)",
    )


def test_criterion_5_loss_closed_form():
    scores = np.zeros((1, 2, 4))
    labels = np.zeros((1, 2, 4), dtype=bool)
    labels[0, 0, 0] = labels[0, 0, 1] = True  # P = 2, N = 6
    loss = grid_loss(scores, labels)
    expected = math.log(7) + math.log(3)
    err = abs(loss - expected)
    report(
        "5 (class-imbalance loss closed form)",
        err < 1e-9,
        f"zero scores, P=2, N=6: loss={loss:.12f}, ln7+ln3={expected:.12f}, |diff|={err:.1e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end behavior on a disordered corpus
# ---------------------------------------------------------------------------

GRID_CONFIG = EncoderConfig(
    hidden_dim=64, use_1d_position="local", use_2d_position="segment",
    dropout_rate=0.0, multi_dropout_k=1, seed=0,
)
GRID_HYPER = Hyper(lr=0.12, steps=4500, batch_size=64, warmup_fraction=0.1,
                   weight_decay=1e-4, max_grad_norm=10.0)
BIO_CONFIG = EncoderConfig(
    hidden_dim=64, use_1d_position="global", use_2d_position="word",
    positional_residual=True, dropout_rate=0.0, multi_dropout_k=1, seed=0,
)
BIO_HYPER = Hyper(lr=0.3, steps=1500, batch_size=32, warmup_fraction=0.1,
                  weight_decay=1e-4, max_grad_norm=10.0)


@pytest.fixture(scope="module")
def behavior_corpus():
    return gen_corpus(GenConfig(
        doc_count=600, words_per_doc=(10, 40), entity_types=3,
        multi_row_prob=0.5, multi_column_prob=0.5, long_entity_prob=0.5,
        interleave_prob=0.5, val_fraction=0.0, test_fraction=100 / 600, seed=11,
    ))


def _entity_f1_under(docs, params, orders):
    # Each document is scored on its own and the counts summed: entity keys
    # hold word ids, so a pooled list would match across documents.
    reports = []
    for doc, order in zip(docs, orders):
        p = decode_document(doc, params, DecodeConfig(), order=order)
        reports.append(entity_f1([e.to_entity() for e in p.entities], doc.entities))
    return sum_reports(reports).f1


def test_criterion_6_end_to_end_directionality(behavior_corpus):
    t0 = time.monotonic()
    train_docs = behavior_corpus.split("train")
    test_docs = behavior_corpus.split("test")
    assert len(train_docs) == 500 and len(test_docs) == 100

    ordered = [ocr_order(d) for d in test_docs]
    gold_orders = [InputOrder(d.gold_order) for d in test_docs]
    shuffled = [shuffle_order(d, 4200 + i) for i, d in enumerate(test_docs)]

    grid_params, grid_log = train(train_docs, "ner", GRID_CONFIG, GRID_HYPER)
    assert not grid_log.aborted
    f1_ordered = _entity_f1_under(test_docs, grid_params, ordered)
    f1_shuffled = _entity_f1_under(test_docs, grid_params, shuffled)

    bio_params, bio_log = train(train_docs, "bio", BIO_CONFIG, BIO_HYPER)
    assert not bio_log.aborted
    bio_ordered = _entity_f1_under(test_docs, bio_params, ordered)
    bio_shuffled = _entity_f1_under(test_docs, bio_params, shuffled)
    bio_gold = _entity_f1_under(test_docs, bio_params, gold_orders)

    rop_params, rop_log = train(train_docs, "rop", GRID_CONFIG, GRID_HYPER)
    assert not rop_log.aborted
    predicted = [reorder(d, rop_params, DecodeConfig()) for d in test_docs]
    bio_reordered = _entity_f1_under(test_docs, bio_params, predicted)
    cont_shuffled = corpus_continuous_entity_rate(test_docs, shuffled)
    cont_reordered = corpus_continuous_entity_rate(test_docs, predicted)

    elapsed = time.monotonic() - t0
    parts = [
        ("(a) grid F1 ordered >= 0.90", f1_ordered >= 0.90, f"{f1_ordered:.4f}"),
        ("(b) grid F1 shuffled within 2pts", abs(f1_ordered - f1_shuffled) <= 0.02,
         f"{f1_shuffled:.4f} (gap {abs(f1_ordered - f1_shuffled):.4f})"),
        # BIO relies on the *correct* order, which here is the gold order:
        # OCR order already breaks most multi-segment entities on this
        # corpus, so it is printed for context only.
        ("(c) bio drops >= 20pts from gold order under shuffle", bio_gold - bio_shuffled >= 0.20,
         f"{bio_gold:.4f} -> {bio_shuffled:.4f} (drop {bio_gold - bio_shuffled:.4f}; "
         f"OCR order {bio_ordered:.4f})"),
        ("(d) reorder raises bio cont rate and F1",
         cont_reordered > cont_shuffled and bio_reordered > bio_shuffled,
         f"cont {cont_shuffled:.3f} -> {cont_reordered:.3f}, F1 {bio_shuffled:.4f} -> {bio_reordered:.4f}"),
        ("runtime < 15min", elapsed < 900.0, f"{elapsed:.0f}s"),
    ]
    ok = all(p[1] for p in parts)
    detail = "; ".join(f"{name}: {'ok' if good else 'FAIL'} [{info}]" for name, good, info in parts)
    report("6 (end-to-end directionality on a disordered corpus)", ok, detail)


def test_criterion_7_metric_unit_anchors():
    from tokenpath.core import Entity

    checks = []
    rep = entity_f1([Entity(0, (0, 1)), Entity(1, (5,))],
                    [Entity(0, (0, 1)), Entity(1, (5, 6))])
    checks.append(("entity_f1 half", rep.f1 == 0.5))
    checks.append(("ard hand case", abs(ard((1, 0, 2), (0, 1, 2)) - 2 / 3) <= 1e-12))
    checks.append(("bleu identity", page_bleu(range(8), range(8)) == pytest.approx(100.0)))

    from .test_metrics import TestDatasetStats

    stats = dataset_stats(TestDatasetStats().fixture_corpus())
    checks.append(("stats fixture", (
        stats.n_segments == 4 and stats.n_words == 7
        and stats.avg_segment_len == pytest.approx(7 / 4)
        and stats.n_entities == 3 and stats.avg_entity_len == pytest.approx(5 / 3)
        and stats.continuous_rate == pytest.approx(2 / 3)
        and stats.split_sizes == {"train": 1, "val": 0, "test": 1}
    )))
    ok = all(c[1] for c in checks)
    report(
        "7 (metric unit anchors)",
        ok,
        ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks),
    )


def test_criterion_8_el_oracle(oracle_corpus):
    failures, links_total = 0, 0
    for doc in oracle_corpus:
        got = el_decode(oracle(el_grid(doc)), doc.entities)
        failures += sorted(got) != sorted(doc.links)
        links_total += len(doc.links)
    report(
        "8 (linking oracle round trip)",
        failures == 0,
        f"{len(oracle_corpus)} docs, {links_total} gold links, {failures} mismatching docs "
        f"(paper-scale 79.23 F1 not reproducible here; logged for context)",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    import os

    from tokenpath.cli import main
    from tokenpath.core import dumps_canonical

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps_canonical({
        "gen": {"doc_count": 16, "words_per_doc": [8, 16], "entity_types": 2,
                "val_fraction": 0.0, "test_fraction": 0.25, "seed": 3},
        "encoder": {"hidden_dim": 16, "vocab_buckets": 128, "dropout_rate": 0.1,
                    "multi_dropout_k": 2, "seed": 1},
        "train": {"lr": 0.05, "steps": 40, "batch_size": 4},
    }))

    def pipeline(root):
        root.mkdir()
        assert main(["gen", "--config", str(cfg_path), "--out", str(root / "corpus")]) == 0
        assert main(["train", "--task", "ner", "--corpus", str(root / "corpus"),
                     "--config", str(cfg_path), "--out", str(root / "model")]) == 0
        assert main(["decode", "--task", "ner", "--corpus", str(root / "corpus"),
                     "--checkpoint", str(root / "model" / "model.ckpt"),
                     "--out", str(root / "preds")]) == 0
        assert main(["eval", "--task", "ner", "--predictions", str(root / "preds"),
                     "--corpus", str(root / "corpus"), "--out", str(root / "report")]) == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    diffs = []
    for dirpath, _, files in os.walk(tmp_path / "a"):
        rel = os.path.relpath(dirpath, tmp_path / "a")
        for name in files:
            fa = os.path.join(dirpath, name)
            fb = os.path.join(tmp_path / "b", rel, name)
            if open(fa, "rb").read() != open(fb, "rb").read():
                diffs.append(os.path.join(rel, name))
    report(
        "9 (byte-identical pipeline reruns)",
        not diffs,
        f"corpora, checkpoint, predictions, reports compared; differing files: {diffs or 'none'}",
    )
