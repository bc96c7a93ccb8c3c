"""Recovering a reading order, and using it as a pre-processing step.

Trains the auxiliary-start path model on layout geometry alone (no 1D
position input, so shuffling cannot touch it), then:

  1. scores predicted orders with page BLEU and average rank displacement;
  2. uses the predicted order to re-arrange inputs for a BIO tagger that
     was trained on OCR order, and measures how much of the tagger's
     shuffled-input loss it recovers.
"""

import numpy as np

from tokenpath import (
    EncoderConfig,
    GenConfig,
    Hyper,
    ard,
    continuous_entity_rate,
    entity_f1,
    gen_corpus,
    page_bleu,
    shuffle_order,
    sum_reports,
    train,
)
from tokenpath.core import ocr_order
from tokenpath.decode import DecodeConfig, decode_document, reorder


def bio_f1(docs, params, orders):
    # Each document is scored on its own: entities hold word ids, which
    # collide across documents.
    reports = []
    for doc, order in zip(docs, orders):
        p = decode_document(doc, params, DecodeConfig(), order=order)
        reports.append(entity_f1([e.to_entity() for e in p.entities], doc.entities))
    return sum_reports(reports).f1


def mean_cont(docs, orders):
    pairs = [(d, o) for d, o in zip(docs, orders) if d.entities]
    vals = [continuous_entity_rate(d, o) for d, o in pairs]
    return float(np.mean(vals))


def main():
    corpus = gen_corpus(GenConfig(
        doc_count=220, words_per_doc=(10, 30), entity_types=3,
        multi_row_prob=0.5, multi_column_prob=0.5, long_entity_prob=0.3,
        interleave_prob=0.5, val_fraction=0.0, test_fraction=60 / 220, seed=2,
    ))
    train_docs, test_docs = corpus.split("train"), corpus.split("test")

    rop_cfg = EncoderConfig(use_1d_position="none", use_2d_position="word", seed=0)
    rop, _ = train(train_docs, "rop", rop_cfg,
                   Hyper(lr=0.06, steps=1500, batch_size=32,
                         warmup_fraction=0.1, weight_decay=1e-4))

    predicted = [reorder(d, rop) for d in test_docs]
    bleus = [page_bleu(p.perm, d.gold_order) for p, d in zip(predicted, test_docs)]
    ards = [ard(p.perm, d.gold_order) for p, d in zip(predicted, test_docs)]
    print(f"predicted reading order: bleu={np.mean(bleus):.2f} ard={np.mean(ards):.3f}")

    bio_cfg = EncoderConfig(use_1d_position="global", use_2d_position="word",
                            positional_residual=True, seed=0)
    bio, _ = train(train_docs, "bio", bio_cfg,
                   Hyper(lr=0.3, steps=1500, batch_size=32,
                         warmup_fraction=0.1, weight_decay=1e-4))

    shuffled = [shuffle_order(d, 500 + i) for i, d in enumerate(test_docs)]
    rows = [
        ("ocr order", [ocr_order(d) for d in test_docs]),
        ("shuffled", shuffled),
        ("shuffled + reorder", predicted),
    ]
    print(f"\n{'input to bio tagger':<20} {'cont rate':>10} {'F1':>8}")
    for name, orders in rows:
        print(f"{name:<20} {mean_cont(test_docs, orders):>10.3f} "
              f"{bio_f1(test_docs, bio, orders):>8.4f}")


if __name__ == "__main__":
    main()
