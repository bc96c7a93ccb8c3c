"""Grid-path extraction vs sequence labeling under shuffled inputs.

Trains two small models on the same disordered corpus: the pair-scoring
grid head (order-free config) and a BIO tagger that uses 1D position
features and reads each word's tags from the word and its predecessor and
successor along the input order. Evaluates both under OCR order, the gold
reading order and segment-shuffled test inputs, scoring each document on
its own. The grid model's predictions cannot change with the order; the
tagger's depend on getting the correct order and fall apart when shuffled.

Runs a deliberately small configuration (a couple of minutes on a laptop);
the full-strength version of this comparison lives in the acceptance tests.
"""

import numpy as np

from tokenpath import (
    EncoderConfig,
    GenConfig,
    Hyper,
    entity_f1,
    gen_corpus,
    shuffle_order,
    sum_reports,
    train,
)
from tokenpath.decode import DecodeConfig, decode_document


def f1_under(docs, params, orders):
    reports = []
    for doc, order in zip(docs, orders):
        p = decode_document(doc, params, DecodeConfig(), order=order)
        reports.append(entity_f1([e.to_entity() for e in p.entities], doc.entities))
    return sum_reports(reports).f1


def main():
    corpus = gen_corpus(GenConfig(
        doc_count=220, words_per_doc=(10, 30), entity_types=3,
        multi_row_prob=0.5, multi_column_prob=0.5, long_entity_prob=0.3,
        interleave_prob=0.5, val_fraction=0.0, test_fraction=60 / 220, seed=1,
    ))
    train_docs, test_docs = corpus.split("train"), corpus.split("test")

    grid_cfg = EncoderConfig(use_1d_position="none", use_2d_position="word",
                             dropout_rate=0.0, multi_dropout_k=1, seed=0)
    # Clipped, as criterion 6 trains: unclipped at this lr, about one
    # encoder seed in two diverges.
    grid, _ = train(train_docs, "ner", grid_cfg,
                    Hyper(lr=0.06, steps=1500, batch_size=32,
                          warmup_fraction=0.1, weight_decay=1e-4, max_grad_norm=10.0))

    bio_cfg = EncoderConfig(use_1d_position="global", use_2d_position="word",
                            positional_residual=True, dropout_rate=0.0,
                            multi_dropout_k=1, seed=0)
    bio, _ = train(train_docs, "bio", bio_cfg,
                   Hyper(lr=0.3, steps=1500, batch_size=32,
                         warmup_fraction=0.1, weight_decay=1e-4))

    from tokenpath.core import InputOrder, ocr_order

    orders = {
        "OCR F1": [ocr_order(d) for d in test_docs],
        "gold F1": [InputOrder(d.gold_order) for d in test_docs],
        "shuffled F1": [shuffle_order(d, 1000 + i) for i, d in enumerate(test_docs)],
    }

    print(f"{'model':<14}" + "".join(f" {k:>12}" for k in orders))
    for name, params in (("grid paths", grid), ("bio tagging", bio)):
        f1s = [f1_under(test_docs, params, o) for o in orders.values()]
        print(f"{name:<14}" + "".join(f" {v:>12.4f}" for v in f1s))


if __name__ == "__main__":
    main()
