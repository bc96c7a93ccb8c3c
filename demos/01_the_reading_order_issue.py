"""What goes wrong when OCR order meets sequence labeling.

Builds a miniature two-column form whose left column holds a field that
spans two rows, with another field sitting to its right at an intermediate
height. An OCR engine scans rows top to bottom, so the tall field comes out
interleaved with its neighbor, and BIO tags can no longer mark it.
"""

import numpy as np

from tokenpath import (
    BoundingBox,
    Document,
    Entity,
    GenConfig,
    Segment,
    Word,
    bio_decode,
    bio_encode,
    bio_tag_names,
    continuous_entity_rate,
    dataset_stats,
    gen_corpus,
    ocr_order,
)
from tokenpath.core import InputOrder


def tiny_form() -> Document:
    texts = ["#", "OF", "STORES", "SUPPLIED", "NAME", "OF", "ACCOUNT"]
    boxes = [
        (10, 10, 16, 20), (20, 10, 30, 20), (34, 10, 70, 20),   # row 1 left
        (10, 24, 70, 34),                                       # row 2 left
        (200, 17, 230, 27), (234, 17, 244, 27), (248, 17, 300, 27),  # right
    ]
    words = tuple(Word(t, BoundingBox(*b)) for t, b in zip(texts, boxes))
    segments = (
        Segment((0, 1, 2), BoundingBox(10, 10, 70, 20)),
        Segment((3,), BoundingBox(10, 24, 70, 34)),
        Segment((4, 5, 6), BoundingBox(200, 17, 300, 27)),
    )
    return Document(
        id="demo",
        page_width=320,
        page_height=50,
        words=words,
        segments=segments,
        entity_types=("question", "header"),
        entities=(Entity(0, (0, 1, 2, 3)), Entity(1, (4, 5, 6))),
        gold_order=(0, 1, 2, 3, 4, 5, 6),
    )


def show_order(doc, order, label):
    line = " ".join(doc.words[w].text for w in order.perm)
    print(f"{label:>12}: {line}")


def main():
    doc = tiny_form()
    gold = InputOrder(doc.gold_order)
    ocr = ocr_order(doc)

    print("The tall left field reads '# OF STORES SUPPLIED'; the OCR scan")
    print("interleaves the right-hand field between its rows:\n")
    show_order(doc, gold, "gold order")
    show_order(doc, ocr, "ocr order")

    print("\nBIO tags along each order:")
    names = bio_tag_names(doc.entity_types)
    for label, order in (("gold", gold), ("ocr", ocr)):
        tag_ids = bio_encode(doc, order)
        print(f"  {label:>4}: {[names[tag_ids[w]] for w in order.perm]}")
        decoded = bio_decode(tag_ids, order, doc.entity_types)
        print(f"        decodes into {len(decoded)} entities "
              f"(gold has {len(doc.entities)})")

    print("\ncontinuous entity rate:")
    print(f"  gold order: {continuous_entity_rate(doc, gold):.2f}")
    print(f"  ocr  order: {continuous_entity_rate(doc, ocr):.2f}")

    print("\nThe synthetic generator reproduces this at corpus scale:")
    corpus = gen_corpus(GenConfig(
        doc_count=60, multi_row_prob=0.5, multi_column_prob=0.5,
        interleave_prob=0.5, long_entity_prob=0.5, seed=0,
    ))
    print()
    print(dataset_stats(corpus).format_table())


if __name__ == "__main__":
    main()
