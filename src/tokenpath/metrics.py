"""Evaluation: entity/word F1, page-level BLEU, rank displacement, and the
continuous-entity diagnostic that quantifies how disordered an input order is.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import Corpus, Document, Entity, InputOrder, ocr_order


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    correct: int
    predicted: int
    gold: int
    per_type: Mapping[str, "EvalReport"] = field(default_factory=dict)

    def format_table(self, title: str = "") -> str:
        lines = [title] if title else []
        lines.append(f"{'type':<16} {'prec':>7} {'rec':>7} {'f1':>7} {'support':>8}")
        for name, rep in [*sorted(self.per_type.items()), ("micro", self)]:
            lines.append(
                f"{name:<16} {rep.precision:7.4f} {rep.recall:7.4f} "
                f"{rep.f1:7.4f} {rep.gold:8d}"
            )
        return "\n".join(lines)


def _report(correct: int, predicted: int, gold: int, per_type=None) -> EvalReport:
    # Empty vs empty counts as vacuous success; empty vs non-empty as failure.
    if predicted == 0 and gold == 0:
        p = r = f1 = 1.0
    else:
        p = correct / predicted if predicted else 0.0
        r = correct / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return EvalReport(p, r, f1, correct, predicted, gold, per_type or {})


def _typed_f1(pred: Counter, gold: Counter, type_names: Sequence[str]) -> EvalReport:
    """Micro P/R/F1 of two multisets of ``(type id, ...)`` keys, matched
    one-to-one by multiset intersection, with one report per type present
    in either."""
    both = pred & gold
    counts: dict[int, list[int]] = {}
    for i, keys in enumerate((both, pred, gold)):
        for key, c in keys.items():
            counts.setdefault(key[0], [0, 0, 0])[i] += c
    per_type = {
        (type_names[t] if t < len(type_names) else str(t)): _report(*counts[t])
        for t in sorted(counts)
    }
    return _report(*(sum(keys.values()) for keys in (both, pred, gold)), per_type)


def entity_f1(
    pred: Sequence[Entity],
    gold: Sequence[Entity],
    type_names: Sequence[str] = (),
) -> EvalReport:
    """Micro P/R/F1 with exact matching: a prediction is correct only if its
    type and its full ordered word-index sequence equal a gold entity's.
    Matching is one-to-one via multiset intersection.
    """
    return _typed_f1(
        Counter(e.key() for e in pred), Counter(e.key() for e in gold), type_names
    )


def sum_reports(reports: Iterable[EvalReport]) -> EvalReport:
    """Micro-average reports (one per document) by summing their counts,
    per type too.

    Entity and word keys hold word ids only, so scoring a whole corpus in
    one call would let a prediction in one document match gold in another;
    score each document on its own and sum with this instead.
    """
    reports = list(reports)
    names = sorted({name for rep in reports for name in rep.per_type})
    return _report(
        sum(rep.correct for rep in reports),
        sum(rep.predicted for rep in reports),
        sum(rep.gold for rep in reports),
        {name: sum_reports(rep.per_type[name] for rep in reports if name in rep.per_type)
         for name in names},
    )


def word_f1(
    pred: Sequence[Entity],
    gold: Sequence[Entity],
    type_names: Sequence[str] = (),
) -> EvalReport:
    """Per-word typed F1: each word carries the type of the first entity that
    claims it, or none. Blind to word order inside entities, which is why it
    overstates quality on disordered inputs.
    """

    def typed_words(entities: Sequence[Entity]) -> Counter:
        first: dict[int, int] = {}
        for e in entities:
            for w in e.word_indices:
                first.setdefault(w, e.type_id)
        return Counter((t, w) for w, t in first.items())

    return _typed_f1(typed_words(pred), typed_words(gold), type_names)


def link_f1(
    pred_entities: Sequence[Entity],
    pred_links: Sequence[tuple[int, int]],
    gold_entities: Sequence[Entity],
    gold_links: Sequence[tuple[int, int]],
) -> EvalReport:
    """Linking F1 with links identified by the content (type + word sequence)
    of their head and tail entities, so predicted and gold entity lists may
    be indexed differently."""

    def keys(entities, links):
        return Counter(
            (entities[a].key(), entities[b].key()) for a, b in links
        )

    pk, gk = keys(pred_entities, pred_links), keys(gold_entities, gold_links)
    return _report(sum((pk & gk).values()), len(pred_links), len(gold_links))


# ---------------------------------------------------------------------------
# Order metrics
# ---------------------------------------------------------------------------


def _ngram_counts(seq: Sequence[int], k: int) -> Counter:
    return Counter(tuple(seq[i : i + k]) for i in range(len(seq) - k + 1))


def page_bleu(pred_order: Sequence[int], gold_order: Sequence[int]) -> float:
    """BLEU (0..100) between two token-index sequences, n-grams up to 4.

    No smoothing: a zero n-gram match zeroes the page, so only exact local
    order earns credit. Pages shorter than 4 tokens use the largest feasible
    n-gram order.
    """
    pred = list(_as_sequence(pred_order))
    gold = list(_as_sequence(gold_order))
    if not gold:
        raise ValueError("empty gold order")
    if not pred:
        return 0.0
    max_k = min(4, len(gold), len(pred))
    log_sum = 0.0
    for k in range(1, max_k + 1):
        pc = _ngram_counts(pred, k)
        gc = _ngram_counts(gold, k)
        matched = sum((pc & gc).values())
        total = sum(pc.values())
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total) / max_k
    c, r = len(pred), len(gold)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum)


def ard(pred_order: Sequence[int], gold_order: Sequence[int]) -> float:
    """Mean absolute rank displacement between predicted and gold orders.

    The prediction may omit tokens; each missing token is charged the
    maximum displacement n, so truncated outputs are penalized rather than
    quietly rewarded. Duplicates in the prediction are an error.
    """
    pred = list(_as_sequence(pred_order))
    gold = list(_as_sequence(gold_order))
    n = len(gold)
    if not n:
        raise ValueError("empty gold order")
    if len(set(pred)) != len(pred):
        raise ValueError("predicted order contains duplicate tokens")
    gold_rank = {t: i for i, t in enumerate(gold)}
    unknown = [t for t in pred if t not in gold_rank]
    if unknown:
        raise ValueError(f"predicted tokens not in gold order: {unknown[:5]}")
    total = 0.0
    for i, t in enumerate(pred):
        total += abs(i - gold_rank[t])
    total += n * (n - len(pred))
    return total / n


def _as_sequence(order) -> Sequence[int]:
    return order.perm if isinstance(order, InputOrder) else order


def continuous_entity_rate(doc: Document, order: InputOrder | Sequence[int]) -> float | None:
    """Fraction of entities whose words sit at consecutive ranks of ``order``
    in the entity's own direction. None when the document has no entities."""
    return corpus_continuous_entity_rate([doc], [order])


def corpus_continuous_entity_rate(
    docs: Sequence[Document], orders: Sequence[InputOrder | Sequence[int]]
) -> float | None:
    """Entity-weighted mean over documents; entity-free documents are
    excluded from the aggregate."""
    cont = total = 0
    for doc, order in zip(docs, orders):
        rank = {w: i for i, w in enumerate(_as_sequence(order))}
        for e in doc.entities:
            ranks = [rank[w] for w in e.word_indices]
            cont += all(b == a + 1 for a, b in zip(ranks, ranks[1:]))
        total += len(doc.entities)
    return cont / total if total else None


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStats:
    n_documents: int
    n_segments: int
    n_words: int
    avg_segment_len: float
    n_entities: int
    avg_entity_len: float
    continuous_rate: float | None
    n_types: int
    split_sizes: Mapping[str, int]

    def to_record(self) -> dict:
        return {
            "documents": self.n_documents,
            "segments": self.n_segments,
            "words": self.n_words,
            "avg_segment_len": self.avg_segment_len,
            "entities": self.n_entities,
            "avg_entity_len": self.avg_entity_len,
            "continuous_rate": self.continuous_rate,
            "entity_types": self.n_types,
            "split_sizes": dict(self.split_sizes),
        }

    def format_table(self) -> str:
        cont = f"{100 * self.continuous_rate:.2f}%" if self.continuous_rate is not None else "-"
        splits = "/".join(
            str(self.split_sizes.get(k, 0)) for k in ("train", "val", "test")
        )
        rows = [
            ("documents", str(self.n_documents)),
            ("segments", str(self.n_segments)),
            ("words", str(self.n_words)),
            ("avg segment length", f"{self.avg_segment_len:.2f}"),
            ("entities", str(self.n_entities)),
            ("avg entity length", f"{self.avg_entity_len:.2f}"),
            ("continuous entity rate", cont),
            ("entity types", str(self.n_types)),
            ("samples (train/val/test)", splits),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def dataset_stats(corpus: Corpus) -> DatasetStats:
    """Corpus summary in the shape used for dataset cards: counts, average
    lengths in words, and the continuous entity rate under OCR order."""
    n_segments = sum(len(d.segments) for d in corpus.documents)
    n_words = sum(d.n_words for d in corpus.documents)
    n_entities = sum(len(d.entities) for d in corpus.documents)
    entity_words = sum(
        len(e.word_indices) for d in corpus.documents for e in d.entities
    )
    docs_with_entities = [d for d in corpus.documents if d.entities]
    rate = corpus_continuous_entity_rate(
        docs_with_entities, [ocr_order(d) for d in docs_with_entities]
    )
    return DatasetStats(
        n_documents=len(corpus.documents),
        n_segments=n_segments,
        n_words=n_words,
        avg_segment_len=n_words / n_segments if n_segments else 0.0,
        n_entities=n_entities,
        avg_entity_len=entity_words / n_entities if n_entities else 0.0,
        continuous_rate=rate,
        n_types=len(corpus.entity_types),
        split_sizes={k: len(v) for k, v in corpus.splits.items()},
    )
