"""Seeded generator of synthetic form-like documents with OCR disorder.

Documents are produced in a gold semantic flow (the gold reading order),
then laid out on a page and re-segmented the way an OCR engine would:
rows scanned top-to-bottom, spatially adjacent words merged into segments
regardless of meaning. Three disorder mechanisms make the OCR order diverge
from the gold order:

* interleave: an unrelated word is dropped into the horizontal gap inside
  an entity, so the row scan interrupts it;
* multi-row: an entity occupies two stacked rows of a cell while a
  neighbor sits at an intermediate height to the right, so the scan reads
  fragment / neighbor / fragment;
* two columns: the gold flow is column-major, the scan row-major.

Word texts come from small per-type lexicons (entity-initial, entity-
continuation, and singleton pools are disjoint across types), which gives
the toy scorer a learnable text signal alongside geometry. That is a
deliberately artificial convenience, not a claim about real documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BoundingBox,
    Corpus,
    Document,
    Entity,
    InputOrder,
    Segment,
    Word,
    _integer,
    _number,
    map_ordered,
    validate_document,
)

ROW_HEIGHT = 14.0
BOX_HEIGHT = 12.0
CHAR_WIDTH = 6.0
WORD_GAP = 6.0
UNIT_GAP = 36.0
SEGMENT_GAP = 18.0  # x gaps above this start a new OCR segment
ROW_TOL = 3.0
MARGIN = 40.0
COLUMN_GAP = 48.0

FILLER_WORDS = ("note", "ref", "item", "misc", "see", "page", "copy", "also")
INTRUDER_WORDS = ("(q1)", "(q2)", "(x3)", "(x4)")

TYPE_NAME_PALETTE = (
    "header", "question", "answer", "total", "date",
    "name", "addr", "phone", "memo", "code",
)


class GenError(RuntimeError):
    pass


class _Infeasible(Exception):
    pass


@dataclass(frozen=True)
class GenConfig:
    doc_count: int = 100
    words_per_doc: tuple[int, int] = (10, 40)
    entity_types: int = 3
    multi_row_prob: float = 0.3
    multi_column_prob: float = 0.3
    long_entity_prob: float = 0.2
    interleave_prob: float = 0.3
    link_prob: float = 0.35
    page_width: float = 612.0
    page_height: float = 792.0
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        words = tuple(self.words_per_doc)  # a JSON config gives a list
        object.__setattr__(self, "words_per_doc", words)
        _integer(self.seed, "seed", minimum=0)
        _integer(self.doc_count, "doc_count", minimum=1)
        if len(words) != 2:
            raise ValueError(f"words_per_doc must be a range (lo, hi), got {words}")
        lo = _integer(words[0], "words_per_doc", minimum=1)
        _integer(words[1], "words_per_doc", minimum=lo)
        _integer(self.entity_types, "entity_types", minimum=1)
        for field in ("multi_row_prob", "multi_column_prob", "long_entity_prob",
                      "interleave_prob", "link_prob", "val_fraction", "test_fraction"):
            _number(getattr(self, field), field, 0, 1)
        for field in ("page_width", "page_height"):
            _number(getattr(self, field), field, 0, ends="()")
        n_train, n_val, n_test = self.split_sizes()
        if n_train < 0:
            raise ValueError(f"val_fraction + test_fraction exceed the corpus: {n_val} val "
                             f"and {n_test} test documents of {self.doc_count}")

    def split_sizes(self) -> tuple[int, int, int]:
        """(train, val, test) document counts; val and test are rounded."""
        n_test = int(round(self.doc_count * self.test_fraction))
        n_val = int(round(self.doc_count * self.val_fraction))
        return self.doc_count - n_val - n_test, n_val, n_test


def type_names(count: int) -> tuple[str, ...]:
    names = list(TYPE_NAME_PALETTE[:count])
    names.extend(f"field{i}" for i in range(len(names), count))
    return tuple(names)


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


def gen_corpus(config: GenConfig, workers: int = 1) -> Corpus:
    """Generate a corpus with gold orders and train/val/test splits.

    Fully deterministic: per-document generators are seeded by
    (config.seed, document index, attempt), so documents are independent of
    each other and of scheduling, and ``workers`` never changes the output.
    """
    names = type_names(config.entity_types)
    docs = tuple(map_ordered(lambda i: _gen_document(i, config, names),
                             range(config.doc_count), workers))

    ids = [d.id for d in docs]
    n_train, n_val, _ = config.split_sizes()
    splits = {
        "train": tuple(ids[:n_train]),
        "val": tuple(ids[n_train : n_train + n_val]),
        "test": tuple(ids[n_train + n_val :]),
    }
    return Corpus(documents=docs, splits=splits)


def shuffle_order(doc: Document, seed: int) -> InputOrder:
    """Uniformly permute segments, keeping within-segment word order.

    Matches the granularity of the real failure mode: OCR emits whole
    segments, so evaluation-time shuffling permutes segments, not words.
    """
    rng = np.random.default_rng(seed)
    perm: list[int] = []
    for si in rng.permutation(len(doc.segments)):
        perm.extend(doc.segments[si].word_indices)
    return InputOrder(tuple(perm))


# ---------------------------------------------------------------------------
# Single-document generation
# ---------------------------------------------------------------------------


def _gen_document(doc_idx: int, cfg: GenConfig, names: Sequence[str]) -> Document:
    for attempt in range(100):
        rng = np.random.default_rng([cfg.seed, doc_idx, attempt])
        try:
            doc = _try_gen(doc_idx, cfg, names, rng)
        except _Infeasible:
            continue
        problems = validate_document(doc)
        if problems:
            raise GenError(f"generator produced an invalid document: {problems[:3]}")
        return doc
    raise GenError(
        f"doc {doc_idx}: layout infeasible after 100 attempts "
        f"(page {cfg.page_width}x{cfg.page_height} too small for "
        f"{cfg.words_per_doc} words?)"
    )


def _plan_units(cfg: GenConfig, rng) -> list[tuple]:
    lo, hi = cfg.words_per_doc
    target = int(rng.integers(lo, hi + 1))
    units: list[tuple] = []
    planned = 0
    while planned < target:
        room = hi - planned
        if units and rng.random() < 0.25:
            k = int(min(rng.integers(1, 3), room))
            units.append(("filler", k))
            planned += k
            continue
        if rng.random() < cfg.long_entity_prob:
            k = int(rng.integers(4, 9))
        else:
            k = int(rng.choice([1, 2, 3], p=[0.3, 0.4, 0.3]))
        k = min(k, room)
        t = int(rng.integers(cfg.entity_types))
        pattern = "flow"
        if k >= 2 and room >= k + 1:
            if rng.random() < cfg.interleave_prob:
                pattern = "interleave"
            elif rng.random() < cfg.multi_row_prob:
                pattern = "multirow"
        units.append(("entity", t, k, pattern))
        planned += k + (1 if pattern != "flow" else 0)
    return units


def _width(text: str) -> float:
    return len(text) * CHAR_WIDTH


class _PageWriter:
    """Cursor-based placement of words into the columns of one page."""

    def __init__(self, y_limit: float, rng):
        self.y_limit = y_limit
        self.rng = rng
        self.texts: list[str] = []
        self.boxes: list[BoundingBox] = []

    def column(self, x0: float, x1: float) -> None:
        self.x0, self.x1 = x0, x1
        self.x, self.y = x0, MARGIN

    def newline(self, advance: float = ROW_HEIGHT) -> None:
        self.x = self.x0
        self.y += advance
        if self.y + BOX_HEIGHT > self.y_limit:
            raise _Infeasible

    def fresh_row(self) -> None:
        if self.x > self.x0:
            self.newline()

    def put_at(self, text: str, x: float, y: float) -> int:
        if y + BOX_HEIGHT > self.y_limit or x + _width(text) > self.x1 + CHAR_WIDTH:
            raise _Infeasible
        jx = float(self.rng.integers(-1, 2))
        jy = float(self.rng.integers(-1, 2))
        self.texts.append(text)
        self.boxes.append(
            BoundingBox(x + jx, y + jy, x + jx + _width(text), y + jy + BOX_HEIGHT)
        )
        return len(self.texts) - 1

    def put_row(self, texts: Sequence[str], x: float, y: float) -> tuple[list[int], float]:
        """Place ``texts`` left to right from ``x``; their indices and the
        next word's x."""
        idxs = []
        for text in texts:
            idxs.append(self.put_at(text, x, y))
            x += _width(text) + WORD_GAP
        return idxs, x

    def put_flow(self, texts: Sequence[str]) -> list[int]:
        """Place a unit's words in reading flow, wrapping rows, then leave
        the gap between units."""
        idxs = []
        for text in texts:
            w = _width(text)
            if self.x + w > self.x1:
                self.newline()
            idxs.append(self.put_at(text, self.x, self.y))
            self.x += w + WORD_GAP
        if self.x > self.x0:
            self.x += UNIT_GAP - WORD_GAP
        return idxs

    def fits_on_row(self, widths: Sequence[float], fresh: bool) -> bool:
        total = sum(widths) + WORD_GAP * (len(widths) - 1)
        start = self.x0 if fresh else self.x
        return start + total <= self.x1


def _lay_units(writer: _PageWriter, units, lex, rng) -> list[tuple[int, list[int]]]:
    """Place units; returns (type_id, word creation indices) per entity."""
    entities: list[tuple[int, list[int]]] = []
    for unit in units:
        if unit[0] == "filler":
            writer.put_flow([str(text) for text in rng.choice(FILLER_WORDS, size=unit[1])])
            continue

        _, t, k, pattern = unit
        texts = lex[t].sample_entity(k, rng)
        widths = [_width(s) for s in texts]

        idxs = None
        if pattern == "interleave":
            intruder = str(rng.choice(INTRUDER_WORDS))
            if writer.fits_on_row(widths + [_width(intruder)], fresh=True):
                writer.fresh_row()
                # Entity words first (gold flow), the intruder afterwards,
                # but geometrically the intruder sits right after word 0.
                idxs, intruder_x = writer.put_row(texts[:1], writer.x, writer.y)
                rest, x = writer.put_row(texts[1:], intruder_x + (_width(intruder) + WORD_GAP),
                                         writer.y)
                writer.put_at(intruder, intruder_x, writer.y)
                writer.x = x + UNIT_GAP - WORD_GAP
                idxs += rest
        elif pattern == "multirow":
            k1 = (k + 1) // 2
            neighbor = str(rng.choice(FILLER_WORDS))
            row1 = sum(widths[:k1]) + WORD_GAP * (k1 - 1)
            row2 = sum(widths[k1:]) + WORD_GAP * (k - k1 - 1)
            cell_w = max(row1, row2)
            need = cell_w + UNIT_GAP + _width(neighbor)
            if writer.x0 + need <= writer.x1:
                writer.fresh_row()
                base_x, base_y = writer.x0, writer.y
                idxs, _ = writer.put_row(texts[:k1], base_x, base_y)
                rest, _ = writer.put_row(texts[k1:], base_x, base_y + ROW_HEIGHT)
                writer.put_at(neighbor, base_x + cell_w + UNIT_GAP, base_y + ROW_HEIGHT / 2)
                idxs += rest
                writer.y = base_y + ROW_HEIGHT  # newline() adds the second row
                writer.newline()

        if idxs is None:
            # Plain flow, also where a pattern does not fit: an entity
            # prefers starting on a fresh row unless it fits in the
            # remaining width, so that within-entity geometry stays tight;
            # long entities may still wrap mid-entity.
            if not writer.fits_on_row(widths, fresh=False):
                writer.fresh_row()
            idxs = writer.put_flow(texts)
        entities.append((t, idxs))
    return entities


def _segment_rows(boxes: Sequence[BoundingBox]) -> list[list[int]]:
    """OCR-style segmentation: cluster by row, then split on wide x gaps."""
    by_y = sorted(range(len(boxes)), key=lambda i: (boxes[i].y0, boxes[i].x0))
    rows: list[list[int]] = []
    for i in by_y:
        if rows and boxes[i].y0 - boxes[rows[-1][-1]].y0 <= ROW_TOL:
            rows[-1].append(i)
        else:
            rows.append([i])
    segments: list[list[int]] = []
    for row in rows:
        row.sort(key=lambda i: boxes[i].x0)
        seg = [row[0]]
        for i in row[1:]:
            if boxes[i].x0 - boxes[seg[-1]].x1 > SEGMENT_GAP:
                segments.append(seg)
                seg = [i]
            else:
                seg.append(i)
        segments.append(seg)
    return segments


def _try_gen(doc_idx: int, cfg: GenConfig, names: Sequence[str], rng) -> Document:
    lex = _lexicons(names)
    units = _plan_units(cfg, rng)
    writer = _PageWriter(cfg.page_height - MARGIN, rng)
    if rng.random() < cfg.multi_column_prob:
        col_w = (cfg.page_width - 2 * MARGIN - COLUMN_GAP) / 2
        counts = [u[1] if u[0] == "filler" else u[2] for u in units]
        half = sum(counts) / 2
        acc, split_at = 0, len(units)
        for i, c in enumerate(counts):
            acc += c
            if acc >= half:
                split_at = i + 1
                break
        x2 = MARGIN + col_w + COLUMN_GAP
        columns = [(MARGIN, MARGIN + col_w, units[:split_at]),
                   (x2, x2 + col_w, units[split_at:])]
    else:
        columns = [(MARGIN, cfg.page_width - MARGIN, units)]
    entities = []
    for x0, x1, column_units in columns:
        writer.column(x0, x1)
        entities += _lay_units(writer, column_units, lex, rng)
    texts, boxes = writer.texts, writer.boxes

    n = len(texts)
    links = [
        (i, i + 1)
        for i in range(len(entities) - 1)
        if entities[i][0] != entities[i + 1][0] and rng.random() < cfg.link_prob
    ]

    # Relabel word indices with a random permutation so gold order is a
    # non-trivial permutation; index-space confusions then cannot hide.
    relabel = rng.permutation(n)
    words = [None] * n
    for old, new in enumerate(relabel):
        words[new] = Word(texts[old], boxes[old])
    seg_lists = _segment_rows(boxes)
    segments = tuple(
        Segment(
            tuple(int(relabel[i]) for i in seg),
            BoundingBox.union([boxes[i] for i in seg]),
        )
        for seg in seg_lists
    )
    return Document(
        id=f"doc-{doc_idx:04d}",
        page_width=cfg.page_width,
        page_height=cfg.page_height,
        words=tuple(words),
        segments=segments,
        entity_types=tuple(names),
        entities=tuple(
            Entity(t, tuple(int(relabel[i]) for i in idxs)) for t, idxs in entities
        ),
        links=tuple(links),
        gold_order=tuple(int(relabel[v]) for v in range(n)),
    )
