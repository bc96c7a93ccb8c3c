"""Data model for visually-rich documents.

A document is a bag of words with bounding boxes, grouped into OCR-style
segments. Entities are typed, ordered word-index sequences and are allowed
to be non-adjacent and non-monotone with respect to any input order; that
freedom is the entire point of this package.

Coordinates use a top-left origin with y growing downward, which matches
what OCR engines emit. Datasets annotated with a bottom-left origin must be
flipped at ingestion (y -> page_height - y).

All types are frozen dataclasses holding tuples, and every operation is a
pure function, so documents can be processed concurrently without locking.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

#: Tolerance (page units) when checking that a segment box contains its words.
#: OCR boxes are noisy; strict containment would reject real data.
SEGMENT_BOX_SLACK = 2.0

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box. Invariant: x0 <= x1, y0 <= y1, all finite, >= 0."""

    x0: float
    y0: float
    x1: float
    y1: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)

    def contains(self, other: "BoundingBox", slack: float = 0.0) -> bool:
        return (
            self.x0 - slack <= other.x0
            and self.y0 - slack <= other.y0
            and other.x1 <= self.x1 + slack
            and other.y1 <= self.y1 + slack
        )

    def problems(self) -> list[str]:
        coords = self.as_tuple()
        if not all(math.isfinite(c) for c in coords):
            return ["box has non-finite coordinates"]
        out = []
        if any(c < 0 for c in coords):
            out.append("box has negative coordinates")
        if self.x0 > self.x1 or self.y0 > self.y1:
            out.append("box is inverted (x0 > x1 or y0 > y1)")
        return out

    @staticmethod
    def union(boxes: Iterable["BoundingBox"]) -> "BoundingBox":
        boxes = list(boxes)
        if not boxes:
            raise ValueError("union of zero boxes")
        return BoundingBox(
            min(b.x0 for b in boxes),
            min(b.y0 for b in boxes),
            max(b.x1 for b in boxes),
            max(b.y1 for b in boxes),
        )


@dataclass(frozen=True)
class Word:
    text: str
    box: BoundingBox


@dataclass(frozen=True)
class Segment:
    """A single-row OCR segment: word indices in left-to-right annotated order."""

    word_indices: tuple[int, ...]
    box: BoundingBox


@dataclass(frozen=True)
class Entity:
    """A typed token path: the order of ``word_indices`` is meaningful."""

    type_id: int
    word_indices: tuple[int, ...]

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.type_id, self.word_indices)


@dataclass(frozen=True)
class InputOrder:
    """A permutation of word indices; ``perm[v]`` is the word at position v."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if not is_permutation(self.perm):
            raise ValueError(f"not a permutation of 0..{len(self.perm) - 1}: {self.perm!r}")

    def __len__(self) -> int:
        return len(self.perm)

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.perm)
        for pos, word in enumerate(self.perm):
            inv[word] = pos
        return tuple(inv)


@dataclass(frozen=True)
class Document:
    id: str
    page_width: float
    page_height: float
    words: tuple[Word, ...]
    segments: tuple[Segment, ...]
    entity_types: tuple[str, ...] = ()
    entities: tuple[Entity, ...] = ()
    links: tuple[tuple[int, int], ...] = ()
    # Optional extras carried by the corpus format: the generator's gold
    # reading order, and a stored (e.g. model-predicted) input order.
    gold_order: tuple[int, ...] | None = None
    input_order: tuple[int, ...] | None = None

    @property
    def n_words(self) -> int:
        return len(self.words)


def _integer(value, field: str, minimum: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` naming ``field`` if it is not an
    integer (a float, bool or string is refused, not truncated) or is below
    ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} value {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field} value {value} is below {minimum}")
    return int(value)


def _number(value, field: str, low: float = -math.inf, high: float = math.inf,
            ends: str = "[]") -> None:
    """``ValueError`` naming ``field`` if ``value`` is not a finite real
    number (a bool or string is refused) or lies outside the interval from
    ``low`` to ``high``, whose ``ends`` are "[" or "(" and "]" or ")"."""
    # Not math.isfinite: it raises OverflowError on an int too large for a float.
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{field} value {value!r} is not a finite number")
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below):
        raise ValueError(f"{field} value {value} is outside {ends[0]}{low:g}, {high:g}{ends[1]}")


def _index_problem(values, bound: int, what: str, distinct: bool = False) -> str | None:
    """The first of ``values`` outside [0, bound) or, if ``distinct``, repeated."""
    seen = set()
    for v in values:
        if not 0 <= v < bound:
            return f"{what} {v} is outside [0, {bound})"
        if distinct and v in seen:
            return f"{what} {v} repeats"
        seen.add(v)
    return None


def is_permutation(seq: Sequence[int]) -> bool:
    n = len(seq)
    seen = [False] * n
    for v in seq:
        if not isinstance(v, (int,)) or isinstance(v, bool):
            return False
        if v < 0 or v >= n or seen[v]:
            return False
        seen[v] = True
    return True


def _annotation_problems(doc: Document, entities: Sequence = (), links: Sequence = ()) -> list[str]:
    """Every problem of ``entities`` (with ``type_id`` and ``word_indices``) against
    ``doc``'s words and entity types, and of ``links`` against ``doc``'s entities."""
    out: list[str] = []
    for ei, ent in enumerate(entities):
        out += filter(None, (
            None if ent.word_indices else f"entity {ei} is empty",
            _index_problem(ent.word_indices, doc.n_words, f"entity {ei} word", distinct=True),
            _index_problem((ent.type_id,), len(doc.entity_types), f"entity {ei} type"),
        ))
    for li, (head, tail) in enumerate(links):
        problem = _index_problem((head, tail), len(doc.entities), f"link {li} entity")
        if problem:
            out.append(problem)
        elif head == tail:
            out.append(f"link {li} links entity {head} to itself")
    return out


def validate_document(doc: Document) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the document is valid. Violations are data, not
    failures: callers decide whether to reject, repair, or report.
    """
    out: list[str] = []
    n = len(doc.words)

    if not (math.isfinite(doc.page_width) and doc.page_width > 0):
        out.append(f"page_width must be positive and finite, got {doc.page_width}")
    if not (math.isfinite(doc.page_height) and doc.page_height > 0):
        out.append(f"page_height must be positive and finite, got {doc.page_height}")
    if n < 1:
        out.append("document has no words")

    for i, w in enumerate(doc.words):
        if not w.text:
            out.append(f"word {i} has empty text")
        elif "\n" in w.text or "\r" in w.text:
            out.append(f"word {i} text contains a line break")
        for p in w.box.problems():
            out.append(f"word {i}: {p}")

    owner_count = [0] * n
    for si, seg in enumerate(doc.segments):
        if not seg.word_indices:
            out.append(f"segment {si} is empty")
            continue
        if len(set(seg.word_indices)) != len(seg.word_indices):
            out.append(f"segment {si} repeats a word index")
        for p in seg.box.problems():
            out.append(f"segment {si}: {p}")
        for wi in seg.word_indices:
            if wi < 0 or wi >= n:
                out.append(f"segment {si} references word index {wi} outside [0, {n})")
            else:
                owner_count[wi] += 1
                if not seg.box.contains(doc.words[wi].box, slack=SEGMENT_BOX_SLACK):
                    out.append(
                        f"segment {si} does not contain word {wi} "
                        f"(slack {SEGMENT_BOX_SLACK})"
                    )
    for wi, c in enumerate(owner_count):
        if c == 0:
            out.append(f"word {wi} belongs to no segment")
        elif c > 1:
            out.append(f"word {wi} belongs to {c} segments")

    seen_names: set[str] = set()
    for name in doc.entity_types:
        if name in seen_names:
            out.append(f"duplicate entity type name {name!r}")
        seen_names.add(name)

    out += _annotation_problems(doc, doc.entities, doc.links)

    for label, order in (("gold_order", doc.gold_order), ("input_order", doc.input_order)):
        if order is not None and (len(order) != n or not is_permutation(order)):
            out.append(f"{label} is not a permutation of the document's words")

    return out


def ocr_order(doc: Document) -> InputOrder:
    """The top-to-down, left-to-right order an OCR engine would emit.

    Segments are sorted by (box y0, box x0, original index); words inside a
    segment keep their annotated order. Deterministic and total for any
    valid document.
    """
    ranked = sorted(
        range(len(doc.segments)),
        key=lambda si: (doc.segments[si].box.y0, doc.segments[si].box.x0, si),
    )
    perm: list[int] = []
    for si in ranked:
        perm.extend(doc.segments[si].word_indices)
    return InputOrder(tuple(perm))


# ---------------------------------------------------------------------------
# Canonical JSON corpus format
# ---------------------------------------------------------------------------
# One document per file:
#   {"id": str, "page_width": num, "page_height": num,
#    "words": [{"text": str, "box": [x0,y0,x1,y1]}],
#    "segments": [{"box": [x0,y0,x1,y1], "word_indices": [int]}],
#    "entity_types": [str],
#    "entities": [{"type": int, "word_indices": [int]}],
#    "links": [[int,int]]}
# plus optional "gold_order" and "order" keys. A corpus is a directory of
# such files with a manifest listing the train/val/test splits. Every int
# is read by ``_integer``'s rule: a float, bool or string is refused.


def _indices(values, field: str) -> tuple[int, ...]:
    """``values`` as ints by ``_integer``'s rule; an exact int skips the call,
    which would otherwise take most of the time of reading a corpus."""
    return tuple(v if type(v) is int else _integer(v, field) for v in values)


def _entity_from_record(rec: Mapping) -> tuple[int, tuple[int, ...]]:
    """The type id and word indices of an entity record."""
    return _integer(rec["type"], "type"), _indices(rec["word_indices"], "word_indices")


def _entity_record(entity) -> dict:
    """The record of an entity (anything with ``type_id`` and ``word_indices``)."""
    return {"type": entity.type_id, "word_indices": list(entity.word_indices)}


def _links_from_record(values) -> tuple[tuple[int, int], ...]:
    """Link records as (head, tail) pairs; unpacking refuses any other length."""
    return tuple((head, tail) for head, tail in (_indices(l, "links") for l in values))


def document_to_record(doc: Document) -> dict:
    rec: dict = {
        "id": doc.id,
        "page_width": doc.page_width,
        "page_height": doc.page_height,
        "words": [{"text": w.text, "box": list(w.box.as_tuple())} for w in doc.words],
        "segments": [
            {"box": list(s.box.as_tuple()), "word_indices": list(s.word_indices)}
            for s in doc.segments
        ],
        "entity_types": list(doc.entity_types),
        "entities": [_entity_record(e) for e in doc.entities],
        "links": [list(l) for l in doc.links],
    }
    if doc.gold_order is not None:
        rec["gold_order"] = list(doc.gold_order)
    if doc.input_order is not None:
        rec["order"] = list(doc.input_order)
    return rec


def document_from_record(rec: Mapping) -> Document:
    def box(vals) -> BoundingBox:
        x0, y0, x1, y1 = (float(v) for v in vals)
        return BoundingBox(x0, y0, x1, y1)

    return Document(
        id=str(rec["id"]),
        page_width=float(rec["page_width"]),
        page_height=float(rec["page_height"]),
        words=tuple(Word(w["text"], box(w["box"])) for w in rec["words"]),
        segments=tuple(
            Segment(_indices(s["word_indices"], "word_indices"), box(s["box"]))
            for s in rec["segments"]
        ),
        entity_types=tuple(rec.get("entity_types", ())),
        entities=tuple(Entity(*_entity_from_record(e)) for e in rec.get("entities", ())),
        links=_links_from_record(rec.get("links", ())),
        gold_order=_indices(rec["gold_order"], "gold_order") if "gold_order" in rec else None,
        input_order=_indices(rec["order"], "order") if "order" in rec else None,
    )


def dumps_canonical(obj) -> str:
    """JSON with sorted keys and fixed separators, so equal objects give
    byte-identical files."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_canonical(path: str, obj) -> None:
    """Write ``obj`` to ``path`` as canonical JSON and a newline."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(obj))
        f.write("\n")


def save_document(doc: Document, path: str) -> None:
    write_canonical(path, document_to_record(doc))


def load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as f:
        return document_from_record(json.load(f))


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    splits: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def split(self, name: str) -> tuple[Document, ...]:
        ids = set(self.splits.get(name, ()))
        return tuple(d for d in self.documents if d.id in ids)

    @property
    def entity_types(self) -> tuple[str, ...]:
        return self.documents[0].entity_types if self.documents else ()


def save_corpus(corpus: Corpus, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for doc in corpus.documents:
        save_document(doc, os.path.join(directory, f"{doc.id}.json"))
    manifest = {"splits": {k: list(v) for k, v in corpus.splits.items()}}
    write_canonical(os.path.join(directory, MANIFEST_NAME), manifest)


def load_corpus(directory: str) -> Corpus:
    with open(os.path.join(directory, MANIFEST_NAME), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    splits = {k: tuple(v) for k, v in manifest.get("splits", {}).items()}
    ids: list[str] = []
    for split_ids in splits.values():
        ids.extend(split_ids)
    # A document listed twice would be trained on twice, or leak from test
    # into training when listed in two splits.
    repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
    if repeated:
        raise ValueError(f"manifest lists document ids more than once: {repeated[:5]}")
    ids.sort()
    docs = tuple(load_document(os.path.join(directory, f"{i}.json")) for i in ids)
    for i, doc in zip(ids, docs):
        if doc.id != i:
            raise ValueError(f"{i}.json holds document id {doc.id!r}, not {i!r}")
    types = {d.entity_types for d in docs}
    if len(types) > 1:
        raise ValueError(f"inconsistent entity type registries across corpus: {types}")
    return Corpus(documents=docs, splits=splits)


def replace_order(doc: Document, order: InputOrder) -> Document:
    """A copy of ``doc`` carrying ``order`` as its stored input order."""
    return replace(doc, input_order=tuple(order.perm))


def map_ordered(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(x) for x in items]``, on ``workers`` threads when above 1.

    Results keep item order, so for a pure ``fn`` the worker count never
    changes output bytes.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
