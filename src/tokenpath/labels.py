"""Grid labels and BIO tag sequences.

Entity recognition, entity linking, and reading-order targets are all
expressed as n x n binary grids over (from_token, to_token) pairs:

* entity grids: one grid per entity type, with a 1 at (a, b) for every
  consecutive pair a -> b of an entity's word sequence. Singleton entities
  mark the diagonal cell (i, i), which keeps one-word entities inside the
  same formalism.
* linking grid: a 1 at (a, b) for every word a of a head entity and every
  word b of the tail entity it links to (directed, head -> tail).
* reading-order grid: size (n+1) x (n+1); node 0 is an auxiliary start
  token and node i+1 is word i. The gold order forms a single open path
  from node 0 through all words.

Grids here live in word-index space and never depend on any input order.
The BIO tagger below is the sequence-labeling baseline and, unlike grids,
is tied to an input order by construction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import Document, Entity, InputOrder


class GridConstructionError(ValueError):
    """Gold annotations that a grid cannot represent unambiguously."""


def ner_grids(doc: Document) -> np.ndarray:
    """Build per-type path grids, shape (n_types, n, n), dtype bool.

    Raises GridConstructionError when two same-type entities give one token
    two different successors; a grid keeps at most one outgoing edge per
    token, so such documents are rejected rather than silently mangled.
    """
    n = doc.n_words
    n_types = len(doc.entity_types)
    grids = np.zeros((n_types, n, n), dtype=bool)
    succ: dict[tuple[int, int], int] = {}
    for ent in doc.entities:
        idx = ent.word_indices
        if len(idx) == 1:
            grids[ent.type_id, idx[0], idx[0]] = True
            continue
        for a, b in zip(idx, idx[1:]):
            prev = succ.get((ent.type_id, a))
            if prev is not None and prev != b:
                raise GridConstructionError(
                    f"doc {doc.id}: token {a} of type {ent.type_id} has two "
                    f"successors ({prev} and {b}); grid cannot represent both"
                )
            succ[(ent.type_id, a)] = b
            grids[ent.type_id, a, b] = True
    return grids


def el_grid(doc: Document) -> np.ndarray:
    """Directed linking grid, shape (n, n), dtype bool.

    Every token of the head entity points at every token of the tail
    entity, so the link signal survives any tokenization of the pair.
    """
    n = doc.n_words
    grid = np.zeros((n, n), dtype=bool)
    for head, tail in doc.links:
        if head < 0 or head >= len(doc.entities) or tail < 0 or tail >= len(doc.entities):
            raise ValueError(f"doc {doc.id}: link ({head},{tail}) references a missing entity")
        if head == tail:
            raise ValueError(f"doc {doc.id}: entity {head} linked to itself")
        for a in doc.entities[head].word_indices:
            for b in doc.entities[tail].word_indices:
                grid[a, b] = True
    return grid


def rop_grid(doc: Document, gold_order: InputOrder) -> np.ndarray:
    """Reading-order grid over (n+1) nodes; exactly n bits are set."""
    n = doc.n_words
    perm = gold_order.perm
    if len(perm) != n:
        raise ValueError(f"gold order length {len(perm)} != {n} words")
    grid = np.zeros((n + 1, n + 1), dtype=bool)
    grid[0, perm[0] + 1] = True
    for a, b in zip(perm, perm[1:]):
        grid[a + 1, b + 1] = True
    return grid


# ---------------------------------------------------------------------------
# BIO tagging baseline
# ---------------------------------------------------------------------------


def bio_tag_names(entity_types: Sequence[str]) -> list[str]:
    """Tag vocabulary: O first, then B-/I- per type in registry order."""
    tags = ["O"]
    for name in entity_types:
        tags.extend((f"B-{name}", f"I-{name}"))
    return tags


def bio_encode(doc: Document, order: InputOrder) -> list[str]:
    """Project entities onto an input order as BIO tags.

    Every maximal run of an entity's words that is consecutive in the input
    order AND in the entity's own order becomes an independent B/I span;
    a non-continuous entity therefore fragments into several spans, which
    is precisely how disordered inputs break sequence labeling. Overlaps
    (corrupt gold only) resolve in favor of the earlier entity.
    """
    n = doc.n_words
    inv = order.inverse()
    tags = ["O"] * n
    for ent in doc.entities:
        name = doc.entity_types[ent.type_id]
        idx = ent.word_indices
        run: list[int] = []
        for m, w in enumerate(idx):
            breaks_run = (
                m > 0 and inv[w] != inv[idx[m - 1]] + 1
            ) or tags[inv[w]] != "O"
            if breaks_run and run:
                _emit_bio_run(tags, run, name)
                run = []
            if tags[inv[w]] == "O":
                run.append(inv[w])
        if run:
            _emit_bio_run(tags, run, name)
    return tags


def _emit_bio_run(tags: list[str], positions: list[int], name: str) -> None:
    tags[positions[0]] = f"B-{name}"
    for p in positions[1:]:
        tags[p] = f"I-{name}"


def bio_decode(
    tags: Sequence[str], order: InputOrder, entity_types: Sequence[str]
) -> list[Entity]:
    """Extract entities from BIO tags along an input order.

    An I tag that does not continue a same-type span is repaired into a B,
    the conventional fix for ill-formed sequences.
    """
    type_id: Mapping[str, int] = {name: i for i, name in enumerate(entity_types)}
    entities: list[Entity] = []
    cur_type: int | None = None
    cur: list[int] = []

    def flush():
        nonlocal cur, cur_type
        if cur:
            entities.append(Entity(cur_type, tuple(cur)))
        cur, cur_type = [], None

    for pos, tag in enumerate(tags):
        if tag == "O":
            flush()
            continue
        mark, name = tag.split("-", 1)
        if name not in type_id:
            raise ValueError(f"tag {tag!r} names unknown entity type {name!r}")
        t = type_id[name]
        if mark == "B" or t != cur_type:
            flush()
            cur_type = t
        cur.append(order.perm[pos])
    flush()
    return entities

