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

from typing import Sequence

import numpy as np

from .core import Document, Entity, InputOrder, _annotation_problems


class GridConstructionError(ValueError):
    """Gold annotations that a grid cannot represent unambiguously."""


def _refuse_bad_annotations(doc: Document, links=()) -> None:
    """``ValueError`` with core's first problem of ``doc``'s entities and ``links``."""
    problems = _annotation_problems(doc, doc.entities, links)
    if problems:
        raise ValueError(f"doc {doc.id}: {problems[0]}")


def ner_grids(doc: Document) -> np.ndarray:
    """Build per-type path grids, shape (n_types, n, n), dtype bool.

    Raises GridConstructionError when two same-type entities give one token
    two different successors; a grid keeps at most one outgoing edge per
    token, so such documents are rejected rather than silently mangled.
    Raises ``ValueError`` on an entity that core's rule refuses.
    """
    _refuse_bad_annotations(doc)
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
    Raises ``ValueError`` on an entity or link that core's rule refuses.
    """
    _refuse_bad_annotations(doc, doc.links)
    n = doc.n_words
    grid = np.zeros((n, n), dtype=bool)
    for head, tail in doc.links:
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


def bio_encode(doc: Document, order: InputOrder) -> np.ndarray:
    """Project entities onto an input order as BIO tag ids, shape (n,),
    indexed by word: 0 is O, 2t+1 is B and 2t+2 is I of type t, named by
    ``bio_tag_names``.

    Every maximal run of an entity's words that is consecutive in the input
    order AND in the entity's own order becomes an independent B/I span;
    a non-continuous entity therefore fragments into several spans, which
    is precisely how disordered inputs break sequence labeling. Overlaps
    (corrupt gold only) resolve in favor of the earlier entity. Raises
    ``ValueError`` on an entity that core's rule refuses.
    """
    _refuse_bad_annotations(doc)
    inv = order.inverse()
    tags = [0] * doc.n_words
    for ent in doc.entities:
        prev = None  # input position of the entity's previous word, if tagged
        for w in ent.word_indices:
            if tags[w]:
                prev = None
                continue
            tags[w] = 2 * ent.type_id + (2 if prev is not None and inv[w] == prev + 1 else 1)
            prev = inv[w]
    return np.array(tags, dtype=np.int64)


def bio_decode(
    tag_ids: np.ndarray, order: InputOrder, entity_types: Sequence[str]
) -> list[Entity]:
    """Extract entities from word-indexed BIO tag ids (as ``bio_encode``
    gives) read along an input order.

    An I tag that does not continue a same-type span is repaired into a B,
    the conventional fix for ill-formed sequences. Raises ``ValueError`` on
    an id outside the tag vocabulary of ``entity_types``.
    """
    ids = np.asarray(tag_ids)
    n_tags = len(bio_tag_names(entity_types))
    if ids.shape != (len(order),):
        raise ValueError(f"expected {len(order)} tag ids, got shape {ids.shape}")
    bad = ids[(ids < 0) | (ids >= n_tags)]
    if bad.size:
        raise ValueError(f"tag id {bad[0]} is outside the {n_tags}-tag vocabulary")
    tags = ids.tolist()
    spans: list[tuple[int, list[int]]] = []
    prev = 0
    for w in order.perm:
        tag = tags[w]
        if tag:
            t, inside = divmod(tag - 1, 2)
            # (prev - 1) // 2 is the previous tag's type, and -1 for O.
            if inside and (prev - 1) // 2 == t:
                spans[-1][1].append(w)
            else:
                spans.append((t, [w]))
        prev = tag
    return [Entity(t, tuple(words)) for t, words in spans]
