"""Turn score grids into entities, links, or a global reading order.

All decoders are pure functions of the grids they receive and are agnostic
to whether the grid is indexed by word id or by input position; outputs use
the same index space as the input grid. The model pipeline in this package
produces word-indexed grids, so decoded paths are word indices directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (Document, Entity, InputOrder, _entity_from_record, _entity_record,
                   _indices, _integer, _links_from_record, _number, ocr_order)
from .labels import bio_decode
from .scorer import ModelParams, score_document


@dataclass(frozen=True)
class DecodeConfig:
    threshold: float = 0.0
    max_entities: int = 100
    beam_size: int = 8

    def __post_init__(self):
        _number(self.threshold, "threshold")
        _integer(self.max_entities, "max_entities", minimum=1)
        _integer(self.beam_size, "beam_size", minimum=1)


@dataclass(frozen=True)
class DecodedEntity:
    type_id: int
    word_indices: tuple[int, ...]
    confidence: float

    def to_entity(self) -> Entity:
        return Entity(self.type_id, self.word_indices)


def _reject_nan(scores: np.ndarray, what: str) -> None:
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise ValueError(f"{what} has {n_nan} NaN cells")


def ner_decode(scores: np.ndarray, config: DecodeConfig = DecodeConfig()) -> list[DecodedEntity]:
    """Greedy token-path extraction from per-type score grids (T, n, n).

    Per type: keep pairs scoring above the threshold; deduplicate so each
    token keeps at most its best outgoing and best incoming edge (ties go
    to the lower end index, then the lower begin index); follow successor
    pointers from tokens that have an out-edge but no in-edge; leftover
    pure cycles are emitted starting from their lowest-index token.
    Above-threshold diagonal cells not absorbed into any path become
    singleton entities. Finally, entities across all types are ranked by
    mean edge score and capped at ``max_entities``. ``+inf`` cells are
    edges like any other.

    Raises ``ValueError`` if the grids hold NaN cells.
    """
    if scores.ndim != 3 or scores.shape[1] != scores.shape[2]:
        raise ValueError(f"expected (types, n, n) scores, got {scores.shape}")
    _reject_nan(scores, "ner grid")
    n_types, n = scores.shape[:2]
    off = scores.copy()
    diag = np.arange(n)
    off[:, diag, diag] = -np.inf
    off[off <= config.threshold] = -np.inf
    # Each begin keeps its best edge, then each end its best kept edge;
    # argmax takes the first on ties, so the lower end, then the lower begin.
    kept = np.full_like(off, -np.inf)
    kept[np.arange(n_types)[:, None], diag, off.argmax(axis=2)] = off.max(axis=2)
    types, ends = np.nonzero(kept.max(axis=1) > -np.inf)
    begins = kept.argmax(axis=1)[types, ends]
    succ: list[dict[int, int]] = [{} for _ in range(n_types)]
    for t, i, j in zip(types.tolist(), begins.tolist(), ends.tolist()):
        succ[t][i] = j
    singles = scores[:, diag, diag] > config.threshold

    out: list[DecodedEntity] = []
    for t, s in enumerate(scores):
        nxt = succ[t]
        has_in = set(nxt.values())
        absorbed: set[int] = set()
        # Paths start at the begins without an in-edge; whatever is left
        # sits on a pure cycle, entered at its lowest token.
        for start in sorted(nxt, key=lambda i: (i in has_in, i)):
            if start in absorbed:
                continue
            path = [start]
            while path[-1] in nxt and nxt[path[-1]] != start:
                path.append(nxt[path[-1]])
            absorbed.update(path)
            out.append(DecodedEntity(t, tuple(path), float(s[path[:-1], path[1:]].mean())))
        for i in np.flatnonzero(singles[t]).tolist():
            if i not in absorbed:
                out.append(DecodedEntity(t, (i,), float(s[i, i])))

    out.sort(key=lambda e: (-e.confidence, e.type_id, e.word_indices))
    out = out[: config.max_entities]
    out.sort(key=lambda e: (e.type_id, e.word_indices))
    return out


def el_decode(scores: np.ndarray, entities: Sequence[Entity]) -> list[tuple[int, int]]:
    """Mean-logit linking: entity A links to B iff the mean score over all
    (token of A, token of B) pairs is strictly positive. Returns index pairs
    into ``entities``.

    Raises ``ValueError`` if the grid holds NaN cells.
    """
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"expected one (n, n) grid, got {scores.shape}")
    _reject_nan(scores, "el grid")
    links: list[tuple[int, int]] = []
    for ai, a in enumerate(entities):
        rows = np.asarray(a.word_indices)
        for bi, b in enumerate(entities):
            if ai == bi:
                continue
            mean = float(scores[np.ix_(rows, np.asarray(b.word_indices))].mean())
            if mean > 0.0:
                links.append((ai, bi))
    return links


def rop_decode(scores: np.ndarray, config: DecodeConfig = DecodeConfig()) -> tuple[int, ...]:
    """Beam search for the best full path from the auxiliary start node.

    ``scores`` is (n+1, n+1) with node 0 the start and node i+1 token i.
    Partial paths are scored by the sum of log-sigmoid edge logits; only
    unvisited tokens extend a path, so the result is a permutation of all n
    tokens. ``beam_size`` 1 is plain greedy successor selection.

    Each step keeps the ``beam_size`` best finite extensions, ranked by score
    descending, then by the node extended to, then by the beam extended; the
    result is the first best-scoring full path in that rank. A step costs
    O(beam_size * n): one partition, then a stable sort of only the
    extensions scoring at least the cut. ``+inf`` cells are certain edges
    and ``-inf`` cells forbidden.

    Raises ``ValueError`` if the grid holds NaN cells, or if at some step no
    finite edge extends any kept path.
    """
    m = scores.shape[0]
    if scores.ndim != 2 or scores.shape[1] != m:
        raise ValueError(f"expected a square grid, got {scores.shape}")
    _reject_nan(scores, "rop grid")
    n = m - 1
    # Costs are negated log-sigmoids, so a path's cost is minus its score and
    # the best extensions are the cheapest. A step's candidates form an
    # (m, beams) block whose row j holds every beam's extension to node j,
    # so the flat index orders node, then beam; a visited node costs +inf.
    cost = np.ascontiguousarray(np.logaddexp(0.0, -scores).T)
    path_cost = np.zeros(1)
    last = np.zeros(1, dtype=np.intp)
    blocked = np.zeros((m, 1))
    blocked[0] = np.inf
    beams = np.arange(config.beam_size)
    parents, nodes = [], []
    for step in range(n):
        cand = cost.take(last, axis=1)
        cand += path_cost
        cand += blocked
        flat = cand.ravel()
        width = min(config.beam_size, int(np.count_nonzero(flat < np.inf)))
        if width == 0:
            raise ValueError(f"no finite edge extends any path at step {step + 1} of {n}")
        # Visited cells are never finite, so width < flat.size.
        kth = np.partition(flat, width - 1)[width - 1]
        pool = np.flatnonzero(flat <= kth)
        top = pool[np.argsort(flat[pool], kind="stable")[:width]]
        last, parent = np.divmod(top, len(path_cost))
        path_cost = flat[top]
        blocked = blocked[:, parent]
        blocked[last, beams[:width]] = np.inf
        parents.append(parent)
        nodes.append(last)

    b = int(np.argmin(path_cost))
    path = []
    for parent, node in zip(reversed(parents), reversed(nodes)):
        path.append(int(node[b]) - 1)
        b = int(parent[b])
    return tuple(reversed(path))


def reorder(
    doc: Document, rop_params: ModelParams, config: DecodeConfig = DecodeConfig()
) -> InputOrder:
    """Predicted reading order for a document, as an input order.

    Decodes under the same base order as ``decode_document`` (and training):
    the stored input order if present, else OCR order. The result feeds any
    downstream sequence-labeling pipeline (``core.replace_order`` stores it
    on the document).
    """
    if rop_params.task != "rop":
        raise ValueError(f"reorder needs rop params, got task {rop_params.task!r}")
    return InputOrder(decode_document(doc, rop_params, config).predicted_order)


# ---------------------------------------------------------------------------
# Per-document prediction records (the decoded-output file format)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    doc_id: str
    entities: tuple[DecodedEntity, ...] | None = None
    links: tuple[tuple[int, int], ...] | None = None
    predicted_order: tuple[int, ...] | None = None

    def to_record(self) -> dict:
        rec: dict = {"id": self.doc_id}
        if self.entities is not None:
            rec["entities"] = [{**_entity_record(e), "confidence": e.confidence}
                               for e in self.entities]
        if self.links is not None:
            rec["links"] = [list(l) for l in self.links]
        if self.predicted_order is not None:
            rec["predicted_order"] = list(self.predicted_order)
        return rec

    @staticmethod
    def from_record(rec: Mapping) -> "Prediction":
        """The prediction a record holds; ``ValueError`` naming the field
        if a type, word index, link end or order token is not an integer
        (a float, bool or string is refused, not truncated)."""
        entities = (tuple(DecodedEntity(*_entity_from_record(e), float(e.get("confidence", 0.0)))
                          for e in rec["entities"]) if "entities" in rec else None)
        links = _links_from_record(rec["links"]) if "links" in rec else None
        order = (_indices(rec["predicted_order"], "predicted_order")
                 if "predicted_order" in rec else None)
        return Prediction(str(rec["id"]), entities, links, order)


def decode_document(
    doc: Document,
    params: ModelParams,
    config: DecodeConfig = DecodeConfig(),
    order: InputOrder | None = None,
) -> Prediction:
    """Run the task-appropriate decoder for one document.

    ``order`` defaults to the document's stored input order if present
    (e.g. written by a reordering pre-process), else OCR order. For the el
    task the grid is aggregated over the document's gold entities, the
    standard setting for linking evaluation.

    Raises ``ValueError`` if the model output holds NaN, for every task.
    """
    if order is None:
        order = (
            InputOrder(doc.input_order) if doc.input_order is not None else ocr_order(doc)
        )
    output = score_document(doc, order, params)
    if params.task == "ner":
        return Prediction(doc.id, entities=tuple(ner_decode(output, config)))
    if params.task == "el":
        return Prediction(doc.id, links=tuple(el_decode(output[0], doc.entities)))
    if params.task == "rop":
        return Prediction(doc.id, predicted_order=rop_decode(output, config))
    _reject_nan(output, "bio logit array")
    ents = bio_decode(output.argmax(axis=1), order, params.entity_types)
    return Prediction(
        doc.id,
        entities=tuple(DecodedEntity(e.type_id, e.word_indices, 0.0) for e in ents),
    )
