"""Toy layout-aware encoder, bilinear pair-scoring heads, and losses.

Numerics are float64 numpy end to end. Gradients are hand-derived reverse
mode and checked against central finite differences in the test suite.

Indexing convention: hidden state row i always belongs to word i of the
document, never to input position i. For the grid tasks (ner, el, rop) the
input order enters the model only through the 1D positional feature, so with
``use_1d_position="none"`` the computation literally never touches the
order. ``"global"`` reads each word's rank in the order; ``"local"`` reads
its rank inside its segment, as LayoutMask does, which no reordering of
whole segments moves. Score grids inherit the convention:
``scores[t, i, j]`` is the logit for word i linking to word j under
relation type t. A view of the grid in input-position space, when needed,
is just a row/column gather. The BIO baseline is a sequence labeler and
reads the order by construction: each word's tag logits also see its
predecessor and successor along the input order.

The encoder itself is a per-word MLP over text + layout embeddings, with
the layout projection added back to its output as a residual so the heads
see the box features linearly. All pairwise interaction happens in the
scoring heads, which is what keeps the gradient code small; the box
features include multi-frequency sinusoids of both box centres and left
and right edges, so a bilinear form can express relative-offset detectors
such as "j sits just right of i on the same row" (x0_j - x1_i small) for
words of any width.

Each of the T relation types has its own query and key head, and the types
split the hidden width d between them, as the heads of multi-head attention
do: a head is e = d // T wide, so ner's T types cost about as much as el's
and rop's single full-width head. A pair score is q_i . k_j / sqrt(e). The
2T heads are stacked as ``qk_w`` (T, 2, d, e) and ``qk_b`` (T, 2, e), where
[t, 0] is type t's query head and [t, 1] its key head.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Document, InputOrder, _integer, _number, dumps_canonical
from . import labels as labels_mod

MAX_SEQUENCE = 512
CHECKPOINT_MAGIC = b"TPPCKPT2"
# Earlier layouts whose array names mean a different model; refused by name.
_OLD_MAGICS = (b"TPPCKPT1",)

_FREQS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
# 8 plain box columns, then a sin and a cos per frequency of cx, cy, x0, x1.
N_BOX_FEATURES = 8 + 2 * 4 * len(_FREQS)

# Each 1D position mode's table, if any (see the module docstring).
_1D_TABLES = {"none": None, "global": "pos1d", "local": "pos1d_word"}
_1D_MODES = tuple(_1D_TABLES)
_2D_MODES = ("word", "segment")


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int = 64
    vocab_buckets: int = 4096
    use_1d_position: str = "none"
    use_2d_position: str = "word"
    mlp_layers: int = 2
    dropout_rate: float = 0.0
    multi_dropout_k: int = 1
    positional_residual: bool = False
    seed: int = 0

    def __post_init__(self):
        _integer(self.seed, "seed", minimum=0)
        if _integer(self.hidden_dim, "hidden_dim", minimum=1) % 2:
            raise ValueError(f"hidden_dim must be a positive even number, got {self.hidden_dim}")
        _integer(self.vocab_buckets, "vocab_buckets", minimum=2)
        _number(self.dropout_rate, "dropout_rate", 0, 1, "[)")
        _integer(self.multi_dropout_k, "multi_dropout_k", minimum=1)
        _integer(self.mlp_layers, "mlp_layers", minimum=1)
        if self.use_1d_position not in _1D_MODES:
            raise ValueError(f"use_1d_position must be one of {_1D_MODES}")
        if self.use_2d_position not in _2D_MODES:
            raise ValueError(f"use_2d_position must be one of {_2D_MODES}")


@dataclass(frozen=True)
class _Task:
    relations: Callable  # entity types -> pair-head relation types; 0: the BIO classifier
    target: Callable  # (doc, order) -> TaskInstance.target
    field: str  # the Prediction field that decoding fills and ``tokenpath eval`` scores
    reading_order: bool = False  # head reads start node aux_emb; trains and scores on gold orders


TASKS = {
    "ner": _Task(len, lambda doc, order: labels_mod.ner_grids(doc), "entities"),
    "el": _Task(lambda types: 1, lambda doc, order: labels_mod.el_grid(doc)[None], "links"),
    "rop": _Task(lambda types: 1, lambda doc, order: labels_mod.rop_grid(
        doc, InputOrder(doc.gold_order))[None], "predicted_order", reading_order=True),
    "bio": _Task(lambda types: 0, labels_mod.bio_encode, "entities"),
}


def _task(task: str) -> _Task:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {tuple(TASKS)}")
    return TASKS[task]


@dataclass
class ModelParams:
    config: EncoderConfig
    task: str
    entity_types: tuple[str, ...]
    arrays: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config, self.task, self.entity_types,
            {k: v.copy() for k, v in self.arrays.items()},
        )

    @property
    def n_relations(self) -> int:
        return _task(self.task).relations(self.entity_types)


def _param_table(config: EncoderConfig, task: str, entity_types: Sequence[str]):
    """Name -> (shape, init scale) of every array of a model, in the order
    ``init_params`` draws them; scale 0.0 means zeros (no draw)."""
    d = config.hidden_dim
    w = 1.0 / np.sqrt(d)
    table = {
        "tok_emb": ((config.vocab_buckets, d), 0.5),
        "pos2d_w": ((N_BOX_FEATURES, d), 0.5 / np.sqrt(N_BOX_FEATURES)),
    }
    pos1d = _1D_TABLES[config.use_1d_position]
    if pos1d:
        table[pos1d] = ((MAX_SEQUENCE, d), 0.3)
    for l in range(config.mlp_layers):
        table[f"enc_w{l}"] = ((d, d), w)
        table[f"enc_b{l}"] = ((d,), 0.0)
    n_rel = _task(task).relations(entity_types)
    if n_rel > d:
        raise ValueError(f"hidden_dim {d} is smaller than the {n_rel} relation types of a "
                         f"{task!r} model: each type's pair head is hidden_dim // {n_rel} wide")
    if n_rel:
        # e = d // T wide heads; their fan-in, and so their init scale, is d.
        e = d // n_rel
        table["qk_w"] = ((n_rel, 2, d, e), w)
        table["qk_b"] = ((n_rel, 2, e), 0.0)
    if TASKS[task].reading_order:
        table["aux_emb"] = ((d,), 0.5)
    if not n_rel:
        n_tags = len(labels_mod.bio_tag_names(entity_types))
        for name in ("cls_w", "cls_wp", "cls_wn"):
            table[name] = ((d, n_tags), w)
        table["cls_b"] = ((n_tags,), 0.0)
    return table


def init_params(config: EncoderConfig, task: str, entity_types: Sequence[str]) -> ModelParams:
    table = _param_table(config, task, entity_types)
    rng = np.random.default_rng(config.seed)
    a = {name: rng.normal(0.0, scale, shape) if scale else np.zeros(shape)
         for name, (shape, scale) in table.items()}
    return ModelParams(config, task, tuple(entity_types), a)


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


def hash_token(text: str, buckets: int) -> int:
    # crc32 rather than hash(): stable across processes, which the
    # determinism guarantees depend on.
    return zlib.crc32(text.encode("utf-8")) % buckets


def box_features(boxes: np.ndarray, page_w: float, page_h: float) -> np.ndarray:
    """(n, 4) raw boxes -> (n, N_BOX_FEATURES) normalized + sinusoidal."""
    x0 = boxes[:, 0] / page_w
    y0 = boxes[:, 1] / page_h
    x1 = boxes[:, 2] / page_w
    y1 = boxes[:, 3] / page_h
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    plain = np.stack([x0, y0, x1, y1, cx, cy, x1 - x0, y1 - y0], axis=1)
    # Columns run per coordinate, then per frequency: sin, cos.
    angles = 2.0 * np.pi * np.stack([cx, cy, x0, x1], axis=1)[:, :, None] * _FREQS
    waves = np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(len(boxes), -1)
    return np.concatenate([plain, waves], axis=1)


@dataclass(frozen=True)
class DocFeatures:
    ids: np.ndarray     # (n,) token bucket per word
    phi: np.ndarray     # (n, N_BOX_FEATURES) per word
    seg_of: np.ndarray  # (n,) segment ordinal per word


def featurize(doc: Document, config: EncoderConfig) -> DocFeatures:
    n = doc.n_words
    if not n:
        raise ValueError(f"doc {doc.id} has no words")
    ids = np.array([hash_token(w.text, config.vocab_buckets) for w in doc.words])
    seg_of = np.zeros(n, dtype=np.int64)
    for si, seg in enumerate(doc.segments):
        for wi in seg.word_indices:
            seg_of[wi] = si
    if config.use_2d_position == "word":
        boxes = np.array([w.box.as_tuple() for w in doc.words])
    else:
        boxes = np.array(
            [doc.segments[seg_of[i]].box.as_tuple() for i in range(n)]
        )
    return DocFeatures(ids=ids, phi=box_features(boxes, doc.page_width, doc.page_height), seg_of=seg_of)


def _rank_indices(feats: Sequence[DocFeatures], orders: Sequence[InputOrder], mode: str):
    """The 1D position index of each word of the documents stacked in order:
    its rank along its document's order for "global", else its rank inside
    its run of consecutive same-segment words along that order."""
    sizes = [len(f.ids) for f in feats]
    starts = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    # Stacked position p holds stacked word perm[p]. A run starts at each
    # document's first position and, for "local", where the segment changes.
    perm = np.concatenate([np.asarray(o.perm, dtype=np.int64) for o in orders]) + starts
    first = np.diff(starts, prepend=-1) != 0
    if mode == "local":
        first |= np.diff(np.concatenate([f.seg_of for f in feats])[perm], prepend=-1) != 0
    run_starts = np.flatnonzero(first)
    idx = np.empty_like(perm)
    idx[perm] = np.arange(len(perm)) - np.repeat(run_starts, np.diff(run_starts, append=len(perm)))
    return idx


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------
# Training stacks the rows of several documents, in document order, and runs
# the encoder, the task head (``_head_forward``) and their backward products
# once on the stack; decoding (``score_document``) runs the same functions on
# one document. Only the pair-score products and their gradients run per
# document, since each document's grid has its own size. Sums over rows then
# run in another order than for a document alone, so a batch gives the mean
# of its documents' losses and gradients up to float64 rounding, not bit for
# bit.


def _pos1d_rows(params: ModelParams, feats: Sequence[DocFeatures], orders: Sequence[InputOrder]):
    """(table name, row index per stacked word) of the config's 1D position
    table; None for an order-free config."""
    mode = params.config.use_1d_position
    if _1D_TABLES[mode] is None:
        return None
    idx = _rank_indices(feats, orders, mode)
    top = int(idx.max(initial=-1))
    if top >= MAX_SEQUENCE:
        raise ValueError(f"{mode} 1D position {top} is past the {MAX_SEQUENCE}-row "
                         f"table: max sequence is {MAX_SEQUENCE}")
    return _1D_TABLES[mode], idx


def _encoder_forward(
    feats: Sequence[DocFeatures], orders: Sequence[InputOrder], params: ModelParams
):
    """Hidden states of the documents' words stacked in document order,
    plus what the backward pass reads: (ids, phi, activations, 1D rows)."""
    cfg = params.config
    a = params.arrays
    ids = np.concatenate([f.ids for f in feats])
    phi = np.concatenate([f.phi for f in feats])
    pos1d = _pos1d_rows(params, feats, orders)
    layout = phi @ a["pos2d_w"]
    x = a["tok_emb"][ids]
    x += layout
    if pos1d:
        name, idx = pos1d
        p1 = a[name][idx]
        x += p1
    acts = [x]
    for l in range(cfg.mlp_layers):
        z = acts[-1] @ a[f"enc_w{l}"]
        z += a[f"enc_b{l}"]
        acts.append(np.tanh(z, out=z))
    # The layout projection also skips the MLP, so the bilinear heads see
    # the box sinusoids linearly and can pair them into offset detectors.
    h = acts[-1] + layout
    if cfg.positional_residual and pos1d:
        h += p1
    return h, (ids, phi, acts, pos1d)


def _head_input(h: np.ndarray, offsets: np.ndarray, params: ModelParams):
    """The rows the task head reads and each document's row offsets in
    them: for a reading-order task, the auxiliary start node ``aux_emb``
    goes first in each document, so its row i+1 is word i."""
    if TASKS[params.task].reading_order:
        aux = params.arrays["aux_emb"][None]
        spans = zip(offsets[:-1], offsets[1:])
        rows = np.concatenate([r for lo, hi in spans for r in (aux, h[lo:hi])])
        return rows, offsets + np.arange(len(offsets))
    return h, offsets


def _head_forward(params: ModelParams, rows: np.ndarray, blocks, orders: Sequence[InputOrder]):
    """The task head on head rows stacked in blocks: block b is rows
    ``lo:lo + m`` for ``(lo, m) = blocks[b]``, read along ``orders[b]``.

    Grid tasks: every block's (T, m, m) pair scores q_i . k_j / sqrt(e),
    raveled end to end, and for the backward pass ``(qk, at)``: the
    (T, 2, rows, e) queries ([t, 0]) and keys ([t, 1]), and block b's
    start ``at[b]`` in the scores.

    bio: (rows, n_tags) tag logits from each row and its predecessor and
    successor along its block's order, and ``(before, after, prev, nxt)``:
    row ``before[p]`` directly precedes row ``after[p]``, and prev/nxt hold
    each row's neighbour rows (zero where it has none).
    """
    a = params.arrays
    n_rel = params.n_relations
    if not n_rel:
        # Neighbour pairs along each block's order; none crosses a block.
        perms = [np.asarray(o.perm) for o in orders]
        before = np.concatenate([lo + p[:-1] for (lo, _), p in zip(blocks, perms)])
        after = np.concatenate([lo + p[1:] for (lo, _), p in zip(blocks, perms)])
        prev = np.zeros_like(rows)
        nxt = np.zeros_like(rows)
        prev[after] = rows[before]
        nxt[before] = rows[after]
        logits = rows @ a["cls_w"] + prev @ a["cls_wp"] + nxt @ a["cls_wn"] + a["cls_b"]
        return logits, (before, after, prev, nxt)
    qk = rows @ a["qk_w"]
    qk += a["qk_b"][:, :, None]
    at = list(itertools.accumulate((n_rel * m * m for _, m in blocks), initial=0))
    s = np.empty(at[-1])
    for b, (lo, m) in enumerate(blocks):
        np.matmul(qk[:, 0, lo : lo + m], qk[:, 1, lo : lo + m].transpose(0, 2, 1),
                  out=s[at[b] : at[b + 1]].reshape(n_rel, m, m))
    s /= np.sqrt(qk.shape[-1])
    return s, (qk, at)


def score_document(doc: Document, order: InputOrder, params: ModelParams) -> np.ndarray:
    """Eval-mode model output for one document: the training forward of
    ``_run_group`` on the document alone, without dropout.

    ner/el: (n_relations, n, n) score grids over word indices.
    rop:    (n+1, n+1) grid; node 0 is the auxiliary start, node i+1 word i.
    bio:    (n, n_tags) classification logits per word, each read from the
            word and its neighbours along ``order``.

    Only the 1D position table caps the length: a rank of ``MAX_SEQUENCE``
    or more raises ``ValueError``, so "global" takes documents of at most
    that many words and "local" segments of at most that many.
    """
    h, _ = _encoder_forward([featurize(doc, params.config)], [order], params)
    rows, _ = _head_input(h, np.array([0, len(h)]), params)
    out, _ = _head_forward(params, rows, [(0, len(rows))], [order])
    if not params.n_relations:
        return out
    m = len(rows)
    return out.reshape((m, m) if TASKS[params.task].reading_order else (-1, m, m))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def grid_loss(scores: np.ndarray, grid_labels: np.ndarray) -> float:
    """Class-imbalance multilabel loss, summed over relation types.

    Per type: log(1 + sum_neg e^s) + log(1 + sum_pos e^-s). Saturates to 0
    once positives score >> 0 and negatives << 0; robust to grids with at
    most n positive cells out of n^2.
    """
    if scores.shape != grid_labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {grid_labels.shape}")
    n_types = len(scores)
    cells = np.full(n_types, scores.size // max(1, n_types))
    terms, _ = _flat_grid_loss(scores.ravel(), grid_labels.astype(bool).ravel(), cells,
                               want_grad=False)
    return float(terms.sum())


def _flat_grid_loss(s, pos, cells, want_grad=True):
    """Loss of each of several grids laid end to end, and its gradient.

    ``s`` holds consecutive grids of ``cells[g]`` raveled scores each and
    ``pos`` their targets. Returns grid g's log(1 + sum_neg e^s) +
    log(1 + sum_pos e^-s) and the gradient w.r.t. ``s`` (None unless
    ``want_grad``). Every step runs once over all grids: each maximum and
    each sum of exponentials is one ``reduceat`` over the non-empty runs of
    one grid and sign. A sign with no cells contributes 0.0.
    """
    neg = ~pos
    # Segment g holds grid g's negative scores, segment G + g its negated
    # positive ones, each in row-major order.
    v = np.concatenate((s[neg], -s[pos]))
    n_grids = len(cells)
    n_pos = np.diff(np.searchsorted(np.flatnonzero(pos), np.concatenate(([0], np.cumsum(cells)))))
    lengths = np.concatenate((cells - n_pos, n_pos))
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    # log(1 + sum e^v) = top + log(e^-top + sum e^(v - top)), top = max(0, max v)
    top = np.zeros(2 * n_grids)
    sums = np.zeros(2 * n_grids)
    full = np.flatnonzero(lengths)
    if len(full):
        top[full] = np.maximum(np.maximum.reduceat(v, bounds[full]), 0.0)
        sums[full] = np.add.reduceat(np.exp(v - np.repeat(top, lengths)), bounds[full])
    lse = top + np.log(np.exp(-top) + sums)
    terms = lse[:n_grids] + lse[n_grids:]
    if not want_grad:
        return terms, None
    g = np.exp(v - np.repeat(lse, lengths))
    ds = np.empty_like(s)
    ds[neg] = g[: bounds[n_grids]]
    ds[pos] = -g[bounds[n_grids] :]
    return terms, ds


def _softmax_ce_grad(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray):
    """Each row's cross-entropy times its weight, and the gradient of their
    sum w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=1)
    rows = np.arange(len(logits))
    d = ez / total[:, None]
    d[rows, targets] -= 1.0
    d *= weights[:, None]
    return weights * (np.log(total) - z[rows, targets]), d


# ---------------------------------------------------------------------------
# Task instances and the full forward/backward
# ---------------------------------------------------------------------------


@dataclass
class TaskInstance:
    """One document prepared for one task: features, order, and targets.

    ``target`` is (T, n, n) bool for ner/el, (1, n+1, n+1) bool for rop, and a
    (n,) int tag-id vector for bio. Grid targets are in word-index space,
    matching the score grids.
    """

    features: DocFeatures
    order: InputOrder
    target: np.ndarray


def make_instance(
    doc: Document,
    order: InputOrder,
    task: str,
    params_config: EncoderConfig,
    features: DocFeatures | None = None,
) -> TaskInstance:
    feats = features if features is not None else featurize(doc, params_config)
    row = _task(task)
    if row.reading_order and doc.gold_order is None:
        raise ValueError(f"doc {doc.id} has no gold order; cannot build {task} target")
    return TaskInstance(features=feats, order=order, target=row.target(doc, order))


def task_loss_and_grad(
    params: ModelParams,
    instances: Sequence[TaskInstance],
    *,
    train_mode: bool = False,
    rng=None,
):
    """Mean loss over instances and its gradient w.r.t. every parameter.

    Tables read by row index (``tok_emb`` and the 1D position table) get a
    ``RowGrad`` holding only the rows the instances read; every other array
    gets a dense gradient of its own shape.

    With multi-dropout (train_mode, dropout_rate > 0, K copies) each
    instance runs K times in a row, each run with its own dropout mask on
    the head input, and the loss is the mean over all runs: a K-copy batch
    is the K = 1 batch of each instance repeated K times. Masks come from
    ``rng``, so a caller that reseeds identically gets an identical loss
    surface, which is what the finite-difference checks rely on.
    """
    return _run_batch(params, instances, train_mode, rng, want_grad=True)


def task_loss(params, instances, *, train_mode=False, rng=None) -> float:
    loss, _ = _run_batch(params, instances, train_mode, rng, want_grad=False)
    return loss


# Documents per stacked pass: groups of at most this many words (one
# document at least). Each group's stacked arrays stay a few hundred KB, so
# the allocator reuses their memory from group to group and step to step;
# stacking a whole batch of 64 forms (several MB, freed after every step)
# made each step fault its memory in again and run slower.
_GROUP_ROWS = 256


@dataclass(frozen=True, slots=True)
class RowGrad:
    """The gradient of a table read by row index, as ``nn.Embedding(sparse=True)``
    gives it: row ``rows[i]`` has gradient ``values[i]`` and every other row
    has zero. ``rows`` are sorted and unique."""

    rows: np.ndarray
    values: np.ndarray


def _row_grad(reads, scale):
    """``scale`` times the summed gradient of the (row indices, gradient
    rows) pairs in ``reads``, as one RowGrad: one stable sort of the row
    indices, then one sum per distinct row."""
    ids = np.concatenate([idx for idx, _ in reads])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    values = np.add.reduceat(np.concatenate([v for _, v in reads])[order], starts, axis=0)
    values *= scale
    return RowGrad(ids[starts], values)


def _run_batch(params, instances, train_mode, rng, want_grad):
    # Tables read by row index collect (row indices, gradient rows) pairs,
    # one per group after an empty one, and become a RowGrad at the end; the
    # rest are dense.
    row_tables = ("tok_emb", _1D_TABLES[params.config.use_1d_position])
    grads = {k: [(np.empty(0, np.int64), v[:0])] if k in row_tables else np.zeros_like(v)
             for k, v in params.arrays.items()} if want_grad else None
    use_masks = train_mode and params.config.dropout_rate > 0.0
    if use_masks and rng is None:
        raise ValueError("train_mode with dropout requires an rng")
    if use_masks:
        # K runs of each instance in a row, each with its own dropout mask.
        instances = [inst for inst in instances for _ in range(params.config.multi_dropout_k)]
    total = 0.0
    # Divergence shows up as inf/nan loss and is reported via the exception;
    # the intermediate overflow warnings are just noise on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for group in _groups(instances):
            for loss in _run_group(params, group, rng if use_masks else None, grads):
                total += loss
    scale = 1.0 / max(1, len(instances))
    if want_grad:
        for name, g in grads.items():
            if name in row_tables:
                grads[name] = _row_grad(g, scale)
            else:
                g *= scale
    loss = total * scale
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")
    return loss, grads


def _groups(instances):
    """Consecutive runs of instances of at most ``_GROUP_ROWS`` words (one
    instance at least)."""
    group, words = [], 0
    for inst in instances:
        n = len(inst.features.ids)
        if group and words + n > _GROUP_ROWS:
            yield group
            group, words = [], 0
        group.append(inst)
        words += n
    if group:
        yield group


def _run_group(params, instances, rng, grads):
    """Loss of each instance, in order; accumulates their gradient into
    ``grads`` unless None, where a table read by row index gets the group's
    (row indices, gradient rows) pair appended. With an ``rng``, the head
    reads its input under a dropout mask, drawn in document order.

    The head rows are stacked as one block per document. Every product of
    the encoder, the heads and their backward pass runs once on the stacked
    rows, and the grid loss once on the score grids of every block laid end
    to end. Only the pair-score products and their gradients run block by
    block.
    """
    cfg = params.config
    a = params.arrays
    n_rel = params.n_relations
    starts = np.cumsum([0] + [len(inst.features.ids) for inst in instances])
    h, (ids, phi, acts, pos1d) = _encoder_forward(
        [inst.features for inst in instances], [inst.order for inst in instances], params)
    rows, offsets = _head_input(h, starts, params)
    if rng is not None:
        keep = 1.0 - cfg.dropout_rate
        mscale = (rng.random(rows.shape) < keep) / keep
        rows *= mscale
    ms = np.diff(offsets)
    blocks = list(zip(offsets[:-1].tolist(), ms.tolist()))
    out, saved = _head_forward(params, rows, blocks, [inst.order for inst in instances])
    if n_rel:
        qk, at = saved
        pos = np.concatenate([inst.target.ravel() for inst in instances])
        terms, ds = _flat_grid_loss(out, pos, np.repeat(ms * ms, n_rel), grads is not None)
        losses = terms.reshape(len(instances), -1).sum(axis=1)
        if grads is None:
            return losses.tolist()
        ds /= np.sqrt(qk.shape[-1])
        dqk = np.empty_like(qk)
        for b, (lo, m) in enumerate(blocks):
            g = ds[at[b] : at[b + 1]].reshape(n_rel, m, m)
            np.matmul(g, qk[:, 1, lo : lo + m], out=dqk[:, 0, lo : lo + m])
            np.matmul(g.transpose(0, 2, 1), qk[:, 0, lo : lo + m], out=dqk[:, 1, lo : lo + m])
        grads["qk_w"] += rows.T @ dqk
        grads["qk_b"] += dqk.sum(axis=2)
        drows = (dqk @ a["qk_w"].transpose(0, 1, 3, 2)).sum(axis=(0, 1))
    else:
        before, after, prev, nxt = saved
        # A row weighs 1 / words, so a document's loss is its mean cross-entropy.
        targets = np.concatenate([inst.target for inst in instances])
        ce, dlogits = _softmax_ce_grad(out, targets, np.repeat(1.0 / ms, ms))
        losses = np.bincount(np.repeat(np.arange(len(ms)), ms), weights=ce)
        if grads is None:
            return losses.tolist()
        grads["cls_w"] += rows.T @ dlogits
        grads["cls_wp"] += prev.T @ dlogits
        grads["cls_wn"] += nxt.T @ dlogits
        grads["cls_b"] += dlogits.sum(axis=0)
        drows = dlogits @ a["cls_w"].T
        # prev[after] = rows[before] and nxt[before] = rows[after]
        drows[before] += (dlogits @ a["cls_wp"].T)[after]
        drows[after] += (dlogits @ a["cls_wn"].T)[before]

    if rng is not None:
        drows *= mscale
    if TASKS[params.task].reading_order:
        grads["aux_emb"] += drows[offsets[:-1]].sum(axis=0)
        dh = np.delete(drows, offsets[:-1], axis=0)
    else:
        dh = drows
    # h = mlp_out + layout (+ the 1D rows when positional_residual); the
    # residuals feed pos2d_w and the 1D tables directly.
    da = dh
    for l in reversed(range(cfg.mlp_layers)):
        out_l = acts[l + 1]
        dz = da * (1.0 - out_l * out_l)
        grads[f"enc_w{l}"] += acts[l].T @ dz
        grads[f"enc_b{l}"] += dz.sum(axis=0)
        da = dz @ a[f"enc_w{l}"].T
    dxh = da + dh
    grads["pos2d_w"] += phi.T @ dxh
    grads["tok_emb"].append((ids, da))
    if pos1d:
        grads[pos1d[0]].append((pos1d[1], dxh if cfg.positional_residual else da))
    return losses.tolist()


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
# magic "TPPCKPT2", then a little-endian uint64 header length, then a
# canonical JSON header (config, task, entity types, array table), then the
# raw row-major float64 array payloads in header order. Loading and saving
# again must reproduce the file byte for byte. "TPPCKPT1" files hold the
# same array names for a different model (narrower pos2d_w, no layout
# residual, a BIO head without neighbours) and are refused. Two layouts of
# the pair heads came and went under this magic: d-wide heads per ner type,
# and four arrays per type (q_w0, q_b0, k_w0, k_b0, ...). The array-table
# check refuses both, as a wrong shape or as missing qk_w and qk_b; bio
# files, which hold no pair head, load as before.


def save_checkpoint(params: ModelParams, path: str) -> None:
    names = sorted(params.arrays)
    header = {
        "config": asdict(params.config),
        "task": params.task,
        "entity_types": list(params.entity_types),
        "seed": params.config.seed,
        "arrays": [{"name": n, "shape": list(params.arrays[n].shape)} for n in names],
    }
    blob = dumps_canonical(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(params.arrays[n], dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic in _OLD_MAGICS:
            raise ValueError(
                f"{path}: checkpoint magic {magic!r} is an older model layout; "
                f"retrain to get a {CHECKPOINT_MAGIC!r} checkpoint"
            )
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        field = f.read(8)
        if len(field) < 8:
            raise ValueError(f"{path}: header length field is cut short")
        (hlen,) = struct.unpack("<Q", field)
        if hlen > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError(f"{path}: header length {hlen} is past the end of the file")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
            config = EncoderConfig(**header["config"])
            task, types = header["task"], tuple(header["entity_types"])
            want = {name: shape for name, (shape, _) in _param_table(config, task, types).items()}
            table = {spec["name"]: tuple(spec["shape"]) for spec in header["arrays"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad checkpoint header: {exc}") from exc
        # The header must describe exactly the arrays of the model it names.
        if table != want:
            raise ValueError(
                f"{path}: array table does not match a {task!r} model: "
                f"missing {sorted(want.keys() - table.keys())}, "
                f"extra {sorted(table.keys() - want.keys())}, wrong shape "
                f"{sorted(n for n in want.keys() & table.keys() if want[n] != table[n])}"
            )
        arrays = {}
        for name, shape in table.items():
            size = 8 * int(np.prod(shape))
            payload = f.read(size)
            if len(payload) < size:
                raise ValueError(f"{path}: array {name!r} of shape {list(shape)} needs "
                                 f"{size} bytes, the file holds {len(payload)}")
            data = np.frombuffer(payload, dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: array {name!r} holds non-finite values")
            arrays[name] = data.astype(np.float64).copy()
        trailing = f.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after arrays")
    return ModelParams(config, task, types, arrays)
