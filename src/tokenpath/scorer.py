"""Toy layout-aware encoder, bilinear pair-scoring heads, and losses.

Numerics are float64 numpy end to end. Gradients are hand-derived reverse
mode and checked against central finite differences in the test suite.

Indexing convention: hidden state row i always belongs to word i of the
document, never to input position i. For the grid tasks (ner, el, rop) the
input order enters the model only through the 1D positional features (the
rank of each word under the order), so with ``use_1d_position="none"`` the
computation literally never touches the order. Score grids inherit the
convention: ``scores[t, i, j]`` is the logit for word i linking to word j
under relation type t. A view of the grid in input-position space, when
needed, is just a row/column gather. The BIO baseline is a sequence labeler
and reads the order by construction: each word's tag logits also see its
predecessor and successor along the input order.

The encoder itself is a per-word MLP over text + layout embeddings, with
the layout projection added back to its output as a residual so the heads
see the box features linearly. All pairwise interaction happens in the
scoring heads, which is what keeps the gradient code small; the box
features include multi-frequency sinusoids of both box centres and left
and right edges, so a bilinear form can express relative-offset detectors
such as "j sits just right of i on the same row" (x0_j - x1_i small) for
words of any width.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

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

TASKS = ("ner", "el", "rop", "bio")

# Each 1D position mode's tables: (array name, rank kind of _rank_indices).
_1D_TABLES = {
    "none": (),
    "global": (("pos1d", "global"),),
    "local": (("pos1d_seg", "seg"), ("pos1d_word", "word")),
}
_1D_MODES = tuple(_1D_TABLES)
_2D_MODES = ("word", "segment")


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int = 64
    vocab_buckets: int = 4096
    use_1d_position: str = "none"
    use_2d_position: str = "word"
    mlp_layers: int = 2
    dropout_rate: float = 0.1
    multi_dropout_k: int = 4
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


def relation_count(task: str, n_types: int) -> int:
    if task == "ner":
        return n_types
    if task in ("el", "rop"):
        return 1
    if task == "bio":
        return 0
    raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")


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
        return relation_count(self.task, len(self.entity_types))


def _param_table(config: EncoderConfig, task: str, entity_types: Sequence[str]):
    """Name -> (shape, init scale) of every array of a model, in the order
    ``init_params`` draws them; scale 0.0 means zeros (no draw)."""
    d = config.hidden_dim
    w = 1.0 / np.sqrt(d)
    table = {
        "tok_emb": ((config.vocab_buckets, d), 0.5),
        "pos2d_w": ((N_BOX_FEATURES, d), 0.5 / np.sqrt(N_BOX_FEATURES)),
    }
    for name, _ in _1D_TABLES[config.use_1d_position]:
        table[name] = ((MAX_SEQUENCE, d), 0.3)
    for l in range(config.mlp_layers):
        table[f"enc_w{l}"] = ((d, d), w)
        table[f"enc_b{l}"] = ((d,), 0.0)
    for t in range(relation_count(task, len(entity_types))):
        table[f"q_w{t}"] = ((d, d), w)
        table[f"q_b{t}"] = ((d,), 0.0)
        table[f"k_w{t}"] = ((d, d), w)
        table[f"k_b{t}"] = ((d,), 0.0)
    if task == "rop":
        table["aux_emb"] = ((d,), 0.5)
    if task == "bio":
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


def _rank_indices(feats: DocFeatures, order: InputOrder) -> dict[str, np.ndarray]:
    """1D position indices per word (word-indexed, derived from the order)."""
    n = len(order.perm)
    inv = np.asarray(order.inverse())
    out = {"global": inv}
    seg_at_pos = feats.seg_of[np.asarray(order.perm)]
    block = np.zeros(n, dtype=np.int64)
    if n > 1:
        block[1:] = np.cumsum(seg_at_pos[1:] != seg_at_pos[:-1])
    within = np.arange(n) - np.concatenate(([0], np.flatnonzero(np.diff(block))+1))[block]
    seg_rank = np.zeros(n, dtype=np.int64)
    word_rank = np.zeros(n, dtype=np.int64)
    seg_rank[np.asarray(order.perm)] = block
    word_rank[np.asarray(order.perm)] = within
    out["seg"] = seg_rank
    out["word"] = word_rank
    return out


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------
# Training runs the encoder and the head projections on the rows of several
# documents at once, stacked in document order. They are row-wise products
# against untransposed weights, so each row gets the bits it would get alone
# (one exception: numpy multiplies a lone row by gemv, not gemm, so a
# one-word document may differ in the last bit). Products against transposed
# weights and every sum over rows stay per document in the backward pass.


def _pos1d_rows(params: ModelParams, feats: Sequence[DocFeatures], orders: Sequence[InputOrder]):
    """(table name, row index per stacked word) for each 1D position table
    of the config; empty for an order-free config."""
    tables = _1D_TABLES[params.config.use_1d_position]
    if not tables:
        return []
    ranks = []
    for f, order in zip(feats, orders):
        n = len(order.perm)
        if n > MAX_SEQUENCE:
            raise ValueError(f"document has {n} words, max sequence is {MAX_SEQUENCE}")
        ranks.append(_rank_indices(f, order))
    return [(name, np.concatenate([r[kind] for r in ranks])) for name, kind in tables]


def encode(doc: Document, order: InputOrder, params: ModelParams) -> np.ndarray:
    """Hidden states, shape (n, hidden_dim); row i belongs to word i.

    Deterministic: the toy encoder carries no internal noise, regularization
    noise lives in the output heads (see multi-dropout in the loss functions).
    Only the 1D position tables cap the length: with 1D positions on, a
    document of more than ``MAX_SEQUENCE`` words raises ``ValueError``.
    """
    h, _ = _encoder_forward([featurize(doc, params.config)], [order], params)
    return h


def _encoder_forward(
    feats: Sequence[DocFeatures], orders: Sequence[InputOrder], params: ModelParams
):
    """Hidden states of the documents' words stacked in document order,
    plus what the backward pass reads: (ids, phi, activations, 1D rows)."""
    cfg = params.config
    a = params.arrays
    ids = np.concatenate([f.ids for f in feats])
    phi = np.concatenate([f.phi for f in feats])
    rows = _pos1d_rows(params, feats, orders)
    layout = phi @ a["pos2d_w"]
    x = a["tok_emb"][ids]
    x += layout
    if rows:
        p1 = sum(a[name][idx] for name, idx in rows)
        x += p1
    acts = [x]
    for l in range(cfg.mlp_layers):
        z = acts[-1] @ a[f"enc_w{l}"]
        z += a[f"enc_b{l}"]
        acts.append(np.tanh(z, out=z))
    # The layout projection also skips the MLP, so the bilinear heads see
    # the box sinusoids linearly and can pair them into offset detectors.
    h = acts[-1] + layout
    if cfg.positional_residual and rows:
        h += p1
    return h, (ids, phi, acts, rows)


def _head_order(n_relations: int):
    """(q or k, relation type) of each pair head in stacking order: every
    query head, then every key head."""
    return [(p, t) for p in "qk" for t in range(n_relations)]


def _queries_keys(rows: np.ndarray, params: ModelParams) -> np.ndarray:
    """(2T, rows, d): each pair head of ``_head_order`` applied to stacked
    head rows; Q[t] = rows @ W_q^t + b_q^t."""
    a = params.arrays
    heads = _head_order(params.n_relations)
    qk = np.empty((len(heads),) + rows.shape)
    for j, (p, t) in enumerate(heads):
        np.matmul(rows, a[f"{p}_w{t}"], out=qk[j])
        qk[j] += a[f"{p}_b{t}"]
    return qk


def _pair_products(q: np.ndarray, k: np.ndarray, out=None) -> np.ndarray:
    """q[t, i] . k[t, j] for one document's rows, into ``out`` if given; a
    pair score is this product over sqrt(d)."""
    return np.matmul(q, k.transpose(0, 2, 1), out=out)


def global_pointer_scores(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Bilinear pair scores, shape (n_relations, m, m) where m = h rows."""
    if h.size == 0:
        raise ValueError("empty hidden states")
    qk = _queries_keys(h, params)
    scores = _pair_products(qk[: params.n_relations], qk[params.n_relations :])
    scores /= np.sqrt(h.shape[-1])
    return scores


def _head_input(h: np.ndarray, offsets: np.ndarray, params: ModelParams):
    """The rows the task head reads and each document's row offsets in
    them: for rop, the auxiliary start node ``aux_emb`` goes first in each
    document, so its row i+1 is word i."""
    if params.task == "rop":
        aux = params.arrays["aux_emb"][None]
        spans = zip(offsets[:-1], offsets[1:])
        rows = np.concatenate([r for lo, hi in spans for r in (aux, h[lo:hi])])
        return rows, offsets + np.arange(len(offsets))
    return h, offsets


def _bio_logits(hc: np.ndarray, perm: np.ndarray, a: Mapping[str, np.ndarray]):
    """Tag logits per word from the word and its predecessor and successor
    along the input order, plus those neighbour rows (word-indexed, zero
    where the word is first or last) for the backward pass."""
    prev = np.zeros_like(hc)
    nxt = np.zeros_like(hc)
    prev[perm[1:]] = hc[perm[:-1]]
    nxt[perm[:-1]] = hc[perm[1:]]
    logits = hc @ a["cls_w"] + prev @ a["cls_wp"] + nxt @ a["cls_wn"] + a["cls_b"]
    return logits, prev, nxt


def score_document(doc: Document, order: InputOrder, params: ModelParams) -> np.ndarray:
    """Eval-mode model output for one document.

    ner/el: (n_relations, n, n) score grids over word indices.
    rop:    (n+1, n+1) grid; node 0 is the auxiliary start, node i+1 word i.
    bio:    (n, n_tags) classification logits per word, each read from the
            word and its neighbours along ``order``.
    """
    h = encode(doc, order, params)
    if params.task == "bio":
        return _bio_logits(h, np.asarray(order.perm), params.arrays)[0]
    rows, _ = _head_input(h, np.array([0, len(h)]), params)
    scores = global_pointer_scores(rows, params)
    return scores[0] if params.task == "rop" else scores


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
    return float(_sum_runs(terms, 1)[0])


def _flat_grid_loss(s, pos, cells, want_grad=True):
    """Loss of each of several grids laid end to end, and its gradient.

    ``s`` holds consecutive grids of ``cells[g]`` raveled scores each and
    ``pos`` their targets. Returns grid g's log(1 + sum_neg e^s) +
    log(1 + sum_pos e^-s) and the gradient w.r.t. ``s`` (None unless
    ``want_grad``). The maxima, exponentials and logarithms run once over
    every grid; each sum of exponentials is one ``sum`` per grid and sign,
    as for a grid alone (``np.add.reduceat`` sums in another order), so
    every grid gets the bits it gets on its own. A sign with no cells
    contributes 0.0.
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
    full = np.flatnonzero(lengths)
    if len(full):
        top[full] = np.maximum.reduceat(v, bounds[full])
    np.maximum(top, 0.0, out=top)
    e = np.exp(v - np.repeat(top, lengths))
    b = bounds.tolist()
    sums = np.array([np.add.reduce(e[lo:hi]) for lo, hi in zip(b, b[1:])])
    lse = top + np.log(np.exp(-top) + sums)
    terms = lse[:n_grids] + lse[n_grids:]
    if not want_grad:
        return terms, None
    g = np.exp(v - np.repeat(lse, lengths))
    ds = np.empty_like(s)
    ds[neg] = g[: b[n_grids]]
    ds[pos] = -g[b[n_grids] :]
    return terms, ds


def _sum_runs(x, rows):
    """Sums of ``x`` split into ``rows`` consecutive runs of equal length,
    each added left to right from 0.0, as a Python loop would."""
    total = np.zeros(rows)
    for col in x.reshape(rows, -1).T:
        total += col
    return total


def _softmax_ce_grad(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy over rows; returns (loss, dlogits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sm = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = -float(np.mean(z[rows, targets] - np.log(ez.sum(axis=1))))
    d = sm
    d[rows, targets] -= 1.0
    return loss, d / n


# ---------------------------------------------------------------------------
# Task instances and the full forward/backward
# ---------------------------------------------------------------------------


@dataclass
class TaskInstance:
    """One document prepared for one task: features, order, and targets.

    ``target`` is (T, n, n) bool for ner/el, (n+1, n+1) bool for rop, and a
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
    if task == "ner":
        target = labels_mod.ner_grids(doc)
    elif task == "el":
        target = labels_mod.el_grid(doc)[None, :, :]
    elif task == "rop":
        if doc.gold_order is None:
            raise ValueError(f"doc {doc.id} has no gold order; cannot build rop target")
        target = labels_mod.rop_grid(doc, InputOrder(doc.gold_order))[None, :, :]
    elif task == "bio":
        target = labels_mod.bio_encode(doc, order)
    else:
        raise ValueError(f"unknown task {task!r}")
    return TaskInstance(features=feats, order=order, target=target)


def task_loss_and_grad(
    params: ModelParams,
    instances: Sequence[TaskInstance],
    *,
    train_mode: bool = False,
    rng=None,
):
    """Mean loss over instances and its gradient w.r.t. every parameter.

    With multi-dropout (train_mode, dropout_rate > 0, K heads) the loss is
    the mean over K dropout-masked copies of the head input; the head
    weights are shared across copies. Masks come from ``rng``, so a caller
    that reseeds identically gets an identical loss surface, which is what
    the finite-difference checks rely on.
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


def _run_batch(params, instances, train_mode, rng, want_grad):
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()} if want_grad else None
    use_masks = train_mode and params.config.dropout_rate > 0.0
    if use_masks and rng is None:
        raise ValueError("train_mode with dropout requires an rng")
    # Every pair-head gradient of the batch in one array, columns in
    # _head_order and the bias gradients in a last row; the backward pass
    # reads the head weights as one (2T, d, d) stack, transposed.
    d, n_rel = params.config.hidden_dim, params.n_relations
    head_grads = w_t = None
    if want_grad and n_rel:
        head_grads = np.zeros((d + 1, 2 * n_rel * d))
        w = [params.arrays[f"{p}_w{t}"] for p, t in _head_order(n_rel)]
        w_t = np.stack(w).transpose(0, 2, 1)
    total = 0.0
    # Divergence shows up as inf/nan loss and is reported via the exception;
    # the intermediate overflow warnings are just noise on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for group in _groups(instances):
            for loss in _run_group(params, group, rng if use_masks else None,
                                   grads, head_grads, w_t):
                total += loss
    scale = 1.0 / max(1, len(instances))
    if head_grads is not None:
        for j, (p, t) in enumerate(_head_order(n_rel)):
            grads[f"{p}_w{t}"][...] = head_grads[:d, j * d : (j + 1) * d]
            grads[f"{p}_b{t}"][...] = head_grads[d, j * d : (j + 1) * d]
    if want_grad:
        for g in grads.values():
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


def _run_group(params, instances, rng, grads, head_grads, w_t):
    """Loss of each instance, in order; accumulates their gradient into
    ``grads`` (pair-head weights and biases into ``head_grads``, reading
    the transposed head weights ``w_t``) unless None. With an ``rng``, the
    head reads K dropout-masked copies of its input.

    The encoder and the Q/K projections run once on the stacked rows of the
    group, with one block per document and dropout copy, and the grid loss
    once on the score grids of every block laid end to end. Pair-score
    products and the backward pass run per block, and each weight gradient
    is accumulated document by document, so every sum keeps the order of a
    per-document loop.
    """
    cfg = params.config
    a = params.arrays
    grid = params.task != "bio"
    d, n_rel = cfg.hidden_dim, params.n_relations
    n_copies = cfg.multi_dropout_k if rng is not None else 1
    starts = np.cumsum([0] + [len(inst.features.ids) for inst in instances])
    h, (ids, phi, acts, rows) = _encoder_forward(
        [inst.features for inst in instances], [inst.order for inst in instances], params)
    h_head, offsets = _head_input(h, starts, params)
    hc_all = h_head
    if rng is not None:
        # A document's copies follow it: its masks are one (copies, rows, d)
        # draw, taken from the rng in document order.
        keep = 1.0 - cfg.dropout_rate
        take = np.concatenate([np.tile(np.arange(lo, hi), n_copies)
                               for lo, hi in zip(offsets[:-1], offsets[1:])])
        masks = (rng.random((len(take), d)) < keep).astype(float)
        hc_all = h_head[take] * masks / keep
        mscale = masks / keep
    if grid:
        qk_all = _queries_keys(hc_all, params)
        # Rows of each (document, copy) block in stacking order, and where
        # each block starts in the stacked rows and in the flat score buffer.
        ms = np.repeat(np.diff(offsets), n_copies)
        row_at = np.concatenate(([0], np.cumsum(ms))).tolist()
        at = np.concatenate(([0], np.cumsum(n_rel * ms * ms))).tolist()
        s = np.empty(at[-1])
        for b, m in enumerate(ms.tolist()):
            lo = row_at[b]
            _pair_products(qk_all[:n_rel, lo : lo + m], qk_all[n_rel:, lo : lo + m],
                           out=s[at[b] : at[b + 1]].reshape(n_rel, m, m))
        s /= np.sqrt(d)
        pos = np.concatenate([inst.target.ravel() for inst in instances for _ in range(n_copies)])
        terms, ds_all = _flat_grid_loss(s, pos, np.repeat(ms * ms, n_rel), grads is not None)
        # Per block, the sum over types; per document, the mean over copies.
        grid_losses = _sum_runs(_sum_runs(terms, len(ms)) / n_copies, len(instances)).tolist()
        if grads is None:
            return grid_losses
        ds_all /= np.sqrt(d) * n_copies
    if grads is not None:
        # Gradients reaching the embedding rows, and the 1D table rows (the
        # same array unless the 1D rows also feed h as a residual).
        dx_all = np.empty_like(h)
        d1_all = np.empty_like(h) if cfg.positional_residual and rows else dx_all

    losses = []
    for i, inst in enumerate(instances):
        m = offsets[i + 1] - offsets[i]
        perm = None if grid else np.asarray(inst.order.perm)
        loss = grid_losses[i] if grid else 0.0
        dh_head = np.zeros((m, d)) if grads is not None else None
        for c in range(n_copies):
            lo = n_copies * offsets[i] + c * m
            hc = hc_all[lo : lo + m]
            if grid:
                q, k = qk_all[:n_rel, lo : lo + m], qk_all[n_rel:, lo : lo + m]
                b = i * n_copies + c
                ds = ds_all[at[b] : at[b + 1]].reshape(n_rel, m, m)
            else:
                logits, prev, nxt = _bio_logits(hc, perm, a)
                li, dlogits = _softmax_ce_grad(logits, inst.target)
                loss += li / n_copies
            if grads is None:
                continue
            if grid:
                dqk = np.concatenate([np.matmul(ds, k), np.matmul(ds.transpose(0, 2, 1), q)])
                dqk_cols = dqk.transpose(1, 0, 2).reshape(m, -1)
                head_grads[:d] += hc.T @ dqk_cols
                head_grads[d] += dqk_cols.sum(axis=0)
                # sum over t of dQ_t @ W_q^t.T + dK_t @ W_k^t.T
                back = np.matmul(dqk, w_t)
                dhc = (back[:n_rel] + back[n_rel:]).sum(axis=0)
            else:
                dlogits /= n_copies
                grads["cls_w"] += hc.T @ dlogits
                grads["cls_wp"] += prev.T @ dlogits
                grads["cls_wn"] += nxt.T @ dlogits
                grads["cls_b"] += dlogits.sum(axis=0)
                dhc = dlogits @ a["cls_w"].T
                # prev[perm[p]] = hc[perm[p-1]], nxt[perm[p]] = hc[perm[p+1]]
                dhc[perm[:-1]] += (dlogits @ a["cls_wp"].T)[perm[1:]]
                dhc[perm[1:]] += (dlogits @ a["cls_wn"].T)[perm[:-1]]
            dh_head += dhc * mscale[lo : lo + m] if rng is not None else dhc
        losses.append(loss)
        if grads is None:
            continue
        if params.task == "rop":
            grads["aux_emb"] += dh_head[0]
            dh = dh_head[1:]
        else:
            dh = dh_head
        # h = mlp_out + layout (+ the 1D rows when positional_residual); the
        # residuals feed pos2d_w and the 1D tables directly.
        w = slice(starts[i], starts[i + 1])
        da = dh
        for l in reversed(range(cfg.mlp_layers)):
            out_l = acts[l + 1][w]
            dz = da * (1.0 - out_l * out_l)
            grads[f"enc_w{l}"] += acts[l][w].T @ dz
            grads[f"enc_b{l}"] += dz.sum(axis=0)
            da = dz @ a[f"enc_w{l}"].T
        dx_all[w] = da
        dxh = da + dh
        grads["pos2d_w"] += phi[w].T @ dxh
        if d1_all is not dx_all:
            d1_all[w] = dxh

    if grads is not None:
        np.add.at(grads["tok_emb"], ids, dx_all)
        for name, idx in rows:
            np.add.at(grads[name], idx, d1_all)
    return losses


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
# magic "TPPCKPT2", then a little-endian uint64 header length, then a
# canonical JSON header (config, task, entity types, array table), then the
# raw row-major float64 array payloads in header order. Loading and saving
# again must reproduce the file byte for byte. "TPPCKPT1" files hold the
# same array names for a different model (narrower pos2d_w, no layout
# residual, a BIO head without neighbours) and are refused.


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
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
        try:
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
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: array {name!r} holds non-finite values")
            arrays[name] = data.astype(np.float64).copy()
        trailing = f.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after arrays")
    return ModelParams(config, task, types, arrays)
