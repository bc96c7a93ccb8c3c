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

from .core import Document, InputOrder
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
        if self.hidden_dim <= 0 or self.hidden_dim % 2:
            raise ValueError(f"hidden_dim must be a positive even number, got {self.hidden_dim}")
        if self.vocab_buckets < 2:
            raise ValueError("vocab_buckets must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.multi_dropout_k < 1:
            raise ValueError("multi_dropout_k must be >= 1")
        if self.mlp_layers < 1:
            raise ValueError("mlp_layers must be >= 1")
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


def init_params(config: EncoderConfig, task: str, entity_types: Sequence[str]) -> ModelParams:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(config.seed)
    d = config.hidden_dim
    a: dict[str, np.ndarray] = {}
    a["tok_emb"] = rng.normal(0.0, 0.5, (config.vocab_buckets, d))
    a["pos2d_w"] = rng.normal(0.0, 0.5 / np.sqrt(N_BOX_FEATURES), (N_BOX_FEATURES, d))
    for name, _ in _1D_TABLES[config.use_1d_position]:
        a[name] = rng.normal(0.0, 0.3, (MAX_SEQUENCE, d))
    for l in range(config.mlp_layers):
        a[f"enc_w{l}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
        a[f"enc_b{l}"] = np.zeros(d)
    for t in range(relation_count(task, len(entity_types))):
        a[f"q_w{t}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
        a[f"q_b{t}"] = np.zeros(d)
        a[f"k_w{t}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
        a[f"k_b{t}"] = np.zeros(d)
    if task == "rop":
        a["aux_emb"] = rng.normal(0.0, 0.5, d)
    if task == "bio":
        n_tags = 2 * len(entity_types) + 1
        a["cls_w"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, n_tags))
        a["cls_wp"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, n_tags))
        a["cls_wn"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, n_tags))
        a["cls_b"] = np.zeros(n_tags)
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


def _pos1d_rows(params: ModelParams, feats: DocFeatures, order: InputOrder):
    """(table name, word-indexed row indices) for each 1D position table of
    the config; empty for an order-free config."""
    tables = _1D_TABLES[params.config.use_1d_position]
    if not tables:
        return []
    n = len(order.perm)
    if n > MAX_SEQUENCE:
        raise ValueError(f"document has {n} words, max sequence is {MAX_SEQUENCE}")
    ranks = _rank_indices(feats, order)
    return [(name, ranks[kind]) for name, kind in tables]


def encode(doc: Document, order: InputOrder, params: ModelParams) -> np.ndarray:
    """Hidden states, shape (n, hidden_dim); row i belongs to word i.

    Deterministic: the toy encoder carries no internal noise, regularization
    noise lives in the output heads (see multi-dropout in the loss functions).
    Only the 1D position tables cap the length: with 1D positions on, a
    document of more than ``MAX_SEQUENCE`` words raises ``ValueError``.
    """
    h, _ = _encode_cached(featurize(doc, params.config), order, params)
    return h


def _encode_cached(feats: DocFeatures, order: InputOrder, params: ModelParams):
    cfg = params.config
    a = params.arrays
    layout = feats.phi @ a["pos2d_w"]
    x = a["tok_emb"][feats.ids] + layout
    rows = _pos1d_rows(params, feats, order)
    if rows:
        p1 = sum(a[name][idx] for name, idx in rows)
        x = x + p1
    acts = [x]
    cur = x
    for l in range(cfg.mlp_layers):
        cur = np.tanh(cur @ a[f"enc_w{l}"] + a[f"enc_b{l}"])
        acts.append(cur)
    # The layout projection also skips the MLP, so the bilinear heads see
    # the box sinusoids linearly and can pair them into offset detectors.
    h = cur + layout
    if cfg.positional_residual and rows:
        h = h + p1
    return h, (acts, rows)


def _pair_heads(h: np.ndarray, params: ModelParams):
    """Pair scores plus the per-relation queries and keys behind them.

    score[t, i, j] = (W_q^t h_i + b_q^t) . (W_k^t h_j + b_k^t) / sqrt(d)
    """
    d = params.config.hidden_dim
    a = params.arrays
    scores = np.empty((params.n_relations, h.shape[0], h.shape[0]))
    qs, ks = [], []
    for t in range(params.n_relations):
        qs.append(h @ a[f"q_w{t}"] + a[f"q_b{t}"])
        ks.append(h @ a[f"k_w{t}"] + a[f"k_b{t}"])
        scores[t] = (qs[t] @ ks[t].T) / np.sqrt(d)
    return scores, qs, ks


def global_pointer_scores(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Bilinear pair scores, shape (n_relations, m, m) where m = h rows."""
    if h.size == 0:
        raise ValueError("empty hidden states")
    return _pair_heads(h, params)[0]


def _head_input(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """The rows the task head reads: for rop, the auxiliary start node
    ``aux_emb`` goes first, so row i+1 is word i."""
    if params.task == "rop":
        return np.vstack([params.arrays["aux_emb"][None, :], h])
    return h


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
    scores = global_pointer_scores(_head_input(h, params), params)
    return scores[0] if params.task == "rop" else scores


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _log1p_sumexp(v: np.ndarray) -> float:
    """log(1 + sum(exp(v))), stable, 0.0 for an empty v."""
    if v.size == 0:
        return 0.0
    m = max(float(v.max()), 0.0)
    return m + np.log(np.exp(-m) + np.exp(v - m).sum())


def grid_loss(scores: np.ndarray, grid_labels: np.ndarray) -> float:
    """Class-imbalance multilabel loss, summed over relation types.

    Per type: log(1 + sum_neg e^s) + log(1 + sum_pos e^-s). Saturates to 0
    once positives score >> 0 and negatives << 0; robust to grids with at
    most n positive cells out of n^2.
    """
    loss, _ = _grid_loss_grad(scores, grid_labels, want_grad=False)
    return loss


def _grid_loss_grad(scores, grid_labels, want_grad=True):
    if scores.shape != grid_labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {grid_labels.shape}")
    total = 0.0
    ds = np.zeros_like(scores) if want_grad else None
    for t in range(scores.shape[0]):
        s = scores[t]
        pos = grid_labels[t].astype(bool)
        neg = ~pos
        lse_n = _log1p_sumexp(s[neg])
        lse_p = _log1p_sumexp(-s[pos])
        total += lse_n + lse_p
        if want_grad:
            dst = ds[t]
            dst[neg] = np.exp(s[neg] - lse_n)
            dst[pos] = -np.exp(-s[pos] - lse_p)
    return total, ds


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
        tag_of = {t: i for i, t in enumerate(labels_mod.bio_tag_names(doc.entity_types))}
        tags = labels_mod.bio_encode(doc, order)
        target = np.zeros(doc.n_words, dtype=np.int64)
        for pos, tag in enumerate(tags):
            target[order.perm[pos]] = tag_of[tag]
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


def _run_batch(params, instances, train_mode, rng, want_grad):
    cfg = params.config
    grads = {k: np.zeros_like(v) for k, v in params.arrays.items()} if want_grad else None
    total = 0.0
    use_masks = train_mode and cfg.dropout_rate > 0.0
    if use_masks and rng is None:
        raise ValueError("train_mode with dropout requires an rng")
    # Divergence shows up as inf/nan loss and is reported via the exception;
    # the intermediate overflow warnings are just noise on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for inst in instances:
            total += _instance_run(params, inst, rng if use_masks else None, grads)
    scale = 1.0 / max(1, len(instances))
    if want_grad:
        for g in grads.values():
            g *= scale
    loss = total * scale
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")
    return loss, grads


def _instance_run(params, inst, rng, grads):
    """Loss of one instance; accumulates its gradient into ``grads`` unless
    None. With an ``rng``, the head reads K dropout-masked copies of its
    input, with masks drawn here."""
    cfg = params.config
    a = params.arrays
    h, (acts, rows) = _encode_cached(inst.features, inst.order, params)
    task = params.task
    h_head = _head_input(h, params)
    copies = [(h_head, None)]
    if rng is not None:
        keep = 1.0 - cfg.dropout_rate
        masks = (rng.random((cfg.multi_dropout_k,) + h_head.shape) < keep).astype(float)
        copies = [(h_head * m / keep, m / keep) for m in masks]
    k_copies = len(copies)

    loss = 0.0
    dh_head = np.zeros_like(h_head) if grads is not None else None
    for hc, mscale in copies:
        if task == "bio":
            perm = np.asarray(inst.order.perm)
            logits, prev, nxt = _bio_logits(hc, perm, a)
            li, dlogits = _softmax_ce_grad(logits, inst.target)
            loss += li / k_copies
            if grads is None:
                continue
            dlogits /= k_copies
            grads["cls_w"] += hc.T @ dlogits
            grads["cls_wp"] += prev.T @ dlogits
            grads["cls_wn"] += nxt.T @ dlogits
            grads["cls_b"] += dlogits.sum(axis=0)
            dhc = dlogits @ a["cls_w"].T
            # prev[perm[p]] = hc[perm[p-1]], nxt[perm[p]] = hc[perm[p+1]]
            dhc[perm[:-1]] += (dlogits @ a["cls_wp"].T)[perm[1:]]
            dhc[perm[1:]] += (dlogits @ a["cls_wn"].T)[perm[:-1]]
        else:
            scores, qs, ks = _pair_heads(hc, params)
            li, dscores = _grid_loss_grad(scores, inst.target, want_grad=grads is not None)
            loss += li / k_copies
            if grads is None:
                continue
            dhc = np.zeros_like(hc)
            for t in range(params.n_relations):
                ds = dscores[t] / (np.sqrt(cfg.hidden_dim) * k_copies)
                dq = ds @ ks[t]
                dk = ds.T @ qs[t]
                grads[f"q_w{t}"] += hc.T @ dq
                grads[f"q_b{t}"] += dq.sum(axis=0)
                grads[f"k_w{t}"] += hc.T @ dk
                grads[f"k_b{t}"] += dk.sum(axis=0)
                dhc += dq @ a[f"q_w{t}"].T + dk @ a[f"k_w{t}"].T
        dh_head += dhc * mscale if mscale is not None else dhc

    if grads is None:
        return loss

    if task == "rop":
        grads["aux_emb"] += dh_head[0]
        dh = dh_head[1:]
    else:
        dh = dh_head

    # h = mlp_out + layout (+ the 1D rows when positional_residual); the
    # residuals feed pos2d_w and the 1D tables directly.
    da = dh
    for l in reversed(range(cfg.mlp_layers)):
        out_l = acts[l + 1]
        dz = da * (1.0 - out_l * out_l)
        grads[f"enc_w{l}"] += acts[l].T @ dz
        grads[f"enc_b{l}"] += dz.sum(axis=0)
        da = dz @ a[f"enc_w{l}"].T
    dx = da
    np.add.at(grads["tok_emb"], inst.features.ids, dx)
    dxh = dx + dh
    grads["pos2d_w"] += inst.features.phi.T @ dxh
    d1 = dxh if cfg.positional_residual else dx
    for name, idx in rows:
        np.add.at(grads[name], idx, d1)
    return loss


# ---------------------------------------------------------------------------
# Parameter vector utilities (finite-difference checks, optimizers)
# ---------------------------------------------------------------------------


def params_to_vector(params: ModelParams) -> np.ndarray:
    names = sorted(params.arrays)
    return np.concatenate([params.arrays[n].ravel() for n in names])


def vector_to_params(params: ModelParams, vec: np.ndarray) -> ModelParams:
    names = sorted(params.arrays)
    out = {}
    i = 0
    for n in names:
        shape = params.arrays[n].shape
        size = params.arrays[n].size
        out[n] = vec[i : i + size].reshape(shape).copy()
        i += size
    if i != vec.size:
        raise ValueError(f"vector has {vec.size} entries, params need {i}")
    return ModelParams(params.config, params.task, params.entity_types, out)


def grads_to_vector(params: ModelParams, grads: Mapping[str, np.ndarray]) -> np.ndarray:
    names = sorted(params.arrays)
    return np.concatenate([grads[n].ravel() for n in names])


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
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
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
            model = init_params(config, header["task"], header["entity_types"])
            table = {spec["name"]: tuple(spec["shape"]) for spec in header["arrays"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad checkpoint header: {exc}") from exc
        # The header must describe exactly the arrays of the model it names.
        want = {name: arr.shape for name, arr in model.arrays.items()}
        if table != want:
            raise ValueError(
                f"{path}: array table does not match a {model.task!r} model: "
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
    return ModelParams(config, model.task, model.entity_types, arrays)
