"""Mini-batch gradient descent with linear warmup.

Plain first-order updates keep the trainer dependency-free and exactly
reproducible: given (seed, config, corpus, hyper) the whole trajectory is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Document, InputOrder, _integer, _number, ocr_order
from .scorer import (
    EncoderConfig,
    ModelParams,
    RowGrad,
    featurize,
    init_params,
    make_instance,
    task_loss_and_grad,
)


@dataclass(frozen=True)
class Hyper:
    lr: float = 1e-3
    steps: int = 1000
    batch_size: int = 8
    warmup_fraction: float = 0.01
    weight_decay: float = 1e-5
    # Optional global gradient-norm cap. Off by default; the pair-scoring
    # loss concentrates its gradient on a handful of cells, and with a
    # constant learning rate one hard batch late in training can otherwise
    # throw away an almost-converged fit.
    max_grad_norm: float | None = None

    def __post_init__(self):
        _number(self.lr, "lr", 0, ends="()")
        _integer(self.steps, "steps", minimum=0)
        _integer(self.batch_size, "batch_size", minimum=1)
        _number(self.warmup_fraction, "warmup_fraction", 0, 1)
        _number(self.weight_decay, "weight_decay", 0, ends="[)")
        if self.max_grad_norm is not None:
            _number(self.max_grad_norm, "max_grad_norm", 0, ends="()")


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    aborted: bool = False
    message: str = ""
    # The global gradient norm of each step before clipping, and the number
    # of steps whose gradient ``max_grad_norm`` scaled down.
    grad_norms: list[float] = field(default_factory=list)
    clipped: int = 0


def train(
    docs: Sequence[Document],
    task: str,
    config: EncoderConfig,
    hyper: Hyper,
) -> tuple[ModelParams, TrainLog]:
    """Train a model for one task on a document list.

    Each document is presented under its stored ``input_order`` if it has
    one (e.g. written by ``tokenpath reorder``), else OCR order, as at
    decoding. Divergence (non-finite loss) aborts and returns the
    parameters from before the poisoning update.
    """
    if not docs:
        raise ValueError("empty training corpus")
    types = docs[0].entity_types
    for d in docs:
        if d.entity_types != types:
            raise ValueError(f"doc {d.id} has a different entity type registry")
    params = init_params(config, task, types)
    log = TrainLog()
    if hyper.steps == 0:
        return params, log

    feats = [featurize(d, config) for d in docs]
    base_orders = [
        InputOrder(d.input_order) if d.input_order is not None else ocr_order(d) for d in docs
    ]
    base = [make_instance(d, base_orders[i], task, config, feats[i]) for i, d in enumerate(docs)]

    # Three seed streams: batch order, one unused, dropout masks.
    batch_rng, _, drop_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)
    )
    warmup_steps = max(1, int(round(hyper.steps * hyper.warmup_fraction)))
    step = 0
    # Each update is written into the spare buffer, and the two swap: the
    # spare then holds the parameters from before the update.
    spare = params.copy()
    while step < hyper.steps:
        epoch_docs = batch_rng.permutation(len(docs))
        for lo in range(0, len(epoch_docs), hyper.batch_size):
            if step >= hyper.steps:
                break
            batch = epoch_docs[lo : lo + hyper.batch_size]
            instances = [base[i] for i in batch]
            try:
                loss, grads = task_loss_and_grad(
                    params, instances, train_mode=True, rng=drop_rng
                )
            except FloatingPointError as exc:
                log.aborted = True
                log.message = f"aborted at step {step}: {exc}"
                return spare, log
            values = [g.values if isinstance(g, RowGrad) else g for g in grads.values()]
            norm = np.sqrt(sum(float((v * v).sum()) for v in values))
            if hyper.max_grad_norm is not None and norm > hyper.max_grad_norm:
                log.clipped += 1
                scale = hyper.max_grad_norm / norm
                for v in values:
                    v *= scale
            lr = hyper.lr * min(1.0, (step + 1) / warmup_steps)
            for name, arr in params.arrays.items():
                # out = arr * (1 - lr * weight_decay) - lr * grad: every row
                # decays, and only a RowGrad's rows take a gradient step.
                out = spare.arrays[name]
                np.multiply(arr, 1.0 - lr * hyper.weight_decay, out=out)
                g = grads[name]
                if isinstance(g, RowGrad):
                    out[g.rows] -= lr * g.values
                else:
                    out -= lr * g
            params, spare = spare, params
            log.losses.append(loss)
            log.lrs.append(lr)
            log.grad_norms.append(float(norm))
            step += 1
    return params, log
