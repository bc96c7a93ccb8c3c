"""Span tracing from outside the program, and the per-layer metrics it gives.

The traced run replaces public tokenpath functions *where their callers look
them up* (a module global such as ``tokenpath.decode.rop_decode``) by a
wrapper that records a span: name, start, end, parent and thread, plus a few
counts taken from the arguments. Nothing under ``src/`` changes, and
``restore()`` puts the original functions back. Spans stay in memory until
the run ends.

Probes measure what no span can: a forward-only ``task_loss`` on the batch a
training step is about to use, and ``rop_decode`` at beam 1 on the grid the
beam-8 call gets. They run outside the wrapped call's span, as ``probe.*``
spans under the same parent, so they never count toward a layer's time and
draw nothing from the training RNG.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import statistics
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced run, timed by ``clock`` (the run's CPU clock)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, span)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident())
            self.spans.append(span)
        return result, span

    def wrap(
        self,
        module_name: str,
        attr: str,
        name: str,
        describe: Callable | None = None,
        probe: tuple[str, Callable] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        ``describe(args, kwargs, result)`` returns the span's counts;
        ``probe = (name, fn)`` runs ``fn(*args, **kwargs)`` as its own span
        just before the real call and stores the dict it returns.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if probe is not None:
                probe_attrs, probe_span = tracer.run(probe[0], probe[1], *args, **kwargs)
                probe_span.attrs.update(probe_attrs)
            result, span = tracer.run(name, original, *args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def span_cost_s(clock: Callable[[], float], calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op."""
    tracer = Tracer(clock)

    def noop(*args):
        return None

    t0 = clock()
    for _ in range(calls):
        noop(1)
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        _, span = tracer.run("noop", noop, 1)
        span.attrs.update({"n": 1})
    return max(0.0, (clock() - t0 - bare) / calls)


# ---------------------------------------------------------------------------
# Where the spans go
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def pair_flops(params, instances) -> float:
    """Matrix-product flops of one forward and backward pass, from shapes.

    Counts each multiply-add as 2 and covers the box projection, the MLP and
    the per-relation query/key heads with their n x n score products;
    elementwise work and the loss itself are not counted.
    """
    scorer = importlib.import_module("tokenpath.scorer")
    cfg = params.config
    d, layers, rel = cfg.hidden_dim, cfg.mlp_layers, params.n_relations
    total = 0.0
    for inst in instances:
        n = len(inst.order.perm)
        m = n + 1 if params.task == "rop" else n
        total += 4 * n * scorer.N_BOX_FEATURES * d + 6 * layers * n * d * d
        total += rel * (12 * m * d * d + 6 * m * m * d)
    return total


def rop_candidates(n: int, beam: int) -> int:
    """Partial-path extensions a beam search over n tokens scores."""
    total, beams = 0, 1
    for k in range(n):
        total += beams * (n - k)
        beams = min(beam, beams * (n - k))
    return total


def install(tracer: Tracer) -> None:
    """Wrap every public name the workloads and the CLI reach."""
    scorer = importlib.import_module("tokenpath.scorer")
    decode = importlib.import_module("tokenpath.decode")
    original_rop = decode.rop_decode

    def train_attrs(args, kwargs, result):
        log = result[1]
        return {"task": _arg(args, kwargs, 1, "task"), "aborted": log.aborted}

    def loss_grad_attrs(args, kwargs, result):
        params, instances = args[0], args[1]
        return {"task": params.task, "loss": result[0], "flops": pair_flops(params, instances)}

    def forward_probe(params, instances, **kwargs):
        return {"task": params.task, "loss": scorer.task_loss(params, instances, train_mode=False)}

    def rop_attrs(args, kwargs, result):
        beam = _arg(args, kwargs, 1, "config", decode.DecodeConfig()).beam_size
        return {"beam": beam, "candidates": rop_candidates(len(result), beam)}

    def rop_beam1_probe(scores, *args, **kwargs):
        original_rop(scores, decode.DecodeConfig(beam_size=1))
        return {}

    def task_of_params(index):
        return lambda args, kwargs, result: {"task": _arg(args, kwargs, index, "params").task}

    def docs_of_result(args, kwargs, result):
        return {"docs": len(result.documents)}

    def docs_of_corpus_arg(args, kwargs, result):
        return {"docs": len(_arg(args, kwargs, 0, "corpus").documents)}

    for module in ("tokenpath.train", "tokenpath.cli"):
        tracer.wrap(module, "train", "train.train", train_attrs)
    tracer.wrap("tokenpath.train", "task_loss_and_grad", "scorer.task_loss_and_grad",
                loss_grad_attrs, ("probe.forward", forward_probe))
    for module in ("tokenpath.train", "tokenpath.scorer"):
        tracer.wrap(module, "featurize", "scorer.featurize")
    tracer.wrap("tokenpath.train", "make_instance", "labels.make_instance",
                lambda args, kwargs, result: {"task": _arg(args, kwargs, 2, "task")})
    for module in ("tokenpath.train", "tokenpath.decode", "tokenpath.cli"):
        tracer.wrap(module, "ocr_order", "core.ocr_order")
    for module in ("tokenpath.decode", "tokenpath.cli"):
        tracer.wrap(module, "decode_document", "decode.decode_document", task_of_params(1))
    tracer.wrap("tokenpath.decode", "score_document", "scorer.score_document", task_of_params(2))
    tracer.wrap("tokenpath.decode", "ner_decode", "decode.ner_decode")
    tracer.wrap("tokenpath.decode", "el_decode", "decode.el_decode",
                lambda args, kwargs, result: {"pairs": len(args[1]) * (len(args[1]) - 1)})
    tracer.wrap("tokenpath.decode", "rop_decode", "decode.rop_decode", rop_attrs,
                ("probe.rop_beam1", rop_beam1_probe))
    tracer.wrap("tokenpath.cli", "load_corpus", "core.load_corpus", docs_of_result)
    tracer.wrap("tokenpath.cli", "validate_document", "core.validate_document")
    tracer.wrap("tokenpath.cli", "save_corpus", "core.save_corpus", docs_of_corpus_arg)
    for fn in ("save_checkpoint", "load_checkpoint"):
        tracer.wrap("tokenpath.cli", fn, "core.checkpoint_io")
    for module in ("tokenpath.datagen", "tokenpath.cli"):
        tracer.wrap(module, "gen_corpus", "datagen.gen_corpus", docs_of_result)
    for fn in ("entity_f1", "word_f1", "link_f1", "page_bleu", "ard"):
        tracer.wrap("tokenpath.metrics", fn, "metrics.eval")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

IO_SPANS = ("core.load_corpus", "core.validate_document", "core.save_corpus", "core.checkpoint_io")


def per_layer(tracer: Tracer, meter, run_window: tuple[float, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the problems found while deriving them.

    Spans are read on ``meter``'s reference-speed clock: those of the main
    thread tick by tick, those of worker threads (whose clock is their own)
    at the mean speed of the run, the clock window of the traced run.
    """
    run_s = meter.seconds(*run_window)
    factor = run_s / (run_window[1] - run_window[0])
    cost_s = span_cost_s(meter.clock) * factor
    spans = tracer.spans
    main = threading.main_thread().ident
    for s in spans:
        if s.thread == main:
            s.start, s.end = meter.warp(s.start), meter.warp(s.end)
        else:
            s.start, s.end = s.start * factor, s.end * factor
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = {}
    problems: list[str] = []

    def select(name, **match):
        return [s for s in by_name[name] if all(s.attrs.get(k) == v for k, v in match.items())]

    def put_mean(metric, scale, name, **match):
        chosen = select(name, **match)
        if chosen:
            out[metric] = sum(s.dur for s in chosen) / len(chosen) * scale

    def put_per(metric, scale, name, attr):
        chosen = by_name[name]
        if chosen:
            out[metric] = sum(s.dur for s in chosen) / sum(s.attrs[attr] for s in chosen) * scale

    put_mean("scorer.featurize_ms_per_doc", 1e3, "scorer.featurize")
    for t in ("ner", "el", "rop", "bio"):
        steps = select("scorer.task_loss_and_grad", task=t)
        put_mean(f"scorer.loss_grad_ms_per_step.{t}", 1e3, "scorer.task_loss_and_grad", task=t)
        put_mean(f"scorer.forward_ms_per_step.{t}", 1e3, "probe.forward", task=t)
        if f"scorer.forward_ms_per_step.{t}" in out:
            out[f"scorer.backward_ms_per_step.{t}"] = (
                out[f"scorer.loss_grad_ms_per_step.{t}"] - out[f"scorer.forward_ms_per_step.{t}"]
            )
        if steps and t != "bio":
            out[f"scorer.gflops.{t}"] = (
                sum(s.attrs["flops"] for s in steps) / sum(s.dur for s in steps) / 1e9
            )
        put_mean(f"scorer.score_ms_per_doc.{t}", 1e3, "scorer.score_document", task=t)
        put_mean(f"labels.make_instance_ms_per_doc.{t}", 1e3, "labels.make_instance", task=t)

        # A step runs from one task_loss_and_grad (or its probe) to the next;
        # the first starts the loop, so featurizing and caching targets
        # before it are not step time. Probes are subtracted.
        loop_s = self_s = 0.0
        n_steps = 0
        for run in select("train.train", task=t):
            kids = children[run.id]
            looped = [k for k in kids if k.name in ("scorer.task_loss_and_grad", "probe.forward")]
            if not looped:
                continue
            loop_start = min(k.start for k in looped)
            in_loop = [k for k in kids if k.start >= loop_start]
            probes = sum(k.dur for k in in_loop if k.name.startswith("probe."))
            loop_s += run.end - loop_start - probes
            self_s += run.end - loop_start - sum(k.dur for k in in_loop)
            n_steps += sum(k.name == "scorer.task_loss_and_grad" for k in kids)
        if n_steps:
            out[f"train.step_ms.{t}"] = loop_s / n_steps * 1e3
            out[f"train.update_ms_per_step.{t}"] = self_s / n_steps * 1e3
    if by_name["train.train"]:
        out["train.aborted"] = float(sum(bool(s.attrs["aborted"]) for s in by_name["train.train"]))

    # A forward probe sees the exact batch and parameters of the step that
    # follows it; with dropout off the two losses must agree bit for bit.
    last_probe: dict[int, float] = {}
    for s in spans:
        if s.name == "probe.forward":
            last_probe[s.thread] = s.attrs["loss"]
        elif s.name == "scorer.task_loss_and_grad":
            if last_probe.pop(s.thread, None) != s.attrs["loss"]:
                problems.append(f"forward probe loss differs from step loss {s.attrs['loss']!r}")

    put_mean("decode.ner_decode_ms_per_doc", 1e3, "decode.ner_decode")
    put_mean("decode.el_decode_ms_per_doc", 1e3, "decode.el_decode")
    if by_name["decode.el_decode"]:
        out["decode.el_pairs_per_doc"] = statistics.fmean(
            s.attrs["pairs"] for s in by_name["decode.el_decode"])
    put_mean("decode.rop_decode_ms_per_doc.beam8", 1e3, "decode.rop_decode", beam=8)
    put_mean("decode.rop_decode_ms_per_doc.beam1", 1e3, "probe.rop_beam1")
    rop8 = select("decode.rop_decode", beam=8)
    if rop8:
        out["decode.rop_candidates_per_doc"] = statistics.fmean(s.attrs["candidates"] for s in rop8)
    documents = by_name["decode.decode_document"]
    if documents:
        glue = sum(s.dur - sum(c.dur for c in children[s.id]) for s in documents)
        out["decode.glue_ms_per_doc"] = glue / len(documents) * 1e3

    put_mean("core.ocr_order_us_per_doc", 1e6, "core.ocr_order")
    put_per("core.load_corpus_ms_per_doc", 1e3, "core.load_corpus", "docs")
    put_mean("core.validate_ms_per_doc", 1e3, "core.validate_document")
    put_per("core.save_corpus_ms_per_doc", 1e3, "core.save_corpus", "docs")
    put_mean("core.checkpoint_io_ms", 1e3, "core.checkpoint_io")
    put_per("datagen.gen_ms_per_doc", 1e3, "datagen.gen_corpus", "docs")

    commands = [s for s in spans if s.name.startswith("cli.")]
    for name in {s.name for s in commands}:
        # gen, decode and reorder run more than once; report their medians,
        # as the end-to-end metrics do.
        out[f"{name}_s"] = statistics.median(s.dur for s in by_name[name])
    if commands:
        io = sum(s.dur for name in IO_SPANS for s in by_name[name])
        out["cli.io_share"] = io / sum(s.dur for s in commands)
    if by_name["probe.decode_workers1"] and by_name["cli.decode"]:
        out["cli.decode_workers_speedup"] = (
            by_name["probe.decode_workers1"][0].dur
            / statistics.median(s.dur for s in by_name["cli.decode"])
        )

    if tracer.counts["doc_evaluations"]:
        out["metrics.eval_ms_per_doc"] = (
            sum(s.dur for s in by_name["metrics.eval"]) / tracer.counts["doc_evaluations"] * 1e3
        )

    # Estimated, not timed twice: every non-probe span costs one wrapper
    # call, whose price span_cost_s measures on a no-op.
    added = sum(not s.name.startswith("probe.") for s in spans) * cost_s
    probe_s = sum(s.dur for s in spans if s.name.startswith("probe."))
    out["trace.overhead_frac"] = added / (run_s - probe_s - added)
    return out, problems
