"""The three workloads: short-forms, long-pages and cli-pipeline.

Each is a closed loop with one caller, in one process: every call into
tokenpath starts after the previous one returned. The library workloads call
public functions through their modules (``decode.decode_document``, not a
name imported once), so that a traced run sees every call; cli-pipeline
calls ``tokenpath.cli.main`` in-process on directories under the checkout.
README.md beside this file says why each workload exists and which layers it
loads or bypasses.

A workload returns its time figures as functions of the run's meter, which
``run.py`` calls once the run has ended and every speed tick is in (see
timing.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

from timing import Meter

core = importlib.import_module("tokenpath.core")
datagen = importlib.import_module("tokenpath.datagen")
scorer = importlib.import_module("tokenpath.scorer")
# Imported by path: the package attribute ``tokenpath.train`` is the train
# function, which shadows the module.
trainer = importlib.import_module("tokenpath.train")
decode = importlib.import_module("tokenpath.decode")
metrics = importlib.import_module("tokenpath.metrics")
cli = importlib.import_module("tokenpath.cli")

GRID_TASKS = ("ner", "el", "rop")
# Set-up, and in cli-pipeline the decode and reorder commands, run this many
# times; their figures are the median.
REPEATS = 3
# Losses are reported as the mean of the last few steps, which smooths the
# batch-to-batch noise of a single step.
LOSS_TAIL = 10

# The order-free grid config and the BIO config of acceptance criterion 6.
GRID_ENCODER = dict(hidden_dim=64, use_1d_position="none", use_2d_position="word",
                    dropout_rate=0.0, multi_dropout_k=1, seed=0)
BIO_ENCODER = dict(hidden_dim=64, use_1d_position="global", use_2d_position="word",
                   positional_residual=True, dropout_rate=0.0, multi_dropout_k=1, seed=0)
GRID_HYPER = dict(lr=0.12, warmup_fraction=0.1, weight_decay=1e-4, max_grad_norm=10.0)
BIO_HYPER = dict(lr=0.3, warmup_fraction=0.1, weight_decay=1e-4, max_grad_norm=10.0)
DISORDER = dict(entity_types=3, multi_row_prob=0.5, multi_column_prob=0.5,
                long_entity_prob=0.5, interleave_prob=0.5, val_fraction=0.0)


@dataclass(frozen=True)
class LibraryShape:
    words: tuple[int, int]
    page: tuple[float, float]
    # Lengths are drawn per stratum of equal width, so every seed gets the
    # same mix of short and long documents and work per run varies little.
    strata: int
    train_per_stratum: int
    test_per_stratum: int
    grid_steps: int
    grid_batch: int
    bio_steps: int
    bio_batch: int
    # Whole extraction passes over the test split: at least this many, then
    # more while the next one fits in the run's seconds.
    min_passes: int


SHORT_FORMS = LibraryShape(words=(10, 40), page=(612.0, 792.0), strata=5,
                           train_per_stratum=100, test_per_stratum=20,
                           grid_steps=150, grid_batch=64, bio_steps=150, bio_batch=32,
                           min_passes=5)
LONG_PAGES = LibraryShape(words=(250, 500), page=(1224.0, 3168.0), strata=10,
                          train_per_stratum=4, test_per_stratum=10,
                          grid_steps=24, grid_batch=8, bio_steps=24, bio_batch=8,
                          min_passes=1)


@dataclass(frozen=True)
class CliShape:
    docs: int
    steps: int
    batch: int


CLI_PIPELINE = CliShape(docs=2000, steps=48, batch=64)


class Checks:
    """Operations attempted and failed, keeping the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Context:
    """What one run measures with; ``tracer`` only in a traced run."""

    meter: Meter
    checks: Checks
    tracer: object | None = None


@dataclass
class Outcome:
    # name -> value, or for a time figure a function of the meter that
    # gives it once the run has ended
    metrics: dict
    losses: dict = field(default_factory=dict)

    def values(self, meter: Meter) -> dict:
        return {name: value(meter) if callable(value) else value
                for name, value in self.metrics.items()}


def timed(ctx: Context, name: str, fn, *args):
    """``fn(*args)`` and its clock window, inside a span when traced."""
    if ctx.tracer is None:
        t0 = ctx.meter.clock()
        result = fn(*args)
        return result, (t0, ctx.meter.clock())
    result, span = ctx.tracer.run(name, fn, *args)
    return result, (span.start, span.end)


def paused(ctx: Context):
    return ctx.tracer.paused() if ctx.tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def ticking(ctx: Context, module, attr: str, every: int = 1):
    """Take a speed tick before every ``every``-th call of ``module.attr``."""
    original = getattr(module, attr)
    calls = itertools.count()

    def ticked(*args, **kwargs):
        if next(calls) % every == 0:
            ctx.meter.tick()
        return original(*args, **kwargs)

    setattr(module, attr, ticked)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextlib.contextmanager
def call_windows(ctx: Context, module, attr: str):
    """Collect the clock window of every call of ``module.attr``."""
    original = getattr(module, attr)
    windows: list[tuple[float, float]] = []

    def clocked(*args, **kwargs):
        t0 = ctx.meter.clock()
        try:
            return original(*args, **kwargs)
        finally:
            windows.append((t0, ctx.meter.clock()))

    setattr(module, attr, clocked)
    try:
        yield windows
    finally:
        setattr(module, attr, original)


def seconds_of(window):
    return lambda meter: meter.seconds(*window)


def median_seconds(windows):
    return lambda meter: statistics.median(meter.seconds(*w) for w in windows)


def timed_setup(ctx: Context, make, what: str):
    """Run set-up REPEATS times: its first result and the median of its
    times. Every repeat must give an equal result."""
    first, windows = None, []
    for _ in range(REPEATS):
        ctx.meter.tick()
        t0 = ctx.meter.clock()
        with ticking(ctx, datagen, "_gen_document", 10):
            result = make()
        windows.append((t0, ctx.meter.clock()))
        with paused(ctx):
            if first is None:
                first = result
            else:
                ctx.checks.record(result == first, f"{what} differs between repeats")
    ctx.meter.tick()
    return first, median_seconds(windows)


def f1_from_counts(reports) -> float:
    """F1 of correct, predicted and gold counts summed over per-document
    reports. Pooling entity lists across documents instead would let word
    ids of one document match entities of another."""
    correct = sum(r.correct for r in reports)
    total = sum(r.predicted + r.gold for r in reports)
    return 2 * correct / total if total else 1.0


def tail_loss(losses) -> float:
    return statistics.fmean(losses[-LOSS_TAIL:])


def prediction_problem(doc, task: str, pred) -> str | None:
    """Why a decoded prediction is malformed for ``doc``, or None."""
    n = doc.n_words
    if pred.doc_id != doc.id:
        return f"prediction for {pred.doc_id} returned for {doc.id}"
    if task in ("ner", "bio"):
        if pred.entities is None:
            return f"{doc.id}: no entities"
        for e in pred.entities:
            if not e.word_indices or not all(0 <= w < n for w in e.word_indices):
                return f"{doc.id}: word indices {e.word_indices} out of range"
            if not 0 <= e.type_id < len(doc.entity_types):
                return f"{doc.id}: entity type {e.type_id} out of range"
    elif task == "el":
        k = len(doc.entities)
        if pred.links is None or not all(0 <= a < k and 0 <= b < k for a, b in pred.links):
            return f"{doc.id}: links {pred.links} out of range"
    elif pred.predicted_order is None or sorted(pred.predicted_order) != list(range(n)):
        return f"{doc.id}: rop output is not a permutation"
    return None


# ---------------------------------------------------------------------------
# short-forms and long-pages: the library, in-process
# ---------------------------------------------------------------------------


def stratified_corpus(shape: LibraryShape, seed: int, tick=lambda: None):
    lo, hi = shape.words
    edges = [lo + (hi + 1 - lo) * k // shape.strata for k in range(shape.strata + 1)]
    per = shape.train_per_stratum + shape.test_per_stratum
    docs, splits = [], {"train": [], "test": []}
    for k in range(shape.strata):
        tick()
        part = datagen.gen_corpus(datagen.GenConfig(
            doc_count=per, words_per_doc=(edges[k], edges[k + 1] - 1), **DISORDER,
            test_fraction=shape.test_per_stratum / per,
            page_width=shape.page[0], page_height=shape.page[1],
            seed=seed * shape.strata + k,
        ))
        docs.extend(replace(d, id=f"s{k}-{d.id}") for d in part.documents)
        for split in splits:
            splits[split].extend(f"s{k}-{i}" for i in part.splits[split])
    return core.Corpus(tuple(docs), {k: tuple(v) for k, v in splits.items()})


def train_task(ctx: Context, task, docs, shape: LibraryShape):
    """Train one task: params (None on failure), losses and docs/s."""
    grid = task != "bio"
    config = scorer.EncoderConfig(**(GRID_ENCODER if grid else BIO_ENCODER))
    hyper = trainer.Hyper(
        steps=shape.grid_steps if grid else shape.bio_steps,
        batch_size=shape.grid_batch if grid else shape.bio_batch,
        **(GRID_HYPER if grid else BIO_HYPER),
    )
    t0 = ctx.meter.clock()
    try:
        with ticking(ctx, trainer, "task_loss_and_grad"):
            params, log = trainer.train(docs, task, config, hyper)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        ctx.checks.record(False, f"train {task} raised {exc!r}")
        return None, [], None
    window = (t0, ctx.meter.clock())
    ctx.meter.tick()
    ok = (not log.aborted and len(log.losses) == hyper.steps
          and all(math.isfinite(x) for x in log.losses))
    ctx.checks.record(ok, f"train {task}: {log.message or 'short or non-finite loss log'}")
    docs_trained = hyper.steps * hyper.batch_size
    return (params if ok else None), log.losses, lambda meter: docs_trained / meter.seconds(*window)


def decode_checked(ctx: Context, doc, params, task, expected=None):
    """One decode_document call, its clock window, and its checks."""
    t0 = ctx.meter.clock()
    try:
        pred = decode.decode_document(doc, params)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        ctx.checks.record(False, f"decode {task} {doc.id} raised {exc!r}")
        return None, (t0, ctx.meter.clock())
    window = (t0, ctx.meter.clock())
    problem = prediction_problem(doc, task, pred)
    if problem is None and expected is not None and pred != expected:
        problem = f"decode {task} {doc.id} differs from the first pass"
    ctx.checks.record(problem is None, problem or "")
    return (pred if problem is None else None), window


def extraction_pass(ctx: Context, docs, models, windows, first=None):
    """Full extraction (ner, then el, then rop) of every document.

    Appends each decode_document call's clock window to ``windows[task]``;
    returns the predictions per task.
    """
    preds = {t: [] for t in models}
    for i, doc in enumerate(docs):
        ctx.meter.tick()
        for task, params in models.items():
            expected = first[task][i] if first is not None else None
            pred, window = decode_checked(ctx, doc, params, task, expected)
            preds[task].append(pred)
            windows[task].append(window)
    return preds


def decode_figures(windows: dict) -> dict:
    """Decode throughput and extraction latency from the clock windows of
    every decode_document call of every pass."""
    figures = {f"decode_{task}_docs_per_s":
               (lambda meter, calls=calls: len(calls) / sum(meter.seconds(*w) for w in calls))
               for task, calls in windows.items()}
    if len(windows) == len(GRID_TASKS):
        def latencies(meter):
            return [sum(meter.seconds(*w) for w in calls) for calls in zip(*windows.values())]

        figures["extract_ms_p50"] = lambda meter: statistics.median(latencies(meter)) * 1e3
        figures["extract_ms_p90"] = (
            lambda meter: statistics.quantiles(latencies(meter), n=10)[-1] * 1e3)
        figures["extract_samples"] = float(len(windows["ner"]))
    return figures


def run_library(ctx: Context, shape: LibraryShape, seed: int, seconds: float) -> Outcome:
    corpus, setup_s = timed_setup(
        ctx, lambda: stratified_corpus(shape, seed, ctx.meter.tick), "corpus")
    out = Outcome({"setup_s": setup_s})
    t_start, wall_start = ctx.meter.clock(), time.perf_counter()
    train_docs, test_docs = corpus.split("train"), corpus.split("test")
    models = {}
    for task in ("ner", "el", "rop", "bio"):
        models[task], out.losses[task], rate = train_task(ctx, task, train_docs, shape)
        if rate is not None:
            out.metrics[f"train_{task}_docs_per_s"] = rate
    grid_models = {t: models[t] for t in GRID_TASKS if models[t] is not None}
    windows = {t: [] for t in grid_models}
    wall = time.perf_counter()
    first = extraction_pass(ctx, test_docs, grid_models, windows)
    pass_wall = time.perf_counter() - wall

    bio = []
    if models["bio"] is not None:
        for doc in test_docs:
            ctx.meter.tick()
            bio.append(decode_checked(ctx, doc, models["bio"], "bio")[0])

    def entity_reports(preds):
        return [metrics.entity_f1([e.to_entity() for e in p.entities], doc.entities)
                for doc, p in zip(test_docs, preds) if p is not None]

    if "ner" in first:
        out.metrics["ner_f1"] = f1_from_counts(entity_reports(first["ner"]))
    if bio:
        out.metrics["bio_f1"] = f1_from_counts(entity_reports(bio))
    if "rop" in first:
        out.metrics["rop_bleu"] = statistics.fmean(
            metrics.page_bleu(p.predicted_order, doc.gold_order)
            for doc, p in zip(test_docs, first["rop"]) if p is not None)
    if ctx.tracer is not None:
        ctx.tracer.counts["doc_evaluations"] += 3 * len(test_docs)
    out.metrics["pipeline_s"] = seconds_of((t_start, ctx.meter.clock()))
    ctx.meter.tick()

    # The run's length is wall time, whatever the clock of its figures.
    deadline = wall_start + seconds
    passes = 1
    while passes < shape.min_passes or time.perf_counter() + pass_wall <= deadline:
        wall = time.perf_counter()
        extraction_pass(ctx, test_docs, grid_models, windows, first)
        pass_wall = time.perf_counter() - wall
        passes += 1
    ctx.meter.tick()

    out.metrics |= decode_figures(windows)
    for task in ("ner", "el", "rop"):
        if out.losses[task]:
            out.metrics[f"{task}_loss"] = tail_loss(out.losses[task])
    return out


# ---------------------------------------------------------------------------
# cli-pipeline: the command line, in-process, on files
# ---------------------------------------------------------------------------


def tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_cli(ctx: Context, shape: CliShape, seed: int, work: str) -> Outcome:
    workers = str(min(2, os.cpu_count() or 1))

    def path(name):
        return os.path.join(work, name)

    os.makedirs(work)
    with open(path("run.json"), "w", encoding="utf-8") as f:
        json.dump({
            "gen": {"doc_count": shape.docs, "words_per_doc": [10, 40], **DISORDER,
                    "test_fraction": 0.5, "seed": seed},
            "encoder": GRID_ENCODER,
            "train": {**GRID_HYPER, "steps": shape.steps, "batch_size": shape.batch},
        }, f)

    # Every command ticks while it reads, validates and writes documents.
    io_ticks = ((core, "load_document", 10), (core, "save_document", 10),
                (cli, "validate_document", 10))

    def command(name, *argv, ticks=()):
        """Run one CLI command, ticking on the (module, name, every) calls
        of ``io_ticks`` and ``ticks``; its clock window."""
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            for module, attr, every in io_ticks + ticks:
                stack.enter_context(ticking(ctx, module, attr, every))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(err))
            code, window = timed(ctx, name, cli.main, list(argv))
        ctx.meter.tick()
        ctx.checks.record(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        return window

    def gen(out):
        return command("cli.gen", "gen", "--config", path("run.json"), "--out", path(out),
                       "--workers", workers, ticks=((datagen, "_gen_document", 10),))

    corpus = path("corpus")
    gens = [gen("corpus")]

    step = ((trainer, "task_loss_and_grad", 1),)
    t_start = ctx.meter.clock()
    command("cli.stats", "stats", "--corpus", corpus)
    trains = {}
    for task in ("ner", "rop"):
        # Training is timed around the train() the command calls, as in the
        # library workloads; the command's corpus reading shows in pipeline_s.
        with call_windows(ctx, cli, "train") as trained:
            command(f"cli.train_{task}", "train", "--task", task, "--corpus", corpus,
                    "--config", path("run.json"), "--out", path(f"{task}_model"), ticks=step)
        if trained:
            trains[task] = trained[0]

    def decode_ner(out):
        return command("cli.decode", "decode", "--task", "ner", "--corpus", corpus,
                       "--checkpoint", path("ner_model/model.ckpt"), "--out", path(out),
                       "--workers", workers, ticks=((cli, "decode_document", 1),))

    def reorder(out):
        return command("cli.reorder", "reorder", "--corpus", corpus,
                       "--checkpoint", path("rop_model/model.ckpt"), "--out", path(out),
                       "--workers", workers, ticks=((cli, "reorder", 1),))

    decodes, reorders = [decode_ner("preds")], [reorder("reordered")]
    command("cli.eval", "eval", "--task", "ner", "--predictions", path("preds"),
            "--corpus", corpus, "--out", path("report"))
    pipeline_window = (t_start, ctx.meter.clock())

    # gen, decode and reorder repeat after the pipeline, in turn. The
    # machine's speed drifts in phases of several seconds, which the speed
    # ticks follow only in part where two threads trade the GIL; spread over
    # the run, the repeats sample more than one phase.
    for repeat in range(1, REPEATS):
        gens.append(gen(f"corpus{repeat}"))
        decodes.append(decode_ner(f"preds{repeat}"))
        reorders.append(reorder(f"reordered{repeat}"))
        with paused(ctx):
            for name in ("corpus", "preds", "reordered"):
                ctx.checks.record(tree_digest(path(f"{name}{repeat}")) == tree_digest(path(name)),
                                  f"repeated {name} output differs from the first")
                shutil.rmtree(path(f"{name}{repeat}"))

    if ctx.tracer is not None:
        # Probe: the same decode on one worker, outside the pipeline.
        argv = ["decode", "--task", "ner", "--corpus", corpus, "--checkpoint",
                path("ner_model/model.ckpt"), "--out", path("preds1"), "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = ctx.tracer.run("probe.decode_workers1", cli.main, argv)
        ctx.checks.record(code == 0 and tree_digest(path("preds1")) == tree_digest(path("preds")),
                          "decode output differs between --workers 1 and --workers " + workers)

    with paused(ctx):
        loaded = core.load_corpus(corpus)
        test_docs = loaded.split("test")
        if ctx.tracer is not None:
            ctx.tracer.counts["doc_evaluations"] += len(test_docs)
        docs_trained = shape.steps * shape.batch

        out = Outcome({
            "setup_s": median_seconds(gens),
            "pipeline_s": seconds_of(pipeline_window),
            "decode_ner_docs_per_s": lambda meter: len(test_docs) / median_seconds(decodes)(meter),
            "decode_rop_docs_per_s":
                lambda meter: len(loaded.documents) / median_seconds(reorders)(meter),
        })
        for task, window in trains.items():
            out.metrics[f"train_{task}_docs_per_s"] = (
                lambda meter, window=window: docs_trained / meter.seconds(*window))
        for task in ("ner", "rop"):
            try:
                with open(path(f"{task}_model/train_log.json"), encoding="utf-8") as f:
                    log = json.load(f)
            except (OSError, ValueError) as exc:
                ctx.checks.record(False, f"train {task} log unreadable: {exc!r}")
                continue
            ok = (not log["aborted"] and len(log["losses"]) == shape.steps
                  and all(math.isfinite(x) for x in log["losses"]))
            why = log["message"] or "short or non-finite loss log"
            if ctx.checks.record(ok, f"train {task}: {why}"):
                out.losses[task] = log["losses"]
                out.metrics[f"{task}_loss"] = tail_loss(log["losses"])

        reports = []
        for doc in test_docs:
            try:
                with open(path(f"preds/{doc.id}.json"), encoding="utf-8") as f:
                    pred = decode.Prediction.from_record(json.load(f))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ctx.checks.record(False, f"prediction for {doc.id} does not parse: {exc!r}")
                continue
            problem = prediction_problem(doc, "ner", pred)
            if ctx.checks.record(problem is None, problem or ""):
                predicted = [e.to_entity() for e in pred.entities]
                reports.append(metrics.entity_f1(predicted, doc.entities))
        out.metrics["ner_f1"] = f1_from_counts(reports)

        try:
            reordered = {d.id: d for d in core.load_corpus(path("reordered")).documents}
        except (OSError, ValueError, KeyError) as exc:
            ctx.checks.record(False, f"reordered corpus does not load: {exc!r}")
            reordered = {}
        bleus = []
        for doc in test_docs:
            order = reordered[doc.id].input_order if doc.id in reordered else None
            if ctx.checks.record(order is not None and sorted(order) == list(range(doc.n_words)),
                                 f"reordered {doc.id}: input order is not a permutation"):
                bleus.append(metrics.page_bleu(order, doc.gold_order))
        if bleus:
            out.metrics["rop_bleu"] = statistics.fmean(bleus)
        try:
            with open(path("report/report.json"), encoding="utf-8") as f:
                ctx.checks.record("f1" in json.load(f)["entity"], "eval report lacks entity f1")
        except (OSError, ValueError, KeyError) as exc:
            ctx.checks.record(False, f"eval report does not parse: {exc!r}")
    return out


def run(ctx: Context, workload: str, seed: int, seconds: float, work: str) -> Outcome:
    if workload == "short-forms":
        return run_library(ctx, SHORT_FORMS, seed, seconds)
    if workload == "long-pages":
        return run_library(ctx, LONG_PAGES, seed, seconds)
    if workload == "cli-pipeline":
        return run_cli(ctx, CLI_PIPELINE, seed, work)
    raise ValueError(f"unknown workload {workload!r}")
