"""Every metric the benchmark knows, and which of them BENCHMARK.json gates.

A run prints the whole catalogue for its mode (end-to-end untraced, per-layer
traced), marking what its workload cannot measure as unavailable. The final
JSON line carries only the gated metrics, which every workload must emit with
a measured, non-zero value; a metric that one workload cannot measure (the
CLI never trains ``el`` or ``bio``, the library workloads never touch the
corpus files) is printed but not gated.
"""

from __future__ import annotations

# The workloads BENCHMARK.json lists. long-pages runs by hand only: its
# fixed work (training on 250-500-word pages, then a beam-8 extraction of 100
# of them) takes about 40 seconds a run, and at 22 runs per workload the
# three together would not fit the time a benchmark check is given.
GATED_WORKLOADS = ("short-forms", "cli-pipeline")

TASKS = ("ner", "el", "rop", "bio")
GRID_TASKS = ("ner", "el", "rop")

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    *((f"train_{t}_docs_per_s", "docs/s", "higher") for t in TASKS),
    *((f"decode_{t}_docs_per_s", "docs/s", "higher") for t in GRID_TASKS),
    ("extract_ms_p50", "ms", "lower"),
    ("extract_ms_p90", "ms", "lower"),
    ("extract_samples", "count", "higher"),
    ("ner_f1", "f1", "higher"),
    ("bio_f1", "f1", "higher"),
    ("rop_bleu", "bleu", "higher"),
    ("el_loss", "loss", "lower"),
    ("ner_loss", "loss", "lower"),
    ("rop_loss", "loss", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Gated end-to-end metrics and the share of the parent's median by which
# each may worsen. Times take the largest bound: even at the reference
# speed (see timing.py) they spread by up to 10% over seeds on a shared
# 2-core machine. Losses are deterministic per seed and memory nearly so.
GATED_END_TO_END = {
    "setup_s": 0.25,
    "pipeline_s": 0.25,
    "train_ner_docs_per_s": 0.25,
    "train_rop_docs_per_s": 0.25,
    "decode_ner_docs_per_s": 0.25,
    "decode_rop_docs_per_s": 0.25,
    "ner_loss": 0.15,
    "rop_loss": 0.15,
    "peak_rss_mb": 0.2,
}

# (name, unit, better)
PER_LAYER = [
    ("scorer.featurize_ms_per_doc", "ms", "lower"),
    *((f"scorer.loss_grad_ms_per_step.{t}", "ms", "lower") for t in TASKS),
    *((f"scorer.forward_ms_per_step.{t}", "ms", "lower") for t in TASKS),
    *((f"scorer.backward_ms_per_step.{t}", "ms", "lower") for t in TASKS),
    *((f"scorer.gflops.{t}", "GFLOP/s", "higher") for t in GRID_TASKS),
    *((f"scorer.score_ms_per_doc.{t}", "ms", "lower") for t in TASKS),
    *((f"train.step_ms.{t}", "ms", "lower") for t in TASKS),
    *((f"train.update_ms_per_step.{t}", "ms", "lower") for t in TASKS),
    ("train.aborted", "count", "lower"),
    *((f"labels.make_instance_ms_per_doc.{t}", "ms", "lower") for t in TASKS),
    ("decode.ner_decode_ms_per_doc", "ms", "lower"),
    ("decode.el_decode_ms_per_doc", "ms", "lower"),
    ("decode.el_pairs_per_doc", "count", "lower"),
    ("decode.rop_decode_ms_per_doc.beam8", "ms", "lower"),
    ("decode.rop_decode_ms_per_doc.beam1", "ms", "lower"),
    ("decode.rop_candidates_per_doc", "count", "lower"),
    ("decode.glue_ms_per_doc", "ms", "lower"),
    ("core.ocr_order_us_per_doc", "us", "lower"),
    ("core.load_corpus_ms_per_doc", "ms", "lower"),
    ("core.validate_ms_per_doc", "ms", "lower"),
    ("core.save_corpus_ms_per_doc", "ms", "lower"),
    ("core.checkpoint_io_ms", "ms", "lower"),
    *((f"cli.{c}_s", "s", "lower")
      for c in ("gen", "stats", "train_ner", "train_rop", "decode", "reorder", "eval")),
    ("cli.io_share", "fraction", "lower"),
    ("cli.decode_workers_speedup", "ratio", "higher"),
    ("datagen.gen_ms_per_doc", "ms", "lower"),
    ("metrics.eval_ms_per_doc", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Per-layer metrics every workload measures. The cli.*, corpus-IO, el and
# bio metrics come from one kind of workload only, and train.aborted is a
# failure count that is 0 on a good run.
GATED_PER_LAYER = [
    "scorer.featurize_ms_per_doc",
    *(f"scorer.{m}.{t}" for m in ("loss_grad_ms_per_step", "forward_ms_per_step",
                                  "backward_ms_per_step", "gflops", "score_ms_per_doc")
      for t in ("ner", "rop")),
    *(f"{m}.{t}" for m in ("train.step_ms", "train.update_ms_per_step",
                           "labels.make_instance_ms_per_doc")
      for t in ("ner", "rop")),
    "decode.ner_decode_ms_per_doc",
    "decode.rop_decode_ms_per_doc.beam8",
    "decode.rop_decode_ms_per_doc.beam1",
    "decode.rop_candidates_per_doc",
    "decode.glue_ms_per_doc",
    "core.ocr_order_us_per_doc",
    "datagen.gen_ms_per_doc",
    "metrics.eval_ms_per_doc",
    "trace.overhead_frac",
]
