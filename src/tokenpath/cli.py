"""Command-line surface: gen, train, decode, reorder, eval, stats.

Every command validates its inputs before touching the filesystem, writes
outputs to a temporary sibling directory, and renames it into place (a
failed run removes it, leaving nothing behind). Outputs are byte-identical
across reruns with the same seeds; the effective configuration (never any
path) is echoed into each output directory as ``_run_config.json``.

Exit codes: 0 success, 1 validation failure, 2 runtime failure. Errors are
emitted as one JSON record per line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import struct
import sys
import tempfile
from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import metrics
from .core import (
    Corpus,
    Document,
    InputOrder,
    _annotation_problems,
    _index_problem,
    load_corpus,
    map_ordered,
    ocr_order,
    replace_order,
    save_corpus,
    validate_document,
    write_canonical,
)
from .datagen import GenConfig, gen_corpus, shuffle_order
from .decode import DecodeConfig, Prediction, decode_document, reorder
from .scorer import TASKS, EncoderConfig, load_checkpoint, save_checkpoint
from .train import Hyper, train


class CliError(ValueError):
    """Validation failure: bad arguments, config, or inputs."""


# What a file from outside raises when a value in it is malformed, whether
# while it is parsed or while it is read into records.
_MALFORMED = (OSError, ValueError, KeyError, TypeError, AttributeError)


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

_SECTIONS = {
    "encoder": EncoderConfig,
    "gen": GenConfig,
    "train": Hyper,
    "decode": DecodeConfig,
}


def load_run_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise CliError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("config file must hold a JSON object")
    for section in raw:
        if section not in _SECTIONS:
            raise CliError(f"unknown config section {section!r}")
    return raw


def build_section(raw: dict, section: str, overrides: dict | None = None):
    try:
        fields = dict(raw.get(section, {}))
        fields.update(overrides or {})
        return _SECTIONS[section](**fields)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad [{section}] config: {exc}") from exc


@contextlib.contextmanager
def _staged(out: str, run_config: dict | None = None):
    """A staging directory that the block fills; on success ``run_config``
    (if given) is echoed into it as ``_run_config.json`` and it is renamed
    to ``out``. On any exception the staging directory is removed."""
    parent = os.path.dirname(os.path.abspath(out)) or "."
    os.makedirs(parent, exist_ok=True)
    if os.path.exists(out):
        raise CliError(f"output path already exists: {out}")
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.", dir=parent)
    try:
        yield tmp
        if run_config is not None:
            write_canonical(os.path.join(tmp, "_run_config.json"), run_config)
        os.replace(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _load_corpus_checked(path: str) -> Corpus:
    if not os.path.isdir(path):
        raise CliError(f"corpus directory not found: {path}")
    try:
        corpus = load_corpus(path)
        problems = [(doc.id, validate_document(doc)) for doc in corpus.documents]
    except _MALFORMED as exc:
        raise CliError(f"cannot load corpus at {path}: {exc}") from exc
    bad = [{"id": doc_id, "violations": p[:5]} for doc_id, p in problems if p]
    if bad:
        raise CliError(f"corpus contains invalid documents: {json.dumps(bad[:3])}")
    return corpus


def _split_docs(corpus: Corpus, split: str, task: str | None = None) -> tuple[Document, ...]:
    """The documents of ``split``; for ``task`` "rop", which trains on and
    is scored against gold orders, each must hold one."""
    if split not in corpus.splits:
        raise CliError(f"corpus has no split {split!r}; has {sorted(corpus.splits)}")
    docs = corpus.split(split)
    if not docs:
        raise CliError(f"split {split!r} is empty")
    lacking = [doc.id for doc in docs if task == "rop" and doc.gold_order is None]
    if lacking:
        raise CliError(f"document {lacking[0]} lacks gold_order")
    return docs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    raw = load_run_config(args.config)
    overrides = {} if args.seed is None else {"seed": args.seed}
    gcfg: GenConfig = build_section(raw, "gen", overrides)
    corpus = gen_corpus(gcfg, workers=args.workers)
    with _staged(args.out, {"gen": asdict(gcfg)}) as tmp:
        save_corpus(corpus, tmp)
    print(f"wrote {len(corpus.documents)} documents to {args.out}")
    return 0


def cmd_train(args) -> int:
    raw = load_run_config(args.config)
    overrides = {} if args.seed is None else {"seed": args.seed}
    config: EncoderConfig = build_section(raw, "encoder", overrides)
    hyper: Hyper = build_section(raw, "train")
    corpus = _load_corpus_checked(args.corpus)
    docs = _split_docs(corpus, "train", args.task)
    params, log = train(docs, args.task, config, hyper)
    run_config = {"task": args.task, "encoder": asdict(config), "train": asdict(hyper)}
    with _staged(args.out, run_config) as tmp:
        save_checkpoint(params, os.path.join(tmp, "model.ckpt"))
        write_canonical(os.path.join(tmp, "train_log.json"), asdict(log))
    last = log.losses[-1] if log.losses else float("nan")
    status = "aborted" if log.aborted else "done"
    steps = len(log.losses)
    print(f"{status}: {steps} steps, final loss {last:.6f}, "
          f"{log.clipped / max(1, steps):.1%} of steps clipped, "
          f"largest grad norm {max(log.grad_norms, default=float('nan')):.4g} -> {args.out}")
    return 0


def _eval_order(doc: Document, index: int, shuffle_seed: int | None) -> InputOrder:
    if shuffle_seed is not None:
        seed = np.random.SeedSequence([shuffle_seed, index]).generate_state(1)[0]
        return shuffle_order(doc, int(seed))
    if doc.input_order is not None:
        return InputOrder(doc.input_order)
    return ocr_order(doc)


def _load_checkpoint_checked(path: str, task: str):
    if not os.path.isfile(path):
        raise CliError(f"checkpoint not found: {path}")
    try:
        params = load_checkpoint(path)
    except (OSError, ValueError, KeyError, struct.error) as exc:
        raise CliError(f"cannot load checkpoint {path}: {exc}") from exc
    if params.task != task:
        raise CliError(f"checkpoint was trained for task {params.task!r}, not {task!r}")
    return params


def _per_document(fn, docs: Sequence[Document], workers: int) -> list:
    """``fn(index, doc)`` for each document in order, on ``workers`` threads;
    a ValueError is re-raised with the id of the document it hit."""
    def run(pair: tuple[int, Document]):
        try:
            return fn(*pair)
        except ValueError as exc:
            raise ValueError(f"document {pair[1].id}: {exc}") from exc
    return map_ordered(run, enumerate(docs), workers)


def cmd_decode(args) -> int:
    raw = load_run_config(args.config)
    dcfg: DecodeConfig = build_section(raw, "decode")
    params = _load_checkpoint_checked(args.checkpoint, args.task)
    corpus = _load_corpus_checked(args.corpus)
    docs = _split_docs(corpus, args.split)
    if params.entity_types != corpus.entity_types:
        raise CliError(
            f"checkpoint entity types {params.entity_types} do not match corpus "
            f"{corpus.entity_types}"
        )

    preds = _per_document(lambda i, doc: decode_document(
        doc, params, dcfg, order=_eval_order(doc, i, args.shuffle_seed)), docs, args.workers)
    run_config = {"task": args.task, "split": args.split, "decode": asdict(dcfg),
                  "shuffle_seed": args.shuffle_seed}
    with _staged(args.out, run_config) as tmp:
        for p in preds:
            write_canonical(os.path.join(tmp, f"{p.doc_id}.json"), p.to_record())
    print(f"decoded {len(preds)} documents -> {args.out}")
    return 0


def cmd_reorder(args) -> int:
    params = _load_checkpoint_checked(args.checkpoint, "rop")
    corpus = _load_corpus_checked(args.corpus)
    dcfg = build_section(load_run_config(args.config), "decode")

    docs = _per_document(lambda _, doc: replace_order(doc, reorder(doc, params, dcfg)),
                         corpus.documents, args.workers)
    with _staged(args.out, {"decode": asdict(dcfg), "reordered": True}) as tmp:
        save_corpus(Corpus(tuple(docs), corpus.splits), tmp)
    print(f"reordered {len(docs)} documents -> {args.out}")
    return 0


def _prediction_problem(doc: Document, field: str, got) -> str | None:
    """The first problem of a prediction's scored field against ``doc``, a
    valid document, else None. Predicted entities and links are held to the
    rule gold ones are; a predicted order may omit tokens: ARD charges them."""
    if field == "predicted_order":
        return _index_problem(got, doc.n_words, "predicted_order token", distinct=True)
    return next(iter(_annotation_problems(doc, **{field: got})), None)


def _load_predictions(directory: str, docs: Sequence[Document], field: str) -> list:
    """The ``field`` of each document's prediction file, checked against
    the document."""
    if not os.path.isdir(directory):
        raise CliError(f"predictions directory not found: {directory}")
    missing, found = [], []
    for doc in docs:
        path = os.path.join(directory, f"{doc.id}.json")
        if not os.path.isfile(path):
            missing.append(doc.id)
            continue
        try:
            with open(path, "r", encoding="utf-8") as f:
                pred = Prediction.from_record(json.load(f))
        except _MALFORMED as exc:
            raise CliError(f"cannot load prediction {path}: {exc}") from exc
        if pred.doc_id != doc.id:
            raise CliError(
                f"cannot load prediction {path}: holds prediction id {pred.doc_id!r}, "
                f"not {doc.id!r}"
            )
        got = getattr(pred, field)
        if got is None:
            raise CliError(f"prediction for {doc.id} lacks {field}")
        problem = _prediction_problem(doc, field, got)
        if problem:
            raise CliError(f"bad prediction {path} for document {doc.id}: {problem}")
        found.append(got)
    if missing:
        raise CliError(
            f"predictions missing for {len(missing)} corpus documents: {missing[:10]}"
        )
    return found


# The prediction field that ``tokenpath eval`` scores, per task.
_EVAL_FIELDS = {"ner": "entities", "bio": "entities", "el": "links", "rop": "predicted_order"}


def cmd_eval(args) -> int:
    corpus = _load_corpus_checked(args.corpus)
    docs = _split_docs(corpus, args.split, args.task)
    preds = _load_predictions(args.predictions, docs, _EVAL_FIELDS[args.task])
    pairs = list(zip(docs, preds))
    # Each document is scored on its own and the counts summed: entity and
    # word keys hold word ids, which collide across documents.
    if args.task == "el":
        rep = metrics.sum_reports(
            [metrics.link_f1(doc.entities, got, doc.entities, doc.links) for doc, got in pairs])
        report = {"precision": rep.precision, "recall": rep.recall, "f1": rep.f1, "links": rep.gold}
        print(f"link precision {rep.precision:.4f} recall {rep.recall:.4f} f1 {rep.f1:.4f} "
              f"(gold links: {rep.gold})")
    elif args.task == "rop":
        bleu = float(np.mean([metrics.page_bleu(got, doc.gold_order) for doc, got in pairs]))
        ard = float(np.mean([metrics.ard(got, doc.gold_order) for doc, got in pairs]))
        report = {"bleu": bleu, "ard": ard, "pages": len(docs)}
        print(f"page bleu {bleu:.2f}  ard {ard:.4f}  pages {len(docs)}")
    else:
        names = corpus.entity_types
        predicted = [(doc, [e.to_entity() for e in got]) for doc, got in pairs]
        ent, word = (metrics.sum_reports([f1(pred, doc.entities, names) for doc, pred in predicted])
                     for f1 in (metrics.entity_f1, metrics.word_f1))
        print(ent.format_table("entity-level"))
        print()
        print(word.format_table("word-level"))
        report = {"entity": asdict(ent), "word": asdict(word)}

    if args.out:
        with _staged(args.out, {"task": args.task, "split": args.split}) as tmp:
            write_canonical(os.path.join(tmp, "report.json"), report)
    return 0


def cmd_stats(args) -> int:
    corpus = _load_corpus_checked(args.corpus)
    stats = metrics.dataset_stats(corpus)
    print(stats.format_table())
    if args.out:
        with _staged(args.out) as tmp:
            write_canonical(os.path.join(tmp, "stats.json"), stats.to_record())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Each flag's ``add_argument`` keywords, written once for every command.
_FLAGS = {
    "--task": dict(required=True, choices=TASKS),
    "--predictions": dict(required=True),
    "--corpus": dict(required=True),
    "--checkpoint": dict(required=True),
    "--split": dict(default="test"),
    "--shuffle-seed": dict(type=int, default=None,
                           help="evaluate under segment-shuffled input orders"),
    "--config": dict(default=None, help="JSON run config file"),
    "--seed": dict(type=int, default=None, help="override config seeds"),
    "--out": dict(required=True, help="output directory (must not exist)"),
    "--workers": dict(type=int, default=1),
}

# The least value of an integer flag; a smaller one is a validation error.
_MINIMUMS = {"--shuffle-seed": 0, "--workers": 1}

# Command: its function, help, flags in help order, and the help of its
# optional ``--out`` (None where it takes the required ``--out`` of _FLAGS).
_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic corpus", "--config --seed --out --workers", None),
    "train": (cmd_train, "train a model", "--task --corpus --config --seed --out", None),
    "decode": (cmd_decode, "decode predictions with a checkpoint",
               "--task --corpus --checkpoint --split --shuffle-seed --config --out --workers",
               None),
    "reorder": (cmd_reorder, "write a corpus with predicted input orders",
                "--corpus --checkpoint --config --out --workers", None),
    "eval": (cmd_eval, "score predictions against gold", "--task --predictions --corpus --split",
             "optional report directory"),
    "stats": (cmd_stats, "print corpus statistics", "--corpus", "optional stats directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenpath",
        description="Grid-label information extraction on visually-rich documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, flags, out_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        if out_help:
            p.add_argument("--out", default=None, help=out_help)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, minimum in _MINIMUMS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < minimum:
                raise CliError(f"{flag} value {value} is below {minimum}")
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
