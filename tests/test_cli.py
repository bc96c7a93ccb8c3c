import json
import math
import os
import struct

import numpy as np
import pytest

from tokenpath import cli as cli_module
from tokenpath import decode as decode_module
from tokenpath.cli import main
from tokenpath.core import (
    Corpus, dumps_canonical, load_corpus, ocr_order, replace_order, save_corpus,
)
from tokenpath.datagen import shuffle_order
from tokenpath.decode import Prediction, decode_document
from tokenpath.metrics import dataset_stats
from tokenpath.scorer import EncoderConfig, init_params, save_checkpoint


def run(args):
    return main([str(a) for a in args])


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def write_config(path, record):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_canonical(record))
    return str(path)


TINY_GEN = {
    "gen": {
        "doc_count": 12,
        "words_per_doc": [8, 14],
        "entity_types": 2,
        "val_fraction": 0.0,
        "test_fraction": 0.25,
        "seed": 5,
    }
}

FAST_MODEL = {
    "encoder": {
        "hidden_dim": 16,
        "vocab_buckets": 128,
        "dropout_rate": 0.0,
        "multi_dropout_k": 1,
        "seed": 2,
    },
    "train": {"lr": 0.1, "steps": 12, "batch_size": 4, "warmup_fraction": 0.1},
}


@pytest.fixture()
def corpus_dir(tmp_path):
    cfg = write_config(tmp_path / "gen.json", TINY_GEN)
    out = tmp_path / "corpus"
    assert run(["gen", "--config", cfg, "--out", out]) == 0
    return out


class TestGen:
    def test_writes_corpus_and_echo(self, corpus_dir):
        corpus = load_corpus(str(corpus_dir))
        assert len(corpus.documents) == 12
        assert (corpus_dir / "_run_config.json").exists()

    def test_refuses_existing_out(self, tmp_path, corpus_dir):
        cfg = write_config(tmp_path / "g2.json", TINY_GEN)
        assert run(["gen", "--config", cfg, "--out", corpus_dir]) == 1

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "g.json", TINY_GEN)
        assert run(["gen", "--config", cfg, "--seed", 9, "--out", tmp_path / "c9"]) == 0
        assert run(["gen", "--config", cfg, "--seed", 9, "--out", tmp_path / "c9b"]) == 0
        assert run(["gen", "--config", cfg, "--out", tmp_path / "c5"]) == 0
        a = (tmp_path / "c9" / "doc-0000.json").read_bytes()
        b = (tmp_path / "c9b" / "doc-0000.json").read_bytes()
        c = (tmp_path / "c5" / "doc-0000.json").read_bytes()
        assert a == b and a != c

    def test_unknown_config_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {"generator": {}})
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1

    @pytest.mark.parametrize("bad", [{"doc_count": 0}, {"words_per_doc": [5]},
                                     {"doc_count": 10, "val_fraction": 0.6, "test_fraction": 0.6}])
    def test_bad_gen_config_is_a_validation_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "bad.json", {"gen": {**TINY_GEN["gen"], **bad}})
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert last_error(capsys)["kind"] == "validation"
        assert os.listdir(tmp_path) == ["bad.json"]


class TestBadNumbers:
    # The command line after ``main``, with CORPUS, CKPT and OUT filled in,
    # or a config's section and fields over TINY_GEN and FAST_MODEL; then
    # how the error ends.
    CASES = {
        "gen_negative_seed": (["gen", "--seed", -1, "--out", "OUT"], "seed value -1 is below 0"),
        "gen_config_float_seed": (("gen", {"seed": 1.5}), "seed value 1.5 is not an integer"),
        "gen_config_string_seed": (("gen", {"seed": "x"}), "seed value 'x' is not an integer"),
        "gen_config_bool_seed": (("gen", {"seed": True}), "seed value True is not an integer"),
        "train_negative_seed": (["train", "--task", "ner", "--corpus", "CORPUS", "--seed", -1,
                                 "--out", "OUT"], "seed value -1 is below 0"),
        "decode_negative_shuffle_seed": (
            ["decode", "--task", "ner", "--corpus", "CORPUS", "--checkpoint", "CKPT",
             "--shuffle-seed", -3, "--out", "OUT"], "--shuffle-seed value -3 is below 0"),
        "gen_zero_workers": (["gen", "--workers", 0, "--out", "OUT"],
                             "--workers value 0 is below 1"),
        "decode_negative_workers": (
            ["decode", "--task", "ner", "--corpus", "CORPUS", "--checkpoint", "CKPT",
             "--workers", -4, "--out", "OUT"], "--workers value -4 is below 1"),
        "reorder_zero_workers": (
            ["reorder", "--corpus", "CORPUS", "--checkpoint", "CKPT", "--workers", 0,
             "--out", "OUT"], "--workers value 0 is below 1"),
        "gen_float_doc_count": (("gen", {"doc_count": 2.5}),
                                "doc_count value 2.5 is not an integer"),
        "gen_bool_doc_count": (("gen", {"doc_count": True}),
                               "doc_count value True is not an integer"),
        "gen_float_entity_types": (("gen", {"entity_types": 2.5}),
                                   "entity_types value 2.5 is not an integer"),
        "gen_float_words_per_doc": (("gen", {"words_per_doc": [5.5, 9]}),
                                    "words_per_doc value 5.5 is not an integer"),
        "gen_infinite_page_width": (("gen", {"page_width": float("inf")}),
                                    "page_width value inf is not a finite number"),
        "gen_huge_page_width": (("gen", {"page_width": 10**400}),
                                f"page_width value {10**400} is not a finite number"),
        "encoder_float_hidden_dim": (("encoder", {"hidden_dim": 8.0}),
                                     "hidden_dim value 8.0 is not an integer"),
        "encoder_float_vocab_buckets": (("encoder", {"vocab_buckets": 32.5}),
                                        "vocab_buckets value 32.5 is not an integer"),
        "encoder_float_mlp_layers": (("encoder", {"mlp_layers": 1.5}),
                                     "mlp_layers value 1.5 is not an integer"),
        "encoder_float_multi_dropout_k": (("encoder", {"multi_dropout_k": 1.5}),
                                          "multi_dropout_k value 1.5 is not an integer"),
        "train_float_batch_size": (("train", {"batch_size": 1.5}),
                                   "batch_size value 1.5 is not an integer"),
        "train_float_steps": (("train", {"steps": 2.5}), "steps value 2.5 is not an integer"),
        "train_bool_steps": (("train", {"steps": True}), "steps value True is not an integer"),
        "train_negative_weight_decay": (("train", {"weight_decay": -1}),
                                        "weight_decay value -1 is outside [0, inf)"),
        "train_nan_weight_decay": (("train", {"weight_decay": float("nan")}),
                                   "weight_decay value nan is not a finite number"),
        "train_nan_lr": (("train", {"lr": float("nan")}), "lr value nan is not a finite number"),
        "train_infinite_lr": (("train", {"lr": float("inf")}),
                              "lr value inf is not a finite number"),
        "decode_float_max_entities": (("decode", {"max_entities": 1.5}),
                                      "max_entities value 1.5 is not an integer"),
        "decode_float_beam_size": (("decode", {"beam_size": 2.5}),
                                   "beam_size value 2.5 is not an integer"),
        "decode_bool_beam_size": (("decode", {"beam_size": True}),
                                  "beam_size value True is not an integer"),
        "decode_string_threshold": (("decode", {"threshold": "0"}),
                                    "threshold value '0' is not a finite number"),
        "decode_nan_threshold": (("decode", {"threshold": float("nan")}),
                                 "threshold value nan is not a finite number"),
    }

    # The command that reads each config section.
    READERS = {
        "gen": ["gen"],
        "encoder": ["train", "--task", "ner", "--corpus", "CORPUS"],
        "train": ["train", "--task", "ner", "--corpus", "CORPUS"],
        "decode": ["decode", "--task", "ner", "--corpus", "CORPUS", "--checkpoint", "CKPT"],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_number_is_a_validation_error(self, tmp_path, corpus_dir, capsys, case):
        argv, named = self.CASES[case]
        if not isinstance(argv, list):
            section, fields = argv
            record = {**TINY_GEN, **FAST_MODEL}
            record[section] = {**record.get(section, {}), **fields}
            cfg = write_config(tmp_path / "run.json", record)
            argv = self.READERS[section] + ["--config", cfg, "--out", "OUT"]
            named = f"bad [{section}] config: {named}"
        ckpt = tmp_path / "model.ckpt"
        task = "rop" if argv[0] == "reorder" else "ner"
        save_checkpoint(init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), task,
                                    load_corpus(str(corpus_dir)).entity_types), str(ckpt))
        before = sorted(os.listdir(tmp_path))
        fill = {"CORPUS": corpus_dir, "CKPT": ckpt, "OUT": tmp_path / "out"}
        assert run([fill.get(a, a) for a in argv]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"].endswith(named)
        assert sorted(os.listdir(tmp_path)) == before


class TestRefusals:
    # Each refusal exits 1 with its exact message and writes nothing.
    CASES = ["config_not_found", "config_not_an_object", "corpus_not_found",
             "invalid_document", "missing_split", "empty_split", "rop_without_gold_order",
             "checkpoint_not_found", "checkpoint_types_differ", "predictions_not_found"]

    @pytest.mark.parametrize("case", CASES)
    def test_refusal_is_a_validation_error(self, tmp_path, corpus_dir, capsys, case):
        corpus = load_corpus(str(corpus_dir))
        types = corpus.entity_types + (("extra",) if case == "checkpoint_types_differ" else ())
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), "ner", types),
                        str(ckpt))
        out = tmp_path / "out"
        missing = tmp_path / "missing"

        def decode(*flags, checkpoint=ckpt):
            return ["decode", "--task", "ner", "--corpus", corpus_dir, "--checkpoint", checkpoint,
                    *flags, "--out", out]

        def edit_document(doc_id, edit):
            path = corpus_dir / f"{doc_id}.json"
            rec = json.loads(path.read_text())
            edit(rec)
            path.write_text(json.dumps(rec))
            return rec

        if case == "config_not_found":
            argv = ["gen", "--config", missing, "--out", out]
            message = f"config file not found: {missing}"
        elif case == "config_not_an_object":
            argv = ["gen", "--config", write_config(tmp_path / "list.json", []), "--out", out]
            message = "config file must hold a JSON object"
        elif case == "corpus_not_found":
            argv = ["stats", "--corpus", missing]
            message = f"corpus directory not found: {missing}"
        elif case == "invalid_document":
            rec = edit_document("doc-0000", lambda r: r["entities"][0].update(word_indices=[99]))
            argv = ["stats", "--corpus", corpus_dir]
            violation = f"entity 0 word 99 is outside [0, {len(rec['words'])})"
            message = "corpus contains invalid documents: " + json.dumps(
                [{"id": "doc-0000", "violations": [violation]}])
        elif case == "missing_split":
            argv = decode("--split", "dev")
            message = "corpus has no split 'dev'; has ['test', 'train', 'val']"
        elif case == "empty_split":
            assert corpus.splits["val"] == ()
            argv = decode("--split", "val")
            message = "split 'val' is empty"
        elif case == "rop_without_gold_order":
            lacking = corpus.splits["train"][2]
            edit_document(lacking, lambda r: r.pop("gold_order"))
            argv = ["train", "--task", "rop", "--corpus", corpus_dir, "--out", out]
            message = f"document {lacking} lacks gold_order"
        elif case == "checkpoint_not_found":
            argv = decode(checkpoint=missing)
            message = f"checkpoint not found: {missing}"
        elif case == "checkpoint_types_differ":
            argv = decode()
            message = f"checkpoint entity types {types} do not match corpus {corpus.entity_types}"
        else:
            argv = ["eval", "--task", "ner", "--predictions", missing, "--corpus", corpus_dir,
                    "--out", out]
            message = f"predictions directory not found: {missing}"
        before = sorted(os.listdir(tmp_path))
        assert run(argv) == 1
        assert last_error(capsys) == {"error": message, "kind": "validation"}
        assert sorted(os.listdir(tmp_path)) == before


class TestCorruptInputs:
    # A manifest names each document once, by the id its file holds.
    MANIFEST_DAMAGE = {
        "listed_in_two_splits": "manifest lists document ids more than once: ['doc-0003']",
        "listed_twice_in_one_split": "manifest lists document ids more than once: ['doc-0003']",
        "file_holds_another_id": "doc-0000.json holds document id 'other', not 'doc-0000'",
    }

    # Where in a document record a value has the wrong type, the value put
    # there, and the error. An index used to be truncated by int(), a page
    # size or box coordinate read by float().
    CORPUS_WRONG_TYPES = {
        "float_entity_word": (("entities", 0, "word_indices", 0), 7.9,
                              "word_indices value 7.9 is not an integer"),
        "bool_entity_type": (("entities", 0, "type"), True, "type value True is not an integer"),
        "float_link_end": (("links",), [[0, 1.0]], "links value 1.0 is not an integer"),
        "string_segment_index": (("segments", 0, "word_indices", 0), "7",
                                 "word_indices value '7' is not an integer"),
        "float_gold_order_token": (("gold_order", 0), 0.5,
                                   "gold_order value 0.5 is not an integer"),
        "float_order_token": (("order",), [0, 2.0], "order value 2.0 is not an integer"),
        "string_page_width": (("page_width",), "612", "page_width value '612' is not a number"),
        "bool_box_coordinate": (("segments", 0, "box", 0), True, "box value True is not a number"),
    }

    @pytest.mark.parametrize("damage", ["words_not_a_list", "text_not_a_string",
                                        "manifest_not_an_object", *MANIFEST_DAMAGE,
                                        *CORPUS_WRONG_TYPES])
    def test_corrupt_corpus_is_a_validation_error(self, corpus_dir, capsys, damage):
        doc_path = corpus_dir / "doc-0000.json"
        manifest_path = corpus_dir / "manifest.json"
        rec = json.loads(doc_path.read_text())
        manifest = json.loads(manifest_path.read_text())
        message = self.MANIFEST_DAMAGE.get(damage, "")
        if damage in self.CORPUS_WRONG_TYPES:
            where, value, problem = self.CORPUS_WRONG_TYPES[damage]
            target = rec
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = value
            message = f"doc-0000.json: {problem}"
        elif damage == "words_not_a_list":
            rec["words"] = 5
        elif damage == "text_not_a_string":
            rec["words"][0]["text"] = 7
        elif damage == "manifest_not_an_object":
            manifest = []
        elif damage == "listed_in_two_splits":
            assert "doc-0003" in manifest["splits"]["train"]
            manifest["splits"]["test"].append("doc-0003")
        elif damage == "listed_twice_in_one_split":
            manifest["splits"]["train"].append("doc-0003")
        else:
            rec["id"] = "other"
        doc_path.write_text(json.dumps(rec))
        manifest_path.write_text(json.dumps(manifest))
        assert run(["stats", "--corpus", corpus_dir]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"].startswith(f"cannot load corpus at {corpus_dir}: ")
        assert err["error"].endswith(message)

    @staticmethod
    def _rewrite_header(path, edit):
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + hlen])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen :])

    CHECKPOINT_DAMAGE = {
        "missing_array": "missing ['q_w0'], extra [], wrong shape []",
        "extra_config_key": "unexpected keyword argument 'depth'",
        "unknown_task": "unknown task 'pos'",
        "trailing_bytes": "trailing bytes after arrays",
        # ner's pair heads are hidden_dim // types wide, not hidden_dim.
        "full_width_heads": "missing [], extra [], wrong shape ['k_b0', 'k_b1', 'k_w0', "
                            "'k_w1', 'q_b0', 'q_b1', 'q_w0', 'q_w1']",
    }

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_corrupt_checkpoint_is_a_validation_error(self, tmp_path, corpus_dir, capsys,
                                                      damage):
        corpus = load_corpus(str(corpus_dir))
        params = init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), "ner",
                             corpus.entity_types)
        if damage == "missing_array":
            del params.arrays["q_w0"]
        elif damage == "full_width_heads":
            for name in list(params.arrays):
                if name[:2] in ("q_", "k_"):
                    params.arrays[name] = np.zeros((8,) * params.arrays[name].ndim)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, str(ckpt))
        if damage == "extra_config_key":
            self._rewrite_header(ckpt, lambda h: h["config"].update(depth=3))
        elif damage == "unknown_task":
            self._rewrite_header(ckpt, lambda h: h.update(task="pos"))
        elif damage == "trailing_bytes":
            ckpt.write_bytes(ckpt.read_bytes() + b"\0")
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt, "--out", tmp_path / "p"]) == 1
        rec = last_error(capsys)
        assert rec["kind"] == "validation"
        assert str(ckpt) in rec["error"]
        assert self.CHECKPOINT_DAMAGE[damage] in rec["error"]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"gen": {"doc_count": 12,', "cannot read config file "),
        ('{"gen": 5}', "bad [gen] config: "),
    ], ids=["truncated_json", "section_not_an_object"])
    def test_malformed_config_is_a_validation_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run(["gen", "--config", cfg, "--out", tmp_path / "x"]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"].startswith(message)
        assert os.listdir(tmp_path) == ["bad.json"]

    PREDICTION_DAMAGE = {
        "truncated_json": '{"id": "ID", "entities": [',
        "entities_not_a_list": '{"id": "ID", "entities": "oops"}',
        "another_id": '{"id": "x", "entities": []}',
    }

    @pytest.mark.parametrize("damage", sorted(PREDICTION_DAMAGE))
    def test_malformed_prediction_is_a_validation_error(self, tmp_path, corpus_dir, capsys,
                                                        damage):
        preds = tmp_path / "preds"
        preds.mkdir()
        ids = [doc.id for doc in load_corpus(str(corpus_dir)).split("test")]
        for doc_id in ids:
            (preds / f"{doc_id}.json").write_text(dumps_canonical({"id": doc_id, "entities": []}))
        bad = preds / f"{ids[1]}.json"
        bad.write_text(self.PREDICTION_DAMAGE[damage].replace("ID", ids[1]))
        assert run(["eval", "--task", "ner", "--predictions", preds, "--corpus", corpus_dir,
                    "--out", tmp_path / "report"]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"].startswith(f"cannot load prediction {bad}: ")
        if damage == "another_id":
            assert err["error"].endswith(f"holds prediction id 'x', not {ids[1]!r}")
        assert not (tmp_path / "report").exists()

    # Task, then the scored field's value with one value of the wrong type
    # or one key missing, and the error. An index used to be truncated by
    # int(), a confidence read by float(), a missing key named bare.
    WRONG_TYPES = {
        "ner_float_type": ("ner", [{"type": 1.7, "word_indices": [0]}],
                           "type value 1.7 is not an integer"),
        "ner_bool_word": ("ner", [{"type": 0, "word_indices": [0, True]}],
                          "word_indices value True is not an integer"),
        "el_float_link": ("el", [[0, 0.0]], "links value 0.0 is not an integer"),
        "rop_string_token": ("rop", ["0"], "predicted_order value '0' is not an integer"),
        "ner_string_confidence": ("ner", [{"type": 0, "word_indices": [0], "confidence": "0.5"}],
                                  "confidence value '0.5' is not a number"),
        "ner_missing_word_indices": ("ner", [{"type": 0}], "missing key 'word_indices'"),
    }

    @pytest.mark.parametrize("damage", sorted(WRONG_TYPES))
    def test_non_integer_prediction_is_a_validation_error(self, tmp_path, corpus_dir, capsys,
                                                          damage):
        task, value, problem = self.WRONG_TYPES[damage]
        field = cli_module._EVAL_FIELDS[task]
        docs = load_corpus(str(corpus_dir)).split("test")
        preds = tmp_path / "preds"
        preds.mkdir()
        for doc in docs:
            (preds / f"{doc.id}.json").write_text(dumps_canonical({"id": doc.id, field: []}))
        bad = preds / f"{docs[1].id}.json"
        bad.write_text(dumps_canonical({"id": docs[1].id, field: value}))
        assert run(["eval", "--task", task, "--predictions", preds, "--corpus", corpus_dir,
                    "--out", tmp_path / "report"]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"] == f"cannot load prediction {bad}: {problem}"
        assert not (tmp_path / "report").exists()

    # Task, then the scored field's value and the problem named, given the
    # document's word count n and gold entity count e (the corpus has 2 types).
    BAD_VALUES = {
        "rop_repeated_token": ("rop", lambda n, e: (
            [0, 1, 1], "predicted_order token 1 repeats")),
        "rop_token_past_the_end": ("rop", lambda n, e: (
            [0, n], f"predicted_order token {n} is outside [0, {n})")),
        "rop_negative_token": ("rop", lambda n, e: (
            [-1], f"predicted_order token -1 is outside [0, {n})")),
        "el_link_past_the_end": ("el", lambda n, e: (
            [[e, 0]], f"link 0 entity {e} is outside [0, {e})")),
        "el_negative_link": ("el", lambda n, e: (
            [[0, -1]], f"link 0 entity -1 is outside [0, {e})")),
        "ner_empty_entity": ("ner", lambda n, e: (
            [{"type": 0, "word_indices": [0]}, {"type": 0, "word_indices": []}],
            "entity 1 is empty")),
        "ner_repeated_word": ("ner", lambda n, e: (
            [{"type": 0, "word_indices": [0, 1, 0]}], "entity 0 word 0 repeats")),
        "ner_word_past_the_end": ("ner", lambda n, e: (
            [{"type": 1, "word_indices": [n]}], f"entity 0 word {n} is outside [0, {n})")),
        "bio_negative_word": ("bio", lambda n, e: (
            [{"type": 0, "word_indices": [-1]}], f"entity 0 word -1 is outside [0, {n})")),
        "bio_unknown_type": ("bio", lambda n, e: (
            [{"type": 2, "word_indices": [0]}], "entity 0 type 2 is outside [0, 2)")),
        "el_self_link": ("el", lambda n, e: ([[0, 0]], "link 0 links entity 0 to itself")),
    }

    @pytest.mark.parametrize("damage", sorted(BAD_VALUES))
    def test_out_of_range_prediction_is_a_validation_error(self, tmp_path, corpus_dir, capsys,
                                                           damage):
        task, make = self.BAD_VALUES[damage]
        field = cli_module._EVAL_FIELDS[task]
        docs = load_corpus(str(corpus_dir)).split("test")
        preds = tmp_path / "preds"
        preds.mkdir()
        for doc in docs:
            (preds / f"{doc.id}.json").write_text(dumps_canonical({"id": doc.id, field: []}))
        value, problem = make(docs[1].n_words, len(docs[1].entities))
        bad = preds / f"{docs[1].id}.json"
        bad.write_text(dumps_canonical({"id": docs[1].id, field: value}))
        assert run(["eval", "--task", task, "--predictions", preds, "--corpus", corpus_dir,
                    "--out", tmp_path / "report"]) == 1
        err = last_error(capsys)
        assert err["kind"] == "validation"
        assert err["error"] == f"bad prediction {bad} for document {docs[1].id}: {problem}"
        assert not (tmp_path / "report").exists()


class TestPipeline:
    def test_train_decode_eval_stats(self, tmp_path, corpus_dir, capsys):
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        ckpt_dir = tmp_path / "model"
        assert run(["train", "--task", "ner", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", ckpt_dir]) == 0
        assert (ckpt_dir / "model.ckpt").exists()
        assert (ckpt_dir / "train_log.json").exists()

        preds = tmp_path / "preds"
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt",
                    "--config", model_cfg, "--out", preds]) == 0
        pred_files = sorted(p for p in os.listdir(preds) if not p.startswith("_"))
        assert len(pred_files) == 3  # test split of 12 docs at 0.25

        report_dir = tmp_path / "report"
        assert run(["eval", "--task", "ner", "--predictions", preds,
                    "--corpus", corpus_dir, "--out", report_dir]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert {"entity", "word"} <= set(report)
        out = capsys.readouterr().out
        assert "entity-level" in out and "micro" in out

        assert run(["stats", "--corpus", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "continuous entity rate" in out

    def test_stats_out_writes_the_stats_record(self, tmp_path, corpus_dir):
        assert run(["stats", "--corpus", corpus_dir, "--out", tmp_path / "stats"]) == 0
        record = dataset_stats(load_corpus(str(corpus_dir))).to_record()
        written = (tmp_path / "stats" / "stats.json").read_text(encoding="utf-8")
        assert written == dumps_canonical(record) + "\n"

    def test_decode_reads_the_stored_order(self, tmp_path, corpus_dir):
        # A 1D model's predictions depend on the order it reads; decode must
        # use each document's stored order, as decode_document does.
        corpus = load_corpus(str(corpus_dir))
        ordered = Corpus(tuple(replace_order(d, shuffle_order(d, i))
                               for i, d in enumerate(corpus.documents)), corpus.splits)
        save_corpus(ordered, str(tmp_path / "ordered"))
        params = init_params(EncoderConfig(hidden_dim=8, vocab_buckets=64,
                                           use_1d_position="global", seed=1),
                             "ner", corpus.entity_types)
        save_checkpoint(params, str(tmp_path / "model.ckpt"))
        assert run(["decode", "--task", "ner", "--corpus", tmp_path / "ordered",
                    "--checkpoint", tmp_path / "model.ckpt", "--out", tmp_path / "p"]) == 0
        for doc in ordered.split("test"):
            rec = json.loads((tmp_path / "p" / f"{doc.id}.json").read_text())
            assert Prediction.from_record(rec) == decode_document(doc, params)
        assert any(decode_document(doc, params) != decode_document(doc, params,
                                                                   order=ocr_order(doc))
                   for doc in ordered.split("test"))

    def test_decode_rejects_wrong_task_checkpoint(self, tmp_path, corpus_dir, capsys):
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        ckpt_dir = tmp_path / "model"
        assert run(["train", "--task", "ner", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", ckpt_dir]) == 0
        assert run(["decode", "--task", "el", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt",
                    "--out", tmp_path / "p2"]) == 1
        assert last_error(capsys)["error"] == "checkpoint was trained for task 'ner', not 'el'"
        assert run(["reorder", "--corpus", corpus_dir, "--checkpoint", ckpt_dir / "model.ckpt",
                    "--out", tmp_path / "r"]) == 1
        assert last_error(capsys)["error"] == "checkpoint was trained for task 'ner', not 'rop'"

    def test_decode_refuses_old_checkpoint_layout(self, tmp_path, corpus_dir, capsys):
        corpus = load_corpus(str(corpus_dir))
        ckpt = tmp_path / "old.ckpt"
        params = init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), "ner",
                             corpus.entity_types)
        save_checkpoint(params, str(ckpt))
        ckpt.write_bytes(b"TPPCKPT1" + ckpt.read_bytes()[8:])
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt, "--out", tmp_path / "p"]) == 1
        rec = last_error(capsys)
        assert rec["kind"] == "validation"
        assert "TPPCKPT1" in rec["error"]
        assert not (tmp_path / "p").exists()

    def test_decode_refuses_non_finite_checkpoint(self, tmp_path, corpus_dir, capsys):
        corpus = load_corpus(str(corpus_dir))
        params = init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), "ner",
                             corpus.entity_types)
        params.arrays["q_w0"][0, 0] = np.nan
        params.arrays["enc_b0"][1] = np.inf
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(params, str(ckpt))
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt, "--out", tmp_path / "p"]) == 1
        rec = last_error(capsys)
        assert rec["kind"] == "validation"
        # Arrays are stored by name, so enc_b0 is the first bad one.
        assert "array 'enc_b0' holds non-finite values" in rec["error"]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("task", ["ner", "rop"])
    def test_decoding_error_names_the_document(self, tmp_path, corpus_dir, capsys,
                                               monkeypatch, task):
        corpus = load_corpus(str(corpus_dir))
        docs = corpus.split("test") if task == "ner" else corpus.documents
        bad = docs[1]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(EncoderConfig(hidden_dim=8, vocab_buckets=16), task,
                                    corpus.entity_types), str(ckpt))
        score = decode_module.score_document

        def nan_for_bad(doc, *args, **kwargs):
            out = score(doc, *args, **kwargs)
            return np.full_like(out, np.nan) if doc.id == bad.id else out

        monkeypatch.setattr(decode_module, "score_document", nan_for_bad)
        if task == "ner":
            args = ["decode", "--task", "ner", "--corpus", corpus_dir, "--workers", 2]
        else:
            args = ["reorder", "--corpus", corpus_dir, "--workers", 2]
        assert run(args + ["--checkpoint", ckpt, "--out", tmp_path / "p"]) == 2
        rec = last_error(capsys)
        assert rec["kind"] == "ValueError"
        assert rec["error"].startswith(f"document {bad.id}: {task} grid has ")
        assert rec["error"].endswith(" NaN cells")
        assert not (tmp_path / "p").exists()

    def test_eval_scores_each_document_on_its_own(self, tmp_path, corpus_dir):
        # Each test document is given the gold entities of the next one that
        # lie within its words. Entity and word keys hold word ids only, so
        # scored as one pooled list every one of these would match.
        docs = load_corpus(str(corpus_dir)).split("test")
        preds = tmp_path / "preds"
        preds.mkdir()
        for i, doc in enumerate(docs):
            other = docs[(i + 1) % len(docs)]
            rec = {"id": doc.id, "entities": [
                {"type": e.type_id, "word_indices": list(e.word_indices), "confidence": 0.0}
                for e in other.entities if max(e.word_indices) < doc.n_words
            ]}
            (preds / f"{doc.id}.json").write_text(dumps_canonical(rec))
        report_dir = tmp_path / "report"
        assert run(["eval", "--task", "ner", "--predictions", preds,
                    "--corpus", corpus_dir, "--out", report_dir]) == 0
        report = json.loads((report_dir / "report.json").read_text())

        def keys(doc):
            return {e.key() for e in doc.entities}

        def words(doc):
            return {w for e in doc.entities for w in e.word_indices}

        correct = sum(len(keys(docs[(i + 1) % len(docs)]) & keys(d)) for i, d in enumerate(docs))
        assert report["entity"]["correct"] == correct < report["entity"]["predicted"]
        assert report["entity"]["correct"] < report["entity"]["gold"]
        assert report["word"]["gold"] == sum(len(words(d)) for d in docs)

    def test_eval_reads_an_infinite_confidence(self, tmp_path, corpus_dir):
        # ner_decode gives +inf to a path of +inf edges; decode writes it as Infinity.
        docs = load_corpus(str(corpus_dir)).split("test")
        preds = tmp_path / "preds"
        preds.mkdir()
        for doc in docs:
            rec = {"id": doc.id, "entities": [
                {"type": e.type_id, "word_indices": list(e.word_indices), "confidence": math.inf}
                for e in doc.entities
            ]}
            (preds / f"{doc.id}.json").write_text(dumps_canonical(rec))
        assert "Infinity" in (preds / f"{docs[0].id}.json").read_text()
        report_dir = tmp_path / "report"
        assert run(["eval", "--task", "ner", "--predictions", preds,
                    "--corpus", corpus_dir, "--out", report_dir]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["entity"]["correct"] == report["entity"]["gold"] > 0

    @pytest.mark.parametrize("task, field", [("ner", "entities"), ("bio", "entities"),
                                             ("el", "links"), ("rop", "predicted_order")])
    def test_eval_names_what_a_document_lacks(self, tmp_path, corpus_dir, capsys, task, field):
        ids = [doc.id for doc in load_corpus(str(corpus_dir)).split("test")]
        preds = tmp_path / "preds"
        preds.mkdir()
        for doc_id in ids:
            rec = {"id": doc_id, field: []} if doc_id == ids[0] else {"id": doc_id}
            (preds / f"{doc_id}.json").write_text(dumps_canonical(rec))
        args = ["eval", "--task", task, "--predictions", preds, "--corpus", corpus_dir]
        assert run(args) == 1
        assert last_error(capsys)["error"] == f"prediction for {ids[1]} lacks {field}"
        if task == "rop":
            doc_path = corpus_dir / f"{ids[0]}.json"
            rec = json.loads(doc_path.read_text())
            del rec["gold_order"]
            doc_path.write_text(json.dumps(rec))
            assert run(args) == 1
            assert last_error(capsys)["error"] == f"document {ids[0]} lacks gold_order"

    def test_eval_missing_predictions_exits_1(self, tmp_path, corpus_dir, capsys):
        empty = tmp_path / "nopreds"
        empty.mkdir()
        code = run(["eval", "--task", "ner", "--predictions", empty,
                    "--corpus", corpus_dir])
        assert code == 1
        rec = last_error(capsys)
        assert rec["kind"] == "validation"
        assert "missing" in rec["error"]

    def test_rop_pipeline_and_reorder(self, tmp_path, corpus_dir):
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        ckpt_dir = tmp_path / "rop_model"
        assert run(["train", "--task", "rop", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", ckpt_dir]) == 0

        preds = tmp_path / "rop_preds"
        assert run(["decode", "--task", "rop", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt", "--out", preds]) == 0
        assert run(["eval", "--task", "rop", "--predictions", preds,
                    "--corpus", corpus_dir]) == 0

        reordered = tmp_path / "corpus_reordered"
        assert run(["reorder", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt",
                    "--out", reordered]) == 0
        corpus = load_corpus(str(reordered))
        for doc in corpus.documents:
            assert doc.input_order is not None
            assert sorted(doc.input_order) == list(range(doc.n_words))

    def test_el_pipeline(self, tmp_path, corpus_dir):
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        ckpt_dir = tmp_path / "el_model"
        assert run(["train", "--task", "el", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", ckpt_dir]) == 0
        preds = tmp_path / "el_preds"
        assert run(["decode", "--task", "el", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt", "--out", preds]) == 0
        assert run(["eval", "--task", "el", "--predictions", preds,
                    "--corpus", corpus_dir]) == 0

    def test_shuffle_seed_changes_bio_predictions_only_with_1d(self, tmp_path, corpus_dir):
        # An order-free ner model must produce identical predictions under
        # shuffled evaluation inputs.
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        ckpt_dir = tmp_path / "model"
        assert run(["train", "--task", "ner", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", ckpt_dir]) == 0
        p1 = tmp_path / "plain"
        p2 = tmp_path / "shuffled"
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt", "--out", p1]) == 0
        assert run(["decode", "--task", "ner", "--corpus", corpus_dir,
                    "--checkpoint", ckpt_dir / "model.ckpt",
                    "--shuffle-seed", 3, "--out", p2]) == 0
        for name in os.listdir(p1):
            if name.startswith("_"):
                continue
            assert (p1 / name).read_bytes() == (p2 / name).read_bytes()

    def test_failed_write_leaves_no_staging_directory(self, tmp_path, corpus_dir, capsys,
                                                      monkeypatch):
        def broken(params, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "save_checkpoint", broken)
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        assert run(["train", "--task", "ner", "--corpus", corpus_dir,
                    "--config", model_cfg, "--out", tmp_path / "model"]) == 2
        assert last_error(capsys) == {"error": "disk full", "kind": "OSError"}
        assert not [name for name in os.listdir(tmp_path) if name.startswith("model")]


class TestDeterminism:
    def test_full_pipeline_reruns_byte_identical(self, tmp_path):
        gen_cfg = write_config(tmp_path / "g.json", TINY_GEN)
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)

        def pipeline(root):
            root.mkdir()
            corpus = root / "corpus"
            assert run(["gen", "--config", gen_cfg, "--out", corpus]) == 0
            model = root / "model"
            assert run(["train", "--task", "ner", "--corpus", corpus,
                        "--config", model_cfg, "--out", model]) == 0
            preds = root / "preds"
            assert run(["decode", "--task", "ner", "--corpus", corpus,
                        "--checkpoint", model / "model.ckpt", "--out", preds]) == 0
            report = root / "report"
            assert run(["eval", "--task", "ner", "--predictions", preds,
                        "--corpus", corpus, "--out", report]) == 0
            return root

        a = pipeline(tmp_path / "run_a")
        b = pipeline(tmp_path / "run_b")
        for dirpath, _, files in os.walk(a):
            rel = os.path.relpath(dirpath, a)
            for name in files:
                fa = os.path.join(dirpath, name)
                fb = os.path.join(b, rel, name)
                assert open(fa, "rb").read() == open(fb, "rb").read(), fa

    def test_workers_do_not_change_bytes(self, tmp_path):
        def same_files(a, b):
            assert sorted(os.listdir(a)) == sorted(os.listdir(b))
            for name in os.listdir(a):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

        gen_cfg = write_config(tmp_path / "g.json", TINY_GEN)
        assert run(["gen", "--config", gen_cfg, "--out", tmp_path / "w1"]) == 0
        assert run(["gen", "--config", gen_cfg, "--workers", 4, "--out", tmp_path / "w4"]) == 0
        same_files(tmp_path / "w1", tmp_path / "w4")

        corpus = tmp_path / "w1"
        model_cfg = write_config(tmp_path / "m.json", FAST_MODEL)
        for task in ("ner", "rop"):
            assert run(["train", "--task", task, "--corpus", corpus, "--config", model_cfg,
                        "--out", tmp_path / f"{task}_model"]) == 0
        for workers in (1, 2):
            assert run(["decode", "--task", "ner", "--corpus", corpus, "--checkpoint",
                        tmp_path / "ner_model" / "model.ckpt", "--shuffle-seed", 3,
                        "--workers", workers, "--out", tmp_path / f"preds{workers}"]) == 0
            assert run(["reorder", "--corpus", corpus, "--checkpoint",
                        tmp_path / "rop_model" / "model.ckpt", "--workers", workers,
                        "--out", tmp_path / f"reordered{workers}"]) == 0
        same_files(tmp_path / "preds1", tmp_path / "preds2")
        same_files(tmp_path / "reordered1", tmp_path / "reordered2")
