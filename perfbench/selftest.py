"""Self-test of the benchmark at tiny sizes. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that per-document F1 counting equals ``entity_f1`` on a single
document; that every workload emits every gated metric, non-zero, and that
every catalogue metric is emitted by some workload (the rest of each
workload's table is marked unavailable); that tracing leaves the training
losses unchanged; and that BENCHMARK.json gates exactly the catalogue's
choice. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

run.import_program()

import catalogue  # noqa: E402
import workloads  # noqa: E402

TINY_LIBRARY = workloads.LibraryShape(
    words=(8, 12), page=(612.0, 792.0), strata=2, train_per_stratum=4, test_per_stratum=3,
    grid_steps=3, grid_batch=4, bio_steps=3, bio_batch=4, min_passes=2)
TINY_CLI = workloads.CliShape(docs=12, steps=2, batch=4)

failures: list[str] = []
untraced_losses: dict[str, dict] = {}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def per_document_f1() -> None:
    corpus = workloads.stratified_corpus(TINY_LIBRARY, seed=3)
    doc = next(d for d in corpus.documents if len(d.entities) >= 2)
    gold = list(doc.entities)
    wrong = workloads.core.Entity(gold[0].type_id, gold[0].word_indices[:1] + (doc.n_words,))
    pred = gold[1:] + [wrong]
    report = workloads.metrics.entity_f1(pred, gold)
    expect(math.isclose(workloads.f1_from_counts([report]), report.f1, rel_tol=0, abs_tol=1e-12),
           f"per-document F1 equals entity_f1 on one document ({report.f1:.4f})")


def tiny(name):
    if name == "cli-pipeline":
        return lambda ctx, work: workloads.run_cli(ctx, TINY_CLI, 5, work)
    return lambda ctx, work: workloads.run_library(ctx, TINY_LIBRARY, 5, 0.0)


def workloads_emit_metrics() -> None:
    for trace, rows, gated in ((False, catalogue.END_TO_END, list(catalogue.GATED_END_TO_END)),
                               (True, catalogue.PER_LAYER, catalogue.GATED_PER_LAYER)):
        seen: set[str] = set()
        for name in run.WORKLOADS:
            work = os.path.join(run.ROOT, ".bench_work", f"selftest-{name}-{os.getpid()}")
            values, checks, losses, _ = run.measure(tiny(name), trace, work)
            mode = "traced" if trace else "untraced"
            expect(checks.failed == 0, f"{name} {mode}: {checks.attempted} operations, "
                                       f"failures {checks.problems}")
            bad = [m for m in gated
                   if not (m in values and math.isfinite(values[m]) and values[m] != 0)]
            expect(not bad, f"{name} {mode}: every gated metric is emitted and non-zero {bad}")
            seen |= set(values)
            if trace:
                expect(losses == untraced_losses[name], f"{name}: traced run logs identical losses")
            else:
                untraced_losses[name] = losses
        unnamed = [row[0] for row in rows if row[0] not in seen]
        expect(not unnamed, f"every {'per-layer' if trace else 'end-to-end'} metric is "
                            f"emitted by some workload {unnamed}")


def benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {row[0]: row for row in catalogue.END_TO_END}
    want = [{"name": n, "unit": e2e[n][1], "better": e2e[n][2], "bound": bound}
            for n, bound in catalogue.GATED_END_TO_END.items()]
    expect(spec["end_to_end"] == want, "BENCHMARK.json end_to_end matches the catalogue")
    layers = {row[0]: row for row in catalogue.PER_LAYER}
    want = [{"name": n, "unit": layers[n][1], "better": layers[n][2]}
            for n in catalogue.GATED_PER_LAYER]
    expect(spec["per_layer"] == want, "BENCHMARK.json per_layer matches the catalogue")
    expect([w["name"] for w in spec["workloads"]] == list(catalogue.GATED_WORKLOADS),
           "BENCHMARK.json lists the gated workloads")


if __name__ == "__main__":
    per_document_f1()
    workloads_emit_metrics()
    benchmark_json()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
