"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes:
  setup    build the corpus and exit (a set-up time sample)
  measure  build the corpus, then decide it in a closed loop with one caller
  trace    build the corpus traced, run untraced then traced passes

The worker prints one JSON object.  `ready_monotonic` is the
`time.monotonic()` reading when the corpus was built; the parent takes
set-up time from it, so set-up includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qfdef import SplitStats, decompose, merging_decide, splitting_decide  # noqa: E402
from qfdef.algebra import Operation  # noqa: E402

import corpus as corpus_mod  # noqa: E402
from check import check_answer, count_eq_atoms  # noqa: E402
from corpus import WORKLOADS, Corpus, build_corpus  # noqa: E402
from tracer import Tracer, patched, trace_deciders  # noqa: E402

DECIDERS = {"merging": merging_decide, "splitting": splitting_decide}
# the p90 needs at least ten samples beyond it
MIN_DECISIONS = 100
MAX_ERRORS_KEPT = 5


class Checker:
    """Checks every answer once; an answer equal to a checked one shares its verdict."""

    def __init__(self, corpus: Corpus):
        self.items = corpus.items
        self.verdicts: dict = {}
        self.errors: list[str] = []

    def failed(self, index: int, decision) -> bool:
        key = (index, decision)
        try:
            verdict = self.verdicts.get(key)
        except TypeError:  # an unhashable answer is checked every time
            key = verdict = None
        if verdict is None:
            try:
                verdict = check_answer(self.items[index], decision) or ""
            except Exception as e:  # a checker crash is a failed answer, not a crashed run
                verdict = f"checker raised {type(e).__name__}: {e}"
            if key is not None:
                self.verdicts[key] = verdict
        if verdict:
            self.note(index, verdict)
        return bool(verdict)

    def note(self, index: int, message: str) -> None:
        if len(self.errors) < MAX_ERRORS_KEPT:
            it = self.items[index]
            self.errors.append(f"item {index} ({it.family} {it.size}): {message}")


class Loop:
    """Closed loop over whole corpus passes; each decision starts after the last returns."""

    def __init__(self, corpus: Corpus, checker: Checker):
        self.corpus = corpus
        self.checker = checker
        self.samples_ms: list[float] = []
        self.pass_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.formula_atoms = 0  # per pass

    def one_pass(self, decide) -> None:
        clock = time.perf_counter_ns
        total_ns = 0
        atoms = 0
        for i, item in enumerate(self.corpus.items):
            self.attempted += 1
            t0 = clock()
            try:
                decision = decide(item.alg, item.rel)
            except Exception as e:  # a raising decision is a failed one; the run goes on
                total_ns += clock() - t0
                self.failed += 1
                self.checker.note(i, f"decide raised {type(e).__name__}: {e}")
                continue
            dt = clock() - t0
            total_ns += dt
            self.samples_ms.append(dt / 1e6)
            if self.checker.failed(i, decision):
                self.failed += 1
            elif getattr(decision, "formula", None) is not None:
                atoms += count_eq_atoms(decision.formula)
        self.pass_ms.append(total_ns / 1e6)
        self.formula_atoms = atoms

    def run(self, decide, seconds: float, min_passes: int, min_decisions: int = 0) -> None:
        deadline = time.monotonic() + seconds
        while len(self.pass_ms) < min_passes or self.attempted < min_decisions or time.monotonic() < deadline:
            self.one_pass(decide)


def measure(corpus: Corpus, strategy: str, seconds: float) -> dict:
    checker = Checker(corpus)
    loop = Loop(corpus, checker)
    loop.run(DECIDERS[strategy], seconds, min_passes=1, min_decisions=MIN_DECISIONS)
    times = sorted(loop.samples_ms)
    n = len(times)
    return {
        "decide_ms_p50": statistics.median(times) if times else 0.0,
        "decide_ms_p90": times[math.ceil(0.9 * n) - 1] if times else 0.0,
        "decisions_per_s": len(corpus.items) * len(loop.pass_ms) / (sum(loop.pass_ms) / 1e3),
        "samples": n,
        "passes": len(loop.pass_ms),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": checker.errors,
        "formula_atoms": loop.formula_atoms,
    }


def traced_corpus(workload, seed: int) -> tuple[Corpus, dict]:
    tr = Tracer()
    with patched(
        [
            (Operation, "value", tr.count_op_evals(Operation.value)),
            (corpus_mod, "extension", tr.wrap("algebra.extension", corpus_mod.extension)),
            (corpus_mod, "iso_type", tr.wrap("isotype.iso_type", corpus_mod.iso_type)),
        ]
    ):
        corpus = tr.wrap("generators.corpus", build_corpus)(workload, seed)
    s = tr.summary()
    ext = s.get("algebra.extension", {})
    return corpus, {
        "algebra.extension_ms": ext.get("total_ms", 0.0),
        "algebra.op_evals": ext.get("op_evals", 0),
        "generators.corpus_ms": s["generators.corpus"]["total_ms"],
    }


def repetition_free_tuples(corpus: Corpus) -> int:
    """Tuples the merging store holds over one pass: all arities the targets need."""
    total = 0
    for it in corpus.items:
        for k in decompose(it.rel).spec:
            total += math.perm(it.alg.size, k)
    return total


def pass_layers(tr: Tracer, stats: SplitStats, loop: Loop, strategy: str, rf_tuples: int) -> dict:
    s = tr.summary()

    def get(name: str, key: str):
        return s.get(name, {}).get(key, 0)

    c = tr.counts
    iso_calls = get("isotype.iso_type", "calls")
    return {
        "isotype.calls": iso_calls,
        "isotype.self_ms": get("isotype.iso_type", "self_ms"),
        "isotype.op_evals": get("isotype.iso_type", "op_evals"),
        "isotype.cache_hit_ratio": c["isotype.cache_hits"] / c["isotype.cache_gets"] if c["isotype.cache_gets"] else 0.0,
        "merging.self_ms": get("merging.decide", "self_ms"),
        "merging.store_build_ms": get("merging.store_build", "total_ms"),
        "merging.try_merge_ms": get("merging.try_merge", "total_ms"),
        "merging.try_merge_calls": get("merging.try_merge", "calls"),
        "merging.orbit_merges": c["merging.orbit_merges"],
        "merging.types_per_tuple": iso_calls / rf_tuples if strategy == "merging" else 0.0,
        "splitting.self_ms": get("splitting.decide", "self_ms"),
        "splitting.block_step_ms": get("splitting.block_step", "total_ms"),
        "splitting.term_gen_ms": get("splitting.term_gen", "total_ms"),
        "splitting.op_evals": sum(v["op_evals"] for k, v in s.items() if k.startswith("splitting.")),
        "splitting.split_ratio": c["splitting.splitting_steps"] / stats.steps if stats.steps else 0.0,
        "splitting.steps": stats.steps,
        "splitting.refills": stats.refills,
        "splitting.blocks_created": stats.blocks_created,
        "splitting.full_blocks": stats.full_blocks,
        "splitting.max_depth": stats.max_depth,
        "preprocess.decompose_ms": get("preprocess.decompose", "total_ms"),
        "preprocess.recombine_ms": get("preprocess.recombine", "total_ms") + get("preprocess.assemble", "total_ms"),
        "preprocess.targets": c["preprocess.targets"],
        "formula_atoms": loop.formula_atoms,
        "trace.decide_ms": get(f"{strategy}.decide", "total_ms"),
    }


def trace(corpus: Corpus, strategy: str, seconds: float, spans_out: str | None) -> dict:
    """A third of the time untraced, the rest traced; at least two traced passes."""
    checker = Checker(corpus)
    plain = Loop(corpus, checker)
    plain.run(DECIDERS[strategy], seconds / 3, min_passes=1)
    rf_tuples = repetition_free_tuples(corpus)
    traced = Loop(corpus, checker)
    per_pass: list[dict] = []
    deadline = time.monotonic() + seconds * 2 / 3
    while len(per_pass) < 2 or time.monotonic() < deadline:
        tr = Tracer()
        stats = SplitStats()
        kwargs = {"stats": stats} if strategy == "splitting" else {}
        decide = tr.wrap(f"{strategy}.decide", functools.partial(DECIDERS[strategy], **kwargs))
        with trace_deciders(tr):
            traced.one_pass(decide)
        per_pass.append(pass_layers(tr, stats, traced, strategy, rf_tuples))
        if len(per_pass) == 1:
            children = tr.child_totals(f"{strategy}.decide")
            if spans_out:
                tr.write(spans_out)
    counts = [{k: v for k, v in p.items() if not k.endswith("_ms")} for p in per_pass]
    layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layers["trace.overhead_share"] = statistics.median(traced.pass_ms) / statistics.median(plain.pass_ms) - 1
    return {
        "layers": layers,
        "counts": counts[0],
        "counts_repeat": all(c == counts[0] for c in counts),
        "decide_children_ms": children,
        "passes": {"untraced": len(plain.pass_ms), "traced": len(per_pass)},
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": checker.errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--spans-out", help="trace mode: write the first traced pass's spans here")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "trace":
        corpus, setup_layers = traced_corpus(workload, args.seed)
    else:
        corpus = build_corpus(workload, args.seed)
    out: dict = {
        "ready_monotonic": time.monotonic(),
        "fingerprint": corpus.fingerprint(),
        "items": len(corpus.items),
        "degenerate_draws": corpus.degenerate_draws,
        "plant_failures": corpus.plant_failures,
    }
    if args.mode == "measure":
        out.update(measure(corpus, workload.strategy, args.seconds))
    elif args.mode == "trace":
        out.update(trace(corpus, workload.strategy, args.seconds, args.spans_out))
        out["layers"].update(setup_layers)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
