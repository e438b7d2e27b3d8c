"""Spans and counters recorded from outside qfdef, by wrapping its public functions.

Each wrapper is installed on the module attribute the caller looks up
(`qfdef.splitting.process_mixed_block`, `qfdef.merging.decompose`, ...),
so the deciders run unchanged.  Spans live in memory as
[name, parent_id, start_ns, end_ns, op_evals]; `Operation.value` calls
are attributed to the innermost open span.  Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import qfdef.isotype
import qfdef.merging
import qfdef.splitting
from qfdef.algebra import Operation
from qfdef.isotype import IsoTypeCache
from qfdef.merging import OrbitStore

NAME, PARENT, START, END, OPS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count_op_evals(self, value):
        spans, stack = self.spans, self.stack

        def counted(op, args):
            if stack:
                spans[stack[-1]][OPS] += 1
            return value(op, args)

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms, self_ms and op_evals."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "op_evals": 0}
        )
        for rec, children in zip(self.spans, child_ns):
            s = out[rec[NAME]]
            dur = rec[END] - rec[START]
            s["calls"] += 1
            s["total_ms"] += dur / 1e6
            s["self_ms"] += (dur - children) / 1e6
            s["op_evals"] += rec[OPS]
        return dict(out)

    def child_totals(self, parent_prefix: str) -> dict[str, float]:
        """Total ms of each span name whose parent's name starts with `parent_prefix`."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            p = rec[PARENT]
            if p >= 0 and self.spans[p][NAME].startswith(parent_prefix):
                out[rec[NAME]] += (rec[END] - rec[START]) / 1e6
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON list per span: [id, parent_id, name, start_ns, end_ns, op_evals]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, rec[PARENT], rec[NAME], rec[START], rec[END], rec[OPS]]))
                fh.write("\n")


@contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def trace_deciders(tr: Tracer):
    """Wrap the layers both deciders call, for the duration of the block."""
    counts = tr.counts
    orig_iso_type = qfdef.isotype.iso_type
    iso_type = tr.wrap("isotype.iso_type", orig_iso_type)
    orig_get = IsoTypeCache.get
    orig_merge = OrbitStore.merge

    def cache_get(cache, a):
        before = len(tr.spans)
        sig = orig_get(cache, a)
        counts["isotype.cache_gets"] += 1
        if len(tr.spans) == before:
            counts["isotype.cache_hits"] += 1
        return sig

    def merge(store, first, second, arity):
        counts["merging.orbit_merges"] += 1
        return orig_merge(store, first, second, arity)

    def count_targets(args, bundle):
        counts["preprocess.targets"] += len(bundle.targets)

    def count_step(args, successors):
        if len(successors) > 1:  # a refill returns the block alone
            counts["splitting.splitting_steps"] += 1

    decompose = tr.wrap("preprocess.decompose", qfdef.merging.decompose, count_targets)
    with patched(
        [
            (Operation, "value", tr.count_op_evals(Operation.value)),
            (qfdef.isotype, "iso_type", iso_type),
            (qfdef.merging, "iso_type", iso_type),
            (qfdef.splitting, "iso_type", iso_type),
            (IsoTypeCache, "get", cache_get),
            (OrbitStore, "merge", merge),
            (qfdef.merging, "decompose", decompose),
            (qfdef.splitting, "decompose", decompose),
            (qfdef.merging, "OrbitStore", tr.wrap("merging.store_build", OrbitStore)),
            (qfdef.merging, "try_merge_orbits", tr.wrap("merging.try_merge", qfdef.merging.try_merge_orbits)),
            (
                qfdef.splitting,
                "process_mixed_block",
                tr.wrap("splitting.block_step", qfdef.splitting.process_mixed_block, count_step),
            ),
            (qfdef.splitting, "generate_terms", tr.wrap("splitting.term_gen", qfdef.splitting.generate_terms)),
            (qfdef.splitting, "recombine", tr.wrap("preprocess.recombine", qfdef.splitting.recombine)),
            (qfdef.splitting, "assemble", tr.wrap("preprocess.assemble", qfdef.splitting.assemble)),
        ]
    ):
        yield
