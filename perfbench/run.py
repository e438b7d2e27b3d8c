"""Layered decision benchmark for qfdef.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; qfdef is imported from ./src.  Each
workload runs in fresh single-threaded worker processes (worker.py), one
caller in a closed loop, answers checked outside the timed region.

--trace 0 prints the end-to-end metrics: set-up is sampled by SETUP_RUNS
worker processes (the measuring one included) and reported as their
median.  --trace 1 runs two traced workers, reports the per-layer metrics
and fails the run unless every count repeats exactly across both.  The
last line of output is one JSON object: correct, attempted, failed and
metrics.  Workloads, metrics and the layer map are in BENCHMARK.json and
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qfdef"
SETUP_RUNS = 3  # set-up samples per run, the measuring worker included
RUN_TIMEOUT_S = 170  # all workers of one workload together
SPANS_DIR = ROOT / ".bench_out"


class WorkerError(RuntimeError):
    pass


def run_worker(deadline: float, workload: str, seed: int, seconds: float, mode: str, *extra: str) -> tuple[float, dict]:
    """Run one worker to completion by `deadline` (monotonic); returns (set-up seconds, its JSON report)."""
    cmd = [
        sys.executable,
        *["-O"] * sys.flags.optimize,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{workload} exceeded {RUN_TIMEOUT_S} s in its {mode} worker") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}")
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"{mode} worker for {workload} printed no report") from None
    return report["ready_monotonic"] - started, report


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("*.py")))


def environment(workload: str, seed: int, report: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_qfdef_lines": src_lines(),
        "corpus_sha256": report["fingerprint"],
        "corpus_items": report["items"],
        "degenerate_draws": report["degenerate_draws"],
        "plant_failures": report["plant_failures"],
    }


def end_to_end(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup = [run_worker(deadline, workload, seed, seconds, "setup")[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, rep = run_worker(deadline, workload, seed, seconds, "measure")
    setup.append(setup_s)
    print(f"# env {json.dumps(environment(workload, seed, rep))}")
    print(
        f"# {workload}: {rep['samples']} decisions in {rep['passes']} passes over "
        f"{rep['items']} inputs; p90 has {rep['samples'] - int(0.9 * rep['samples'])} samples beyond it"
    )
    print(f"# failed_share {rep['failed'] / rep['attempted']:.4f}; formula_atoms per pass {rep['formula_atoms']}")
    print(f"# setup_s samples {', '.join(f'{s:.3f}' for s in setup)}")
    for err in rep["errors"]:
        print(f"# FAILED {err}")
    values = {
        "decide_ms_p50": rep["decide_ms_p50"],
        "decide_ms_p90": rep["decide_ms_p90"],
        "decisions_per_s": rep["decisions_per_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    return {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
    }


def per_layer(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    SPANS_DIR.mkdir(exist_ok=True)
    reports = []
    for i in range(2):
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}-{i}.jsonl"
        reports.append(run_worker(deadline, workload, seed, seconds / 2, "trace", "--spans-out", str(spans))[1])
    a, b = reports
    repeat = a["counts_repeat"] and b["counts_repeat"] and a["counts"] == b["counts"]
    print(f"# env {json.dumps(environment(workload, seed, a))}")
    print(
        f"# {workload}: untraced/traced passes {a['passes']['untraced']}/{a['passes']['traced']} and "
        f"{b['passes']['untraced']}/{b['passes']['traced']}; tracing overhead "
        f"{statistics.mean([a['layers']['trace.overhead_share'], b['layers']['trace.overhead_share']]):.1%}; "
        f"spans in {SPANS_DIR.name}/"
    )
    print(f"# counts repeat exactly across passes and both workers: {repeat}")
    for name, ms in sorted(a["decide_children_ms"].items(), key=lambda kv: -kv[1]):
        print(f"# child of decide: {name} {ms:.2f} ms")
    for err in a["errors"] + b["errors"]:
        print(f"# FAILED {err}")
    if not repeat:
        diff = {k: (a["counts"][k], b["counts"].get(k)) for k in a["counts"] if a["counts"][k] != b["counts"].get(k)}
        print(f"# counts differ: {json.dumps(diff)}")
    failed = a["failed"] + b["failed"]
    metrics = {
        m["name"]: {"value": statistics.mean([a["layers"][m["name"]], b["layers"][m["name"]]]), "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    return {
        "correct": failed == 0 and repeat,
        "attempted": a["attempted"] + b["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # workload names and the metric names and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        print(f"error: no qfdef sources at {SRC.relative_to(ROOT)}; run from a qfdef checkout", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    for name in names:
        try:
            if args.trace:
                result = per_layer(spec, name, args.seed, args.seconds)
            else:
                result = end_to_end(spec, name, args.seed, args.seconds)
        except WorkerError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
