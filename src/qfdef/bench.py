"""Benchmark runner: seeded input sweeps with median wall times as CSV.

Only the decision call is timed; input generation and answer verification
happen outside the timed region.  A sample whose decision exceeds the
time budget is recorded as a timeout and excluded from the median (the
run itself is not interrupted).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

from .algebra import Algebra, Relation, extension
from .decision import check_decision
from .generators import (
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
)
from .merging import merging_decide
from .oracle import graph_star
from .splitting import splitting_decide

FAMILIES = ("random", "boolean-algebra", "abelian-group", "graph-star")
STRATEGIES = ("merging", "splitting")
CSV_HEADER = "family,size,strategy,samples,median_ms,timeouts"

# pinned products of 2- and 4-element cyclic factors per power-of-two size
ABELIAN_FACTORS = {
    2: (2,),
    4: (2, 2),
    8: (2, 2, 2),
    16: (2, 2, 4),
    32: (2, 4, 4),
    64: (4, 4, 4),
    128: (2, 4, 4, 4),
}


@dataclass(frozen=True)
class BenchConfig:
    family: str
    sizes: tuple[int, ...]
    samples: int = 20
    target_arity: int = 2
    strategies: tuple[str, ...] = STRATEGIES
    seed: int = 0
    time_budget: float | None = None  # seconds per decision

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}; choose from {STRATEGIES}")


@dataclass
class BenchRecord:
    family: str
    size: int
    strategy: str
    samples: int  # completed within budget
    median_ms: float | None
    timeouts: int

    def csv_row(self) -> str:
        med = f"{self.median_ms:.3f}" if self.median_ms is not None else ""
        return f"{self.family},{self.size},{self.strategy},{self.samples},{med},{self.timeouts}"


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from arbitrary labeled parts."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _make_algebra(family: str, size: int, seed: int) -> Algebra:
    if family == "random":
        return gen_random_algebra(size, seed=seed)
    if family == "boolean-algebra":
        atoms = size.bit_length() - 1
        if 2**atoms != size:
            raise ValueError(f"boolean-algebra sizes must be powers of two, got {size}")
        return gen_boolean_algebra(atoms)
    if family == "abelian-group":
        factors = ABELIAN_FACTORS.get(size)
        if factors is None:
            raise ValueError(
                f"no pinned cyclic factorization for size {size}; known: {sorted(ABELIAN_FACTORS)}"
            )
        return gen_abelian_group(factors)
    if family == "graph-star":
        return graph_star(gen_random_graph(size, seed=seed))[0]
    raise ValueError(f"unknown family {family!r}")


def make_instance(config: BenchConfig, size: int, sample: int) -> tuple[Algebra, Relation]:
    """Deterministic (algebra, definable target) pair for one sample point."""
    alg_seed = derive_seed(config.seed, config.family, size, sample, "alg")
    alg = _make_algebra(config.family, size, alg_seed)
    phi_seed = derive_seed(config.seed, config.family, size, sample, "phi")
    phi = gen_random_formula(alg, config.target_arity, seed=phi_seed)
    return alg, extension(alg, phi, config.target_arity)


_DECIDERS: dict[str, Callable] = {
    "merging": merging_decide,
    "splitting": splitting_decide,
}


def bench(config: BenchConfig) -> Iterator[BenchRecord]:
    """Run the sweep, yielding one record per (size, strategy)."""
    for size in config.sizes:
        instances = [make_instance(config, size, i) for i in range(config.samples)]
        for strategy in config.strategies:
            decide = _DECIDERS[strategy]
            times_ms: list[float] = []
            timeouts = 0
            for alg, rel in instances:
                t0 = time.perf_counter()
                decision = decide(alg, rel)
                elapsed = time.perf_counter() - t0
                # verification is outside the timed region
                if not decision.is_definable:
                    raise AssertionError("a formula-extension target must be definable")
                check_decision(alg, rel, decision)
                if config.time_budget is not None and elapsed > config.time_budget:
                    timeouts += 1
                else:
                    times_ms.append(elapsed * 1000.0)
            yield BenchRecord(
                family=config.family,
                size=size,
                strategy=strategy,
                samples=len(times_ms),
                median_ms=statistics.median(times_ms) if times_ms else None,
                timeouts=timeouts,
            )


def write_csv(records, out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")
