import io

from qfdef import BenchConfig, bench
from qfdef.bench import CSV_HEADER, derive_seed, make_instance, write_csv


def test_single_sample_rows():
    config = BenchConfig(family="abelian-group", sizes=(4,), samples=1, seed=5)
    records = list(bench(config))
    assert [r.strategy for r in records] == ["merging", "splitting"]
    for r in records:
        assert r.family == "abelian-group" and r.size == 4
        assert r.samples == 1 and r.timeouts == 0
        assert r.median_ms is not None and r.median_ms > 0


def test_csv_schema():
    config = BenchConfig(family="random", sizes=(3,), samples=2, seed=1)
    out = io.StringIO()
    write_csv(bench(config), out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        family, size, strategy, samples, median_ms, timeouts = line.split(",")
        assert family == "random" and size == "3"
        assert strategy in ("merging", "splitting")
        assert int(samples) == 2 and int(timeouts) == 0
        float(median_ms)


def test_instances_are_seed_deterministic():
    config = BenchConfig(family="random", sizes=(4,), samples=2, seed=9)
    a1, r1 = make_instance(config, 4, 1)
    a2, r2 = make_instance(config, 4, 1)
    assert [o.table for o in a1.ops] == [o.table for o in a2.ops]
    assert r1 == r2
    _, r3 = make_instance(config, 4, 0)
    assert derive_seed(9, "random", 4, 1, "alg") != derive_seed(9, "random", 4, 0, "alg")


def test_timeouts_recorded_not_fatal():
    config = BenchConfig(
        family="random", sizes=(4,), samples=2, seed=2, time_budget=0.0
    )
    records = list(bench(config))
    for r in records:
        assert r.timeouts == 2 and r.samples == 0
        assert r.median_ms is None
        assert r.csv_row().endswith(",2")


def test_graph_star_family_runs():
    config = BenchConfig(
        family="graph-star", sizes=(3,), samples=1, seed=3, strategies=("splitting",)
    )
    (record,) = list(bench(config))
    assert record.samples == 1
