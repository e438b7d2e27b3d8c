import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qfdef import (
    Algebra,
    Definable,
    Relation,
    check_decision,
    diamond_lattice,
    gen_abelian_group,
    gen_boolean_algebra,
    load_algebra,
    parse_formula,
    save_algebra,
    save_relation,
)
from qfdef.cli import build_parser, main
from qfdef.graph import Graph
from qfdef.io import algebra_to_json, save_graph

from conftest import DIAMOND_LEQ


@pytest.fixture
def diamond_files(tmp_path):
    alg_path = tmp_path / "diamond.json"
    save_algebra(diamond_lattice(), str(alg_path))
    order_path = tmp_path / "order.json"
    save_relation(Relation(2, DIAMOND_LEQ), str(order_path))
    rprime_path = tmp_path / "rprime.json"
    save_relation(Relation.of(2, [(0, 1), (0, 2), (0, 3)]), str(rprime_path))
    return str(alg_path), str(order_path), str(rprime_path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("strategy", ["merging", "splitting"])
def test_decide_definable_exit_zero(capsys, diamond_files, strategy):
    alg, order, _ = diamond_files
    code, out = run(
        capsys, ["decide", "--strategy", strategy, "--algebra", alg, "--relation", order]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["definable"] is True
    if strategy == "splitting":
        assert "formula" in doc
        assert list(doc["stats"]) == ["blocks_created", "steps", "refills", "full_blocks", "max_depth"]
        assert all(type(v) is int for v in doc["stats"].values())


@pytest.mark.parametrize("strategy", ["merging", "splitting"])
def test_decide_not_definable_exit_one(capsys, diamond_files, strategy):
    alg, _, rprime = diamond_files
    code, out = run(
        capsys, ["decide", "--strategy", strategy, "--algebra", alg, "--relation", rprime]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["definable"] is False
    assert doc["witness_in"] != doc["witness_out"]
    assert set(doc["gamma"]) == {"domain", "image"}


def test_decide_emit_formula(capsys, diamond_files, tmp_path):
    alg, order, _ = diamond_files
    out_path = tmp_path / "phi.qf"
    code, out = run(
        capsys,
        [
            "decide", "--strategy", "splitting", "--algebra", alg,
            "--relation", order, "--emit-formula", str(out_path),
        ],
    )
    assert code == 0
    from qfdef import extension, parse_formula

    phi = parse_formula(out_path.read_text().strip())
    assert extension(diamond_lattice(), phi, 2).tuples == DIAMOND_LEQ


def test_isotype_matches_canonical_partition(capsys, diamond_files):
    alg, _, _ = diamond_files
    code, out = run(capsys, ["isotype", "--algebra", alg, "--tuple", "u,u',⊥"])
    assert code == 0
    doc = json.loads(out)
    assert doc["partition"] == [
        [0, 3, 12, 14, 18, 21, 24],
        [1, 7, 16, 17, 19, 22, 25],
        [2, 4, 5, 6, 8, 9, 10, 11, 20, 23, 26],
        [13, 15, 27, 28, 29, 30, 31, 32, 33, 34],
    ]
    assert doc["universe"] == ["u", "u'", "⊥", "⊤"]


@pytest.mark.parametrize("text,index", [("1,,2", 1), ("1,2,", 2), (",1", 0)])
def test_isotype_rejects_an_empty_tuple_entry(capsys, diamond_files, text, index):
    alg, _, _ = diamond_files
    code = main(["isotype", "--algebra", alg, "--tuple", text])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(f"error: empty entry at index {index} of tuple {text!r}")


def test_isotype_allows_spaces_around_tuple_entries(capsys, diamond_files):
    alg, _, _ = diamond_files
    assert run(capsys, ["isotype", "--algebra", alg, "--tuple", " 1, 2"]) == run(
        capsys, ["isotype", "--algebra", alg, "--tuple", "1,2"]
    )


@pytest.mark.parametrize("text", ["1_0,3", "٣,1", "+1,2"])
def test_isotype_rejects_an_entry_that_is_not_ascii_decimal(capsys, tmp_path, text):
    # int() reads "1_0" as 10, the Arabic-Indic digit "٣" as 3 and "+1" as 1
    alg_path = tmp_path / "g16.json"
    save_algebra(gen_abelian_group([4, 4]), str(alg_path))
    code = main(["isotype", "--algebra", str(alg_path), "--tuple", text])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith(f"error: unknown element name {text.split(',')[0]!r}")


def test_isotype_trace_includes_terms(capsys, diamond_files):
    alg, _, _ = diamond_files
    code, out = run(capsys, ["isotype", "--algebra", alg, "--tuple", "1,2,0", "--trace"])
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"][:4] == ["x0", "x1", "x2", "meet(x0,x0)"]


def test_decompose(capsys, diamond_files):
    _, order, _ = diamond_files
    code, out = run(capsys, ["decompose", "--relation", order])
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 2 and doc["spec"] == [1, 2]
    assert doc["targets"][0]["pattern"] == [[0, 1]]


def test_oracle_cli(capsys, diamond_files):
    alg, order, rprime = diamond_files
    assert run(capsys, ["oracle", "--algebra", alg, "--relation", order])[0] == 0
    assert run(capsys, ["oracle", "--algebra", alg, "--relation", rprime])[0] == 1


def test_oracle_budget_exit_code(capsys, diamond_files):
    alg, order, _ = diamond_files
    code, _ = run(capsys, ["oracle", "--algebra", alg, "--relation", order, "--budget", "5"])
    assert code == 3


def test_oracle_rejects_a_negative_budget(diamond_files):
    alg, order, _ = diamond_files
    proc = _run_cli(["oracle", "--algebra", alg, "--relation", order, "--budget", "-1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_gen_group_and_decide_round_trip(capsys, tmp_path):
    alg_path = tmp_path / "g.json"
    code, _ = run(capsys, ["gen", "group", "--factors", "2,2", "--out", str(alg_path)])
    assert code == 0
    phi_path = tmp_path / "phi.qf"
    rel_path = tmp_path / "rel.json"
    code, _ = run(
        capsys,
        [
            "--seed", "4", "gen", "formula", "--algebra", str(alg_path), "--arity", "2",
            "--out", str(phi_path), "--extension-out", str(rel_path),
        ],
    )
    assert code == 0
    code, out = run(
        capsys,
        ["decide", "--strategy", "splitting", "--algebra", str(alg_path), "--relation", str(rel_path)],
    )
    assert code == 0
    assert json.loads(out)["definable"] is True


def test_gen_graph_star(capsys, tmp_path):
    graph_path = tmp_path / "graph.json"
    save_graph(Graph.of(2, [(0, 1)]), str(graph_path))
    out_path = tmp_path / "star.json"
    code, out = run(capsys, ["gen", "graph-star", "--graph", str(graph_path), "--out", str(out_path)])
    assert code == 0
    assert json.loads(out) == {"zero": 2, "one": 3}
    from qfdef import load_algebra

    star = load_algebra(str(out_path))
    assert star.size == 4


@pytest.mark.parametrize("vertices", ['"3"', "-1", "2.0", "true", "null"])
def test_gen_graph_star_rejects_a_malformed_vertex_count(tmp_path, vertices):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"vertices": %s, "edges": []}' % vertices)
    proc = _run_cli(["gen", "graph-star", "--graph", str(graph_path), "--out", str(tmp_path / "star.json")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("edges", ["[[0.5, 1]]", "[[true, 2]]", "[[0, 1.0]]"])
def test_gen_graph_star_rejects_a_non_integer_vertex_id(tmp_path, edges):
    # 0.5 would drop its edge silently and true would read as vertex 1
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"vertices": 3, "edges": %s}' % edges)
    proc = _run_cli(["gen", "graph-star", "--graph", str(graph_path), "--out", str(tmp_path / "star.json")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_usage_error_exit_code(capsys, tmp_path):
    code, _ = run(capsys, ["decide", "--strategy", "merging", "--algebra", "missing.json", "--relation", "missing.json"])
    assert code == 2


def test_global_flags_after_subcommand(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["--seed", "9", "gen", "random", "--size", "3", "--out", str(out_a)]) == 0
    assert main(["gen", "random", "--size", "3", "--out", str(out_b), "--seed", "9"]) == 0
    from qfdef import load_algebra

    assert load_algebra(str(out_a)).op("f").table == load_algebra(str(out_b)).op("f").table


def test_decide_rejects_unknown_flags(diamond_files):
    alg, order, _ = diamond_files
    argv = ["decide", "--strategy", "merging", "--algebra", alg, "--relation", order]
    for flags in (["--time-budget", "1"], ["--json"], ["--seed", "1"]):
        proc = _run_cli([*argv, *flags])
        assert proc.returncode == 2, flags
        assert "Traceback" not in proc.stderr
    assert _run_cli(["--time-budget", "1", *argv]).returncode == 2
    # the removed `bench` subcommand is a usage error like any unknown one
    proc = _run_cli(["bench", "--family", "random"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("qfdef ")]
    assert lines
    for argv in lines:
        build_parser().parse_args(argv[1:])


def test_decide_trace_and_invariants(capsys, diamond_files):
    alg, order, rprime = diamond_files
    code = main(
        [
            "decide", "--strategy", "merging", "--algebra", alg, "--relation", order,
            "--trace", "--check-invariants",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "pop" in captured.err
    # R' is not definable: each strategy traces the event that refutes it
    for strategy, event in (("merging", "conflict at"), ("splitting", "terminal mixed block")):
        code = main(
            [
                "decide", "--strategy", strategy, "--algebra", alg, "--relation", rprime,
                "--trace", "--check-invariants",
            ]
        )
        assert code == 1, strategy
        assert event in capsys.readouterr().err, strategy


def _run_cli(argv):
    """The CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-m", "qfdef.cli", *argv], capture_output=True, text=True, env=env
    )


def test_decide_rejects_non_integer_tuple_entry(diamond_files, tmp_path):
    alg, _, _ = diamond_files
    rel_path = tmp_path / "string_entry.json"
    rel_path.write_text(json.dumps({"arity": 2, "tuples": [[0, "1"]]}))
    proc = _run_cli(["decide", "--strategy", "merging", "--algebra", alg, "--relation", str(rel_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("entry", ["true", "1.0"])
def test_decide_rejects_non_integer_table_entry(tmp_path, entry):
    alg_path = tmp_path / "bad_table.json"
    alg_path.write_text('{"size": 2, "operations": {"f": {"arity": 1, "table": [0, %s]}}}' % entry)
    rel_path = tmp_path / "r.json"
    save_relation(Relation.of(2, [(0, 1)]), str(rel_path))
    argv = ["decide", "--strategy", "splitting", "--algebra", str(alg_path), "--relation", str(rel_path)]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("elements", ["5", '"ab"', "[0, 1]"])
def test_decide_rejects_malformed_elements(tmp_path, elements):
    alg_path = tmp_path / "bad_elements.json"
    alg_path.write_text('{"size": 2, "elements": %s, "operations": {"f": {"arity": 1, "table": [0, 1]}}}' % elements)
    rel_path = tmp_path / "r.json"
    save_relation(Relation.of(2, [(0, 1)]), str(rel_path))
    argv = ["decide", "--strategy", "merging", "--algebra", str(alg_path), "--relation", str(rel_path)]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_python_dash_m_runs_the_cli(capsys, diamond_files):
    alg, _, _ = diamond_files
    argv = ["isotype", "--algebra", alg, "--tuple", "u,u',⊥"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "qfdef", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == run(capsys, argv)[1]


def test_gen_random_rejects_a_symbol_that_reads_as_a_variable(tmp_path):
    proc = _run_cli(["gen", "random", "--size", "3", "--signature", "x1:1", "--out", str(tmp_path / "a.json")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "'x1'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("signature", ["f:²", "f:٢"])
def test_gen_random_rejects_an_arity_that_is_not_ascii_decimal(capsys, tmp_path, signature):
    # both pass str.isdigit(): int() rejects the superscript and reads "٢" as 2
    code = main(["gen", "random", "--size", "3", "--signature", signature, "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad signature entry {signature!r}")


def test_an_odd_legal_symbol_round_trips_through_the_printed_formula(capsys, tmp_path):
    # f' swaps 0 and 1 and fixes 2, so {(0, 1), (1, 0)} is the extension of f'(x0)=x1
    alg = Algebra(3, [("f'", 1, [1, 0, 2])])
    rel = Relation.of(2, [(0, 1), (1, 0)])
    alg_path, rel_path = tmp_path / "a.json", tmp_path / "r.json"
    save_algebra(alg, str(alg_path))
    save_relation(rel, str(rel_path))
    code, out = run(capsys, ["decide", "--strategy", "splitting", "--algebra", str(alg_path), "--relation", str(rel_path)])
    assert code == 0
    text = json.loads(out)["formula"]
    assert "f'(" in text
    check_decision(alg, rel, Definable(parse_formula(text)))


@pytest.mark.parametrize("strategy", ["merging", "splitting"])
def test_decide_out_of_memory_exits_4(capsys, diamond_files, monkeypatch, strategy):
    # 1 would read as "not definable"
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qfdef.cli.merging_decide", exhausted)
    monkeypatch.setattr("qfdef.cli.splitting_decide", exhausted)
    alg, order, _ = diamond_files
    assert main(["decide", "--strategy", strategy, "--algebra", alg, "--relation", order]) == 4
    assert capsys.readouterr().err.startswith("error: out of memory")


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (["gen", "group", "--factors", "2,٤", "--out", "OUT"], "--factors", "٤"),
        (["gen", "random", "--size", "1_0", "--signature", "f:1", "--out", "OUT"], "--size", "1_0"),
        (["--seed", " 3", "gen", "random", "--size", "3", "--out", "OUT"], "--seed", " 3"),
        (["gen", "random", "--size", "3", "--out", "OUT", "--seed", "+3"], "--seed", "+3"),
        (["gen", "bool", "--atoms", "²", "--out", "OUT"], "--atoms", "²"),
        (["gen", "formula", "--algebra", "ALG", "--arity", "٢", "--out", "OUT"], "--arity", "٢"),
        (["gen", "formula", "--algebra", "ALG", "--arity", "2", "--depth", "1_0", "--out", "OUT"], "--depth", "1_0"),
        (["gen", "formula", "--algebra", "ALG", "--arity", "2", "--atoms", "8 ", "--out", "OUT"], "--atoms", "8 "),
        (["oracle", "--algebra", "ALG", "--relation", "REL", "--budget", "1_000"], "--budget", "1_000"),
        (["--seed", "-", "decompose", "--relation", "REL"], "--seed", "-"),
    ],
)
def test_integer_options_read_ascii_decimals_only(capsys, diamond_files, tmp_path, argv, option, value):
    # int() reads each of these values, so each used to pass
    alg, order, _ = diamond_files
    paths = {"ALG": alg, "REL": order, "OUT": str(tmp_path / "out")}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: {option} must be a decimal integer, got {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_gen_bool_writes_the_boolean_algebra(capsys, tmp_path):
    path = tmp_path / "b8.json"
    assert main(["gen", "bool", "--atoms", "3", "--out", str(path)]) == 0
    assert algebra_to_json(load_algebra(str(path))) == algebra_to_json(gen_boolean_algebra(3))


def test_isotype_rejects_an_empty_tuple(capsys, diamond_files):
    alg, _, _ = diamond_files
    code = main(["isotype", "--algebra", alg, "--tuple", ""])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: empty tuple\n"


@pytest.mark.parametrize(
    "doc",
    [
        '{"size": 4, "operations": {"f": {"arity": 18446744073709551616, "table": [0, 1, 2, 3]}}}',
        '{"size": 1000000000000000000000000000000, "operations": {"c": {"arity": 0, "table": [0]}}}',
    ],
    ids=["huge-arity", "huge-size"],
)
def test_decide_refuses_an_algebra_of_huge_numbers(tmp_path, doc):
    alg_path = tmp_path / "huge.json"
    alg_path.write_text(doc)
    rel_path = tmp_path / "r.json"
    save_relation(Relation.of(1, [(0,)]), str(rel_path))
    proc = _run_cli(["decide", "--strategy", "merging", "--algebra", str(alg_path), "--relation", str(rel_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
