import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from omex import (BipartiteGraph, OfflineParams,
                  construct_verified_offline_graph, counterexample_graph,
                  layered, load, online_strategy_exists, optimal_degree_pow2,
                  random_extractor_search, random_offline_graph, save)
from omex.cli import main

from conftest import uniform_view

from oracles import naive_hazard_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def cx_path(tmp_path):
    path = tmp_path / "cx.json"
    save(counterexample_graph(), path)
    return str(path)


def test_hall_on_counterexample_ok(capsys, cx_path):
    code, report = run_json(capsys, "offline", "hall", "--graph", cx_path,
                            "--s", "2")
    assert code == 0
    assert report["outcome"] == {"ok": True, "witness": None}
    assert report["params"]["jobs"] == 1   # --jobs is still echoed


def test_hall_witness_gives_exit_1(capsys, cx_path):
    code, report = run_json(capsys, "offline", "hall", "--graph", cx_path,
                            "--s", "3")
    assert code == 1
    assert report["outcome"]["witness"] == [0, 1, 2]


@pytest.mark.parametrize("s", ["0", "-1"])
def test_hall_s_below_one_is_failure(capsys, cx_path, s):
    code, report = run_json(capsys, "offline", "hall", "--graph", cx_path,
                            "--s", s)
    assert code == 1
    assert "s_max >= 1" in report["outcome"]["error"]
    # the game takes the same count and refuses it the same way
    for extra in ([], ["--tree"]):
        code, report = run_json(capsys, "online", "game", "--graph", cx_path,
                                "--s", s, *extra)
        assert code == 1
        assert report["outcome"] == {"error": f"need s >= 1, got {s}"}


def test_game_counterexample_exit_1(capsys, cx_path):
    code, report = run_json(capsys, "online", "game", "--graph", cx_path,
                            "--s", "2")
    assert code == 1
    assert report["outcome"]["exists"] is False


def test_game_tree_included_on_request(capsys, cx_path):
    code, report = run_json(capsys, "online", "game", "--graph", cx_path,
                            "--s", "1", "--tree")
    assert code == 0
    assert set(report["outcome"]["strategy"]) == {"0", "1", "2"}


@pytest.fixture
def game_graph(tmp_path):
    """A random (4, 2, 1) graph: 16 left vertices of degree 4."""
    path = tmp_path / "game.json"
    save(random_offline_graph(OfflineParams(4, 2, 1), 1), path)
    return str(path)


def test_game_tree_keys_sort_as_integers(capsys, game_graph):
    # 16 left vertices: keys 0..15 sort as numbers, not as strings
    code, out = run(capsys, "online", "game", "--graph", game_graph, "--s", "2",
                    "--tree")
    assert code == 0
    strategy = online_strategy_exists(load(game_graph), 2).strategy
    assert json.dumps(strategy, sort_keys=True) in out


def test_game_tree_is_charged_to_game_nodes(capsys, game_graph, monkeypatch):
    # at s = 3 the game takes 142 nodes; its printed tree has 3,616 entries
    monkeypatch.setenv("OMEX_LIMITS", "game_nodes=1000")
    argv = ("online", "game", "--graph", game_graph, "--s", "3")
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["outcome"] == {"exists": True, "nodes": 142}
    code, report = run_json(capsys, *argv, "--tree")
    assert code == 1
    assert report["outcome"] == {
        "error": "strategy tree exceeds 1000 entries"}


def test_game_deeper_than_the_interpreter_stack_is_decided(capsys, tmp_path):
    # a chain of 2,049 moves whose last request finds its one neighbor used
    path = tmp_path / "chain.json"
    save(BipartiteGraph(12, 2048, 1,
                        tuple((v,) for v in range(2048)) + ((0,),)), path)
    code, report = run_json(capsys, "online", "game", "--graph", str(path),
                            "--s", "2049")
    assert code == 1
    assert report["outcome"] == {"exists": False, "nodes": 2049}


def test_usage_error_exit_2(capsys):
    assert main(["offline", "hall", "--nope"]) == 2
    assert main(["bogus"]) == 2


def test_randomized_command_requires_seed(capsys):
    assert main(["offline", "gen", "--n", "2", "--k", "1"]) == 2


def test_sampled_check_requires_seed(capsys, tmp_path):
    view_path = str(tmp_path / "v.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "1", "--m", "1",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    assert main(["ext", "check", "--graph", view_path, "--samples", "5"]) == 2


def test_fp_flavor_flag_combinations_are_usage_errors(capsys, tmp_path):
    set_path = tmp_path / "s.json"
    set_path.write_text('{"label":"b","k":1,"elements":[0]}\n')
    assert main(["fp", "encode", "--flavor", "match", "--set", str(set_path),
                 "--target", "0"]) == 2
    assert main(["fp", "encode", "--flavor", "ext", "--set", str(set_path),
                 "--target", "0"]) == 2
    assert main(["fp", "encode", "--flavor", "two", "--views", "a", "b",
                 "--set", str(set_path), "--target", "0"]) == 2
    capsys.readouterr()
    assert main(["fp", "encode", "--flavor", "two", "--views", "a",
                 "--set", str(set_path), "--target", "0"]) == 2
    assert "needs --set2" in capsys.readouterr().err


def test_missing_file_is_failure_not_crash(capsys):
    code, report = run_json(capsys, "offline", "hall", "--graph",
                            "/nonexistent.json", "--s", "2")
    assert code == 1
    assert "error" in report["outcome"]


@pytest.mark.parametrize("argv", [
    ["offline", "bound", "--n", "3", "--k", "1"],     # flushed at exit
    ["--csv", "demo", "lemma1", "--n", "4", "--k", "2", "--eps", "1/2",
     "--seed", "7"],                                  # more than one buffer
])
def test_a_closed_pipe_ends_without_a_traceback(argv):
    # the reader is gone before the report is written, as after `| head`
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "omex.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


def test_report_bytes_deterministic(capsys):
    _, first = run(capsys, "demo", "counterexample")
    _, second = run(capsys, "demo", "counterexample")
    assert first == second


def test_timing_flag_adds_field(capsys):
    code, report = run_json(capsys, "--timing", "demo", "counterexample")
    assert code == 0
    assert "timing_s" in report


def csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def test_csv_output(capsys, cx_path):
    code, out = run(capsys, "--csv", "offline", "hall", "--graph", cx_path,
                    "--s", "2")
    assert code == 0
    assert "outcome.ok,True" in out
    # a list becomes one field of ;-separated items
    code, out = run(capsys, "--csv", "offline", "hall", "--graph", cx_path,
                    "--s", "3")
    assert code == 1
    assert csv_rows(out) == [["outcome.ok", "False"],
                             ["outcome.witness", "0;1;2"]]


def test_csv_rows_become_table(capsys):
    code, out = run(capsys, "--csv", "demo", "lemma1", "--n", "3", "--k", "1",
                    "--eps", "1/2", "--seed", "7")
    assert code == 0
    header, *rows = csv_rows(out)
    assert "dangerous" in header and "S" in header
    assert rows and all(len(row) == len(header) for row in rows)


def test_gen_then_hall_pipeline(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, report = run_json(capsys, "offline", "gen", "--n", "2", "--k", "1",
                            "--seed", "7", "--out", out_path)
    assert code == 0
    assert report["outcome"]["attempts"] >= 1
    assert report["outcome"]["series_bound"] == "9/64"
    code, report = run_json(capsys, "offline", "hall", "--graph", out_path,
                            "--s", "2")
    assert code == 0 and report["outcome"]["ok"]


def test_gen_no_verify(capsys, tmp_path):
    out_path = str(tmp_path / "g.json")
    code, report = run_json(capsys, "offline", "gen", "--n", "2", "--k", "1",
                            "--seed", "7", "--out", out_path, "--no-verify")
    assert code == 0
    assert report["outcome"]["verified"] is False


@pytest.mark.parametrize("extra", [[], ["--no-verify"]])
def test_gen_draws_are_charged_to_gen_edges(capsys, monkeypatch, extra):
    # 16 left vertices of 16 draws each, verified or not
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=10")
    code, report = run_json(capsys, "offline", "gen", "--n", "4", "--k", "1",
                            "--seed", "1", *extra)
    assert code == 1
    assert report["outcome"] == {"error": "256 edge draws exceed limit 10"}


def test_ext_search_draws_are_charged_to_gen_edges(capsys, monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=127")
    code, report = run_json(capsys, "ext", "search", "--n", "3", "--k", "1",
                            "--m", "1", "--d", "4", "--eps", "1/2",
                            "--seed", "5")
    assert code == 1
    assert report["outcome"] == {"error": "128 edge draws exceed limit 127"}


def test_gen_error_report_leaves_no_file(capsys, tmp_path):
    # the graph draws fine, but its exact series bound is past the
    # int-to-str digit limit: the command fails before writing anything
    out_path = tmp_path / "g.json"
    code, report = run_json(capsys, "offline", "gen", "--n", "8", "--k", "8",
                            "--seed", "1", "--no-verify",
                            "--out", str(out_path))
    assert code == 1
    assert "integer string conversion" in report["outcome"]["error"]
    assert not out_path.exists()


def test_online_run_stream(capsys, tmp_path, cx_path):
    req = tmp_path / "req.txt"
    req.write_text("0\n1\n")
    code, report = run_json(capsys, "online", "run", "--graph", cx_path,
                            "--layers", "2", "--requests", str(req))
    assert code == 0
    assert report["outcome"]["rejections"] == []
    assert len(report["outcome"]["matched"]) == 2


def test_online_run_reads_stdin_and_reports_an_audit_violation(
        capsys, tmp_path, monkeypatch):
    # four copies of one right vertex serve four requests, one each, yet
    # layer 0 forwarded 3 of the 4 it saw
    path = tmp_path / "funnel.json"
    save(BipartiteGraph(2, 1, 1, ((0,), (0,), (0,), (0,))), path)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n1\n2\n3\n"))
    code, report = run_json(capsys, "online", "run", "--graph", str(path),
                            "--layers", "4", "--requests", "-")
    assert code == 1
    assert report["outcome"]["rejections"] == []
    assert report["outcome"]["audit"] == (
        "layer 0: 3 forwarded past it, more than half of the 4 that reached it")


def test_online_run_reports_rejection(capsys, tmp_path, cx_path):
    req = tmp_path / "req.txt"
    req.write_text("0\n1\n")
    code, report = run_json(capsys, "online", "run", "--graph", cx_path,
                            "--layers", "1", "--requests", str(req))
    assert code == 1
    assert report["outcome"]["rejections"] == [1]


@pytest.mark.parametrize("requests", ["", "0\n"])
def test_online_run_negative_capacity_is_failure(capsys, tmp_path, cx_path,
                                                 requests):
    req = tmp_path / "req.txt"
    req.write_text(requests)
    code, report = run_json(capsys, "online", "run", "--graph", cx_path,
                            "--requests", str(req), "--capacity", "-1")
    assert code == 1
    assert report["outcome"] == {"error": "need capacity >= 0, got -1"}


@pytest.mark.parametrize("bad", ["99", "-1", "3"])
def test_online_run_bad_request_is_failure_not_crash(capsys, tmp_path,
                                                    cx_path, bad):
    req = tmp_path / "req.txt"
    req.write_text(f"0\n{bad}\n")
    code = main(["online", "run", "--graph", cx_path, "--layers", "2",
                 "--requests", str(req)])
    captured = capsys.readouterr()
    assert code == 1
    assert "not in [0, 3)" in json.loads(captured.out)["outcome"]["error"]
    assert captured.err == ""


def test_online_run_layers_are_charged_to_gen_edges(capsys, tmp_path,
                                                   cx_path, monkeypatch):
    # 3 left vertices of degree 2 over 2 copies: 12 layered edges
    req = tmp_path / "req.txt"
    req.write_text("0\n1\n")
    argv = ("online", "run", "--graph", cx_path, "--layers", "2",
            "--requests", str(req))
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=11")
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["outcome"]["error"] == "12 layered edges exceed limit 11"
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=12")
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["outcome"]["rejections"] == []
    # a count of over 4,300 digits is named by its size, not formatted
    code, report = run_json(capsys, *argv[:-3], "1" * 4299, *argv[-2:])
    assert code == 1
    assert report["outcome"]["error"].startswith("at least 2^")


@pytest.mark.parametrize("argv, error", [
    (["offline", "bound", "--n", "2", "--k", "10", "--c", "1"],
     "too large for a float"),
    (["offline", "bound", "--n", "6", "--k", "10"], "integer string conversion"),
    (["offline", "bound", "--n", "6", "--k", "12"], "integer string conversion"),
    (["offline", "gen", "--n", "8", "--k", "8", "--seed", "1", "--no-verify"],
     "integer string conversion"),
    (["offline", "bound", "--n", "2", "--k", "-1"], "need k >= 0"),
    (["offline", "bound", "--n", "2", "--k", "1", "--c", "-1"], "need c >= 1"),
    (["offline", "bound", "--n", "2", "--k", "1", "--c", "0"], "need c >= 1"),
    (["online", "run", "--graph", "CX", "--layers", "100000000",
      "--requests", "-"], "layered edges exceed limit"),
    # refused from the size of series_base alone, before x^(2^k) is taken
    (["offline", "bound", "--n", "6", "--k", "6", "--c", "6"],
     "integer string conversion"),
    (["offline", "bound", "--n", "4", "--k", "0", "--c", "8"],
     "integer string conversion"),
    # refused from an estimate of series_base's size, before it is built;
    # an invalid n is still named first
    (["offline", "bound", "--n", "6", "--k", "0", "--c", "7"],
     "integer string conversion"),
    (["offline", "bound", "--n", "2", "--k", "0", "--c", "1000000"],
     "integer string conversion"),
    (["offline", "bound", "--n", "1", "--k", "0", "--c", "1000000"],
     "needs n >= 2"),
    (["online", "run", "--graph", "CX", "--layers", "0", "--requests", "-"],
     "need at least one copy"),
])
def test_unrenderable_or_oversized_is_one_error_report(capsys, cx_path, argv,
                                                       error):
    argv = [cx_path if a == "CX" else a for a in argv]
    started = time.monotonic()
    code = main(argv)
    assert time.monotonic() - started < 5
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert error in json.loads(captured.out)["outcome"]["error"]


@pytest.mark.parametrize("argv", [
    ["ext", "degree", "--N", "16", "--K", "4", "--M", "16", "--eps", "1/0"],
    ["ext", "pbound", "--n", "4", "--k", "2", "--m", "2", "--d", "4",
     "--eps", "1/0"],
    ["ext", "search", "--n", "3", "--k", "1", "--m", "1", "--d", "4",
     "--eps", "1/0", "--seed", "5"],
    ["ext", "check", "--graph", "g.json", "--K", "2", "--eps", "1/0"],
    ["ext", "hazards", "--graph", "g.json", "--K", "2", "--eps", "1/0",
     "--set", "s.json"],
    ["trev", "decode", "--word", "0110", "--delta", "1/0"],
    ["trev", "decode", "--word", "0110", "--delta", "half"],
    ["demo", "lemma1", "--n", "3", "--k", "1", "--eps", "1/0", "--seed", "1"],
    ["demo", "prefix", "--eps", "1/0", "--seed", "1"],
])
def test_bad_fraction_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "not a fraction" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("file, text, argv, message", [
    pytest.param("set", '{"label":"b","k":1}', ["fp", "encode"],
                 "missing field 'elements'", id="set-no-elements"),
    pytest.param("set", '{"label":"b","k":1,"elements":"ab"}', ["fp", "encode"],
                 "'elements' must be an array", id="set-string-elements"),
    pytest.param("set", '{"label":"b","k":"1","elements":[0]}',
                 ["fp", "encode"], "'k' must be an integer", id="set-string-k"),
    pytest.param("set", '[0, 1]', ["fp", "encode"], "must be an object",
                 id="set-not-object"),
    pytest.param("design", '{"d":8,"sets":[[1,2]]}', ["trev", "eval"],
                 "missing field 'block_size'", id="design-no-block-size"),
    pytest.param("design", '{"d":8,"block_size":2,"sets":[1,2]}',
                 ["trev", "eval"], "'sets' must be an array of integer arrays",
                 id="design-flat-sets"),
    pytest.param("fingerprint", '{"flavor":"matching","payload_bits":3,'
                 '"neighbor_ordinal":0,"neighbor_bits":2}', ["fp", "decode"],
                 "missing field 'right_index'", id="fingerprint-no-right-index"),
    pytest.param("fingerprint", '{"payload_bits":3}', ["fp", "decode"],
                 "missing field 'flavor'", id="fingerprint-no-flavor"),
    pytest.param("fingerprint", '{"flavor":"extractor","layer":0,'
                 '"right_index":1.5,"ordinal":0,"payload_bits":1,'
                 '"layer_bits":0,"ordinal_bound":4,"ordinal_bits":2}',
                 ["fp", "decode"], "'right_index' must be an integer",
                 id="fingerprint-float-field"),
    pytest.param("fingerprint", '{"flavor":"two-condition","p":0,"q":0,'
                 '"bound":1,"second_bound":0,"payload_bits":2,'
                 '"prefix_bits":1,"ordinal_b":0,"ordinal_c":0}',
                 ["fp", "decode"], "not --flavor match",
                 id="fingerprint-other-flavor"),
    pytest.param("design", '{"d":6,"block_size":3,"sets":[[1,2],[3,4]]}',
                 ["trev", "eval"], "set 1: size violation",
                 id="design-sets-shorter-than-block"),
    pytest.param("design", '{"d":6,"block_size":2,"sets":[[1,1],[2,3]]}',
                 ["trev", "eval"], "set 1: size violation",
                 id="design-repeated-coordinate"),
    pytest.param("design", '{"d":6,"block_size":2,"sets":[[0,1],[2,3]]}',
                 ["trev", "eval"], "set 1: range violation",
                 id="design-coordinate-out-of-range"),
    pytest.param("design", '{"d":4,"block_size":2,"sets":[[1,2],[1,2]]}',
                 ["trev", "eval"], "set 2: intersection_sum violation",
                 id="design-intersections-too-large"),
    pytest.param("design", '{"d":6,"block_size":2,"sets":[]}',
                 ["trev", "eval"], "at least one set", id="design-empty"),
    *(pytest.param("graph", json.dumps({"n": 1, "right_size": 2,
                                        "max_degree": 2,
                                        "neighbors": [[0, 1], [1, 0]],
                                        **bad}),
                   ["fp", "encode"], message, id=f"graph-{id}")
      for bad, message, id in (
          ({"n": -1}, "n_nonnegative: n = -1", "negative-n"),
          ({"right_size": 0}, "right_size_positive: right_size = 0",
           "no-right-vertex"),
          ({"max_degree": -1}, "max_degree_nonnegative: max_degree = -1",
           "negative-degree"))),
    *(pytest.param(file, "not json", argv, "not valid JSON",
                   id=f"{file}-not-json")
      for file, argv in (("graph", ["fp", "encode"]), ("set", ["fp", "encode"]),
                         ("design", ["trev", "eval"]),
                         ("fingerprint", ["fp", "decode"]),
                         ("view", ["ext", "check"]))),
])
def test_malformed_input_file_is_failure_not_crash(capsys, tmp_path, cx_path,
                                                   file, text, argv, message):
    files = {"set": '{"label":"b","k":1,"elements":[0,1]}',
             "design": '{"d":8,"block_size":2,"sets":[[1,2],[3,4]]}',
             "fingerprint": '{"flavor":"matching","right_index":0,'
                            '"payload_bits":3,"neighbor_ordinal":0,'
                            '"neighbor_bits":2}',
             "view": '{"n":1,"right_size":2,"max_degree":2,'
                     '"neighbors":[[0,1],[1,0]],"K":2,"eps":"1/2"}', file: text}
    paths = {"graph": cx_path}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(body)
    extra = {
        ("fp", "encode"): ["--flavor", "match", "--graph", str(paths["graph"]),
                           "--set", str(paths["set"]), "--target", "0"],
        ("fp", "decode"): ["--flavor", "match", "--graph", str(paths["graph"]),
                           "--set", str(paths["set"]),
                           "--fingerprint", str(paths["fingerprint"])],
        ("trev", "eval"): ["--u", "01", "--y", "00000001",
                           "--design", str(paths["design"])],
        ("ext", "check"): ["--graph", str(paths["view"])],
    }[tuple(argv)]
    code = main([*argv, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert message in json.loads(captured.out)["outcome"]["error"]
    assert captured.err == ""


def test_online_layered_refuses_bad_base(capsys, tmp_path, cx_path):
    code, report = run_json(capsys, "online", "layered", "--graph", cx_path,
                            "--k", "2")
    assert code == 1
    assert "hall_check" in report["outcome"]["error"]


def test_online_sweep_reports_counters(capsys, tmp_path, cx_path):
    path, out_path = tmp_path / "base.json", tmp_path / "stack.json"
    base = construct_verified_offline_graph(OfflineParams(3, 2, 1), 7)[0]
    save(base, path)
    code, report = run_json(capsys, "online", "sweep", "--graph", str(path),
                            "--k", "2")
    assert code == 0
    assert report["outcome"] == {
        "ok": True, "sequences": 2080, "visited": 64, "memo_hits": 0,
        "certified": 56, "first_rejection": None,
        "first_audit_violation": None}
    # the stack it swept, as `online layered` writes it
    code, report = run_json(capsys, "online", "layered", "--graph", str(path),
                            "--k", "2", "--out", str(out_path))
    assert code == 0
    assert report["outcome"] == {
        "ok": True, "copies": 3, "right_size": 3 * base.right_size,
        "max_degree": 3 * base.max_degree, "out": str(out_path)}
    assert load(out_path) == layered(base, 2).graph
    # the base is checked as by `online layered`
    code, report = run_json(capsys, "online", "sweep", "--graph", cx_path,
                            "--k", "2")
    assert code == 1
    assert "hall_check" in report["outcome"]["error"]


def test_online_sweep_of_a_graph_with_no_left_vertex(capsys, tmp_path):
    path = tmp_path / "empty.json"
    save(BipartiteGraph(0, 1, 1, ()), path)
    code, report = run_json(capsys, "online", "sweep", "--graph", str(path),
                            "--k", "0")
    assert code == 0
    assert report["outcome"]["sequences"] == 0


def test_online_game_of_a_graph_with_no_left_vertex(capsys, tmp_path):
    path = tmp_path / "empty.json"
    save(BipartiteGraph(0, 1, 1, ()), path)
    code, report = run_json(capsys, "online", "game", "--graph", str(path),
                            "--s", "1", "--tree")
    assert code == 0
    assert report["outcome"] == {"exists": True, "nodes": 1, "strategy": {}}


def test_online_layered_negative_k_is_failure(capsys, cx_path):
    code, report = run_json(capsys, "online", "layered", "--graph", cx_path,
                            "--k", "-1")
    assert code == 1
    assert "k >= 0, got k = -1" in report["outcome"]["error"]


@pytest.mark.parametrize("argv", [
    ["online", "layered", "--graph", "CX", "--k", "20000"],
    ["fp", "encode", "--flavor", "match", "--graph", "CX", "--set", "SET",
     "--target", "0"],
    ["fp", "decode", "--flavor", "match", "--graph", "CX", "--set", "SET",
     "--fingerprint", "FP"],
])
def test_layered_k_above_n_names_k_and_n(capsys, tmp_path, cx_path, argv):
    # the counterexample graph has n = 2; 2^20000 has 6,021 digits, past
    # Python's 4,300-digit limit on int-to-str conversion
    paths = {"CX": cx_path, "SET": str(tmp_path / "s.json"),
             "FP": str(tmp_path / "fp.json")}
    (tmp_path / "s.json").write_text('{"label":"b","k":20000,"elements":[0]}')
    code, report = run_json(capsys, *[paths.get(a, a) for a in argv])
    assert code == 1
    assert report["outcome"] == {
        "error": "k = 20000 exceeds the base graph's n = 2"}


def test_fp_two_first_bound_above_n_names_k_and_n(capsys, tmp_path):
    view, s_b, s_c = (tmp_path / name for name in ("v.json", "b.json",
                                                    "c.json"))
    save(uniform_view(3, 2, K=4), view)
    s_b.write_text('{"label":"b","k":20000,"elements":[0, 1]}')
    s_c.write_text('{"label":"c","k":1,"elements":[0]}')
    code, report = run_json(capsys, "fp", "encode", "--flavor", "two",
                            "--views", str(view), "--set", str(s_b),
                            "--set2", str(s_c), "--target", "0")
    assert code == 1
    assert report["outcome"] == {
        "error": "first bound k=20000 exceeds the view's n=3"}


def test_ext_search_check_roundtrip(capsys, tmp_path):
    view_path = str(tmp_path / "view.json")
    code, report = run_json(capsys, "ext", "search", "--n", "3", "--k", "1",
                            "--m", "1", "--d", "4", "--eps", "1/2",
                            "--seed", "5", "--out", view_path)
    assert code == 0
    assert report["outcome"]["verdict"] == "ok"
    code, report = run_json(capsys, "ext", "check", "--graph", view_path)
    assert code == 0
    assert report["outcome"]["verdict"] == "ok"
    code, report = run_json(capsys, "ext", "check", "--graph", view_path,
                            "--samples", "20", "--seed", "3")
    assert code == 0
    assert report["outcome"]["verdict"] == "no-counterexample-found"


def test_ext_check_prefix_mode(capsys, tmp_path):
    view_path = str(tmp_path / "pview.json")
    run_json(capsys, "ext", "search", "--n", "4", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--prefix",
             "--out", view_path)
    code, report = run_json(capsys, "ext", "check", "--graph", view_path,
                            "--prefix", "2")
    assert code == 0
    assert [lv["K"] for lv in report["outcome"]["levels"]] == [4, 2, 1]
    # the levels' field holds commas, so CSV quotes it
    code, out = run(capsys, "--csv", "ext", "check", "--graph", view_path,
                    "--prefix", "2")
    (verdict, levels) = csv_rows(out)
    assert verdict == ["outcome.verdict", "ok"]
    assert levels[0] == "outcome.levels" and len(levels) == 2
    assert levels[1].startswith("{'i': 0, 'K': 4, 'verdict': 'ok'")


def test_ext_check_renders_witnesses(capsys, tmp_path):
    # vertex 0 sends both edges to right vertex 0: a witness at K = 1, and
    # at the 1-bit level of the prefix check
    path = tmp_path / "g.json"
    save(BipartiteGraph(2, 4, 2, ((0, 0), (1, 2), (1, 3), (2, 3))), path)
    code, report = run_json(capsys, "ext", "check", "--graph", str(path),
                            "--K", "1", "--eps", "3/8")
    assert code == 1
    assert report["outcome"]["verdict"] == "witness"
    assert report["outcome"]["witness"] == {"S": [0], "deviation": "3/4"}
    code, report = run_json(capsys, "ext", "check", "--graph", str(path),
                            "--K", "2", "--eps", "3/8", "--prefix", "1")
    assert code == 1
    assert [lv["verdict"] for lv in report["outcome"]["levels"]] == [
        "ok", "witness"]
    assert report["outcome"]["witness"] == {"level": 1, "S": [0],
                                            "deviation": "1/2"}


@pytest.mark.parametrize("doc, argv, code, message", [
    pytest.param({}, [], 2,
                 "graph file has no embedded K/eps; pass --K and --eps",
                 id="bare-graph"),
    pytest.param({"K": 8, "eps": "1/2"}, ["--prefix", "3"], 1,
                 "k = 3 exceeds output length m = 2", id="prefix-above-m"),
    pytest.param({"max_degree": 3, "neighbors": [[0, 1, 1]] * 8},
                 ["--K", "2", "--eps", "1/2"], 1,
                 "degree 3 is not a power of 2", id="degree-3"),
])
def test_ext_check_refusals_name_the_fault(capsys, tmp_path, doc, argv, code,
                                           message):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"n": 3, "right_size": 4, "max_degree": 2,
                                "neighbors": [[0, 1], [2, 3]] * 4, **doc}))
    assert main(["ext", "check", "--graph", str(path), *argv]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == f"omex: {message}\n"
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["outcome"] == {"error": message}


@pytest.mark.parametrize("argv", [
    ["offline", "bound", "--n", "2", "--k", "1"],
    ["offline", "gen", "--n", "2", "--k", "1", "--seed", "1"],
])
def test_series_bound_runs_without_the_digit_limit_api(capsys, monkeypatch,
                                                       argv):
    # Python before 3.10.7 has no sys.get_int_max_str_digits
    code, report = run_json(capsys, *argv)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_json(capsys, *argv) == (code, report)
    assert code == 0 and "error" not in report["outcome"]


def test_ext_degree_and_pbound(capsys):
    code, report = run_json(capsys, "ext", "degree", "--N", "16", "--K", "4",
                            "--M", "16", "--eps", "1/2")
    assert code == 0
    assert report["outcome"] == {"raw": 12, "pow2": 16}
    code, report = run_json(capsys, "ext", "pbound", "--n", "4", "--k", "2",
                            "--m", "2", "--d", "4", "--eps", "1/2")
    assert code == 0
    assert 0 < report["outcome"]["bound"] < 1


def test_pbound_on_a_huge_binomial_returns_promptly(capsys):
    # C(2^40, 2^25) has about 10^9 bits; its log is taken without building it
    started = time.monotonic()
    code, report = run_json(capsys, "ext", "pbound", "--n", "40", "--k", "25",
                            "--m", "3", "--d", "6", "--eps", "1/4")
    assert time.monotonic() - started < 5
    assert code == 0
    assert report["outcome"] == {"bound": math.inf, "finite": False}


@pytest.mark.parametrize("n, m, d, bound", [
    ("1000000", "1", "1", math.inf),    # ln C(N, 2) alone is about 1.4e6
    ("3", "1", "5000", 0.0),            # every term underflows
    ("2", "2000", "1", math.inf),       # 2^(M/2^i) is past the float range
])
def test_pbound_works_from_the_exponents(capsys, n, m, d, bound):
    code, report = run_json(capsys, "ext", "pbound", "--n", n, "--k", "1",
                            "--m", m, "--d", d, "--eps", "1/2")
    assert code == 0
    assert report["outcome"] == {"bound": bound,
                                 "finite": math.isfinite(bound)}


def test_lemma_degree_refusal_names_m(capsys):
    code, report = run_json(capsys, "demo", "lemma1", "--n", "3", "--k", "1",
                            "--eps", "1/2", "--seed", "1", "--m", "100000000")
    assert code == 1
    assert report["outcome"]["error"].startswith(
        "M/K is past the float range: M has 100000001 bits")


def test_degree_of_a_tiny_eps_is_an_error_report(capsys):
    code, report = run_json(capsys, "ext", "degree", "--N", "16", "--K", "4",
                            "--M", "16", "--eps", f"1/{10 ** 200}")
    assert code == 1
    assert report["outcome"] == {
        "error": "eps is too small: eps^2 underflows a float"}


@pytest.mark.parametrize("argv, bits", [
    (["offline", "gen", "--n", "100000000", "--k", "1"], 100000000),
    (["ext", "search", "--n", "100000000", "--k", "1", "--m", "1", "--d",
      "1", "--eps", "1/2"], 100000001),
    (["demo", "prefix", "--n", "100000000"], 100000004),
])
def test_huge_draws_are_refused_from_the_exponent(capsys, monkeypatch, argv,
                                                  bits):
    monkeypatch.delenv("OMEX_LIMITS", raising=False)
    code, report = run_json(capsys, *argv, "--seed", "1")
    assert code == 1
    assert report["outcome"] == {
        "error": f"at least 2^{bits} edge draws exceed limit 8000000"}


def test_ext_hazards(capsys, tmp_path):
    view_path = str(tmp_path / "view.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    set_path = tmp_path / "set.json"
    set_path.write_text('{"label":"b","k":2,"elements":[0,3,5]}\n')
    code, report = run_json(capsys, "ext", "hazards", "--graph", view_path,
                            "--set", str(set_path))
    assert code == 0
    assert report["outcome"]["subset"] == [0, 3, 5]
    for bad_factor in ("0", "-1"):
        code, report = run_json(capsys, "ext", "hazards", "--graph",
                                view_path, "--set", str(set_path),
                                "--bad-factor", bad_factor)
        assert code == 1
        assert "bad factor >= 1" in report["outcome"]["error"]


@pytest.mark.parametrize("drop, change, extra", [
    pytest.param("eps", {}, [], id="no-eps"),
    pytest.param("K", {}, [], id="no-K"),
    pytest.param(None, {"K": "4"}, [], id="string-K"),
    pytest.param("n", {}, [], id="no-n"),
    pytest.param("neighbors", {}, ["--K", "2", "--eps", "1/2"],
                 id="no-neighbors-with-flags"),
])
def test_ext_check_malformed_view_is_failure_not_crash(capsys, tmp_path, drop,
                                                       change, extra):
    doc = {"n": 1, "right_size": 2, "max_degree": 2,
           "neighbors": [[0, 1], [1, 0]], "K": 2, "eps": "1/2", **change}
    if drop is not None:
        del doc[drop]
    path = tmp_path / "view.json"
    path.write_text(json.dumps(doc))
    code = main(["ext", "check", "--graph", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(captured.out)["outcome"]
    assert captured.err == ""


def test_trev_design_eval_decode(capsys, tmp_path):
    design_path = str(tmp_path / "design.json")
    code, report = run_json(capsys, "trev", "design", "--l", "2", "--m", "3",
                            "--d", "8", "--seed", "4", "--out", design_path)
    assert code == 0
    assert len(report["outcome"]["sets"]) == 3
    code, report = run_json(capsys, "trev", "eval", "--u", "01", "--y",
                            "00000001", "--design", design_path)
    assert code == 0
    assert len(report["outcome"]["output"]) == 3
    code, report = run_json(capsys, "trev", "decode", "--word", "0101",
                            "--delta", "1/4")
    assert code == 0
    assert report["outcome"]["messages"] == ["01"]


def test_trev_design_search_is_charged_to_subset_nodes(capsys):
    # every candidate fits a bound of m - 1 = 999,999, so each costs its 2
    # draws and one test per set placed, and 3,160 sets spend 5,000,000
    started = time.monotonic()
    code, report = run_json(capsys, "trev", "design", "--l", "2", "--m",
                            "1000000", "--d", "40", "--seed", "1")
    assert time.monotonic() - started < 5
    assert code == 1
    assert report["outcome"] == {
        "error": "weak design search exceeds 5000000 steps: placed 3160 of "
                 "1000000 sets after 0 restarts"}


def test_fp_match_roundtrip_via_files(capsys, tmp_path):
    base_path = str(tmp_path / "base.json")
    run_json(capsys, "offline", "gen", "--n", "2", "--k", "1", "--seed", "7",
             "--out", base_path)
    set_path = tmp_path / "set.json"
    set_path.write_text('{"label":"b","k":1,"elements":[3,0]}\n')
    fp_path = str(tmp_path / "fp.json")
    code, report = run_json(capsys, "fp", "encode", "--flavor", "match",
                            "--graph", base_path, "--set", str(set_path),
                            "--target", "0", "--out", fp_path)
    assert code == 0
    assert report["outcome"]["fingerprint"]["flavor"] == "matching"
    code, report = run_json(capsys, "fp", "decode", "--flavor", "match",
                            "--graph", base_path, "--set", str(set_path),
                            "--fingerprint", fp_path)
    assert code == 0
    assert report["outcome"]["element"] == 0


def test_fp_ext_roundtrip_via_files(capsys, tmp_path):
    view_path = str(tmp_path / "view.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    set_path = tmp_path / "set.json"
    set_path.write_text('{"label":"b","k":2,"elements":[6,1,4]}\n')
    fp_path = str(tmp_path / "fp.json")
    code, _ = run_json(capsys, "fp", "encode", "--flavor", "ext", "--views",
                       view_path, "--set", str(set_path), "--target", "4",
                       "--out", fp_path)
    assert code == 0
    code, report = run_json(capsys, "fp", "decode", "--flavor", "ext",
                            "--views", view_path, "--set", str(set_path),
                            "--fingerprint", fp_path)
    assert code == 0
    assert report["outcome"]["element"] == 4


def test_fp_two_roundtrip_via_files(capsys, tmp_path):
    view_path = str(tmp_path / "pview.json")
    run_json(capsys, "ext", "search", "--n", "4", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "21", "--prefix",
             "--out", view_path)
    set_b = tmp_path / "sb.json"
    set_b.write_text('{"label":"b","k":2,"elements":[9,2,11,5]}\n')
    set_c = tmp_path / "sc.json"
    set_c.write_text('{"label":"c","k":1,"elements":[2,9]}\n')
    fp_path = str(tmp_path / "fp.json")
    code, report = run_json(capsys, "fp", "encode", "--flavor", "two",
                            "--views", view_path, "--set", str(set_b),
                            "--set2", str(set_c), "--target", "2",
                            "--out", fp_path)
    assert code == 0
    doc = report["outcome"]["fingerprint"]
    assert doc["q"] == doc["p"] >> 1
    for side, set_path in (("b", set_b), ("c", set_c)):
        code, report = run_json(capsys, "fp", "decode", "--flavor", "two",
                                "--views", view_path, "--set", str(set_path),
                                "--fingerprint", fp_path, "--side", side)
        assert code == 0
        assert report["outcome"]["element"] == 2
    # --side c reads the second set from --set2 when it is given
    code, report = run_json(capsys, "fp", "decode", "--flavor", "two",
                            "--views", view_path, "--set", str(set_b),
                            "--set2", str(set_c), "--fingerprint", fp_path,
                            "--side", "c")
    assert code == 0
    assert report["outcome"]["element"] == 2


def test_fp_ext_decode_rejects_negative_ordinal(capsys, tmp_path):
    view_path = str(tmp_path / "view.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    set_path = tmp_path / "set.json"
    set_path.write_text('{"label":"b","k":2,"elements":[6,1,4]}\n')
    fp_path = tmp_path / "fp.json"
    code, _ = run_json(capsys, "fp", "encode", "--flavor", "ext", "--views",
                       view_path, "--set", str(set_path), "--target", "1",
                       "--out", str(fp_path))
    assert code == 0
    doc = json.loads(fp_path.read_text())
    fp_path.write_text(json.dumps({**doc, "ordinal": -1}))
    code, report = run_json(capsys, "fp", "decode", "--flavor", "ext",
                            "--views", view_path, "--set", str(set_path),
                            "--fingerprint", str(fp_path))
    assert code == 1
    assert "ordinal -1 out of range" in report["outcome"]["error"]


@pytest.mark.parametrize("layer", [-1, -2])
def test_fp_ext_decode_rejects_negative_layer(capsys, tmp_path, layer):
    view_path = str(tmp_path / "view.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "2", "--m", "2",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    set_path = tmp_path / "set.json"
    set_path.write_text('{"label":"b","k":2,"elements":[6,1,4]}\n')
    fp_path = tmp_path / "fp.json"
    code, _ = run_json(capsys, "fp", "encode", "--flavor", "ext", "--views",
                       view_path, "--set", str(set_path), "--target", "1",
                       "--out", str(fp_path))
    assert code == 0
    doc = json.loads(fp_path.read_text())
    fp_path.write_text(json.dumps({**doc, "layer": layer}))
    code, report = run_json(capsys, "fp", "decode", "--flavor", "ext",
                            "--views", view_path, "--set", str(set_path),
                            "--fingerprint", str(fp_path))
    assert code == 1
    assert f"layer {layer}, outside" in report["outcome"]["error"]


def test_demo_om_needs_a_trial(capsys):
    code, report = run_json(capsys, "demo", "om", "--seed", "1",
                            "--trials", "0")
    assert code == 1
    assert report["outcome"] == {"error": "trials must be at least 1"}


def test_sample_counts_below_range_are_failures(capsys, tmp_path):
    code, report = run_json(capsys, "demo", "trevisan", "--seed", "1",
                            "--samples", "-1")
    assert code == 1
    assert report["outcome"] == {"error": "samples must be nonnegative"}
    view_path = str(tmp_path / "v.json")
    run_json(capsys, "ext", "search", "--n", "3", "--k", "1", "--m", "1",
             "--d", "4", "--eps", "1/2", "--seed", "5", "--out", view_path)
    for samples in ("0", "-2"):
        code, report = run_json(capsys, "ext", "check", "--graph", view_path,
                                "--samples", samples, "--seed", "1")
        assert code == 1
        assert report["outcome"] == {
            "error": "sampled mode needs at least 1 sample"}
    for demo in ("lemma1", "lemma3"):
        code, report = run_json(capsys, "demo", demo, "--n", "3", "--k", "1",
                                "--eps", "1/2", "--seed", "7",
                                "--max-rows", "-1")
        assert code == 1
        assert report["outcome"] == {"error": "max_rows must be nonnegative"}


def test_limits_env_override(capsys, cx_path, monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "game_nodes=1")
    code, report = run_json(capsys, "online", "game", "--graph", cx_path,
                            "--s", "2")
    assert code == 1
    assert "game tree" in report["outcome"]["error"]


def test_limits_env_bad_key_is_usage_failure(capsys, cx_path, monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "bogus=1")
    code, report = run_json(capsys, "offline", "hall", "--graph", cx_path,
                            "--s", "2")
    assert code == 1
    assert "unknown limit" in report["outcome"]["error"]


def test_hall_refusal_says_how_far_it_got(capsys, cx_path, monkeypatch):
    # 3 left vertices: sizes 1 and 2 hold 3 + 3 subsets, size 3 one more
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=6")
    code, report = run_json(capsys, "offline", "hall", "--graph", cx_path,
                            "--s", "3")
    assert code == 1
    assert report["outcome"] == {"error": (
        "subset enumeration would visit 7 > 6 nodes; sizes 1-2 passed, "
        "6 subsets checked")}


@pytest.mark.parametrize("argv", [
    ("offline", "hall", "--s", "2"),
    ("demo", "om", "--seed", "3", "--trials", "50"),
])
def test_limits_env_negative_value_is_usage_failure(capsys, cx_path,
                                                    monkeypatch, argv):
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=-1")
    if argv[0] == "offline":
        argv += ("--graph", cx_path)
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["outcome"] == {
        "error": "limit 'subset_nodes' must be >= 0, got -1"}


def test_limits_env_non_integer_value_is_usage_failure(capsys, monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=abc")
    code, report = run_json(capsys, "offline", "gen", "--n", "2", "--k", "1",
                            "--seed", "1")
    assert code == 1
    assert report["outcome"] == {
        "error": "limit 'subset_nodes' in OMEX_LIMITS must be an integer, "
                 "got 'abc'"}


def test_demo_om_small(capsys):
    code, report = run_json(capsys, "demo", "om", "--seed", "3",
                            "--trials", "50")
    assert code == 0
    assert report["outcome"]["series_bound"] == "9/64"
    assert report["outcome"]["all_sequences_served"] is True
    # (sequences, visited, memo_hits, certified) per (n, k); the counters
    # are pinned so that any change to the walk's work shows in the report
    rows = {(row["n"], row["k"]): (row["sequences"], row["visited"],
                                   row["memo_hits"], row["certified"])
            for row in report["outcome"]["rows"]}
    assert rows == {(2, 1): (16, 0, 0, 1), (2, 2): (64, 0, 0, 1),
                    (3, 1): (64, 0, 0, 1), (3, 2): (2080, 0, 0, 1),
                    (3, 3): (109_600, 0, 0, 1),
                    (4, 3): (582_913_216, 0, 0, 1),
                    (5, 2): (893_824, 0, 0, 1)}


def test_demo_trevisan_small(capsys):
    code, report = run_json(capsys, "demo", "trevisan", "--seed", "2",
                            "--samples", "200")
    assert code == 0
    assert report["outcome"]["designs_ok"] is True
    assert report["outcome"]["johnson_ok"] is True
    # the decoder is compared with the brute-force one in the tests only
    assert not {"decode_exhaustive_ok", "decode_sampled_ok"} & set(
        report["outcome"])


@pytest.mark.parametrize("demo", ["lemma1", "lemma3"])
def test_lemma_subsets_are_charged_to_subset_budget(capsys, monkeypatch, demo):
    argv = ["demo", demo, "--n", "4", "--k", "3", "--eps", "1/2", "--seed",
            "7", "--max-rows", "0"]
    # the search's dual test fits in 255 nodes; the hazard walk over the
    # C(16, 8) = 12,870 subsets visits 394
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=393")
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["outcome"] == {"error": (
        "hazard walk exceeded limit 393 nodes: visited 393 nodes, certified "
        "12833 of the C(16,8) = 12870 size-K subsets")}
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=394")
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["outcome"]["subsets"] == 12870


def test_lemma1_walk_has_the_subset_budget_to_itself(capsys, monkeypatch):
    # the search's dual test takes 15 nodes and the walk over the C(16, 4)
    # subsets 13; nothing else is charged to the walk's budget
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=15")
    code, report = run_json(capsys, "demo", "lemma1", "--n", "4", "--k", "2",
                            "--m", "2", "--d", "4", "--eps", "1/2", "--seed",
                            "1", "--max-rows", "0")
    assert code == 0
    assert report["outcome"]["subsets"] == 1820
    assert not {"oracle_checked", "oracle_ok"} & set(report["outcome"])


def test_lemma_guard_stops_a_searched_n6_view(capsys, monkeypatch):
    # the search verifies an n=6, K=8 view; the walk over its C(64, 8)
    # subsets finishes at default limits, in 3,437,040 nodes, but not here
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=100000")
    code, report = run_json(capsys, "demo", "lemma1", "--n", "6", "--k", "3",
                            "--eps", "1/2", "--seed", "1")
    assert code == 1
    assert report["outcome"] == {"error": (
        "hazard walk exceeded limit 100000 nodes: visited 100000 nodes, "
        "certified 492988047 of the C(64,8) = 4426165368 size-K subsets")}


@pytest.mark.parametrize("demo", ["lemma1", "lemma3"])
def test_lemma_frontier_n5_k3_runs_at_default_limits(capsys, demo):
    code, report = run_json(capsys, "demo", demo, "--n", "5", "--k", "3",
                            "--eps", "1/2", "--seed", "7")
    assert code == 0
    assert report["outcome"]["subsets"] == 10518300
    assert report["outcome"]["bound_ok"] is True
    assert len(report["outcome"]["rows"]) == 512


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("bad_factor", [1, 2])
def test_lemma_rows_and_maxima_match_naive_scan(capsys, n, k, bad_factor):
    """Every row and both maxima of the walk-based demos, against
    `naive_hazard_report` on every size-K subset of the same view."""
    eps = Fraction(1, 2)
    d = optimal_degree_pow2(2 ** n, 2 ** k, 2 ** k, eps).bit_length() - 1
    view, _ = random_extractor_search(n, k, k, eps, d, seed=7)
    reports = [naive_hazard_report(view, S, bad_factor)
               for S in itertools.combinations(range(view.N), view.K)]
    argv = ["--n", str(n), "--k", str(k), "--eps", "1/2", "--seed", "7",
            "--bad-factor", str(bad_factor), "--max-rows", "100000"]
    _, lemma1 = run_json(capsys, "demo", "lemma1", *argv)
    _, lemma3 = run_json(capsys, "demo", "lemma3", *argv)
    names = [" ".join(map(str, rep.subset)) for rep in reports]
    assert lemma1["outcome"]["rows"] == [
        {"S": S, "dangerous": len(rep.dangerous),
         "weakly_dangerous": len(rep.weakly_dangerous), "bad": len(rep.bad)}
        for S, rep in zip(names, reports)]
    assert lemma3["outcome"]["rows"] == [
        {"S": S, "weakly_dangerous": len(rep.weakly_dangerous)}
        for S, rep in zip(names, reports)]
    assert lemma1["outcome"]["max_dangerous"] == max(
        len(rep.dangerous) for rep in reports)
    assert lemma3["outcome"]["max_weakly_dangerous"] == max(
        len(rep.weakly_dangerous) for rep in reports)
    assert lemma1["outcome"]["subsets"] == len(reports)


def test_demo_lemma3(capsys):
    code, report = run_json(capsys, "demo", "lemma3", "--n", "3", "--k", "1",
                            "--eps", "1/2", "--seed", "7")
    assert code == 0
    assert report["outcome"]["bound_ok"] is True
