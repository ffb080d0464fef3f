import json
import math
import time
from fractions import Fraction

import pytest

from omex import save, counterexample_graph
from omex.cli import main


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


def test_missing_file_is_failure_not_crash(capsys):
    code, report = run_json(capsys, "offline", "hall", "--graph",
                            "/nonexistent.json", "--s", "2")
    assert code == 1
    assert "error" in report["outcome"]


def test_report_bytes_deterministic(capsys):
    _, first = run(capsys, "demo", "counterexample")
    _, second = run(capsys, "demo", "counterexample")
    assert first == second


def test_timing_flag_adds_field(capsys):
    code, report = run_json(capsys, "--timing", "demo", "counterexample")
    assert code == 0
    assert "timing_s" in report


def test_csv_output(capsys, cx_path):
    code, out = run(capsys, "--csv", "offline", "hall", "--graph", cx_path,
                    "--s", "2")
    assert code == 0
    assert "outcome.ok,True" in out


def test_csv_rows_become_table(capsys):
    code, out = run(capsys, "--csv", "demo", "lemma1", "--n", "3", "--k", "1",
                    "--eps", "1/2", "--seed", "7")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "dangerous" in header and "S" in header


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


def test_online_run_reports_rejection(capsys, tmp_path, cx_path):
    req = tmp_path / "req.txt"
    req.write_text("0\n1\n")
    code, report = run_json(capsys, "online", "run", "--graph", cx_path,
                            "--layers", "1", "--requests", str(req))
    assert code == 1
    assert report["outcome"]["rejections"] == [1]


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
    ["trev", "eval", "--u", "01", "--y", "0001", "--design", "d.json",
     "--delta", "1/0"],
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


def test_online_layered_negative_k_is_failure(capsys, cx_path):
    code, report = run_json(capsys, "online", "layered", "--graph", cx_path,
                            "--k", "-1")
    assert code == 1
    assert "k >= 0, got k = -1" in report["outcome"]["error"]


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


def test_demo_om_small(capsys):
    code, report = run_json(capsys, "demo", "om", "--seed", "3",
                            "--trials", "50")
    assert code == 0
    assert report["outcome"]["series_bound"] == "9/64"
    assert report["outcome"]["all_sequences_served"] is True
    rows = {(row["n"], row["k"]): row for row in report["outcome"]["rows"]}
    assert set(rows) == {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3),
                         (5, 2)}
    assert rows[4, 3]["sequences"] == 582_913_216
    assert rows[4, 3]["memo_hits"] > 0
    assert rows[4, 3]["visited"] < rows[4, 3]["sequences"]


def test_demo_muchnik(capsys):
    code, report = run_json(capsys, "demo", "muchnik", "--seed", "11")
    assert code == 0
    assert report["outcome"]["matching_ok"] is True
    assert report["outcome"]["extractor_ok"] is True
    assert report["outcome"]["layer_shrinkage_ok"] is True


def test_demo_two_cond(capsys):
    code, report = run_json(capsys, "demo", "two-cond", "--seed", "5")
    assert code == 0
    assert report["outcome"]["all_ok"] is True


def test_demo_prefix(capsys):
    code, report = run_json(capsys, "demo", "prefix", "--seed", "9")
    assert code == 0
    assert report["outcome"]["monotone_decreasing"] is True
    assert [lv["K"] for lv in report["outcome"]["levels"]] == [8, 4, 2, 1]


def test_demo_trevisan_small(capsys):
    code, report = run_json(capsys, "demo", "trevisan", "--seed", "2",
                            "--samples", "200")
    assert code == 0
    assert report["outcome"]["designs_ok"] is True
    assert report["outcome"]["decode_sampled_ok"] is True


@pytest.mark.parametrize("demo", ["lemma1", "lemma3"])
def test_lemma_subsets_are_charged_to_subset_budget(capsys, monkeypatch, demo):
    argv = ["demo", demo, "--n", "4", "--k", "2", "--m", "2", "--d", "4",
            "--eps", "1/2", "--seed", "1", "--max-rows", "0"]
    # the search's pruned walk fits in 1,819 nodes; the C(16, 4) = 1,820
    # subsets the demo walks do not
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=1819")
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert ("1820 subsets of size 4 exceed limit 1819"
            in report["outcome"]["error"])
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=1820")
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["outcome"]["subsets"] == 1820


def test_lemma_guard_stops_a_searched_n6_view(capsys):
    # the search verifies an n=6, K=8 view; the demo's C(64, 8) subsets are
    # then refused by the demo's own guard
    code, report = run_json(capsys, "demo", "lemma1", "--n", "6", "--k", "3",
                            "--eps", "1/2", "--seed", "1")
    assert code == 1
    assert report["outcome"] == {
        "error": "4426165368 subsets of size 8 exceed limit 5000000 subsets"}


def test_demo_lemma3(capsys):
    code, report = run_json(capsys, "demo", "lemma3", "--n", "3", "--k", "1",
                            "--eps", "1/2", "--seed", "7")
    assert code == 0
    assert report["outcome"]["bound_ok"] is True
