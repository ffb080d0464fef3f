"""Random argv over the CLI's command table: every run ends in exit 0, 1 or
2 with a report or a usage message, never a traceback.

Values are small ints, fractions (some malformed), and paths to good,
malformed and missing files; budgets are cut down with OMEX_LIMITS so that
every run stays small.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omex import (EnumeratedSet, OfflineParams,
                  construct_verified_offline_graph, counterexample_graph,
                  encode_extractor, encode_matching, encode_two_conditions,
                  greedy_weak_design, layered, random_extractor_search, save)
from omex.cli import COMMANDS, _fraction, main

from conftest import complete_graph, uniform_view

SMALL_LIMITS = "subset_nodes=20000,game_nodes=20000,gen_edges=20000"
INTS = st.integers(min_value=-1, max_value=5)
FRACTIONS = st.sampled_from(
    ["1/2", "1/4", "3/4", "0", "1", "-1/2", "3/2", "1/0", "half"])
BITS = ["", "0", "01", "0110", "0120", "10110100"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Inputs of every kind the commands read, plus output destinations."""
    d = tmp_path_factory.mktemp("fuzz")

    def put(name, obj):
        path = d / name
        save(obj, path)
        return str(path)

    base, _ = construct_verified_offline_graph(OfflineParams(2, 1, 2), 7)
    view, _ = random_extractor_search(3, 2, 2, "1/2", 4, seed=5)
    pview, _ = random_extractor_search(4, 2, 2, "1/2", 4, seed=21, prefix=True)
    set_b = EnumeratedSet("b", 2, (9, 2, 11, 5))
    set_c = EnumeratedSet("c", 1, (2, 9))
    small = EnumeratedSet("s", 1, (3, 0))
    (d / "requests.txt").write_text("0\n1\n2\n")
    (d / "bad.json").write_text('{"n": 2, "right_size": "x"}\n')
    (d / "not-json.json").write_text("{\n")
    inputs = [
        put("cx.json", counterexample_graph()),
        put("base.json", base),
        put("complete.json", complete_graph(3, 2)),
        put("view.json", view),
        put("pview.json", pview),
        put("uniform.json", uniform_view(2, 2, K=4)),
        put("set_b.json", set_b),
        put("set_c.json", set_c),
        put("small.json", small),
        put("fp_match.json", encode_matching(layered(base, 1), small, 0)),
        put("fp_ext.json", encode_extractor([view], small, 3)),
        put("fp_two.json", encode_two_conditions(pview, set_b, set_c, 2)),
        put("design.json", greedy_weak_design(2, 4, 6, seed=1)),
        str(d / "requests.txt"), str(d / "bad.json"),
        str(d / "not-json.json"), str(d / "missing.json"), str(d),
    ]
    outputs = [str(d / "out.json"), str(d), str(d / "no-dir" / "out.json")]
    return inputs, outputs


def flag_values(name, kw, inputs, outputs):
    """A strategy for one flag's argv words, chosen by its parser keywords."""
    if kw.get("action") == "store_true":
        return st.just([name])
    if "choices" in kw:
        values = st.sampled_from(kw["choices"])
    elif kw.get("type") is int:
        values = INTS.map(str)
    elif kw.get("type") is _fraction:
        values = FRACTIONS
    elif name == "--out":
        values = st.sampled_from(outputs)
    else:
        values = st.sampled_from(inputs + BITS)
    if kw.get("nargs") == "+":
        return st.lists(values, min_size=1, max_size=2).map(
            lambda words: [name, *words])
    return values.map(lambda word: [name, word])


@st.composite
def argvs(draw, inputs, outputs):
    """A command from every group but `demo` (its runs are fixed-size and
    slow) with a random subset of its flags, in random order."""
    group = draw(st.sampled_from([g for g in COMMANDS if g != "demo"]))
    commands = COMMANDS[group][1]
    cmd = draw(st.sampled_from(sorted(commands)))
    argv = [group, cmd]
    flags = commands[cmd][2]
    for name, kw in draw(st.permutations(flags)):
        # a required flag is left out now and then, for the usage errors
        if draw(st.integers(0, 9)) < (9 if kw.get("required") else 5):
            argv += draw(flag_values(name, kw, inputs, outputs))
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as mp:
        mp.setenv("OMEX_LIMITS", SMALL_LIMITS)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    else:
        assert out.count("\n") == 1, argv
        json.loads(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_argv_never_crashes(files, data):
    check_run(data.draw(argvs(*files)))


@pytest.mark.parametrize("argv", [
    ["demo", "om", "--seed", "1", "--trials", "0"],
    ["demo", "om", "--seed", "1", "--trials", "-1"],
    ["demo", "lemma1", "--n", "3", "--k", "1", "--eps", "1/2", "--seed", "1",
     "--attempts", "0"],
    ["demo", "lemma3", "--n", "3", "--k", "1", "--eps", "1/2", "--seed", "7",
     "--max-rows", "-1"],
    ["demo", "prefix", "--seed", "1", "--attempts", "0"],
    ["demo", "two-cond", "--seed", "1", "--attempts", "-1"],
    ["demo", "trevisan", "--seed", "1", "--samples", "0"],
    ["demo", "trevisan", "--seed", "1", "--samples", "-1"],
])
def test_demo_count_flags_never_crash(argv):
    check_run(argv)


LIMIT_KEYS = ["subset_nodes", "game_nodes", "gen_edges"]
BAD_LIMIT_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(LIMIT_KEYS),
              st.sampled_from(["abc", "", "1.5", "1e3", "-1", "-20000", "½",
                               "0x10", "2 0"])).map("=".join),
    st.sampled_from(["bogus=1", "subset_nodes", "=5", "Subset_nodes=1"]))
GOOD_LIMIT_ENTRIES = st.tuples(
    st.sampled_from(LIMIT_KEYS),
    st.integers(min_value=0, max_value=20000).map(str)).map("=".join)


@settings(max_examples=100, deadline=None)
@given(good=st.lists(GOOD_LIMIT_ENTRIES, max_size=3),
       bad=BAD_LIMIT_ENTRIES, where=st.integers(min_value=0, max_value=3),
       argv=st.sampled_from([
           ["offline", "gen", "--n", "2", "--k", "1", "--seed", "1"],
           ["offline", "hall", "--s", "2"],
           ["ext", "check"],
       ]))
def test_malformed_limits_are_error_reports(files, good, bad, where, argv):
    """A malformed OMEX_LIMITS entry, wherever it sits among good ones,
    gives exit 1 and an error report, never a traceback."""
    inputs = files[0]
    if argv[:2] == ["offline", "hall"]:
        argv = argv + ["--graph", inputs[0]]
    elif argv[0] == "ext":
        argv = argv + ["--graph", inputs[3]]
    entries = good[:where] + [bad] + good[where:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as mp:
        mp.setenv("OMEX_LIMITS", ",".join(entries))
        code = main(argv)
    assert code == 1, (entries, argv)
    assert "Traceback" not in err.getvalue()
    error = json.loads(out.getvalue())["outcome"]["error"]
    assert "limit" in error, error
