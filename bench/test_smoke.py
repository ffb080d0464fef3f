"""Smoke test of the benchmark itself.

    python -m pytest -q bench

Each test runs `bench/run.py` in a copy of the checkout (BENCHMARK.json,
bench/ and src/) under a temporary directory, with `--seconds 0`, which
still runs one full pass of every job list. The copy lets a test corrupt
the reference digests without touching the repository.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1  # recorded in bench/reference.json


def make_checkout(dst, with_source=True):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(dst, "bench"),
                    ignore=ignore)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=ignore)
    return dst


def bench(checkout, workload, trace=0, **env):
    environ = {k: v for k, v in os.environ.items() if k != "OMEX_LIMITS"}
    environ.update(env)
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=checkout, env=environ, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return make_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(checkout, workload, trace):
    result = result_of(bench(checkout, workload, trace))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_work_counters_repeat_exactly(checkout):
    runs = [result_of(bench(checkout, "offline-hall", 1))["metrics"]
            for _ in range(2)]
    work = [{k: v["value"] for k, v in m.items() if k.startswith("work.")}
            for m in runs]
    assert work[0] == work[1] and work[0]["work.subsets"] > 0


def test_corrupted_reference_digest_fails_jobs(tmp_path):
    dst = make_checkout(tmp_path)
    path = os.path.join(dst, "bench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc["workloads"]["codes-roundtrip"][str(SEED)]
    first = entry["jobs"][0]
    entry["jobs"] = ("0" if first != "0" else "1") + entry["jobs"][1:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    plain = result_of(bench(dst, "codes-roundtrip", 0))
    assert not plain["correct"] and plain["failed"] > 0
    traced = result_of(bench(dst, "codes-roundtrip", 1))
    assert traced["metrics"]["bench.failed_frac"]["value"] > 0


def test_refuses_omex_limits_override(checkout):
    proc = bench(checkout, "codes-roundtrip", OMEX_LIMITS="game_nodes=10")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "OMEX_LIMITS" in proc.stderr


def test_refuses_checkout_without_source(tmp_path):
    dst = make_checkout(tmp_path, with_source=False)
    proc = bench(dst, "codes-roundtrip")
    assert proc.returncode != 0 and proc.stdout == ""
