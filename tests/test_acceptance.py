"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)
and enforcing its runtime budget."""

import contextlib
import io
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from omex import (deviation, hazard_report, is_extractor,
                  random_extractor_search)
from omex.cli import main
from omex.rng import SplitMix64
from omex.trevisan import (CodeTable, greedy_weak_design, list_decode,
                           verify_weak_design)

from conftest import random_view
from oracles import brute_list_decode, exhaustive_subset_deviation


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s / {budget:.0f}s) "
          f"- {description}")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def demo(*argv) -> tuple[bool, dict]:
    """Whether `omex demo ARGV` exited 0, and its outcome. The report is
    read by redirecting stdout, not by capsys, so that `pytest -s` still
    shows the PASS lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["demo", *argv])
    return code == 0, json.loads(buf.getvalue())["outcome"]


@pytest.fixture(scope="module")
def verified_view_pool():
    """>= 20 exhaustively verified views with n <= 4 and K <= 4."""
    cases = ([(3, 1, 1, 4, Fraction(1, 2))] * 4
             + [(3, 2, 2, 4, Fraction(1, 2))] * 4
             + [(4, 1, 1, 4, Fraction(1, 2))] * 4
             + [(4, 2, 2, 4, Fraction(1, 2))] * 4
             + [(3, 1, 1, 6, Fraction(1, 4))] * 2
             + [(3, 2, 2, 6, Fraction(1, 4))] * 2)
    pool = []
    for i, (n, k, m, d, eps) in enumerate(cases):
        view, _ = random_extractor_search(n, k, m, eps, d, seed=7000 + i)
        pool.append(view)
    return pool


def test_criterion_1_hall_vs_online_separation():
    started = time.monotonic()
    ok, outcome = demo("counterexample")
    # the separation verdict also pins the size-3 Hall witness and the
    # size-1 strategy
    ok = (ok and outcome["hall_s2_ok"] and not outcome["online_s2_exists"]
          and outcome["separation"])
    report(1, "off-line matchable up to 2 but no on-line strategy",
           ok, time.monotonic() - started, 1.0)


def test_criterion_2_union_bound_series():
    started = time.monotonic()
    # the graphs of seeds 0-199, each Hall-checked up to size 2
    ok, outcome = demo("om", "--seed", "0", "--trials", "200")
    ok = (ok and outcome["series_bound"] == "9/64"
          and outcome["series_bound_exact_ok"]
          and outcome["monte_carlo_ok"])
    report(2, f"series = 9/64 exactly; {outcome['failures']}/200 failures "
              "within bound", ok, time.monotonic() - started, 10.0)


def test_criterion_3_layered_engine_serves_everything():
    started = time.monotonic()
    ok = True
    total_sequences = 0
    sizes = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3), (5, 2)]
    # seed 70 + 10n + k for each size; every run sweeps all seven sizes on
    # bases drawn at its seed
    for n, k in sizes:
        exited_ok, outcome = demo("om", "--seed", str(70 + 10 * n + k))
        rows = outcome["rows"]
        total_sequences += sum(row["sequences"] for row in rows)
        ok = (ok and exited_ok and outcome["all_sequences_served"]
              and [(row["n"], row["k"]) for row in rows] == sizes
              and all(row["ok"] for row in rows))
    report(3, f"all {total_sequences} request sequences served, audits clean",
           ok, time.monotonic() - started, 60.0)


def test_criterion_4_deviation_equals_exhaustive_maximum():
    started = time.monotonic()
    rng = SplitMix64(404)
    cases = 0
    ok = True
    while cases < 1000:
        n = 1 + rng.below(3)              # N in {2,4,8}
        m = 1 + rng.below(2)              # M in {2,4}
        d = 1 + rng.below(3)
        view = random_view(5000 + cases, n=n, m=m, d=d, K=1)
        for _ in range(4):
            size = 1 + rng.below(view.N)
            S = tuple(sorted(rng.sample(view.N, size)))
            ok = ok and (deviation(view, S)
                         == exhaustive_subset_deviation(view, S))
            cases += 1
    report(4, f"direct deviation equals the 2^M-subset maximum on {cases} cases",
           ok, time.monotonic() - started, 30.0)


def test_criterion_5_hazard_count_bounds(verified_view_pool):
    started = time.monotonic()
    views = 0
    violations = 0
    for view in verified_view_pool:
        assert is_extractor(view).ok
        K, eps = view.K, view.eps
        for S in itertools.combinations(range(view.N), K):
            rep = hazard_report(view, S)
            if not (len(rep.dangerous) < 2 * eps * K):
                violations += 1
            if not (len(rep.weakly_dangerous) <= 4 * eps * K):
                violations += 1
        views += 1
    ok = views >= 20 and violations == 0
    report(5, f"dangerous < 2eK and weak <= 4eK across {views} verified views",
           ok, time.monotonic() - started, 60.0)


def test_criterion_6_prefix_extractor_search():
    started = time.monotonic()
    # n = 6, k = m = 3, d = 4, eps = 1/2 by default
    ok, outcome = demo("prefix", "--seed", "606")
    levels = [(lv["K"], lv["verdict"]) for lv in outcome["levels"]]
    bounds = [outcome["failure_bounds"][d] for d in ("4", "5", "6")]
    ok = (ok and levels == [(8, "ok"), (4, "ok"), (2, "ok"), (1, "ok")]
          and all(math.isfinite(b) for b in bounds)
          and bounds[0] > bounds[1] > bounds[2])
    report(6, f"every truncation level verifies; bounds {bounds[0]:.3g} > "
              f"{bounds[1]:.3g} > {bounds[2]:.3g}",
           ok, time.monotonic() - started, 60.0)


def test_criterion_7_trevisan_ingredients():
    started = time.monotonic()
    grid = [(1, 4, 4), (2, 3, 6), (2, 4, 10), (2, 6, 14), (3, 4, 16),
            (3, 6, 24), (4, 4, 24)]
    designs_ok = all(
        verify_weak_design(greedy_weak_design(block, m, d, seed=77), m) is None
        for block, m, d in grid)

    code2 = CodeTable(2, Fraction(1, 4))
    bound2 = 1 / (4 * float(code2.delta) ** 2)
    decode2_ok = True
    johnson_ok = True
    for w in range(16):
        word = format(w, "04b")
        got = list_decode(code2, word)
        decode2_ok = decode2_ok and got == brute_list_decode(code2, word)
        johnson_ok = johnson_ok and len(got) <= bound2

    code4 = CodeTable(4, Fraction(1, 8))
    bound4 = 1 / (4 * float(code4.delta) ** 2)
    rng = SplitMix64(777)
    decode4_ok = True
    for _ in range(10_000):
        word = format(rng.below(2 ** 16), "016b")
        got = list_decode(code4, word)
        decode4_ok = decode4_ok and got == brute_list_decode(code4, word)
        johnson_ok = johnson_ok and len(got) <= bound4
    ok = designs_ok and decode2_ok and decode4_ok and johnson_ok
    report(7, "designs verify; decoder matches agreement recount; lists small",
           ok, time.monotonic() - started, 60.0)


def test_criterion_8_fingerprint_roundtrips():
    started = time.monotonic()
    ok = True
    matching = certified = extractor = two_checked = 0
    for seed in ("808", "818", "828"):
        # matching flavor: every (set, element) pair at (n=2, k=1), and the
        # sweep certificate over every ordered set at (n=3, k=2); extractor
        # flavor over a verified stack with halving K
        exited_ok, outcome = demo("muchnik", "--seed", seed)
        ok = (ok and exited_ok and outcome["matching_ok"]
              and outcome["extractor_ok"] and outcome["layer_shrinkage_ok"])
        matching += outcome["matching_roundtrips"]
        certified += outcome["matching_certified_sequences"]
        extractor += outcome["extractor_roundtrips"]
        # two-condition flavor on a prefix-verified view
        exited_ok, outcome = demo("two-cond", "--seed", seed)
        ok = ok and exited_ok and outcome["all_ok"]
        two_checked += outcome["roundtrips"]
    ok = ok and matching == 3 * 28 and certified == 3 * 2080
    ok = ok and two_checked >= 40
    report(8, f"all three flavors decode to identity ({matching} matching "
              f"runs, {certified} certified sequences, {extractor} extractor "
              f"runs, {two_checked} two-condition runs)",
           ok, time.monotonic() - started, 120.0)
