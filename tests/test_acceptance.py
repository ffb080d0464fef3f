"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)
and enforcing its runtime budget."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from omex import (EnumeratedSet, OfflineParams, construct_verified_offline_graph,
                  counterexample_graph, decode_extractor, decode_matching,
                  decode_two_conditions, deviation, encode_extractor,
                  encode_matching, encode_two_conditions, exhaustive_online_check,
                  hall_check, hazard_report, is_extractor, is_prefix_extractor,
                  layer_sets, layered, online_strategy_exists,
                  prefix_failure_bound, random_extractor_search,
                  random_offline_graph, series_bound, truncate)
from omex.fingerprint import bits_for
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
    cx = counterexample_graph()
    hall_ok = hall_check(cx, 2) is None
    game = online_strategy_exists(cx, 2)
    ok = hall_ok and game.exists is False
    report(1, "off-line matchable up to 2 but no on-line strategy",
           ok, time.monotonic() - started, 1.0)


def test_criterion_2_union_bound_series():
    started = time.monotonic()
    exact = series_bound(2, 1, 2)
    exact_ok = exact == Fraction(9, 64)
    trials = 200
    p = OfflineParams(2, 1, 2)
    failures = sum(1 for seed in range(trials)
                   if hall_check(random_offline_graph(p, seed), 2) is not None)
    bound = float(exact)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    mc_ok = failures / trials <= bound + 3 * sigma
    report(2, f"series = 9/64 exactly; {failures}/{trials} failures within bound",
           exact_ok and mc_ok, time.monotonic() - started, 10.0)


def test_criterion_3_layered_engine_serves_everything():
    started = time.monotonic()
    ok = True
    total_sequences = 0
    sizes = [(n, k) for n in (2, 3) for k in range(1, n + 1)] + [(4, 3), (5, 2)]
    for n, k in sizes:
        base, _ = construct_verified_offline_graph(
            OfflineParams(n, k, 2), seed=70 + 10 * n + k)
        sweep = exhaustive_online_check(layered(base, k), 2 ** k)
        total_sequences += sweep.sequences
        ok = ok and sweep.ok
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
    n, k, m, d, eps = 6, 3, 3, 4, Fraction(1, 2)
    view, _ = random_extractor_search(n, k, m, eps, d, seed=606, prefix=True)
    levels_ok = is_prefix_extractor(view, k).ok
    independent_ok = all(
        truncate(view, i).K == 2 ** (k - i) and is_extractor(truncate(view, i)).ok
        for i in range(k + 1))
    bounds = [prefix_failure_bound(n, k, m, dd, eps) for dd in (d, d + 1, d + 2)]
    finite = all(math.isfinite(b) for b in bounds)
    monotone = bounds[0] > bounds[1] > bounds[2]
    ok = levels_ok and independent_ok and finite and monotone
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

    # matching flavor, fully exhaustive at (n=2, k=1)
    base, _ = construct_verified_offline_graph(OfflineParams(2, 1, 2), seed=808)
    lg = layered(base, 1)
    degree = base.degree_of(0)
    for size in (1, 2):
        for elements in itertools.permutations(range(4), size):
            eset = EnumeratedSet("b", 1, elements)
            for a in elements:
                fp = encode_matching(lg, eset, a)
                ok = ok and decode_matching(lg, eset, fp) == a
                ok = ok and fp.payload_bits <= 1 + bits_for(2) + bits_for(degree)

    # matching flavor, randomized at (n=3, k=2)
    base3, _ = construct_verified_offline_graph(OfflineParams(3, 2, 2), seed=808)
    lg3 = layered(base3, 2)
    degree3 = base3.degree_of(0)
    rng = SplitMix64(808)
    for _ in range(100):
        size = 1 + rng.below(4)
        elements = tuple(rng.sample(8, size))
        eset = EnumeratedSet("b", 2, elements)
        for a in elements:
            fp = encode_matching(lg3, eset, a)
            ok = ok and decode_matching(lg3, eset, fp) == a
            ok = ok and fp.payload_bits <= 2 + bits_for(3) + bits_for(degree3)

    # extractor flavor over a verified stack with halving K
    eps = Fraction(1, 4)
    stack = []
    for layer, k_layer in enumerate((2, 1, 0)):
        view, _ = random_extractor_search(3, k_layer, 2, eps, 6,
                                          seed=818 + layer)
        stack.append(view)
    for _ in range(50):
        size = 1 + rng.below(4)
        elements = tuple(rng.sample(8, size))
        eset = EnumeratedSet("b", 2, elements)
        chain = layer_sets(stack, elements)
        for t in range(len(chain) - 1):
            ok = ok and len(chain[t + 1]) < 2 * eps * stack[t].K
        for a in elements:
            fp = encode_extractor(stack, eset, a)
            ok = ok and decode_extractor(stack, eset, fp) == a
            ok = ok and fp.ordinal < fp.ordinal_bound
            ok = ok and fp.total_bits <= (stack[fp.layer].m
                                          + bits_for(len(stack))
                                          + bits_for(fp.ordinal_bound))

    # two-condition flavor on a prefix-verified view
    pview, _ = random_extractor_search(4, 2, 2, Fraction(1, 2), 4, seed=828,
                                       prefix=True)
    two_checked = 0
    for _ in range(25):
        b_elems = tuple(rng.sample(16, 4))
        s_b = EnumeratedSet("b", 2, b_elems)
        s_c = EnumeratedSet("c", 1, b_elems[:2])
        for a in b_elems[:2]:
            try:
                fp = encode_two_conditions(pview, s_b, s_c, a)
            except ValueError:
                continue   # weakly dangerous target: precondition reported
            ok = ok and fp.q == fp.p >> (fp.bound - fp.second_bound)
            ok = ok and decode_two_conditions(pview, s_b, fp, "b") == a
            ok = ok and decode_two_conditions(pview, s_c, fp, "c") == a
            two_checked += 1
    ok = ok and two_checked >= 40
    report(8, f"all three flavors decode to identity ({two_checked} two-condition runs)",
           ok, time.monotonic() - started, 120.0)
