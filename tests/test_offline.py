import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omex import (BipartiteGraph, LimitExceeded, OfflineParams,
                  construct_verified_offline_graph, hall_check,
                  random_offline_graph, series_base, series_bound)
from omex.online import counterexample_graph
from omex.rng import SplitMix64

from conftest import NoPower, complete_graph, small_graphs
from oracles import naive_hall_check, naive_max_matching, naive_series_bound


# --- the reference matching the matching-mode checks compare against ----

def test_complete_graph_saturates():
    g = complete_graph(2, 4)
    assert len(naive_max_matching(g, [0, 1, 2, 3])) == 4


def test_empty_subset_empty_matching():
    assert naive_max_matching(complete_graph(2, 4), []) == []


def test_counterexample_pair_is_matchable():
    # by hand: 0 takes right 0, then 1 augments 0 over to right 1
    assert naive_max_matching(counterexample_graph(), [0, 1]) == [(0, 1),
                                                                  (1, 0)]


def test_max_matching_follows_a_long_augmenting_path():
    # 0, 1 and 2 take rights 0, 1 and 2; then 3 wants right 0, and all
    # three move one step along
    rows = ((0, 1), (1, 2), (2, 3), (0,))
    g = BipartiteGraph(2, 4, 2, rows)
    assert naive_max_matching(g, [0, 1, 2, 3]) == [(0, 1), (1, 2), (2, 3),
                                                    (3, 0)]


# --- hall_check -------------------------------------------------------------

def test_complete_graph_passes_every_bound():
    g = complete_graph(2, 4)
    for s in range(1, 5):
        assert hall_check(g, s) is None


def test_isolated_vertex_is_smallest_witness():
    g = BipartiteGraph(2, 1, 1, ((0,), (0,), (), (0,)))
    assert hall_check(g, 1) == [2]


def test_counterexample_passes_2_fails_3():
    cx = counterexample_graph()
    assert hall_check(cx, 2) is None
    assert hall_check(cx, 3) == [0, 1, 2]
    assert hall_check(cx, 3, mode="matching") == [0, 1, 2]


def test_pair_witness_is_found_from_its_smaller_member():
    # the failing pair (2, 3) ORs to the same mask as (0, 2), so a witness
    # read from the first equal mask of the pair table would be [0, 0, 2]
    g = BipartiteGraph(2, 4, 2, ((0, 1), (2, 3), (0,), (1,)))
    assert hall_check(g, 3) == [0, 2, 3]


def test_hall_check_below_size_3_builds_no_pair_table():
    # C(256, 2) masks of 4096 bits would take about 17 MB; size 2 needs none
    rows = [(2 * v % 4096, (2 * v + 1) % 4096, 4095 - v) for v in range(256)]
    g = BipartiteGraph(8, 4096, 3, rows)
    tracemalloc.start()
    try:
        assert hall_check(g, 2) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_hall_bad_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        hall_check(counterexample_graph(), 2, mode="fast")


def test_hall_s_max_beyond_index_space_rejected():
    with pytest.raises(ValueError, match="s_max"):
        hall_check(counterexample_graph(), 5)
    assert hall_check(counterexample_graph(), 4) == [0, 1, 2]   # 4 = 2^n
    # an n read from a graph file is compared by bit length
    g = BipartiteGraph(NoPower(10 ** 18), 2, 2, ((0, 1), (0, 1)))
    assert hall_check(g, 2 ** 70) is None


@pytest.mark.parametrize("mode", ["exhaustive", "matching"])
@pytest.mark.parametrize("s_max", [0, -1])
def test_hall_s_max_below_one_rejected(mode, s_max):
    with pytest.raises(ValueError, match="s_max >= 1"):
        hall_check(counterexample_graph(), s_max, mode=mode)


@pytest.mark.parametrize("mode", ["exhaustive", "matching"])
def test_subset_budget_refuses_over_budget_scan(mode, monkeypatch):
    g = complete_graph(5, 2)  # 32 left vertices: 32 + C(32, 2) = 528 subsets
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=528")
    assert hall_check(g, 2, mode=mode) is None
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=527")
    with pytest.raises(LimitExceeded, match="528 > 527"):
        hall_check(g, 2, mode=mode)


@pytest.mark.parametrize("mode", ["exhaustive", "matching"])
def test_subset_budget_refusal_says_how_far_it_got(mode, monkeypatch):
    g = complete_graph(3, 2)    # 8 left vertices: 8 + C(8, 2) = 36 subsets
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=10")
    with pytest.raises(LimitExceeded) as raised:
        hall_check(g, 2, mode=mode)
    assert str(raised.value) == ("subset enumeration would visit 36 > 10 "
                                 "nodes; sizes 1-1 passed, 8 subsets checked")
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=7")
    with pytest.raises(LimitExceeded) as raised:
        hall_check(g, 2, mode=mode)
    assert str(raised.value) == ("subset enumeration would visit 8 > 7 "
                                 "nodes; 0 subsets checked")


@pytest.mark.parametrize("mode", ["exhaustive", "matching"])
@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_hall_check_matches_naive_scan(mode, g):
    for s in range(1, min(2 ** g.n, g.left_size + 1) + 1):
        assert hall_check(g, s, mode=mode) == naive_hall_check(g, s, mode)


def test_hall_check_matches_naive_scan_on_bench_shaped_graphs():
    # the benchmark's shapes: (4, 3, 2) draws checked up to size 8, and 16
    # left vertices of degree 2-4 on 12-16 right ones checked up to 16
    rng = SplitMix64(2024)
    cases = [(random_offline_graph(OfflineParams(4, 3, 2), rng.next_u64()), 8)
             for _ in range(3)]
    for degree in (2, 3, 4):
        for right in (12, 14, 16):
            rows = [[rng.below(right) for _ in range(degree)]
                    for _ in range(16)]
            cases.append((BipartiteGraph.build(4, right, degree, rows), 16))
    # pair tables past 16 left vertices: a (5, 3, 2) draw, and 32 left
    # vertices of degree 2 on 16 right ones, which fail at [9, 22, 31]
    cases.append((random_offline_graph(OfflineParams(5, 3, 2),
                                       rng.next_u64()), 4))
    rows = [[rng.below(16) for _ in range(2)] for _ in range(32)]
    cases.append((BipartiteGraph.build(5, 16, 2, rows), 4))
    witnesses = []
    for g, s in cases:
        witness = hall_check(g, s)
        assert witness == naive_hall_check(g, s)
        witnesses.append(witness)
        if witness is not None and len(witness) <= 5:
            assert hall_check(g, s, mode="matching") == witness
            assert naive_hall_check(g, s, "matching") == witness
    assert witnesses[:3] == [None] * 3
    assert witnesses[-2:] == [None, [9, 22, 31]]
    assert sum(w is not None for w in witnesses) >= 6


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=4, max_right=4, max_degree=3))
def test_exhaustive_and_matching_modes_agree(g):
    # by Hall's theorem, the smallest subset short of neighbors is the
    # smallest one a maximum matching fails to saturate
    for s in range(1, g.left_size + 1):
        witness = naive_hall_check(g, s, "matching")
        assert hall_check(g, s) == hall_check(g, s, mode="matching") == witness


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=3, max_right=4, max_degree=3),
       st.integers(min_value=1, max_value=8))
def test_hall_pass_is_downward_closed(g, s):
    s = min(s, 2 ** g.n)
    if hall_check(g, s) is None:
        for smaller in range(1, s):
            assert hall_check(g, smaller) is None


# --- series bound -----------------------------------------------------------

def test_series_bound_exact_small_case():
    assert series_bound(2, 1, 2) == Fraction(9, 64)
    assert series_base(2, 1, 2) == Fraction(1, 8)


def test_series_base_n4():
    assert series_base(4, 1, 2) == Fraction(1, 2 ** 55)
    total = series_bound(4, 1, 2)
    assert Fraction(1, 2 ** 55) < total < Fraction(1, 2 ** 54)


def test_series_bound_monotone_in_n():
    values = [series_bound(n, 1, 2) for n in range(2, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_series_bound_rejects_small_n():
    with pytest.raises(ValueError):
        series_bound(1, 1, 2)
    with pytest.raises(ValueError):
        series_base(1, 1, 1)


@pytest.mark.parametrize("k, c, message", [(-1, 2, "k >= 0"), (1, 0, "c >= 1"),
                                           (1, -1, "c >= 1")])
def test_series_rejects_negative_k_and_c_below_one(k, c, message):
    with pytest.raises(ValueError, match=message):
        series_bound(2, k, c)
    with pytest.raises(ValueError, match=message):
        series_base(2, k, c)


def test_series_bound_closed_form_matches_term_by_term_sum():
    assert series_base(2, 4, 2) == 1 and series_bound(2, 4, 2) == 16
    for n, k, c in itertools.product(range(2, 6), range(7), range(1, 4)):
        assert series_bound(n, k, c) == naive_series_bound(n, k, c), (n, k, c)


# --- random construction ----------------------------------------------------

def test_same_seed_same_graph():
    p = OfflineParams(2, 1, 2)
    assert random_offline_graph(p, 42) == random_offline_graph(p, 42)
    assert random_offline_graph(p, 42) != random_offline_graph(p, 43)


def test_generated_shape_n2k1c2():
    g = random_offline_graph(OfflineParams(2, 1, 2), 5)
    assert g.right_size == 8
    assert g.left_size == 4
    assert all(len(g.neighbors_of(v)) == 4 for v in range(4))


def test_generation_limit_guard(monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=10")
    with pytest.raises(LimitExceeded):
        random_offline_graph(OfflineParams(4, 1, 2), 1)


def test_params_validation():
    with pytest.raises(ValueError):
        OfflineParams(2, 3, 2)
    with pytest.raises(ValueError):
        OfflineParams(2, 0, 2)
    with pytest.raises(ValueError):
        OfflineParams(2, 1, 0)


def test_hall_failure_frequency_within_union_bound():
    p = OfflineParams(2, 1, 2)
    trials = 200
    failures = sum(
        1 for seed in range(trials)
        if hall_check(random_offline_graph(p, seed), 2) is not None)
    bound = float(series_bound(2, 1, 2))
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert failures / trials <= bound + 3 * sigma


def test_construct_verified_small():
    g, attempts = construct_verified_offline_graph(OfflineParams(2, 1, 2), 7)
    assert attempts >= 1
    assert hall_check(g, 2) is None


def test_construct_verified_n3k2():
    g, attempts = construct_verified_offline_graph(OfflineParams(3, 2, 2), 7)
    assert hall_check(g, 4) is None
    assert g.right_size == 4 * 9


def test_construct_zero_attempts_rejected():
    with pytest.raises(ValueError):
        construct_verified_offline_graph(OfflineParams(2, 1, 2), 7, max_attempts=0)
