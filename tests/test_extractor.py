import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omex import (BipartiteGraph, ExtractorView, GraphFormatError,
                  LimitExceeded, deviation, hazard_report, hazard_walk,
                  is_extractor, is_prefix_extractor, optimal_degree,
                  optimal_degree_pow2, prefix_failure_bound,
                  random_extractor_search, truncate)
from omex.extractor import (_log_comb, _subset_walk, load_view, next_pow2,
                            save_view, view_to_json)
from omex.graph import from_json
from omex.rng import SplitMix64

from conftest import random_view, uniform_view
from oracles import (exhaustive_subset_deviation, naive_hazard_report,
                     naive_hazard_scan, naive_is_extractor,
                     naive_is_prefix_extractor)


def point_mass_view():
    # one left vertex, both edges to right vertex 0
    return ExtractorView(BipartiteGraph(0, 2, 2, ((0, 0),)), 1, Fraction(1, 4))


# --- degree formula ---------------------------------------------------------

def test_optimal_degree_balanced_case():
    assert optimal_degree(16, 16, 16, Fraction(1, 2)) == 4


def test_optimal_degree_first_term_dominates():
    assert optimal_degree(16, 4, 16, Fraction(1, 2)) == 12


def test_optimal_degree_quarter_eps():
    assert optimal_degree(16, 16, 16, Fraction(1, 4)) == 16


def test_optimal_degree_pow2_rounds_up():
    assert optimal_degree_pow2(16, 4, 16, Fraction(1, 2)) == 16
    assert next_pow2(4) == 4
    assert next_pow2(5) == 8
    assert next_pow2(1) == 1


def test_optimal_degree_domain_checks():
    with pytest.raises(ValueError):
        optimal_degree(16, 1, 16, Fraction(1, 2))
    with pytest.raises(ValueError):
        optimal_degree(16, 32, 16, Fraction(1, 2))
    with pytest.raises(ValueError):
        optimal_degree(16, 4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        optimal_degree(16, 4, 16, 1)


# --- deviation --------------------------------------------------------------

def test_uniform_view_deviation_zero():
    uv = uniform_view(2, 1, repeat=2, K=2)
    for size in (1, 2, 3):
        for S in itertools.combinations(range(4), size):
            assert deviation(uv, S) == 0


def test_point_mass_deviation_half():
    assert deviation(point_mass_view(), (0,)) == Fraction(1, 2)


def test_deviation_rejects_empty_and_bad_subsets():
    uv = uniform_view(1, 1, K=1)
    with pytest.raises(ValueError):
        deviation(uv, ())
    with pytest.raises(ValueError):
        deviation(uv, (0, 0))
    with pytest.raises(ValueError):
        deviation(uv, (9,))


def test_deviation_matches_brute_force_oracle():
    checked = 0
    for seed in range(40):
        n = 1 + seed % 3          # N in {2,4,8}
        m = 1 + seed % 2          # M in {2,4}
        view = random_view(1000 + seed, n=n, m=m, d=2, K=2)
        for S in itertools.combinations(range(view.N), 2):
            assert deviation(view, S) == exhaustive_subset_deviation(view, S)
            checked += 1
    assert checked >= 200


def test_deviation_counts_repeated_edges_at_every_subset_size():
    # degree 8 over M in {2, 4}, so rows repeat right vertices; every
    # nonempty subset, on fresh views
    for seed in range(6):
        view = random_view(2000 + seed, n=3, m=1 + seed % 2, d=3, K=2)
        for size in range(1, view.N + 1):
            for S in itertools.combinations(range(view.N), size):
                assert deviation(view, S) == \
                    exhaustive_subset_deviation(view, S)


def test_deviation_of_superset_bounded_by_worst_size_k_subset():
    # uniform mix over size-K subsets can only average deviations down
    for seed in range(8):
        view = random_view(2000 + seed, n=3, m=2, d=3, K=2)
        big = (0, 2, 5)
        worst = max(deviation(view, S) for S in itertools.combinations(big, 2))
        assert deviation(view, big) <= worst


# --- is_extractor -----------------------------------------------------------

def test_uniform_view_verifies():
    uv = uniform_view(2, 1, repeat=2, K=2, eps=Fraction(1, 8))
    res = is_extractor(uv)
    assert res.ok and res.verdict == "ok"
    assert res.checked == math.comb(4, 2)


def test_point_mass_witness():
    res = is_extractor(point_mass_view())
    assert res.witness == (0,)
    assert res.witness_deviation == Fraction(1, 2)
    assert res.verdict == "witness"


def test_random_views_at_formula_degree_mostly_verify():
    # D = 16 = next power of two past the formula value for these parameters
    ok = sum(
        1 for seed in range(5)
        if is_extractor(random_view(3000 + seed, n=4, m=2, d=4, K=4)).ok)
    assert ok >= 3


def test_exhaustive_limit_guard(monkeypatch):
    # N * 2^M = 256 <= C(16, 4) = 1820, so the check is dual and its first
    # test alone charges 2^M - 1 = 15 right subsets
    view = random_view(1, n=4, m=2, d=3, K=4)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=14")
    with pytest.raises(LimitExceeded):
        is_extractor(view)


def test_exhaustive_limit_message_reports_progress(monkeypatch):
    # N * 2^M = 8 * 2^16 > C(8, 4) = 70, so the subsets are walked: the
    # first three nodes are (0), (0, 1) and (0, 1, 2); the third already
    # certifies its 5 completions, and the fourth node is over the budget
    view = uniform_view(3, 4, K=4)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=3")
    with pytest.raises(LimitExceeded,
                       match=r"visited 3 nodes, certified 5 of the "
                             r"C\(8,4\) = 70 size-K subsets"):
        is_extractor(view)


def dual_witness_view():
    """N * 2^M = 32 <= C(8, 4) = 70, so the check is dual; its first
    witness is (1, 3, 4, 6)."""
    rows = ((0, 0, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1), (0, 1, 1, 1),
            (0, 0, 1, 1), (0, 0, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1))
    return ExtractorView(BipartiteGraph(3, 2, 4, rows), 4, Fraction(1, 4))


def test_dual_limit_message_reports_progress(monkeypatch):
    # the whole-view test (3 right subsets) fails, node (0) is visited and
    # its test (3 more) certifies C(7, 3) = 35 subsets; node (1) is over
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=7")
    with pytest.raises(LimitExceeded,
                       match=r"visited 1 nodes and 2 subtree tests of 3 right "
                             r"subsets each, certified 35 of the "
                             r"C\(8,4\) = 70 size-K subsets"):
        is_extractor(dual_witness_view())


def test_subset_walk_that_settles_nothing_yields_every_subset():
    # the state is the prefix itself, so each leaf's state is its subset
    for N in range(8):
        for K in range(1, N + 1):
            walk = list(_subset_walk(N, K, (), lambda p, v, r: p + (v,),
                                     "test walk"))
            assert [S for S, _, _, _ in walk] == list(
                itertools.combinations(range(N), K))
            assert all(state == S and (certified, tests) == (0, 0)
                       for S, state, certified, tests in walk)


def drive(walk):
    """(yielded subsets, walk return value) of a `_subset_walk`."""
    leaves = []
    while True:
        try:
            leaves.append(next(walk)[0])
        except StopIteration as done:
            return leaves, done.value


@pytest.mark.parametrize("N, K", [(1, 1), (5, 2), (6, 3), (7, 4), (7, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_subset_walk_counts_settled_subtrees_and_charges_each_step(
        monkeypatch, N, K, seed):
    rng = SplitMix64(seed)
    settled = {p for r in range(1, K + 1)
               for p in itertools.combinations(range(N), r)
               if rng.below(4) == 0}
    calls = []

    def step(prefix, v, r):
        prefix += (v,)
        assert r == K - len(prefix)
        calls.append(prefix)
        return None if prefix in settled else prefix

    leaves, (certified, tests) = drive(_subset_walk(N, K, (), step, "test"))
    assert tests == 0
    assert certified + len(leaves) == math.comb(N, K)
    assert leaves == [S for S in itertools.combinations(range(N), K)
                      if not any(S[:r] in settled for r in range(1, K + 1))]
    nodes = len(calls)
    monkeypatch.setenv("OMEX_LIMITS", f"subset_nodes={nodes}")
    assert drive(_subset_walk(N, K, (), step, "test")) == (
        leaves, (certified, 0))
    monkeypatch.setenv("OMEX_LIMITS", f"subset_nodes={nodes - 1}")
    calls.clear()
    with pytest.raises(LimitExceeded) as raised:
        drive(_subset_walk(N, K, (), step, "test"))
    assert len(calls) == nodes - 1
    done = sum(math.comb(N - 1 - p[-1], K - len(p))
               for p in calls if p in settled)
    assert str(raised.value) == (
        f"test exceeded limit {nodes - 1} nodes: visited {nodes - 1} nodes, "
        f"certified {done} of the C({N},{K}) = {math.comb(N, K)} size-K "
        f"subsets")


def test_exact_subtree_test_settles_what_missing_mass_cannot():
    view = dual_witness_view()
    D, K, M = view.D, view.K, view.M
    threshold = view.eps * D * K * M
    for v in (0, 1):
        # neither prefix (0) nor (1) has its missing mass below the
        # threshold, so the cheap filter certifies neither
        e = view.counts[v]
        assert sum(max(0, D * K - M * c) for c in e) >= threshold
    # yet every completion of (0) passes, so the exact test certifies it,
    # while (1) holds a failure and is entered
    assert all(deviation(view, (0,) + T) < view.eps
               for T in itertools.combinations(range(1, 8), 3))
    res = is_extractor(view)
    assert res == naive_is_extractor(view)
    assert res.witness == (1, 3, 4, 6)
    # the 35 subsets with 0, the 10 (1, 2, *, *), (1, 3, 4, 5), the witness
    assert res.checked == math.comb(7, 3) + math.comb(5, 2) + 2
    # the whole view, (0), (1), (1, 2), (1, 3), (1, 3, 4)
    assert res.subtree_tests == 6


def test_exhaustive_frontier_n5_K8():
    # C(32, 8) = 10,518,300 subsets, more than the default subset_nodes
    # budget
    res = is_extractor(random_view(5, n=5, m=3, d=6, K=8))
    assert res.ok
    assert res.checked == math.comb(32, 8) == 10_518_300


def test_exhaustive_frontier_n6_K16():
    # C(64, 16) ~ 4.9e14 subsets, settled by one pass over 2^8 right sets
    res = is_extractor(random_view(0, n=6, m=3, d=5, K=16))
    assert res.ok
    assert res.checked == math.comb(64, 16)
    assert res.subtree_tests == 1


def test_exhaustive_frontier_n6_K16_M16():
    # 2^16 right sets; the walk would face the same C(64, 16) subsets
    res = is_extractor(random_view(0, n=6, m=4, d=6, K=16))
    assert res.ok
    assert res.checked == math.comb(64, 16)


def lex_rank(combo, N: int) -> int:
    """How many size-|combo| subsets of range(N) come before combo in
    lexicographic order."""
    K, rank, low = len(combo), 0, 0
    for j, v in enumerate(combo):
        rank += sum(math.comb(N - 1 - u, K - 1 - j) for u in range(low, v))
        low = v + 1
    return rank


def test_lex_rank_matches_enumeration():
    for i, combo in enumerate(itertools.combinations(range(7), 3)):
        assert lex_rank(combo, 7) == i


def test_exhaustive_frontier_n7_K16_witness():
    # C(128, 16) ~ 9.3e19 subsets; the dual walk goes straight down to the
    # lexicographically first witness
    view = random_view(0, n=7, m=3, d=3, K=16, eps=Fraction(1, 4))
    res = is_extractor(view)
    assert res.witness is not None
    assert deviation(view, res.witness) == res.witness_deviation >= view.eps
    assert res.checked == lex_rank(res.witness, 128) + 1


@st.composite
def small_views(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    m = draw(st.integers(min_value=0, max_value=3))
    d = draw(st.integers(min_value=0, max_value=4))
    N, M, D = 2 ** n, 2 ** m, 2 ** d
    rows = tuple(
        tuple(draw(st.lists(st.integers(min_value=0, max_value=M - 1),
                            min_size=D, max_size=D)))
        for _ in range(N))
    K = draw(st.integers(min_value=1, max_value=N))
    eps = Fraction(draw(st.integers(min_value=1, max_value=15)), 16)
    return ExtractorView(BipartiteGraph(n, M, D, rows), K, eps)


@settings(max_examples=150, deadline=None)
@given(small_views())
def test_exhaustive_walk_matches_naive_scan(view):
    assert is_extractor(view) == naive_is_extractor(view)
    for k in range(min(view.n, view.m) + 1):
        pview = ExtractorView(view.graph, 2 ** k, view.eps)
        assert (is_prefix_extractor(pview, k)
                == naive_is_prefix_extractor(pview, k))


def is_dual(n: int, m: int, K: int) -> bool:
    """Whether `is_extractor` decides a view of this shape by right-subset
    duality rather than by walking its subsets."""
    return 2 ** n << 2 ** m <= math.comb(2 ** n, K)


SHAPES = {dual: [(n, m, K) for n in range(5) for m in range(3)
                 for K in range(1, 2 ** n + 1) if is_dual(n, m, K) == dual]
          for dual in (True, False)}


@st.composite
def views_of_shape(draw, shapes):
    """Views whose edges land on the first `width` right vertices only, so
    that a narrow width makes failing views common."""
    n, m, K = draw(st.sampled_from(shapes))
    d = draw(st.integers(min_value=0, max_value=3))
    M, D = 2 ** m, 2 ** d
    width = draw(st.integers(min_value=1, max_value=M))
    rows = tuple(
        tuple(draw(st.lists(st.integers(min_value=0, max_value=width - 1),
                            min_size=D, max_size=D)))
        for _ in range(2 ** n))
    eps = Fraction(draw(st.integers(min_value=1, max_value=15)), 16)
    return ExtractorView(BipartiteGraph(n, M, D, rows), K, eps)


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "walk"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_path_matches_naive_scan(dual, data):
    view = data.draw(views_of_shape(SHAPES[dual]))
    res = is_extractor(view)
    assert (res.subtree_tests > 0) == dual
    assert res == naive_is_extractor(view)
    for k in range(min(view.n, view.m) + 1):
        pview = ExtractorView(view.graph, 2 ** k, view.eps)
        assert (is_prefix_extractor(pview, k)
                == naive_is_prefix_extractor(pview, k))


def test_each_path_finds_witnesses_like_naive_scan():
    rng = SplitMix64(7)
    seen = set()
    for dual in (True, False):
        shapes = [s for s in SHAPES[dual] if s[0] >= 3]
        for i in range(60):
            n, m, K = shapes[i % len(shapes)]
            width = 1 + rng.below(2 ** m)
            rows = rng.rows(2 ** n, 4, width)
            eps = Fraction(1 + rng.below(6), 8)
            view = ExtractorView(BipartiteGraph(n, 2 ** m, 4, rows), K, eps)
            res = is_extractor(view)
            assert res == naive_is_extractor(view)
            seen.add((res.subtree_tests > 0, res.verdict))
    assert seen == {(True, "ok"), (True, "witness"),
                    (False, "ok"), (False, "witness")}


def test_sampled_mode_reports_samples():
    view = uniform_view(3, 2, K=4)
    res = is_extractor(view, samples=50, seed=9)
    assert res.mode == "sampled"
    assert res.verdict == "no-counterexample-found"
    assert not res.ok          # sampled mode never claims "ok"
    assert res.checked == 50


def test_sampled_mode_leaves_the_count_table_unbuilt():
    # each sample counts its own |S| * D edges; the view's N * D are never
    # tabulated
    view = random_view(7, n=10, m=4, d=4, K=16)
    res = is_extractor(view, samples=10, seed=3)
    assert res.checked == 10
    assert not {"counts", "_table"} & set(vars(view))


def test_sampled_mode_needs_seed():
    with pytest.raises(ValueError, match="seed"):
        is_extractor(uniform_view(2, 1, K=2), samples=10)


@pytest.mark.parametrize("samples", [0, -2])
def test_sampled_mode_needs_a_sample(samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        is_extractor(uniform_view(2, 1, K=2), samples=samples, seed=1)


def test_sampled_mode_can_find_witness():
    res = is_extractor(point_mass_view(), samples=5, seed=1)
    assert res.verdict == "witness"
    assert res.witness == (0,)


# --- hazards ----------------------------------------------------------------

def test_uniform_view_no_bad_vertices():
    uv = uniform_view(2, 2, K=4)
    rep = hazard_report(uv, (0, 1, 2, 3))
    assert rep.bad == ()
    assert rep.dangerous == ()
    assert rep.weakly_dangerous == ()


def test_bad_threshold_is_strict():
    # e(y0) = 2 equals the threshold 2*D*K/M = 2 exactly: not bad
    view = ExtractorView(BipartiteGraph(0, 2, 2, ((0, 0),)), 1, Fraction(1, 4))
    rep = hazard_report(view, (0,))
    assert rep.bad_threshold == 2
    assert rep.bad == ()


def test_bad_factor_parameter_tightens_threshold():
    view = ExtractorView(BipartiteGraph(0, 2, 2, ((0, 0),)), 1, Fraction(1, 4))
    rep = hazard_report(view, (0,), bad_factor=1)
    assert rep.bad == (0,)
    assert rep.dangerous == (0,)
    assert rep.weakly_dangerous == (0,)


@pytest.mark.parametrize("bad_factor", [0, -1])
def test_bad_factor_below_one_rejected(bad_factor):
    view = ExtractorView(BipartiteGraph(0, 2, 2, ((0, 0),)), 1, Fraction(1, 4))
    with pytest.raises(ValueError, match=f"bad factor >= 1, got {bad_factor}"):
        hazard_report(view, (0,), bad_factor=bad_factor)
    with pytest.raises(ValueError, match=f"bad factor >= 1, got {bad_factor}"):
        list(hazard_walk(view, bad_factor))


def test_dangerous_subset_of_weakly_dangerous():
    for seed in range(10):
        view = random_view(4000 + seed, n=3, m=1, d=2, K=4)
        rep = hazard_report(view, (0, 1, 2, 3))
        assert set(rep.dangerous) <= set(rep.weakly_dangerous)
        assert set(rep.weakly_dangerous) <= set(rep.subset)


def test_hazard_rejects_oversized_subset():
    with pytest.raises(ValueError, match="exceeds K"):
        hazard_report(uniform_view(2, 1, K=2), (0, 1, 2))


def test_hazard_counts_bounded_on_verified_views(verified_views):
    # the two counting bounds these protocols lean on, checked exhaustively
    for view in verified_views:
        K, eps = view.K, view.eps
        for S in itertools.combinations(range(view.N), K):
            rep = hazard_report(view, S)
            assert len(rep.dangerous) < 2 * eps * K
            assert len(rep.weakly_dangerous) <= 4 * eps * K
            assert len(rep.bad) < eps * view.M   # bad fraction below eps


@st.composite
def hazard_views(draw):
    """Small views whose edges land on the first `width` right vertices
    only, so that a narrow width makes bad right vertices common."""
    n = draw(st.integers(min_value=0, max_value=4))
    m = draw(st.integers(min_value=0, max_value=3))
    d = draw(st.integers(min_value=0, max_value=3))
    N, M, D = 2 ** n, 2 ** m, 2 ** d
    width = draw(st.integers(min_value=1, max_value=M))
    rows = tuple(
        tuple(draw(st.lists(st.integers(min_value=0, max_value=width - 1),
                            min_size=D, max_size=D)))
        for _ in range(N))
    K = draw(st.integers(min_value=1, max_value=N))
    return ExtractorView(BipartiteGraph(n, M, D, rows), K, Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hazard_report_matches_naive(data):
    # a view's first call counts S directly and later ones read its count
    # table; factors up to 9 put the cut at or above D * K when M <= 8
    view = data.draw(hazard_views())
    for _ in range(3):
        size = data.draw(st.integers(min_value=1, max_value=view.K))
        S = data.draw(st.lists(st.integers(min_value=0, max_value=view.N - 1),
                               min_size=size, max_size=size, unique=True))
        bad_factor = data.draw(st.integers(min_value=1, max_value=9))
        assert hazard_report(view, S, bad_factor) == naive_hazard_report(
            view, S, bad_factor)


def test_hazard_report_matches_naive_on_nonempty_bad_sets():
    # the differential above on a fixed sample that is sure to hit bad
    # vertices, dangerous elements and weakly dangerous ones
    rng = SplitMix64(11)
    seen = {"bad": 0, "dangerous": 0, "weakly_dangerous": 0}
    for _ in range(300):
        view = random_view(rng.next_u64(), n=3, m=2, d=rng.below(3),
                           K=1 + rng.below(8))
        S = rng.sample(view.N, 1 + rng.below(view.K))
        for bad_factor in (1, 2, 3):
            rep = hazard_report(view, S, bad_factor)
            assert rep == naive_hazard_report(view, S, bad_factor)
            for key in seen:
                seen[key] += bool(getattr(rep, key))
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("S, bad_factor", [
    ((0,), 0), ((0,), -1), ((), 0), ((), 2), ((1, 1), 2), ((1, 1), 0),
    ((0, 4), 2), ((-1,), 2), ((0, 1, 2), 2), ((0, 0, 1), 2), ((0, 1, 9), 2),
    (range(5), 2), ((9, -1), 2), ((3, -1), 2)])
def test_hazard_report_errors_match_naive(S, bad_factor):
    view = uniform_view(2, 1, K=2)              # N = 4, K = 2
    with pytest.raises(ValueError) as got:
        hazard_report(view, S, bad_factor)
    with pytest.raises(ValueError) as want:
        naive_hazard_report(view, S, bad_factor)
    assert str(got.value) == str(want.value)


def test_hazard_report_takes_every_branch():
    # each branch of `hazard_report` against the naive recount: the packed
    # test with and without a bad vertex, also on views where no set of
    # <= K vertices has one (the sum over y of the K largest counts into y
    # is at most the cut); the samples include cuts at or above D * K
    # (M = 1, or a factor of at least M) and |S| < K
    rng = SplitMix64(23)
    seen = dict.fromkeys(["hazard-free view", "packed, bad", "packed, clean",
                          "cut >= D*K", "M = 1", "|S| < K"], 0)
    for _ in range(150):
        view = random_view(rng.next_u64(), n=1 + rng.below(3), m=rng.below(3),
                           d=rng.below(3), K=1)
        view = ExtractorView(view.graph, 1 + rng.below(view.N), view.eps)
        peak = max(sum(sorted(c)[-view.K:]) for c in zip(*view.counts))
        for _ in range(4):
            S = rng.sample(view.N, 1 + rng.below(view.K))
            bad_factor = 1 + rng.below(2 * view.M)
            rep = hazard_report(view, S, bad_factor)
            assert rep == naive_hazard_report(view, S, bad_factor)
            cut = bad_factor * view.D * view.K // view.M
            seen["packed, bad" if rep.bad else "packed, clean"] += 1
            if peak <= cut:
                seen["hazard-free view"] += 1
                assert not rep.bad
            seen["cut >= D*K"] += cut >= view.D * view.K
            seen["M = 1"] += view.M == 1
            seen["|S| < K"] += len(S) < view.K
    assert min(seen.values()) > 0, seen


@settings(max_examples=100, deadline=None)
@given(view=hazard_views())
@example(view=point_mass_view())                                # multi-edge
@example(view=ExtractorView(BipartiteGraph(1, 1, 2, ((0, 0), (0, 0))), 1,
                            Fraction(1, 2)))                    # M = 1
@example(view=ExtractorView(BipartiteGraph(1, 2, 1, ((1,), (1,))), 2,
                            Fraction(1, 2)))                    # D = 1
def test_counts_match_a_recount_from_the_edges(view):
    recount = [[0] * view.M for _ in range(view.N)]
    for v, row in enumerate(view.graph.neighbors):
        for r in row:
            recount[v][r] += 1
    assert view.counts == tuple(map(tuple, recount))


def test_count_table_stays_outside_the_view_fields():
    view = random_view(3, n=3, m=2, d=2, K=4)
    twin = random_view(3, n=3, m=2, d=2, K=4)
    before = repr(view), hash(view), view.to_doc(), view_to_json(view)
    for S in [(0, 1), (2, 3, 4), (5,)]:
        hazard_report(view, S)
    list(hazard_walk(view))
    assert {"counts", "_table"} <= vars(view).keys()
    assert not {"counts", "_table"} & vars(twin).keys()
    assert view == twin and hash(view) == hash(twin)
    assert (repr(view), hash(view), view.to_doc(),
            view_to_json(view)) == before
    assert repr(view) == repr(twin) and view.to_doc() == twin.to_doc()


def test_truncated_views_stay_outside_the_view_fields():
    view = random_view(3, n=3, m=2, d=2, K=4)
    twin = random_view(3, n=3, m=2, d=2, K=4)
    before = repr(view), hash(view), view.to_doc(), view_to_json(view)
    kept = [truncate(view, i) for i in (1, 2)]
    assert all(truncate(view, i) is sub for i, sub in zip((1, 2), kept))
    assert truncate(view, 0) is view
    assert "_truncated" in vars(view) and "_truncated" not in vars(twin)
    assert view == twin and hash(view) == hash(twin)
    assert (repr(view), hash(view), view.to_doc(),
            view_to_json(view)) == before
    assert repr(view) == repr(twin) and view.to_doc() == twin.to_doc()
    # equal, field by field, to the views built from a twin left untouched
    fresh = [truncate(ExtractorView(twin.graph, twin.K, twin.eps), i)
             for i in (1, 2)]
    assert kept == fresh
    assert [view_to_json(sub) for sub in kept] == [view_to_json(sub)
                                                   for sub in fresh]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hazard_walk_matches_naive_scan(data):
    view = data.draw(hazard_views())
    bad_factor = data.draw(st.integers(min_value=1, max_value=3))
    assert list(hazard_walk(view, bad_factor)) == naive_hazard_scan(
        view, bad_factor)


def test_hazard_walk_certifies_a_uniform_view_at_depth_one(monkeypatch):
    # no vertex is ever bad, so each first element certifies its whole
    # subtree: N - K + 1 = 9 nodes for the C(16, 8) subsets
    view = uniform_view(4, 2, K=8)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=9")
    assert list(hazard_walk(view)) == []
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=8")
    with pytest.raises(LimitExceeded) as raised:
        list(hazard_walk(view))
    assert str(raised.value) == (
        "hazard walk exceeded limit 8 nodes: visited 8 nodes, certified "
        "12869 of the C(16,8) = 12870 size-K subsets")


# --- truncation and prefixes ------------------------------------------------

def test_truncate_zero_is_identity():
    view = random_view(7, n=2, m=2, d=2, K=2)
    assert truncate(view, 0) == view


def test_truncate_full_collapses_to_point():
    view = random_view(8, n=2, m=2, d=2, K=4)
    sub = truncate(view, 2)
    assert sub.M == 1
    assert sub.K == 1
    for S in itertools.combinations(range(4), 2):
        assert deviation(sub, S) == 0


def test_truncate_shifts_indices():
    view = ExtractorView(BipartiteGraph(1, 8, 2, ((6, 1), (7, 0))), 2,
                         Fraction(1, 2))
    sub = truncate(view, 1)
    assert sub.graph.neighbors_of(0) == (3, 0)
    assert sub.graph.neighbors_of(1) == (3, 0)
    assert sub.K == 1


def test_truncate_range_check():
    view = uniform_view(1, 2, K=2)
    with pytest.raises(ValueError):
        truncate(view, 3)
    with pytest.raises(ValueError):
        truncate(view, -1)


def test_uniform_view_is_prefix_extractor():
    uv = uniform_view(3, 2, K=4, eps=Fraction(1, 8))
    res = is_prefix_extractor(uv, 2)
    assert res.ok
    assert [ki for _, ki, _ in res.levels] == [4, 2, 1]


def test_prefix_witness_at_base_level():
    # all edges of every vertex on one right vertex: fails already at i=0
    g = BipartiteGraph(1, 4, 2, ((0, 0), (0, 0)))
    view = ExtractorView(g, 2, Fraction(1, 4))
    res = is_prefix_extractor(view, 1)
    assert not res.ok
    assert res.witness_level == 0
    level, S, dev = res.witness
    assert level == 0 and dev >= Fraction(1, 4)


def test_prefix_witness_above_base_level():
    # level 0 passes, so the witness comes from the second and last level
    res = is_prefix_extractor(random_view(14, n=3, m=2, d=2, K=4), 2)
    assert [c.verdict for _, _, c in res.levels] == ["ok", "witness"]
    assert not res.ok
    assert res.witness == (1, (0, 3), Fraction(1, 2))


def test_prefix_requires_matching_K():
    with pytest.raises(ValueError, match="K"):
        is_prefix_extractor(uniform_view(2, 2, K=3), 2)


# --- failure bound ----------------------------------------------------------

def test_prefix_failure_bound_single_level():
    n, k, m, d = 3, 0, 2, 3
    expected = math.comb(8, 1) * 2 ** 4 * math.exp(-2 * 0.25 * 1 * 8)
    assert prefix_failure_bound(n, k, m, d, Fraction(1, 2)) == pytest.approx(
        expected, rel=1e-12)


def test_prefix_failure_bound_minimal_d():
    # numeric sweep: smallest d with bound < 1 for n=8, k=3, m=3, eps=1/4
    values = {d: prefix_failure_bound(8, 3, 3, d, Fraction(1, 4))
              for d in range(3, 9)}
    minimal = min(d for d, v in values.items() if v < 1)
    assert minimal == 6


def test_prefix_failure_bound_monotone_in_d():
    for d in range(2, 8):
        assert (prefix_failure_bound(6, 2, 2, d + 1, Fraction(1, 4))
                < prefix_failure_bound(6, 2, 2, d, Fraction(1, 4)))


def test_log_binomial_past_the_exact_size_matches_exact_log():
    # 17 * 4096 > 2^16, so the log comes from lgamma, not from the binomial
    exact = math.log(math.comb(2 ** 17, 4096))
    assert _log_comb(2 ** 17, 4096, 17) == pytest.approx(exact, rel=1e-12)
    assert _log_comb(2 ** 17, 2 ** 17 - 4096, 17) == pytest.approx(
        exact, rel=1e-12)


@pytest.mark.parametrize("n, k", [(60, 11), (40, 11), (30, 12)])
def test_log_binomial_far_below_n_matches_exact_log(n, k):
    # lgamma(N + 1) - lgamma(N - k + 1) cancels to nothing when N >> k:
    # it gave 65536.0 at (2^60, 2^11), where the log is 71601.97
    exact = math.log(math.comb(2 ** n, 2 ** k))
    assert _log_comb(2 ** n, 2 ** k, n) == pytest.approx(exact, rel=1e-12)


def test_prefix_failure_bound_far_below_n_matches_exact_logs():
    # every level's log binomial past 2^16 bits is far below N = 2^64; with
    # the lgamma form the sum read inf
    n, k, m, d, eps = 64, 13, 12, 6, Fraction(609, 1000)
    exact = sum(math.exp(math.log(math.comb(2 ** n, 2 ** s))
                         + 2 ** (m - k + s) * math.log(2)
                         - 2 * float(eps) ** 2 * 2 ** (s + d))
                for s in range(k + 1))
    assert prefix_failure_bound(n, k, m, d, eps) == pytest.approx(exact,
                                                                 rel=1e-9)
    assert exact < 1


def test_prefix_failure_bound_domain():
    with pytest.raises(ValueError):
        prefix_failure_bound(2, 3, 2, 2, Fraction(1, 2))  # K > N
    with pytest.raises(ValueError):
        prefix_failure_bound(3, 1, 2, 2, 2)  # eps out of range


# --- randomized search ------------------------------------------------------

def test_search_is_deterministic():
    a = random_extractor_search(3, 1, 1, Fraction(1, 2), 4, seed=5)
    b = random_extractor_search(3, 1, 1, Fraction(1, 2), 4, seed=5)
    assert a == b


def test_search_returns_verified_view():
    view, attempts = random_extractor_search(3, 1, 1, Fraction(1, 2), 4, seed=5)
    assert attempts >= 1
    assert is_extractor(view).ok
    assert (view.N, view.M, view.D, view.K) == (8, 2, 16, 2)


def test_prefix_search_returns_prefix_verified_view():
    view, _ = random_extractor_search(4, 2, 2, Fraction(1, 2), 4, seed=5,
                                      prefix=True)
    assert is_prefix_extractor(view, 2).ok
    for i in range(3):
        sub = truncate(view, i)
        assert sub.K == 2 ** (2 - i)
        assert is_extractor(sub).ok


def test_search_exhausts_attempts_on_hopeless_parameters():
    with pytest.raises(RuntimeError, match="attempts"):
        random_extractor_search(2, 1, 2, Fraction(1, 8), 0, seed=5,
                                max_attempts=3)


@pytest.mark.parametrize("sizes", [(-1, 1, 1, 4), (3, -1, 1, 4),
                                   (3, 1, -1, 4), (3, 1, 1, -1)])
def test_search_rejects_negative_sizes(sizes):
    # 2 ** -1 is a float, which no graph field accepts
    n, k, m, d = sizes
    with pytest.raises(ValueError, match="nonnegative"):
        random_extractor_search(n, k, m, Fraction(1, 2), d, seed=5)


# --- view construction and files --------------------------------------------

def test_view_invariants_enforced():
    with pytest.raises(ValueError, match="power of 2"):
        ExtractorView(BipartiteGraph(1, 3, 1, ((0,), (1,))), 1, Fraction(1, 2))
    with pytest.raises(ValueError, match="degrees"):
        ExtractorView(BipartiteGraph(1, 2, 2, ((0,), (0, 1))), 1, Fraction(1, 2))
    with pytest.raises(ValueError, match="K"):
        ExtractorView(BipartiteGraph(1, 2, 1, ((0,), (1,))), 3, Fraction(1, 2))
    with pytest.raises(ValueError, match="eps"):
        ExtractorView(BipartiteGraph(1, 2, 1, ((0,), (1,))), 2, Fraction(3, 2))


@pytest.mark.parametrize("change, message", [
    ({"K": None}, "missing field 'K'"),
    ({"eps": None}, "missing field 'eps'"),
    ({"neighbors": None}, "missing field 'neighbors'"),
    ({"K": "2"}, "'K' must be an integer"),
    ({"K": True}, "'K' must be an integer"),
    ({"eps": 0.5}, "'eps' must be a fraction string"),
    ({"eps": "half"}, "'eps' is not a fraction"),
    ({"eps": "1/0"}, "'eps' is not a fraction"),
    ({"n": "3"}, "'n' must be an integer"),
])
def test_view_from_json_rejects_bad_fields(change, message):
    doc = json.loads(view_to_json(uniform_view(2, 1, K=2)))
    for key, value in change.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    with pytest.raises(GraphFormatError, match=message):
        from_json(json.dumps(doc), ExtractorView)


def test_view_file_roundtrip(tmp_path):
    view, _ = random_extractor_search(3, 1, 1, Fraction(1, 2), 4, seed=5)
    path = tmp_path / "view.json"
    save_view(view, path)
    assert load_view(path) == view
    assert view_to_json(from_json(view_to_json(view), ExtractorView)) == view_to_json(view)
