"""Inputs whose exponents are too large to build their powers: random
draws and exported views are refused from the exponent, and the failure
bound and degree formula are worked out from it. Each case settles at once
and never builds 2^n (`NoPower` stands for an exponent that refuses to be
raised to).
"""

import math
import time
from fractions import Fraction

import pytest

from omex import (BipartiteGraph, CodeTable, LayeredGraph, LimitExceeded,
                  OfflineParams, WeakDesign, as_extractor_view,
                  construct_verified_offline_graph, optimal_degree,
                  prefix_failure_bound, random_extractor_search,
                  random_offline_graph)

from conftest import NoPower

HALF = Fraction(1, 2)


@pytest.fixture(autouse=True)
def default_limits(monkeypatch):
    monkeypatch.delenv("OMEX_LIMITS", raising=False)


# --- draws charged to gen_edges ----------------------------------------------

def test_offline_draws_are_refused_from_the_exponent():
    started = time.monotonic()
    for n in (10 ** 6, NoPower(10 ** 12)):
        with pytest.raises(LimitExceeded, match=(
                rf"^at least 2\^{n} edge draws exceed limit 8000000$")):
            random_offline_graph(OfflineParams(n, 1, 2), 1)
        with pytest.raises(LimitExceeded, match=rf"^at least 2\^{n} "):
            construct_verified_offline_graph(OfflineParams(n, n, 1), 1)
    assert time.monotonic() - started < 0.5


def test_search_draws_are_refused_from_the_exponent():
    started = time.monotonic()
    for n in (10 ** 6, NoPower(10 ** 12)):
        with pytest.raises(LimitExceeded, match=(
                rf"^at least 2\^{n + 1} edge draws exceed limit 8000000$")):
            random_extractor_search(n, 1, 1, HALF, 1, 1)
    assert time.monotonic() - started < 0.5


def test_a_count_past_the_digit_limit_is_named_by_its_size():
    # 16 * 4^10000 draws: a count of over 4,300 digits is not formatted
    with pytest.raises(LimitExceeded, match=(
            r"^at least 2\^20004 edge draws exceed limit 8000000$")):
        random_offline_graph(OfflineParams(4, 1, 10_000), 1)
    with pytest.raises(LimitExceeded, match=(
            r"^at least 2\^16609 layered edges exceed limit 8000000$")):
        LayeredGraph.build(BipartiteGraph(1, 1, 1, ((0,),)), 10 ** 5000)


def test_export_is_refused_from_the_exponent():
    started = time.monotonic()
    with pytest.raises(LimitExceeded, match=(
            r"^at least 2\^1000002 view edges exceed limit 8000000$")):
        as_extractor_view(CodeTable(2, Fraction(1, 4)),
                          WeakDesign(10 ** 6, 2, ((1, 2),)), K=1, eps=HALF)
    assert time.monotonic() - started < 0.5


# --- prefix_failure_bound -----------------------------------------------------

def test_failure_bound_builds_no_power_of_two():
    # the CLI tests take huge n, m and d one at a time
    big, one = NoPower(10 ** 9), NoPower(1)
    assert prefix_failure_bound(big, one, big, one, HALF) == math.inf
    assert prefix_failure_bound(big, one, one, big, HALF) == 0.0


def test_failure_bound_past_lgamma_matches_the_exact_terms():
    # n > 1014, so lgamma(2^n + 1) overflows, and n * 64 > 2^16, so the top
    # level, which carries all but e^-15 of the sum, takes the N^j / j!
    # bound; the reference sums exact binomials
    n, k, m, d, eps = 1100, 6, 6, 10, Fraction(14, 23)
    exact = sum(
        math.exp(math.log(math.comb(2 ** n, 2 ** (k - i)))
                 + 2 ** (m - i) * math.log(2)
                 - 2 * float(eps) ** 2 * 2 ** (k + d - i))
        for i in range(k + 1))
    assert 1e31 < exact < 1e32
    assert prefix_failure_bound(n, k, m, d, eps) == pytest.approx(
        exact, rel=1e-12)


def test_failure_bound_levels_past_2_to_1014_settle_at_once():
    started = time.monotonic()
    assert prefix_failure_bound(10 ** 9, 10 ** 9, 1, 1, HALF) == math.inf
    assert prefix_failure_bound(10 ** 6, 10 ** 5, 0, 30, HALF) == 0.0
    assert time.monotonic() - started < 1


# --- optimal_degree -----------------------------------------------------------

def test_degree_of_a_huge_n_is_finite():
    # N/K is past the float range; its log is not
    expected = math.ceil((1999 * math.log(2) + 1) / 0.25)
    assert optimal_degree(2 ** 2000, 2, 2, HALF) == expected

