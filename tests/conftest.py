from fractions import Fraction

import pytest
from hypothesis import strategies as st

from omex import BipartiteGraph, ExtractorView
from omex.rng import SplitMix64


@st.composite
def small_graphs(draw, max_n=4, max_right=6, max_degree=4):
    """Arbitrary small bipartite graphs, multi-edges allowed, left size not
    necessarily a power of two."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    left = draw(st.integers(min_value=1, max_value=min(2 ** n, 12)))
    right = draw(st.integers(min_value=1, max_value=max_right))
    rows = tuple(
        tuple(draw(st.lists(st.integers(min_value=0, max_value=right - 1),
                            max_size=max_degree)))
        for _ in range(left))
    return BipartiteGraph(n, right, max_degree, rows)


def complete_graph(n: int, right_size: int) -> BipartiteGraph:
    """Every left vertex adjacent to every right vertex, in right-index order."""
    row = tuple(range(right_size))
    return BipartiteGraph(n, right_size, right_size,
                          tuple(row for _ in range(2 ** n)))


def uniform_view(n: int, m: int, repeat: int = 1, K: int = 1,
                 eps=Fraction(1, 2)) -> ExtractorView:
    """Exactly-uniform view: every left vertex hits every right vertex
    `repeat` times (D = repeat * 2^m), so every deviation is zero."""
    row = tuple(range(2 ** m)) * repeat
    return ExtractorView(BipartiteGraph(n, 2 ** m, len(row),
                                        tuple(row for _ in range(2 ** n))),
                         K, eps)


class NoPower(int):
    """An exponent that refuses to be raised to: `2 ** k` calls its
    `__rpow__` first, since it is a subclass of int. Input checks take it to
    show that they compare bit lengths and never build 2^k."""

    def __rpow__(self, base):
        raise AssertionError(f"{base} ** {int(self)} was built")


def random_view(seed: int, n: int, m: int, d: int, K: int,
                eps=Fraction(1, 2)) -> ExtractorView:
    """One random left-regular view, no verification."""
    rng = SplitMix64(seed)
    N, M, D = 2 ** n, 2 ** m, 2 ** d
    return ExtractorView(BipartiteGraph(n, M, D, rng.rows(N, D, M)), K, eps)


@pytest.fixture(scope="session")
def verified_views():
    """A pool of exhaustively verified views reused by hazard tests."""
    from omex import random_extractor_search
    pool = []
    for seed, (n, k, m, d, eps) in enumerate([
        (3, 1, 1, 4, Fraction(1, 2)),
        (3, 2, 2, 4, Fraction(1, 2)),
        (4, 1, 1, 4, Fraction(1, 2)),
        (4, 2, 2, 4, Fraction(1, 2)),
        (3, 1, 1, 6, Fraction(1, 4)),
    ]):
        view, _ = random_extractor_search(n, k, m, eps, d, seed=101 + seed)
        pool.append(view)
    return pool
