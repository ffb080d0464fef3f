"""Off-line matchability: Hall-type checks and the randomized construction.

A graph is "good up to s" when every left subset X with |X| <= s has at
least |X| distinct right neighbors; that is exactly the condition under
which every such subset admits a perfect (off-line) matching into R.
`hall_check` decides it two ways (direct neighbor counting, or saturation
via maximum matching) and the two modes must agree; `random_offline_graph`
draws the graphs whose failure probability `series_bound` upper-bounds.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import BipartiteGraph
from .limits import LimitExceeded, default_limits
from .rng import SplitMix64


@dataclass(frozen=True)
class OfflineParams:
    """Sizes of the randomized construction: 2^n left vertices, degree n^c
    draws per vertex, 2^k * n^c right vertices."""

    n: int
    k: int
    c: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.c < 1:
            raise ValueError(f"need c >= 1, got c={self.c}")

    @property
    def left_size(self) -> int:
        return 2 ** self.n

    @property
    def degree(self) -> int:
        return self.n ** self.c

    @property
    def right_size(self) -> int:
        return 2 ** self.k * self.degree


def max_matching(g: BipartiteGraph, subset: list[int]) -> list[tuple[int, int]]:
    """Maximum matching between `subset` and the right part.

    Kuhn's augmenting-path search, processing `subset` in the given order
    and neighbors in stored order, so the result is deterministic. Returned
    pairs follow the subset order of the matched left vertices.
    """
    seen = set()
    for v in subset:
        if v in seen:
            raise ValueError(f"subset repeats left vertex {v}")
        seen.add(v)
        g.neighbors_of(v)  # raises on out-of-range
    match_right: dict[int, int] = {}  # right -> left

    def try_augment(v: int, visited: set[int]) -> bool:
        for r in g.neighbors_of(v):
            if r in visited:
                continue
            visited.add(r)
            if r not in match_right or try_augment(match_right[r], visited):
                match_right[r] = v
                return True
        return False

    for v in subset:
        try_augment(v, set())
    match_left = {left: r for r, left in match_right.items()}
    return [(v, match_left[v]) for v in subset if v in match_left]


def _count_distinct_neighbors(g: BipartiteGraph, subset: tuple[int, ...],
                              need: int) -> bool:
    """True when the subset has at least `need` distinct right neighbors."""
    distinct: set[int] = set()
    for v in subset:
        for r in g.neighbors[v]:
            distinct.add(r)
            if len(distinct) >= need:
                return True
    return len(distinct) >= need


def hall_check(g: BipartiteGraph, s_max: int, *,
               mode: str = "exhaustive") -> list[int] | None:
    """None when every left subset of size <= s_max has enough neighbors;
    otherwise the smallest violating subset in (size, lexicographic) order.

    mode="exhaustive" counts distinct neighbors per subset; mode="matching"
    tests saturation with `max_matching`. Both scan subset sizes in
    increasing order, so they return identical witnesses.
    """
    if mode not in ("exhaustive", "matching"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = default_limits().subset_nodes
    nleft = g.left_size
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    if s_max > 2 ** g.n:
        raise ValueError(f"s_max {s_max} exceeds left index space 2^{g.n}")
    examined = 0
    for size in range(1, min(s_max, nleft) + 1):
        count = math.comb(nleft, size)
        examined += count
        if examined > budget:
            raise LimitExceeded(
                f"subset enumeration would visit {examined} > {budget} nodes")
        for combo in itertools.combinations(range(nleft), size):
            if mode == "exhaustive":
                ok = _count_distinct_neighbors(g, combo, size)
            else:
                ok = len(max_matching(g, list(combo))) == size
            if not ok:
                return list(combo)
    return None


def series_base(n: int, k: int, c: int) -> Fraction:
    """Base of the geometric failure-probability series: 2^(n+k) / n^(c(n^c-1))."""
    if n < 2:
        raise ValueError("base formula needs n >= 2")
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if c < 1:
        raise ValueError(f"need c >= 1, got c={c}")
    return Fraction(2 ** (n + k), n ** (c * (n ** c - 1)))


def series_bound(n: int, k: int, c: int) -> Fraction:
    """Union bound on the probability that the random graph has some left
    subset of size t <= 2^k with fewer than t distinct neighbors:

        sum_{t=1}^{2^k} (1/n^c)^(t n^c) * (2^n)^t * (2^k n^c)^t

    Evaluated exactly. The t-th term multiplies the per-pair probability
    that t*n^c independent draws all land inside a fixed small set by the
    (over)counts of candidate subsets X and neighbor sets Y. It equals x^t
    for x = series_base(n, k, c), so the sum has the closed form
    x(x^T - 1)/(x - 1) for T = 2^k, or T when x = 1.
    """
    x = series_base(n, k, c)
    terms = 2 ** k
    if x == 1:
        return Fraction(terms)
    return x * (x ** terms - 1) / (x - 1)


def random_offline_graph(p: OfflineParams, seed: int) -> BipartiteGraph:
    """Graph with 2^n left vertices and exactly n^c uniform draws (with
    replacement) per vertex into a right part of size 2^k * n^c."""
    rows = SplitMix64(seed).rows(p.left_size, p.degree, p.right_size)
    # an invariant violation here is a construction bug, not an input error
    return BipartiteGraph(p.n, p.right_size, p.degree, rows).checked()


def construct_verified_offline_graph(
        p: OfflineParams, seed: int,
        max_attempts: int = 64) -> tuple[BipartiteGraph, int]:
    """Redraw until the random graph passes hall_check(2^k).

    Returns (graph, attempts). Each attempt continues the same seeded
    stream, so the whole procedure is a deterministic function of `seed`.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    rng = SplitMix64(seed)
    for attempt in range(1, max_attempts + 1):
        g = BipartiteGraph(p.n, p.right_size, p.degree,
                           rng.rows(p.left_size, p.degree, p.right_size))
        if hall_check(g, 2 ** p.k) is None:
            return g, attempt
    raise RuntimeError(
        f"no graph passed hall_check({2 ** p.k}) within {max_attempts} attempts")
