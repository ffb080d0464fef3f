"""Off-line matchability: Hall-type checks and the randomized construction.

A graph is "good up to s" when every left subset X with |X| <= s has at
least |X| distinct right neighbors; that is exactly the condition under
which every such subset admits a perfect (off-line) matching into R (Hall's
theorem). `hall_check` decides it by counting distinct neighbors;
`random_offline_graph` draws the graphs whose failure probability
`series_bound` upper-bounds.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import BipartiteGraph
from .limits import LimitExceeded, check_draw_bits, default_limits
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
        check_draw_bits(self.n, "edge draws")   # before 2^n is built
        return 2 ** self.n

    @property
    def degree(self) -> int:
        return self.n ** self.c

    @property
    def right_size(self) -> int:
        return 2 ** self.k * self.degree


def hall_check(g: BipartiteGraph, s_max: int, *,
               mode: str = "exhaustive") -> list[int] | None:
    """None when every left subset of size <= s_max has enough neighbors;
    otherwise the smallest violating subset in (size, lexicographic) order.

    Per size t, a depth-first walk of the size-t subsets in lexicographic
    order; a prefix carries the OR of its vertices' int neighbor masks, and
    a leaf batch ORs it with each tail after the prefix and fails with
    fewer than t mask bits. Below size 3 a tail is one vertex, from size 3
    on a pair a < b: the pair table holds the C(L, 2) masks masks[a] |
    masks[b] in lexicographic order, one row per a, built only once the
    budget has admitted the C(L, 3) subsets of size 3. By Hall's theorem a
    failing leaf is one a maximum matching fails to saturate, so
    mode="matching" gives the same witness; the name is kept while the
    benchmark passes it.
    """
    if mode not in ("exhaustive", "matching"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = default_limits().subset_nodes
    nleft = g.left_size
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    if (s_max - 1).bit_length() > g.n:      # s_max > 2^n, without 2^n
        raise ValueError(f"s_max {s_max} exceeds left index space 2^{g.n}")
    masks = [sum(1 << r for r in set(row)) for row in g.neighbors]
    rows, width = [[m] for m in masks], 1  # rows[a]: tails led by a
    examined = 0
    for size in range(1, min(s_max, nleft) + 1):
        checked, examined = examined, examined + math.comb(nleft, size)
        if examined > budget:
            passed = f"sizes 1-{size - 1} passed, " if size > 1 else ""
            raise LimitExceeded(
                f"subset enumeration would visit {examined} > {budget} nodes; "
                f"{passed}{checked} subsets checked")
        if size == 3:           # from here on, the pairs (a, b), a < b
            rows = [[m | n for n in masks[a + 1:]]
                    for a, m in enumerate(masks)]
            width = 2
        last = size - width
        combo, acc = [0] * size, [0] * size  # acc[j]: OR of combo[:j]'s masks
        j = v = 0
        while True:
            if j == last:       # the leaves combo[:last] + tail, tail[0] >= v
                prefix = acc[last]
                for row in rows[v:]:
                    for m in row:
                        if (prefix | m).bit_count() < size:
                            # an equal row or mask before would have failed
                            a = rows.index(row, v)
                            tail = [a, a + 1 + row.index(m)]
                            return combo[:last] + tail[:width]
                v = nleft       # every leaf passed: back up
            if v > nleft - size + j:    # position j has no candidates left
                if j == 0:
                    break
                j -= 1
                v = combo[j] + 1
            else:
                combo[j] = v
                acc[j + 1] = acc[j] | masks[v]
                j += 1
                v += 1
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
        rows = rng.rows(p.left_size, p.degree, p.right_size)
        g = BipartiteGraph(p.n, p.right_size, p.degree, rows)
        if hall_check(g, 2 ** p.k) is None:
            return g, attempt
    raise RuntimeError(
        f"no graph passed hall_check({2 ** p.k}) within {max_attempts} attempts")
