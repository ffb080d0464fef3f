"""Extractor verification, hazard analysis, prefixes, and randomized search.

A view wraps a left-regular bipartite graph as a function from (n-bit
vertex, d-bit edge choice) to an m-bit right vertex. The defining property:
for every left subset S of size at least K and every right subset Y, the
fraction of S's edges landing in Y stays within eps of |Y|/M. Verification
needs only |S| = K exactly (larger sets are averages of size-K ones) and
only one direction of the bound (the other follows on the complement of Y),
which reduces the per-subset work to one total-variation distance computed
in exact rational arithmetic. Swapping the two maxima gives the dual form
the exhaustive check runs on when it is cheaper: for a fixed Y the worst S
is the K left vertices with the most edges into Y, so a view passes iff no
Y's top-K count reaches the threshold (the extractor/averaging-sampler
correspondence: Zuckerman 1997; Vadhan, Pseudorandomness, ch. 6).

A view file is a graph file plus K and eps, written and read by the codec
in `omex.graph`; `save_view`, `load_view` and `view_to_json` are that codec
bound to views.
"""

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from .graph import (INT, STR, BipartiteGraph, GraphFormatError, load,
                    read_fields, save, to_json)
from .limits import LimitExceeded, check_draw_bits, default_limits
from .rng import SplitMix64


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class ExtractorView:
    """Left-regular graph plus the (K, eps) parameters it is checked against.

    Left part has exactly 2^n vertices, right part 2^m, every left degree
    exactly D = 2^d with multi-edges kept (independent draws may coincide,
    in which case the repeated edge still counts twice).
    """

    graph: BipartiteGraph
    K: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        g = self.graph
        if not _is_pow2(g.left_size):
            raise ValueError(f"left size {g.left_size} is not a power of 2")
        if not _is_pow2(g.right_size):
            raise ValueError(f"right size {g.right_size} is not a power of 2")
        degrees = {len(row) for row in g.neighbors}
        if len(degrees) != 1:
            raise ValueError(f"left degrees are not all equal: {sorted(degrees)}")
        degree = degrees.pop()
        if not _is_pow2(degree):
            raise ValueError(f"degree {degree} is not a power of 2")
        if not 1 <= self.K <= g.left_size:
            raise ValueError(f"need 1 <= K <= {g.left_size}, got {self.K}")
        if not 0 < self.eps < 1:
            raise ValueError(f"need 0 < eps < 1, got {self.eps}")

    @property
    def N(self) -> int:
        return self.graph.left_size

    @property
    def M(self) -> int:
        return self.graph.right_size

    @property
    def D(self) -> int:
        return len(self.graph.neighbors[0])

    @property
    def n(self) -> int:
        return self.N.bit_length() - 1

    @property
    def m(self) -> int:
        return self.M.bit_length() - 1

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """counts[v][y]: how many of left vertex v's D edges land on right
        vertex y. Not a field, nor is any cached property here."""
        M, table = self.M, []
        for row in self.graph.neighbors:
            c = [0] * M
            for r in row:
                c[r] += 1
            table.append(tuple(c))
        return tuple(table)

    @cached_property
    def _table(self) -> "_CountTable":
        """`counts` packed for the hazard kernels."""
        return _CountTable(self)

    @cached_property
    def _truncated(self) -> dict[int, "ExtractorView"]:
        """The views `truncate` has built from this one, by i."""
        return {}

    def to_doc(self) -> dict:
        return {**self.graph.to_doc(), "K": self.K, "eps": str(self.eps)}

    @staticmethod
    def from_doc(doc) -> "ExtractorView":
        """Graph fields first, then K and eps (a `p/q` string); malformed or
        missing fields raise GraphFormatError."""
        graph = BipartiteGraph.from_doc(doc)
        K, eps = read_fields(doc, K=INT, eps=("a fraction string", STR[1]))
        try:
            eps = Fraction(eps)
        except (ValueError, ZeroDivisionError) as e:
            raise GraphFormatError(f"field 'eps' is not a fraction: {eps!r}") from e
        return ExtractorView(graph, K, eps)


def optimal_degree(N: int, K: int, M: int, eps) -> int:
    """Degree at which a random graph is an extractor with positive
    probability: ceil(max((M/K) ln2 / eps^2, (ln(N/K) + 1) / eps^2))."""
    eps = Fraction(eps)
    if not 1 < K <= N:
        raise ValueError(f"need 1 < K <= N, got K={K}, N={N}")
    if M <= 0:
        raise ValueError(f"need M > 0, got {M}")
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    e2 = float(eps) ** 2
    if not e2:
        raise ValueError("eps is too small: eps^2 underflows a float")
    try:
        second = (math.log(N / K) + 1) / e2
    except OverflowError:               # N/K is past the float range
        second = (math.log(N) - math.log(K) + 1) / e2
    try:
        return math.ceil(max((M / K) * (math.log(2) / e2), second))
    except OverflowError:
        raise ValueError(f"M/K is past the float range: M has "
                         f"{M.bit_length()} bits, K {K.bit_length()}") from None


def optimal_degree_pow2(N: int, K: int, M: int, eps) -> int:
    """The raw ceiling rounded up to the next power of two, for callers that
    need the degree to be an edge-index space."""
    return next_pow2(optimal_degree(N, K, M, eps))


def _validate_subset(view: ExtractorView, S) -> tuple[int, ...]:
    S = tuple(S)
    if not S:
        raise ValueError("subset must be nonempty")
    if len(set(S)) != len(S):
        raise ValueError("subset has repeated vertices")
    N = len(view.graph.neighbors)
    for v in S:
        if not 0 <= v < N:
            raise ValueError(f"left index {v} out of range")
    return S


def deviation(view: ExtractorView, S) -> Fraction:
    """Worst deviation over all right subsets Y, computed directly.

    max_Y |e(S,Y)/(D|S|) - |Y|/M| equals the total-variation distance
    between the edge-endpoint distribution of S and uniform, i.e. the sum
    of the positive parts, because the signed deviations cancel and the
    negative direction is the positive one on the complement of Y. It
    counts S's own |S| * D edges and leaves the view's `counts` unbuilt.
    """
    S = _validate_subset(view, S)
    M, D, s = view.M, view.D, len(S)
    e = [0] * M
    for v in S:
        for r in view.graph.neighbors[v]:
            e[r] += 1
    positive = sum(c * M - D * s for c in e if c * M > D * s)
    return Fraction(positive, D * s * M)


@dataclass(frozen=True)
class ExtractorCheck:
    mode: str                       # "exhaustive" | "sampled"
    witness: tuple[int, ...] | None
    witness_deviation: Fraction | None
    checked: int
    # right-set walks of the dual test (see `_some_completion_fails`)
    subtree_tests: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.mode == "exhaustive" and self.witness is None

    @property
    def verdict(self) -> str:
        if self.witness is not None:
            return "witness"
        return "ok" if self.mode == "exhaustive" else "no-counterexample-found"


def _some_completion_fails(cols, prefix, start: int, r: int, hi, lo) -> bool:
    """Whether some size-K set made of the prefix and r of the left vertices
    start..N-1 fails, decided exactly by right-subset duality.

    For a fixed right set Y the worst completion takes the r candidates with
    the most edges into Y, so the subtree fails iff for some Y the prefix's
    count p(Y) plus the top-r candidate counts reaches the threshold. Y runs
    over the right sets without the last vertex in Gray-code order, one
    column added or removed per step; the complement of Y is settled by the
    same sort, since its worst completion is Y's bottom-r. `prefix[y]` is
    the prefix's count on y, `cols[y]` every vertex's count on y, and
    hi[|Y|], lo[|Y|] are the exact integer thresholds: Y fails iff
    p + top >= hi[|Y|], its complement iff p + bottom <= lo[|Y|].
    """
    M = len(cols)
    cols = [col[start:] for col in cols]
    c = [0] * len(cols[0])
    p = size = 0
    for i in range(1, 1 << (M - 1)):
        y = (i & -i).bit_length() - 1
        if i >> (y + 1) & 1:            # Gray code i leaves out y again
            c = list(map(operator.sub, c, cols[y]))
            p -= prefix[y]
            size -= 1
        else:
            c = list(map(operator.add, c, cols[y]))
            p += prefix[y]
            size += 1
        c_sorted = sorted(c)
        if (sum(c_sorted[-r:]) >= hi[size] - p
                or sum(c_sorted[:r]) <= lo[size] - p):
            return True
    return False


def _subset_walk(N: int, K: int, root, step, name: str, test=None,
                 cost: int = 0, advice: str = ""):
    """Depth-first walk of the size-K subsets of range(N) in lexicographic
    order. Yields (S, state, certified, tests) for each subset S it leaves
    unsettled and returns (certified, tests).

    A node is a prefix v_1 < ... < v_j with r = K - j members to come.
    `step(state, v_j, r)` extends the parent's state (`root` for the empty
    prefix) by v_j, or returns None when every completion is settled: the
    subtree is certified unvisited, its C(N-1-v_j, r) subsets counted in
    `certified`. A given `test(state, v_j + 1, r)` runs on the root and on
    each inner node the step leaves open, charged `cost` nodes, and
    certifies the subtree when true. Nodes count against `subset_nodes`.
    """
    comb, budget = math.comb, default_limits().subset_nodes
    about = name, N, K, budget, cost, advice
    spent = tests = certified = 0
    if test:
        if cost > budget:
            raise _refusal(about, 0, 0, 0)
        spent, tests = cost, 1
        if test(root, 0, K):
            return comb(N, K), tests
    combo, states = [0] * K, [root] * K     # combo[~r] is v_j, states by r
    r, v = K - 1, 0
    while True:
        if v + r >= N:                  # no candidates left at this position
            if r == K - 1:
                return certified, tests
            r += 1
            v = combo[~r] + 1
            continue
        if spent >= budget:
            raise _refusal(about, spent, tests, certified)
        spent += 1
        combo[~r] = v
        state = step(states[r], v, r)
        if test and r and state is not None:
            if spent + cost > budget:
                raise _refusal(about, spent, tests, certified)
            spent += cost
            tests += 1
            if test(state, v + 1, r):
                state = None
        if state is None:
            certified += comb(N - 1 - v, r)
        elif r:
            r -= 1
            states[r] = state
        else:
            yield tuple(combo), state, certified, tests
        v += 1


def _refusal(about, spent: int, tests: int, certified: int) -> LimitExceeded:
    name, N, K, budget, cost, advice = about
    nodes = spent - tests * cost
    work = (f"{nodes} nodes and {tests} subtree tests of {cost} right subsets "
            f"each" if cost else f"{nodes} nodes")
    return LimitExceeded(
        f"{name} exceeded limit {budget} nodes: visited {work}, certified "
        f"{certified} of the C({N},{K}) = {math.comb(N, K)} size-K "
        f"subsets{advice}")


def _exhaustive_walk(view: ExtractorView) -> ExtractorCheck:
    """Settle the size-K subsets in lexicographic order by `_subset_walk`.

    A node's state is its deficit vector g[y] = D*K - M*e[y], where e counts
    the prefix's edge endpoints. At a full subset the positive and negative
    parts of M*e - D*K have equal mass, so the deviation is sum(max(0,
    g[y])) / (D*K*M). That missing mass only shrinks as vertices are added,
    so once a prefix's is below eps every completion passes, and the first
    leaf left open is the lexicographically first witness.

    When N * 2^M <= C(N, K) the walk is dual: the root, and every inner node
    the missing mass does not certify, gets the exact test over the right
    sets (`_some_completion_fails`) at 2^M - 1 nodes. A passing view is
    settled at the root, a failing one walked straight down to its witness.
    """
    N, K, M, DK = view.N, view.K, view.M, view.D * view.K
    threshold_num = view.eps.numerator * DK * M   # compare against eps
    threshold_den = view.eps.denominator          # exactly, as deviation
    scaled = [tuple(M * c for c in cv) for cv in view.counts]

    def step(g, v, r):
        g = list(map(operator.sub, g, scaled[v]))
        if sum(filter(_positive, g)) * threshold_den >= threshold_num:
            return g

    test, cost = None, 0
    if N << M <= math.comb(N, K):
        need = -(-threshold_num // threshold_den)   # least failing M*e - DK|Y|
        hi = [-(-(need + DK * s) // M) for s in range(M + 1)]
        lo = [(DK * s - need) // M for s in range(M + 1)]
        cols, cost = list(zip(*view.counts)), (1 << M) - 1

        def test(g, start, r):
            return not _some_completion_fails(
                cols, [(DK - x) // M for x in g], start, r, hi, lo)

    walk = _subset_walk(N, K, [DK] * M, step, "exhaustive walk", test, cost,
                        "; use sampled mode")
    try:
        S, g, checked, tests = next(walk)
    except StopIteration as done:
        return ExtractorCheck("exhaustive", None, None, *done.value)
    return ExtractorCheck("exhaustive", S, Fraction(
        sum(filter(_positive, g)), DK * M), checked + 1, tests)


def _positive(x: int) -> bool:
    return x > 0


def is_extractor(view: ExtractorView, *, samples: int | None = None,
                 seed: int | None = None) -> ExtractorCheck:
    """Check deviation(S) < eps on size-K subsets.

    Exhaustive mode settles every size-K subset in lexicographic order (see
    `_exhaustive_walk`) and the first failure is the witness; passing it
    certifies the property for all larger subsets too. When N * 2^M <=
    C(N, K) it decides by right-subset duality, one O(2^M * N) pass over
    the right sets, and on a failure finds the same witness with one such
    pass per subtree it settles (counted in `subtree_tests`); otherwise it
    walks the subsets, certifying prefixes by missing mass. Sampled mode
    (samples given, seed required) draws random size-K subsets and can
    only report that no counterexample was found.
    """
    if samples is None:
        return _exhaustive_walk(view)
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    if samples < 1:
        raise ValueError("sampled mode needs at least 1 sample")
    rng = SplitMix64(seed)
    for i in range(samples):
        combo = tuple(sorted(rng.sample(view.N, view.K)))
        dev = deviation(view, combo)
        if dev >= view.eps:
            return ExtractorCheck("sampled", combo, dev, i + 1)
    return ExtractorCheck("sampled", None, None, samples)


@dataclass(frozen=True, slots=True)
class HazardReport:
    """Overloaded right vertices and the left vertices pinned to them.

    A right vertex is bad when it carries more than bad_factor times the
    edges it would get from a size-K set on average; a left vertex of S is
    dangerous when every one of its edges lands on a bad vertex, weakly
    dangerous when at least half do (multiplicity counted throughout).
    Element order follows the enumeration order of S.
    """

    subset: tuple[int, ...]
    bad: tuple[int, ...]
    dangerous: tuple[int, ...]
    weakly_dangerous: tuple[int, ...]
    bad_threshold: Fraction
    bad_factor: int


class _CountTable:
    """A view's `counts`, packed one field per right vertex y at bit
    `shifts[y]`. A set of <= K vertices puts at most D * K <= `top`
    endpoints on a y, so sums never carry, and `bias(cut)` sets a field's
    top bit (`high`) iff its count exceeds the cut."""

    def __init__(self, view: ExtractorView):
        width = (view.D * view.K).bit_length() + 1
        self.shifts = range(0, view.M * width, width)
        self.top = (1 << (width - 1)) - 1
        self.ones = self.pack([1] * view.M)
        self.high = (self.top + 1) * self.ones
        self.packed = list(map(self.pack, view.counts))

    def pack(self, fields) -> int:
        return sum(map(operator.lshift, fields, self.shifts))

    def unpack(self, e: int) -> list[int]:
        return [e >> s & self.top for s in self.shifts]

    def bias(self, cut: int) -> int:
        return (self.top - cut if cut < self.top else 0) * self.ones


def _hazards(rows, S, e, cut: int) -> tuple[tuple[int, ...], ...]:
    """(bad, dangerous, weakly dangerous) of S from its endpoint counts e: y
    is bad when e[y] > cut, which is e[y] > bad_factor * D * K / M exactly
    for cut = (bad_factor * D * K) // M, since e[y] is an integer."""
    is_bad = [c > cut for c in e]
    dangerous = []
    weakly = []
    for v in S:
        row = rows[v]
        in_bad = sum(map(is_bad.__getitem__, row))
        if in_bad == len(row):
            dangerous.append(v)
        if 2 * in_bad >= len(row):
            weakly.append(v)
    return (tuple(y for y, b in enumerate(is_bad) if b), tuple(dangerous),
            tuple(weakly))


# the `bad_threshold` of each report, built once per (bad_factor * D * K, M)
_bad_threshold = lru_cache(maxsize=64)(Fraction)


def hazard_report(view: ExtractorView, S, bad_factor: int = 2) -> HazardReport:
    """S's hazards, from the view's packed count table: one sum of S's
    packed counts and one mask test, and only a set with a bad vertex has
    its counts unpacked."""
    if bad_factor < 1:
        raise ValueError(f"need bad factor >= 1, got {bad_factor}")
    S = _validate_subset(view, S)
    K = view.K
    if len(S) > K:
        raise ValueError(f"|S| = {len(S)} exceeds K = {K}")
    rows = view.graph.neighbors
    M, scale = view.graph.right_size, bad_factor * len(rows[0]) * K
    cut, hazards = scale // M, ((), (), ())
    # also where no set of <= K vertices can have a bad vertex, so that a
    # call costs the same whichever view it is on
    table = view._table
    packed, e = table.packed, 0
    for v in S:
        e += packed[v]
    if (e + table.bias(cut)) & table.high:
        hazards = _hazards(rows, S, table.unpack(e), cut)
    return HazardReport(S, *hazards, _bad_threshold(scale, M), bad_factor)


def hazard_walk(view: ExtractorView, bad_factor: int = 2):
    """Yield the hazard report of every size-K subset that has a bad right
    vertex, in lexicographic order. Every other size-K subset has empty
    `bad`, `dangerous` and `weakly_dangerous` sets.

    A `_subset_walk` whose node state is the prefix's endpoint counts e,
    packed as in `_CountTable`: one addition and one mask test a node. No
    completion of a prefix v_1 < ... < v_j has a bad vertex when, for every
    right vertex y, e[y] plus the sum of the K - j largest counts into y
    among the vertices after v_j is at most the cut; the step certifies
    such a subtree. A leaf left uncertified has a bad vertex and gets the
    kernel `hazard_report` uses.
    """
    if bad_factor < 1:
        raise ValueError(f"need bad factor >= 1, got {bad_factor}")
    rows = view.graph.neighbors
    N, K, M, D = len(rows), view.K, view.graph.right_size, len(rows[0])
    scale = bad_factor * D * K
    cut, threshold = scale // M, _bad_threshold(scale, M)
    table = view._table
    packed, high, bias = table.packed, table.high, table.bias(cut)
    # after[v][r]: field y holds bias plus the sum of the r largest counts
    # into y among the vertices after v, for r <= min(K - 1, N - 1 - v)
    after = [None] * N
    largest = [[] for _ in range(M)]    # ascending, at most K - 1 long
    for v in range(N - 1, -1, -1):
        sums = [list(itertools.accumulate(reversed(col), initial=0))
                for col in largest]
        after[v] = [table.pack(ys) + bias for ys in zip(*sums)]
        for col, c in zip(largest, view.counts[v]):
            bisect.insort(col, c)
            if len(col) == K:
                del col[0]

    def step(e, v, r):
        e += packed[v]
        if (e + after[v][r]) & high:
            return e

    for S, e, _, _ in _subset_walk(N, K, 0, step, "hazard walk"):
        yield HazardReport(S, *_hazards(rows, S, table.unpack(e), cut),
                           threshold, bad_factor)


def truncate(view: ExtractorView, i: int) -> ExtractorView:
    """Drop the last i output bits: every edge endpoint is replaced by its
    high (m-i)-bit prefix and K halves per dropped bit (floored at 1). The
    view is built once per i and kept by `view` outside its fields, so a
    repeat call returns it with its count tables."""
    if not 0 <= i <= view.m:
        raise ValueError(f"need 0 <= i <= m = {view.m}, got {i}")
    if i == 0:
        return view
    kept = view._truncated
    if i not in kept:
        g = view.graph
        rows = tuple(tuple(r >> i for r in row) for row in g.neighbors)
        sub = BipartiteGraph(g.n, g.right_size >> i, g.max_degree, rows)
        kept[i] = ExtractorView(sub, max(1, view.K >> i), view.eps)
    return kept[i]


@dataclass(frozen=True)
class PrefixCheck:
    """Exhaustive level checks, up to the first with a witness, if any."""

    levels: tuple[tuple[int, int, ExtractorCheck], ...]  # (i, K_i, check)
    witness_level: int | None

    @property
    def ok(self) -> bool:
        return self.witness_level is None

    @property
    def witness(self) -> tuple[int, tuple[int, ...], Fraction] | None:
        if self.witness_level is None:
            return None
        i, _, check = self.levels[-1]
        return (i, check.witness, check.witness_deviation)


def is_prefix_extractor(view: ExtractorView, k: int) -> PrefixCheck:
    """Every truncation level i <= k must pass with K = 2^(k-i)."""
    if view.K != 2 ** k:
        raise ValueError(f"view has K = {view.K}, expected 2^{k}")
    if k > view.m:
        raise ValueError(f"k = {k} exceeds output length m = {view.m}")
    levels = []
    for i in range(k + 1):
        sub = truncate(view, i)
        check = is_extractor(sub)
        levels.append((i, sub.K, check))
        if check.witness is not None:
            return PrefixCheck(tuple(levels), i)
    return PrefixCheck(tuple(levels), None)


def prefix_failure_bound(n: int, k: int, m: int, d: int, eps) -> float:
    """Union bound on a random graph failing some truncation level:

        sum_{i=0}^{k} C(N, K/2^i) * 2^(M/2^i) * exp(-2 eps^2 K D / 2^i)

    The result is floating point and may overflow to inf for hopeless
    parameters (callers should treat inf as "not < 1"). From the exponents,
    term i is exp(j (ln C(N, j)/j + 2^(m-k) ln 2 - 2 eps^2 D)) for j = 2^s,
    s = k - i; the bracket falls as s grows, so s = 1014 stands for all
    above it. Binomials of at most 2^16 bits are exact (about 1e-12 relative
    error); larger ones come from ln(N^j / j!) - j(j - 1)/2N (within
    j p^2 / 6 for p = j/N) where N >> j, else from `math.lgamma` (rounding
    about 1e-16 * N * ln N in the exponent), past N = 2^1014 from the first
    form divided by j.
    """
    eps = Fraction(eps)
    if min(n, m, d) < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    if k > n:
        raise ValueError("need K <= N")
    x, ln2, total = 2.0 * float(eps) ** 2, math.log(2), 0.0
    # brackets are kept in units of 2^e, which holds both below 2^1001
    e = max(m - k, d, 1000) - 1000
    gain, cost = math.ldexp(ln2, m - k - e), math.ldexp(x, d - e)
    for s in range(min(k, 1014), -1, -1):
        j = 1 << s
        if n <= 1014 or n * j <= 1 << 16:
            rate = math.ldexp(_log_comb(1 << n, j, n), -s)
        else:
            rate = n * ln2 - math.lgamma(j + 1) / j - math.ldexp(1.0, s - n - 1)
        bracket = math.ldexp(rate, -e) + gain - cost
        try:
            total += math.exp(math.ldexp(bracket, s + e))
        except OverflowError:           # the term is 0.0 or inf
            if bracket > 0:
                return math.inf
    return total


def _log_comb(N: int, k: int, n: int) -> float:
    """ln C(N, k) for N = 2^n, without building a binomial over 2^16 bits
    (C(N, k) <= N^k = 2^(n*k)).

    Past that size, ln C(N, k) = k ln N - ln k! + sum_{i<k} ln(1 - i/N).
    Where k^3 <= N^3 / 2^50, the sum is -k(k-1)/2N within about k^3/6N^2,
    less than the rounding of lgamma(N + 1), about 2^-52 N ln N, which
    cancels against lgamma(N - k + 1) and leaves nothing when N >> k."""
    k = min(k, N - k)
    if n * k <= 1 << 16:
        return math.log(math.comb(N, k))
    if 3 * k.bit_length() + 50 <= 3 * n:
        return k * n * math.log(2) - math.lgamma(k + 1) - k * (k - 1) / (2 * N)
    return math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)


view_to_json = to_json
save_view = save
load_view = partial(load, kind=ExtractorView)


def random_extractor_search(n: int, k: int, m: int, eps, d: int, seed: int,
                            max_attempts: int = 64, prefix: bool = False
                            ) -> tuple[ExtractorView, int]:
    """Draw D = 2^d uniform neighbors per left vertex and keep the first
    graph that verifies exhaustively (all levels, when prefix=True).

    Returns (view, attempts); deterministic in `seed` because every attempt
    continues the same stream.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if min(n, k, m, d) < 0:
        raise ValueError("parameters must be nonnegative")
    check_draw_bits(n + d, "edge draws")  # before 2^(n+d) is built
    eps = Fraction(eps)
    N, M, D, K = 2 ** n, 2 ** m, 2 ** d, 2 ** k
    rng = SplitMix64(seed)
    for attempt in range(1, max_attempts + 1):
        view = ExtractorView(BipartiteGraph(n, M, D, rng.rows(N, D, M)), K, eps)
        if prefix:
            verified = is_prefix_extractor(view, k).ok
        else:
            verified = is_extractor(view).ok
        if verified:
            return view, attempt
    raise RuntimeError(
        f"no verified {'prefix ' if prefix else ''}extractor within "
        f"{max_attempts} attempts")
