"""Naive reference implementations that the optimized kernels are tested
against."""

import itertools
from fractions import Fraction

from omex import (ExtractorCheck, GameResult, MatchingSession, PrefixCheck,
                  SequenceSweep, deviation, half_rejection_audit, truncate)


def naive_is_extractor(view) -> ExtractorCheck:
    """Exhaustive check by scanning every size-K subset in lexicographic
    order and recomputing its endpoint counts from scratch."""
    N, K, M, D = view.N, view.K, view.M, view.D
    counts = [tuple(view.endpoint_counts(v)) for v in range(N)]
    threshold_num = view.eps.numerator * D * K * M
    threshold_den = view.eps.denominator
    checked = 0
    for combo in itertools.combinations(range(N), K):
        checked += 1
        e = [0] * M
        for v in combo:
            for y in range(M):
                e[y] += counts[v][y]
        positive = sum(c * M - D * K for c in e if c * M > D * K)
        if positive * threshold_den >= threshold_num:
            return ExtractorCheck("exhaustive", combo,
                                  deviation(view, combo), checked)
    return ExtractorCheck("exhaustive", None, None, checked)


def naive_is_prefix_extractor(view, k: int) -> PrefixCheck:
    """Every truncation level i <= k, each settled by `naive_is_extractor`."""
    levels = []
    for i in range(k + 1):
        sub = truncate(view, i)
        check = naive_is_extractor(sub)
        levels.append((i, sub.K, check))
        if check.witness is not None:
            return PrefixCheck(tuple(levels), i)
    return PrefixCheck(tuple(levels), None)


def naive_online_check(lg, capacity: int) -> SequenceSweep:
    """The sequence sweep without undo: every sequence of distinct left
    vertices of length <= capacity, in depth-first preorder, replayed from
    scratch in a fresh `MatchingSession` and audited; stops at the first
    sequence that is rejected or fails the audit."""
    nleft = lg.graph.left_size
    sweep = SequenceSweep(0, None, None)

    def preorder(prefix):
        if len(prefix) < capacity:
            for v in range(nleft):
                if v not in prefix:
                    yield prefix + [v]
                    yield from preorder(prefix + [v])

    for sequence in preorder([]):
        session = MatchingSession(lg, capacity)
        for v in sequence:
            session.request(v)
        sweep.sequences += 1
        if session.rejections:
            sweep.first_rejection = sequence
        violation = half_rejection_audit(session)
        if violation is not None:
            sweep.first_audit_violation = (sequence, violation)
        if not sweep.ok:
            break
    return sweep


def naive_online_strategy_exists(g, s: int) -> GameResult:
    """The adversary-vs-algorithm game on frozensets: positions keyed by
    (requested, used), the same recursion, node count and strategy tree as
    `online_strategy_exists`, with no node limit."""
    nleft = g.left_size
    memo: dict[tuple[frozenset, frozenset], bool] = {}
    nodes = 0

    def wins(requested: frozenset, used: frozenset) -> bool:
        nonlocal nodes
        if len(requested) >= s or len(requested) == nleft:
            return True
        key = (requested, used)
        if key in memo:
            return memo[key]
        nodes += 1
        result = True
        for v in range(nleft):
            if v in requested:
                continue
            reply_found = False
            tried: set[int] = set()
            for r in g.neighbors_of(v):
                if r in used or r in tried:
                    continue
                tried.add(r)
                if wins(requested | {v}, used | {r}):
                    reply_found = True
                    break
            if not reply_found:
                result = False
                break
        memo[key] = result
        return result

    def build_tree(requested: frozenset, used: frozenset) -> dict:
        tree = {}
        if len(requested) >= s or len(requested) == nleft:
            return tree
        for v in range(nleft):
            if v in requested:
                continue
            for r in g.neighbors_of(v):
                if r in used:
                    continue
                if wins(requested | {v}, used | {r}):
                    tree[v] = {"pick": r,
                               "next": build_tree(requested | {v}, used | {r})}
                    break
        return tree

    if wins(frozenset(), frozenset()):
        return GameResult(True, build_tree(frozenset(), frozenset()), nodes)
    return GameResult(False, None, nodes)


def naive_series_bound(n: int, k: int, c: int) -> Fraction:
    """The union-bound series summed term by term, each term built from its
    three factors: (1/n^c)^(t n^c) * (2^n)^t * (2^k n^c)^t, t = 1..2^k."""
    nc = n ** c
    total = Fraction(0)
    for t in range(1, 2 ** k + 1):
        total += (Fraction(1, nc) ** (t * nc)
                  * Fraction(2 ** n) ** t
                  * Fraction(2 ** k * nc) ** t)
    return total
