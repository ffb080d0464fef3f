"""Naive reference implementations that the optimized kernels are tested
against."""

import itertools

from omex import (ExtractorCheck, MatchingSession, PrefixCheck, SequenceSweep,
                  deviation, half_rejection_audit, truncate)


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
