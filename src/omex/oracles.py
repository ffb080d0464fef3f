"""Brute-force oracles that try every candidate, in exact rationals: the
demos run them as self-checks and the tests use them as references."""

from fractions import Fraction

from .trevisan import CodeTable, encode


def brute_list_decode(code: CodeTable, word: str) -> list[str]:
    """`list_decode` by encoding every message in numeric order and
    counting its agreements with `word`."""
    half_plus = Fraction(1, 2) + code.delta
    hits = []
    for x in range(2 ** code.n_msg):
        u = format(x, f"0{code.n_msg}b")
        agree = sum(a == b for a, b in zip(encode(code, u), word))
        if Fraction(agree, code.codeword_length) >= half_plus:
            hits.append(u)
    return hits


def exhaustive_subset_deviation(view, S) -> Fraction:
    """Worst |e(S, Y)/(D|S|) - |Y|/M| over all 2^M right subsets Y."""
    denom = view.D * len(S)
    best = Fraction(0)
    for mask in range(2 ** view.M):
        edges = sum(1 for v in S for r in view.graph.neighbors[v]
                    if mask >> r & 1)
        gap = abs(Fraction(edges, denom) - Fraction(mask.bit_count(), view.M))
        best = max(best, gap)
    return best
