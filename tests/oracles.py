"""Naive reference implementations that the optimized kernels are tested
against."""

import itertools
import math
from fractions import Fraction

from omex import (AuditViolation, BipartiteGraph, ExtractorCheck,
                  ExtractorView, GameResult, HazardReport, LimitExceeded,
                  MatchingSession, PrefixCheck, SequenceSweep, default_limits,
                  deviation, half_rejection_audit, truncate)
from omex.trevisan import (CodeTable, WeakDesign, _check_block_size, _masks,
                           _parities, encode)


def naive_is_extractor(view) -> ExtractorCheck:
    """Exhaustive check by scanning every size-K subset in lexicographic
    order and recomputing its endpoint counts from scratch."""
    N, K, M, D = view.N, view.K, view.M, view.D
    counts = [[row.count(y) for y in range(M)] for row in view.graph.neighbors]
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


def naive_hazard_report(view, S, bad_factor: int = 2) -> HazardReport:
    """`hazard_report` recounted from the edges: bad right vertices by
    cross-multiplying, then each element's edges tested one by one."""
    if bad_factor < 1:
        raise ValueError(f"need bad factor >= 1, got {bad_factor}")
    S = tuple(S)
    if not S:
        raise ValueError("subset must be nonempty")
    if len(set(S)) != len(S):
        raise ValueError("subset has repeated vertices")
    for v in S:
        if not 0 <= v < view.N:
            raise ValueError(f"left index {v} out of range")
    if len(S) > view.K:
        raise ValueError(f"|S| = {len(S)} exceeds K = {view.K}")
    M, D, K = view.M, view.D, view.K
    e = [0] * M
    for v in S:
        for r in view.graph.neighbors[v]:
            e[r] += 1
    # e[y] > bad_factor * D * K / M, exactly
    bad = frozenset(y for y in range(M) if e[y] * M > bad_factor * D * K)
    dangerous = []
    weakly = []
    for v in S:
        in_bad = sum(1 for r in view.graph.neighbors[v] if r in bad)
        if in_bad == D:
            dangerous.append(v)
        if 2 * in_bad >= D:
            weakly.append(v)
    return HazardReport(S, tuple(sorted(bad)), tuple(dangerous), tuple(weakly),
                        Fraction(bad_factor * D * K, M), bad_factor)


def naive_hazard_scan(view, bad_factor: int = 2) -> list[HazardReport]:
    """The reports of the size-K subsets with a bad right vertex, from
    `naive_hazard_report` on every size-K subset in lexicographic order."""
    reports = (naive_hazard_report(view, S, bad_factor)
               for S in itertools.combinations(range(view.N), view.K))
    return [rep for rep in reports if rep.bad]


def some_weak_design(block: int, m: int, d: int) -> WeakDesign | None:
    """A weak design of m sets of size `block` in {1..d} for bound m, or None
    when no such design exists, by depth-first search over the sets in
    order. The bound reads only intersection sizes, so every design is one
    with its coordinates numbered by first appearance: set i is some part
    of the coordinates 1..u that the sets before it use, plus the next
    coordinates u+1, u+2, ... up to size `block`. A prefix that breaks the
    bound breaks it in every extension, so it is not extended."""
    stack = [((), 0)]
    while stack:
        sets, used = stack.pop()
        if len(sets) == m:
            return WeakDesign(d, block, sets)
        for shared in range(min(block, used) + 1):
            top = used + block - shared
            if top > d:
                continue
            for old in itertools.combinations(range(1, used + 1), shared):
                new = old + tuple(range(used + 1, top + 1))
                if sum(2 ** len(set(new) & set(s)) for s in sets) <= m - 1:
                    stack.append((sets + (new,), top))
    return None


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


def naive_extractor_view(code, design, K: int, eps) -> ExtractorView:
    """`as_extractor_view` seed by seed: the positions each seed reads, then
    every (message, seed) output from its m parities."""
    _check_block_size(code, design)
    n, d = code.n_msg, design.d
    masks = [_masks(s, d) for s in design.sets]
    # the positions read depend on the seed only, so precompute them
    positions = [[_parities(y, m) for m in masks] for y in range(2 ** d)]
    rows = tuple(tuple(_parities(x, pos) for pos in positions)
                 for x in range(2 ** n))
    return ExtractorView(BipartiteGraph(n, 2 ** design.m, 2 ** d, rows), K, eps)


def naive_layer_counts(lg, order):
    """The greedy engine replayed over `order` on sets, with per-layer
    counters updated at every request: a request served in layer l adds one
    to `reached` of layers 0..l and to `forwarded` of the layers below l, a
    rejected one adds one to both counters of every layer. Returns
    (matched, rejections, reached, forwarded, audit violation), the
    violation being the lowest layer that forwarded more than half (rounded
    up) of the requests that reached it."""
    width, copies = lg.base.right_size, lg.copies
    matched, used, rejections = {}, set(), []
    reached, forwarded = [0] * copies, [0] * copies
    for v in order:
        r = next((r for r in lg.graph.neighbors_of(v) if r not in used), None)
        if r is None:
            rejections.append(v)
            layer = copies
        else:
            matched[v] = r
            used.add(r)
            layer = r // width
            reached[layer] += 1
        for passed in range(layer):
            reached[passed] += 1
            forwarded[passed] += 1
    violation = next((AuditViolation(j, reached[j], forwarded[j])
                      for j in range(copies)
                      if forwarded[j] > (reached[j] + 1) // 2), None)
    return matched, rejections, reached, forwarded, violation


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


def undo(session) -> None:
    """Reverse the latest `request` of a `MatchingSession` exactly."""
    left_index = session._order.pop()
    session.requested ^= 1 << left_index
    r = session.matched.pop(left_index, None)
    if r is not None:
        session.used ^= 1 << r


def layer0_certified(session, need: int) -> bool:
    """The sweep's certificate, from its definition: each left vertex the
    session has not requested has at least `need` distinct base neighbours
    whose layer-0 copies, which keep the base index, it has not used."""
    base = session.graph.base
    return all(len({r for r in base.neighbors_of(v)
                    if not session.used >> r & 1}) >= need
               for v in range(base.left_size)
               if not session.requested >> v & 1)


def stepwise_online_check(lg, capacity: int) -> SequenceSweep:
    """The sequence sweep stepping the engine at every node, leaves
    included: each node is stepped, audited with `half_rejection_audit` and
    undone. A child is counted in closed form when its `(requested, used)`
    state already headed a passing subtree, or, if its children are not
    leaves, when every unrequested left vertex has as many distinct base
    neighbours with an unused layer-0 copy as requests are left below it;
    the root is tested so too, once the budget allows a node. The reference for `exhaustive_online_check`'s
    `visited`, `memo_hits` and `certified` counters and its `LimitExceeded`
    message, as well as for its result."""
    budget = default_limits().subset_nodes
    nleft = lg.graph.left_size
    session = MatchingSession(lg, capacity)
    top = min(capacity, nleft)
    # below[j]: sequences strictly below a node at depth j
    below = [sum(math.perm(nleft - j, i) for i in range(1, top - j + 1))
             for j in range(top + 1)]
    passed: set[tuple[int, int]] = set()
    sweep = SequenceSweep(0, None, None)
    visited = sequences = hits = certificates = 0
    if top > 1 and budget > 0 and layer0_certified(session, top):
        sweep.sequences, sweep.certified = below[0], 1
        return sweep
    # the walk is at a node of depth `depth`, the session holding its
    # prefix; todo[depth] holds the left vertices not yet tried below it,
    # and keys[depth] its state, cached once every child has passed
    todo = [iter(range(nleft))] + [None] * top
    keys = [None] * (top + 1)
    depth = 0
    while top > 0:
        requested = session.requested  # the same again after each undo
        for v in todo[depth]:
            if requested >> v & 1:
                continue
            if visited >= budget:
                raise LimitExceeded(
                    f"sequence tree exceeds {budget} nodes: visited "
                    f"{visited} nodes, counted {sequences} sequences, "
                    f"cached {len(passed)} passing states, certified "
                    f"{certificates} subtrees")
            r = session._step(v)
            visited += 1
            sequences += 1
            if r is None:
                sweep.first_rejection = list(session._order)
            violation = half_rejection_audit(session)
            if violation is not None:
                sweep.first_audit_violation = (list(session._order), violation)
            if r is None or violation is not None:
                break                   # the first failure ends the walk
            if depth + 1 < top:
                key = (session.requested, session.used)
                if key in passed:
                    hits += 1
                elif depth + 2 < top and layer0_certified(session,
                                                          top - depth - 1):
                    certificates += 1
                else:                   # enter the child
                    depth += 1
                    todo[depth], keys[depth] = iter(range(nleft)), key
                    break
                sequences += below[depth + 1]
            undo(session)
        else:                           # every child passed
            if depth == 0:
                break
            passed.add(keys[depth])
            depth -= 1
            undo(session)
            continue
        if r is None or violation is not None:
            break
    sweep.sequences, sweep.visited = sequences, visited
    sweep.memo_hits, sweep.certified = hits, certificates
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


def naive_max_matching(g, subset) -> list[tuple[int, int]]:
    """Kuhn's augmenting-path search written recursively: each left vertex
    of `subset` in order tries its neighbors in stored order, and a matched
    neighbor's partner is asked in turn to move; pairs in subset order."""
    match_right: dict[int, int] = {}

    def try_augment(v: int, visited: set[int]) -> bool:
        for r in g.neighbors[v]:
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


def _count_distinct_neighbors(g, subset: tuple[int, ...], need: int) -> bool:
    """True when the subset has at least `need` distinct right neighbors."""
    distinct: set[int] = set()
    for v in subset:
        for r in g.neighbors[v]:
            distinct.add(r)
            if len(distinct) >= need:
                return True
    return len(distinct) >= need


def naive_hall_check(g, s_max: int,
                     mode: str = "exhaustive") -> list[int] | None:
    """`hall_check` as a plain scan: `itertools.combinations` per size in
    increasing order, each subset's distinct neighbors collected in a set
    (or, in matching mode, the size of `naive_max_matching`); no budget."""
    for size in range(1, min(s_max, g.left_size) + 1):
        for combo in itertools.combinations(range(g.left_size), size):
            if mode == "exhaustive":
                ok = _count_distinct_neighbors(g, combo, size)
            else:
                ok = len(naive_max_matching(g, combo)) == size
            if not ok:
                return list(combo)
    return None


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
