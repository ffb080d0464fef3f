"""On-line matching: greedy layered engine, audits, and the game search.

Requests arrive one at a time and each must irrevocably take an unused
right neighbor or be rejected. The layered construction stacks copies of
an off-line-good graph; the greedy engine walks the layers in order and
takes the first unused copy, which keeps the per-layer accounting that
`half_rejection_audit` verifies. `online_strategy_exists` settles, by
exhaustive game-tree search, whether any on-line algorithm at all can
survive every adversary order.
"""

import math
from dataclasses import dataclass, field

from .graph import BipartiteGraph
from .limits import Limits, LimitExceeded, default_limits
from .offline import hall_check


def counterexample_graph() -> BipartiteGraph:
    """Smallest graph where off-line matching up to size 2 works but no
    on-line strategy does: x sees both right vertices, y and z see one each.
    An adversary that starts with x wins whatever the algorithm picks."""
    return BipartiteGraph(2, 2, 2, ((0, 1), (0,), (1,)))


@dataclass(frozen=True)
class LayeredGraph:
    """`copies` stacked replicas of a base graph's right part.

    Right vertex r of copy j becomes index j * base.right_size + r, and each
    left neighbor list is the base list repeated once per layer, layer-major.
    A first-unused greedy scan of that list therefore tries layer 0 fully
    before touching layer 1, and so on.
    """

    base: BipartiteGraph
    copies: int
    graph: BipartiteGraph

    @staticmethod
    def build(base: BipartiteGraph, copies: int) -> "LayeredGraph":
        if copies < 1:
            raise ValueError("need at least one copy")
        width = base.right_size
        rows = tuple(
            tuple(layer * width + r for layer in range(copies) for r in row)
            for row in base.neighbors)
        derived = BipartiteGraph(base.n, width * copies,
                                 base.max_degree * copies, rows)
        return LayeredGraph(base, copies, derived)


def layered(base: BipartiteGraph, k: int,
            limits: Limits | None = None) -> LayeredGraph:
    """(k+1) layers over a base that must pass hall_check(2^k).

    The stacking multiplies right size and left degrees by k+1 and turns
    off-line goodness into an on-line guarantee for up to 2^k requests.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k = {k}")
    limits = limits or default_limits()
    witness = hall_check(base, 2 ** k, limits=limits)
    if witness is not None:
        raise ValueError(
            f"base graph fails hall_check({2 ** k}): witness {witness}")
    return LayeredGraph.build(base, k + 1)


@dataclass
class MatchingSession:
    """Mutable state of one on-line run. Assignments are final: a matched
    pair is never revised, a rejected request is never retried."""

    graph: BipartiteGraph | LayeredGraph
    capacity: int
    matched: dict[int, int] = field(default_factory=dict)
    used: set[int] = field(default_factory=set)
    rejections: list[int] = field(default_factory=list)
    requested: set[int] = field(default_factory=set)
    reached: list[int] = field(init=False)
    forwarded: list[int] = field(init=False)
    # requested vertices in request order, for `_undo`
    _order: list[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        lg = self.graph
        if not isinstance(lg, LayeredGraph):  # a plain graph is one layer
            lg = LayeredGraph(lg, 1, lg)
        self.reached = [0] * lg.copies
        self.forwarded = [0] * lg.copies
        self._rows = lg.graph.neighbors
        # a right index divided by this is its layer
        self._width = lg.base.right_size

    def request(self, left_index: int) -> int | None:
        """Serve one request: the matched right index, or None if rejected.

        Walks layers 0,1,... and takes the first unused neighbor (stored
        order) of the lowest layer that still has one; a request with no
        unused neighbor in a layer counts as forwarded past it. A request
        out of range, repeated or over capacity raises ValueError and
        leaves the session unchanged.
        """
        if not 0 <= left_index < len(self._rows):
            raise ValueError(f"left vertex {left_index} not in "
                             f"[0, {len(self._rows)})")
        if left_index in self.requested:
            raise ValueError(f"left vertex {left_index} already requested")
        if len(self.requested) >= self.capacity:
            raise ValueError(f"capacity {self.capacity} exhausted")
        return self._step(left_index)

    def _step(self, left_index: int) -> int | None:
        """The greedy walk of `request`, for a vertex known to be valid.

        Each row lists layer 0's copies first, then layer 1's, and so on,
        so the first unused neighbor in stored order lies in the lowest
        layer that still has one; every layer below it forwarded the
        request.
        """
        self.requested.add(left_index)
        self._order.append(left_index)
        reached, forwarded, used = self.reached, self.forwarded, self.used
        for r in self._rows[left_index]:
            if r not in used:
                used.add(r)
                self.matched[left_index] = r
                layer = r // self._width
                reached[layer] += 1
                break
        else:
            r = None
            self.rejections.append(left_index)
            layer = len(reached)
        for passed in range(layer):
            reached[passed] += 1
            forwarded[passed] += 1
        return r

    def _undo(self) -> None:
        """Reverse the latest `_step` exactly."""
        left_index = self._order.pop()
        self.requested.remove(left_index)
        reached, forwarded = self.reached, self.forwarded
        r = self.matched.pop(left_index, None)
        if r is None:
            self.rejections.pop()
            layer = len(reached)
        else:
            self.used.remove(r)
            layer = r // self._width
            reached[layer] -= 1
        for passed in range(layer):
            reached[passed] -= 1
            forwarded[passed] -= 1


@dataclass(frozen=True)
class AuditViolation:
    layer: int
    reached: int
    forwarded: int

    def __str__(self) -> str:
        return (f"layer {self.layer}: {self.forwarded} forwarded past it, "
                f"more than half of the {self.reached} that reached it")


def half_rejection_audit(session: MatchingSession) -> AuditViolation | None:
    """Check that no layer forwarded more than half (rounded up) of the
    requests that reached it. On a layered graph whose base is off-line
    good this holds for every request order; a violation localizes a
    broken precondition to its layer."""
    reached, forwarded = session.reached, session.forwarded
    for layer in range(len(reached)):
        if forwarded[layer] > (reached[layer] + 1) // 2:
            return AuditViolation(layer, reached[layer], forwarded[layer])
    return None


@dataclass
class GameResult:
    exists: bool
    strategy: dict | None
    nodes: int


def online_strategy_exists(g: BipartiteGraph, s: int,
                           limits: Limits | None = None) -> GameResult:
    """Exhaustive adversary-vs-algorithm search.

    The adversary presents any unrequested left vertex; the algorithm must
    commit an unused neighbor. `exists` is True iff the algorithm can serve
    every adversary sequence of length <= s; the returned strategy maps each
    adversary move to the first winning reply in stored neighbor order.
    Positions are memoized on (requested, used), both int bitmasks.
    """
    limits = limits or default_limits()
    nleft = g.left_size
    rows = g.neighbors
    top = min(s, nleft)
    memo: dict[tuple[int, int], bool] = {}
    nodes = 0

    def wins(requested: int, used: int, depth: int) -> bool:
        nonlocal nodes
        if depth >= top:
            return True
        key = (requested, used)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > limits.game_nodes:
            raise LimitExceeded(f"game tree exceeds {limits.game_nodes} nodes")
        result = True
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            tried = used  # a reply already tried is a repeat, like a used one
            for r in rows[v]:
                rbit = 1 << r
                if tried & rbit:
                    continue
                tried |= rbit
                if wins(requested | bit, used | rbit, depth + 1):
                    break
            else:
                result = False
                break
        memo[key] = result
        return result

    trees: dict[tuple[int, int], dict] = {}

    def build_tree(requested: int, used: int, depth: int) -> dict:
        # equal positions share one subtree, as in `wins`
        key = (requested, used)
        if key in trees:
            return trees[key]
        tree = trees[key] = {}
        if depth >= top:
            return tree
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            for r in rows[v]:
                rbit = 1 << r
                if used & rbit:
                    continue
                if wins(requested | bit, used | rbit, depth + 1):
                    tree[v] = {"pick": r, "next": build_tree(
                        requested | bit, used | rbit, depth + 1)}
                    break
        return tree

    if wins(0, 0, 0):
        return GameResult(True, build_tree(0, 0, 0), nodes)
    return GameResult(False, None, nodes)


@dataclass
class SequenceSweep:
    sequences: int
    first_rejection: list[int] | None
    first_audit_violation: tuple[list[int], AuditViolation] | None
    # nodes the walk stepped through, and subtrees counted from the cache
    # of passing states instead; neither takes part in equality
    visited: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.first_rejection is None and self.first_audit_violation is None


def exhaustive_online_check(lg: LayeredGraph, capacity: int,
                            limits: Limits | None = None) -> SequenceSweep:
    """Run the greedy engine over every sequence of distinct left vertices
    of length <= capacity, sharing prefixes depth-first with undo.

    Each prefix is itself a complete request stream, so rejection-freedom
    and the half-rejection audit are checked at every node of the tree.
    The search stops at the first node that fails either check.

    The engine's future depends only on the requested set, the used set,
    `reached` and `forwarded`. Before any rejection the last two are
    counts of used right vertices by layer (a request reached every layer
    up to the one it was served in, and was forwarded past those below
    it), so the two sets, held as int bitmasks, key the state. A node
    whose state already headed a subtree that passed throughout is not
    descended: its subtree's sequences are counted in closed form. Only
    passing subtrees are cached, so the first failing node, its prefix and
    `sequences` are those of the full walk. `limits.subset_nodes` bounds
    the nodes stepped through.
    """
    limits = limits or default_limits()
    budget = limits.subset_nodes
    nleft = lg.graph.left_size
    session = MatchingSession(lg, capacity)
    step, undo = session._step, session._undo
    top = min(capacity, nleft)
    # below[j]: sequences strictly below a node at depth j
    below = [sum(math.perm(nleft - j, i) for i in range(1, top - j + 1))
             for j in range(top + 1)]
    passed: set[tuple[int, int]] = set()
    sweep = SequenceSweep(0, None, None)
    visited = sequences = hits = 0

    def dfs(requested: int, used: int, depth: int) -> bool:
        nonlocal visited, sequences, hits
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            if visited == budget:
                raise LimitExceeded(
                    f"sequence tree exceeds {budget} nodes: visited "
                    f"{visited} nodes, counted {sequences} sequences, "
                    f"cached {len(passed)} passing states")
            r = step(v)
            visited += 1
            sequences += 1
            if r is None:
                sweep.first_rejection = list(session._order)
            violation = half_rejection_audit(session)
            if violation is not None:
                sweep.first_audit_violation = (list(session._order), violation)
            ok = r is not None and violation is None
            if ok and depth + 1 < top:
                key = (requested | bit, used | 1 << r)
                if key in passed:
                    hits += 1
                    sequences += below[depth + 1]
                else:
                    ok = dfs(*key, depth + 1)
                    if ok:
                        passed.add(key)
            undo()
            if not ok:
                return False
        return True

    if top > 0:
        dfs(0, 0, 0)
    sweep.sequences, sweep.visited, sweep.memo_hits = sequences, visited, hits
    return sweep
